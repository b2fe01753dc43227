"""Embedded-surface chart catalog.

A chart is an immersion F(u, v) -> R^3 with analytic first and second
derivatives. Metric, Christoffel symbols and Gauss curvature are derived
from these by the manifold layer; charts only know their own geometry.
Evaluators return plain tuples because they sit inside integrator loops.
"""

from __future__ import annotations

import math

from .errors import ConfigError, OutOfDomainError

__all__ = [
    "SurfaceChart",
    "SphereChart",
    "EllipsoidChart",
    "PseudosphereChart",
    "GraphChart",
    "PlaneChart",
    "ParaboloidChart",
    "HillyChart",
    "chart_from_config",
]


class SurfaceChart:
    """Base immersion. Subclasses fill in point/du/dv/duu/duv/dvv."""

    name = "chart"
    # ((umin, umax), (vmin, vmax)); None means unbounded on that side.
    domain = ((None, None), (None, None))

    def point(self, u, v):
        raise NotImplementedError

    def du(self, u, v):
        raise NotImplementedError

    def dv(self, u, v):
        raise NotImplementedError

    def duu(self, u, v):
        raise NotImplementedError

    def duv(self, u, v):
        raise NotImplementedError

    def dvv(self, u, v):
        raise NotImplementedError

    def check_domain(self, u, v):
        if not self.contains(u, v):
            raise OutOfDomainError(f"{self.name}: ({u!r}, {v!r}) outside "
                                   f"domain {self.domain}")

    def contains(self, u, v):
        (ulo, uhi), (vlo, vhi) = self.domain
        if (ulo is not None and u < ulo) or (uhi is not None and u > uhi):
            return False
        if (vlo is not None and v < vlo) or (vhi is not None and v > vhi):
            return False
        return True

    def gauss_range(self, rect):
        """Exact curvature range over rect = ((u0,u1),(v0,v1)), or None.

        Charts without a closed-form range return None and the caller falls
        back to grid certification.
        """
        return None


class SphereChart(SurfaceChart):
    """Round sphere of given radius, (colatitude, longitude) parameters."""

    def __init__(self, radius=1.0):
        if radius <= 0:
            raise ConfigError("sphere radius must be positive")
        self.radius = float(radius)
        self.name = f"sphere(R={radius:g})"
        self.domain = ((0.0, math.pi), (None, None))

    def point(self, u, v):
        r = self.radius
        return (r * math.sin(u) * math.cos(v),
                r * math.sin(u) * math.sin(v),
                r * math.cos(u))

    def du(self, u, v):
        r = self.radius
        return (r * math.cos(u) * math.cos(v),
                r * math.cos(u) * math.sin(v),
                -r * math.sin(u))

    def dv(self, u, v):
        r = self.radius
        return (-r * math.sin(u) * math.sin(v),
                r * math.sin(u) * math.cos(v),
                0.0)

    def duu(self, u, v):
        r = self.radius
        return (-r * math.sin(u) * math.cos(v),
                -r * math.sin(u) * math.sin(v),
                -r * math.cos(u))

    def duv(self, u, v):
        r = self.radius
        return (-r * math.cos(u) * math.sin(v),
                r * math.cos(u) * math.cos(v),
                0.0)

    def dvv(self, u, v):
        r = self.radius
        return (-r * math.sin(u) * math.cos(v),
                -r * math.sin(u) * math.sin(v),
                0.0)

    def gauss_range(self, rect):
        k = 1.0 / self.radius ** 2
        return (k, k)


class EllipsoidChart(SurfaceChart):
    """Ellipsoid with semi-axes (a, b, c), same angular parameters as the sphere."""

    def __init__(self, a=1.0, b=1.0, c=1.0):
        if min(a, b, c) <= 0:
            raise ConfigError("ellipsoid semi-axes must be positive")
        self.a, self.b, self.c = float(a), float(b), float(c)
        self.name = f"ellipsoid({a:g},{b:g},{c:g})"
        self.domain = ((0.0, math.pi), (None, None))

    def point(self, u, v):
        return (self.a * math.sin(u) * math.cos(v),
                self.b * math.sin(u) * math.sin(v),
                self.c * math.cos(u))

    def du(self, u, v):
        return (self.a * math.cos(u) * math.cos(v),
                self.b * math.cos(u) * math.sin(v),
                -self.c * math.sin(u))

    def dv(self, u, v):
        return (-self.a * math.sin(u) * math.sin(v),
                self.b * math.sin(u) * math.cos(v),
                0.0)

    def duu(self, u, v):
        return (-self.a * math.sin(u) * math.cos(v),
                -self.b * math.sin(u) * math.sin(v),
                -self.c * math.cos(u))

    def duv(self, u, v):
        return (-self.a * math.cos(u) * math.sin(v),
                self.b * math.cos(u) * math.cos(v),
                0.0)

    def dvv(self, u, v):
        return (-self.a * math.sin(u) * math.cos(v),
                -self.b * math.sin(u) * math.sin(v),
                0.0)

    def gauss_range(self, rect):
        # Closed form only for the revolution case: K = c^2 / (cos^2 u + c^2 sin^2 u)^2
        # on the unit-equator spheroid, monotone in sin^2 u.
        if not (self.a == self.b == 1.0):
            return None
        (u0, u1), _ = rect
        c2 = self.c ** 2

        def kval(u):
            e = math.cos(u) ** 2 + c2 * math.sin(u) ** 2
            return c2 / e ** 2

        s0, s1 = math.sin(u0) ** 2, math.sin(u1) ** 2
        smax = max(s0, s1)
        smin = min(s0, s1)
        if (u0 - math.pi / 2) * (u1 - math.pi / 2) <= 0:
            smax = 1.0  # rect straddles the equator
        us_min = math.asin(math.sqrt(smin))
        us_max = math.asin(math.sqrt(smax))
        vals = (kval(us_min), kval(us_max))
        return (min(vals), max(vals))


class PseudosphereChart(SurfaceChart):
    """Tractroid of pseudoradius a: constant Gauss curvature -1/a^2.

    The surface degenerates along u -> 0 (the rim); simulations must keep
    clear of it, the metric determinant check aborts otherwise.
    """

    def __init__(self, a=1.0):
        if a <= 0:
            raise ConfigError("pseudosphere scale must be positive")
        self.a = float(a)
        self.name = f"pseudosphere(a={a:g})"
        self.domain = ((0.0, None), (None, None))

    def point(self, u, v):
        a = self.a
        se = 1.0 / math.cosh(u)
        return (a * se * math.cos(v), a * se * math.sin(v),
                a * (u - math.tanh(u)))

    def du(self, u, v):
        a = self.a
        se, ta = 1.0 / math.cosh(u), math.tanh(u)
        return (-a * se * ta * math.cos(v), -a * se * ta * math.sin(v),
                a * ta * ta)

    def dv(self, u, v):
        a = self.a
        se = 1.0 / math.cosh(u)
        return (-a * se * math.sin(v), a * se * math.cos(v), 0.0)

    def duu(self, u, v):
        a = self.a
        se, ta = 1.0 / math.cosh(u), math.tanh(u)
        c = se * (ta * ta - se * se)
        return (a * c * math.cos(v), a * c * math.sin(v),
                2.0 * a * ta * se * se)

    def duv(self, u, v):
        a = self.a
        se, ta = 1.0 / math.cosh(u), math.tanh(u)
        return (a * se * ta * math.sin(v), -a * se * ta * math.cos(v), 0.0)

    def dvv(self, u, v):
        a = self.a
        se = 1.0 / math.cosh(u)
        return (-a * se * math.cos(v), -a * se * math.sin(v), 0.0)

    def gauss_range(self, rect):
        k = -1.0 / self.a ** 2
        return (k, k)


class GraphChart(SurfaceChart):
    """Graph surface z = f(u, v) built from coefficient tables.

    poly terms: (i, j, c) contributing c * u^i * v^j;
    sinsin terms: (A, wu, pu, wv, pv) contributing A sin(wu*u+pu) sin(wv*v+pv).
    """

    name = "graph"

    def __init__(self, poly=(), sinsin=(), domain=((None, None), (None, None))):
        self.poly = [(int(i), int(j), float(c)) for (i, j, c) in poly]
        self.sinsin = [tuple(float(x) for x in t) for t in sinsin]
        for t in self.sinsin:
            if len(t) != 5:
                raise ConfigError("sinsin term must be (A, wu, pu, wv, pv)")
        self.domain = domain

    def _f(self, u, v, du=0, dv=0):
        # du, dv are derivative orders (0..2 each)
        val = 0.0
        for i, j, c in self.poly:
            if du > i or dv > j:
                continue
            cu, e_u = 1.0, i
            for _ in range(du):
                cu *= e_u
                e_u -= 1
            cv, e_v = 1.0, j
            for _ in range(dv):
                cv *= e_v
                e_v -= 1
            val += c * cu * cv * (u ** e_u) * (v ** e_v)
        for amp, wu, pu, wv, pv in self.sinsin:
            su = math.sin(wu * u + pu) if du % 2 == 0 else math.cos(wu * u + pu)
            sv = math.sin(wv * v + pv) if dv % 2 == 0 else math.cos(wv * v + pv)
            sgn = (-1.0) ** (du // 2) * (-1.0) ** (dv // 2)
            val += amp * sgn * (wu ** du) * (wv ** dv) * su * sv
        return val

    def point(self, u, v):
        return (u, v, self._f(u, v))

    def du(self, u, v):
        return (1.0, 0.0, self._f(u, v, du=1))

    def dv(self, u, v):
        return (0.0, 1.0, self._f(u, v, dv=1))

    def duu(self, u, v):
        return (0.0, 0.0, self._f(u, v, du=2))

    def duv(self, u, v):
        return (0.0, 0.0, self._f(u, v, du=1, dv=1))

    def dvv(self, u, v):
        return (0.0, 0.0, self._f(u, v, dv=2))


class PlaneChart(GraphChart):
    """Flat plane as the trivial graph z = 0."""

    name = "plane"

    def __init__(self):
        super().__init__()

    def gauss_range(self, rect):
        return (0.0, 0.0)


class ParaboloidChart(GraphChart):
    """Paraboloid z = u^2 + v^2."""

    def __init__(self):
        super().__init__(poly=[(2, 0, 1.0), (0, 2, 1.0)])
        self.name = "paraboloid"

    def gauss_range(self, rect):
        # K = 4 / (1 + 4 r^2)^2, monotone decreasing in r^2 = u^2 + v^2.
        (u0, u1), (v0, v1) = rect

        def nearest(lo, hi):
            if lo <= 0.0 <= hi:
                return 0.0
            return lo if abs(lo) < abs(hi) else hi

        r2min = nearest(u0, u1) ** 2 + nearest(v0, v1) ** 2
        r2max = max(u0 ** 2, u1 ** 2) + max(v0 ** 2, v1 ** 2)
        kof = lambda r2: 4.0 / (1.0 + 4.0 * r2) ** 2
        return (kof(r2max), kof(r2min))


class HillyChart(GraphChart):
    """Oscillating graph z = A sin(w u) sin(w v)."""

    def __init__(self, amplitude=0.5, frequency=1.0):
        super().__init__(sinsin=[(float(amplitude), float(frequency), 0.0,
                                  float(frequency), 0.0)])
        self.name = f"hilly(A={amplitude:g},w={frequency:g})"


_CATALOG = {
    "plane": PlaneChart,
    "sphere": SphereChart,
    "ellipsoid": EllipsoidChart,
    "pseudosphere": PseudosphereChart,
    "paraboloid": ParaboloidChart,
    "hilly": HillyChart,
    "graph": GraphChart,
}


def chart_from_config(spec):
    """Build a chart from a config mapping {'name': ..., params...}."""
    if isinstance(spec, str):
        spec = {"name": spec}
    if "name" not in spec:
        raise ConfigError("chart spec needs a 'name' field")
    name = spec["name"]
    if name not in _CATALOG:
        raise ConfigError(
            f"unknown chart {name!r}; available: {sorted(_CATALOG)}")
    kwargs = {k: v for k, v in spec.items() if k != "name"}
    if name == "graph" and "domain" in kwargs:
        (u0, u1), (v0, v1) = kwargs["domain"]
        kwargs["domain"] = ((u0, u1), (v0, v1))
    try:
        return _CATALOG[name](**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for chart {name!r}: {exc}") from exc
