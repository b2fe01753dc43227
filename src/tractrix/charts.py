"""Embedded-surface chart catalog.

A chart is an immersion F(u, v) -> R^3 given by two evaluators: `point`,
the position, and `jet`, its first and second partial derivatives in one
call, plus its geodesic spray: `spray` gives the acceleration
-Gamma(x', x') and the Gauss curvature K at a point, the right-hand side of
every geodesic shot, on floats and on rows. The base spray derives both
from the jet, through E, F, G and the second fundamental form; graph
charts z = f(u, v) override it with the closed forms in f's derivatives,
and surfaces of revolution (the sphere, the spheroid, the pseudosphere)
with the closed forms in their profile curve's. The spray is the only
source of K: a tractrix record's pole shot keeps the least and greatest
value it returns, the curvature window that the comparison checks use.
The manifold layer derives everything else (the metric and Christoffel
symbols at given points, transport) from the jet. Evaluators return
plain tuples because they sit inside integrator loops.

`jet` and `spray` are written once against a math namespace `xp`: `math`,
the default, for floats, `numpy` for arrays u, v of one shape, whose
entries are then arrays, or floats that broadcast where they do not depend
on the point.

A closed-form spray is written once, as text: the lines that give a
chart's derivatives at a point (a graph chart's five slopes, from its
coefficient tables by `_graph_source`; a surface of revolution's profile,
its constants written in), then the class's formulas. From that text each
instance gets its `spray` method, on floats and rows, the `_height` or
`profile` method that shares the derivative lines, and `spray_text`, the
float spray of one RK4 stage that `manifold` writes inline into its shot
kernel and tractrix stage, so a float shot on such a chart makes no call
per stage. A graph chart also gets `jet_text`, its float jet, which the
tractrix stage writes in at the tractor point. Every text runs through
`compiled`, which executes each distinct text once per process. Only the
`repr` of validated floats enters the text, and a graph's sums round as a
term-by-term loop does. The text is folded exactly, so that CPython's
constant folding does at compile time what the same IEEE arithmetic
would do at run time: a graph slope that does not depend on the point is
written into the formulas and the jet as its literal, one equal to an
earlier slope as that slope's name (`_fold`), and a profile's scale of 1
or -1 as nothing or a negation (`_scaled`). Every spray tests the domain
against `box` inline, not through `contains`, and a derivative that
overflows a float raises SingularChartError naming the point.
"""

from __future__ import annotations

import math
import re
import sys
import types
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigError,
    DomainExitError,
    OutOfDomainError,
    SingularChartError,
)

__all__ = [
    "SurfaceChart",
    "RevolutionChart",
    "SphereChart",
    "EllipsoidChart",
    "PseudosphereChart",
    "GraphChart",
    "PlaneChart",
    "ParaboloidChart",
    "HillyChart",
    "chart_from_config",
]


# a metric determinant E G - F^2 below this is singular
DET_EPS = 1e-12
# the bound of an unbounded side: a NaN or infinite coordinate fails
# lo <= u <= hi against it
_FAR = sys.float_info.max


def _domain_side(side):
    """(lo, hi) of one side of a chart domain: each None (unbounded) or a
    finite number, and lo < hi where both are given."""
    try:
        lo, hi = (None if x is None else float(x) for x in side)
    except (TypeError, ValueError, OverflowError):
        lo = hi = math.nan
    if not (all(x is None or math.isfinite(x) for x in (lo, hi))
            and (lo is None or hi is None or lo < hi)):
        raise ConfigError(f"chart domain side {side!r} must be (lo, hi), "
                          "each a finite number or None, with lo < hi")
    return lo, hi


def singular_metric(chart, u, v):
    return SingularChartError(
        f"{chart.name}: metric singular at ({float(u)!r}, {float(v)!r})")


def _overflow(chart, *point):
    at = ", ".join(repr(float(x)) for x in point)
    return SingularChartError(
        f"{chart.name}: the {chart._derived} overflows a float at ({at})")


# the names that generated code reads: the charts' own, and math and numpy
# for the shot kernels that `manifold` writes around `spray_text`
_SCOPE = {"math": math, "np": np, "DET_EPS": DET_EPS,
          "singular_metric": singular_metric, "_overflow": _overflow}


@lru_cache(maxsize=128)
def compiled(source):
    """The functions that `source` defines, executed once per distinct
    text in a process, with `_SCOPE` for their globals."""
    names = {}
    exec(source, dict(_SCOPE), names)
    return names


def _guarded(lines, at):
    """lines in a try whose overflow raises SingularChartError at `at`;
    no lines need no try."""
    if not lines:
        return []
    return ["try:", *_indent(lines, 1), "except (OverflowError, ValueError):",
            f"    raise _overflow(self, {at}) from None"]


def _indent(lines, depth):
    return [" " * (4 * depth) + line for line in lines]


# the singular-metric test of a float spray, left out on rows
_SINGULAR = "if det < DET_EPS: raise singular_metric(self, {u}, {v})"


class SurfaceChart:
    """Base immersion. Subclasses fill in `point` and `jet`."""

    name = "chart"
    _domain = ((None, None), (None, None))
    # the domain as (umin, umax, vmin, vmax), unbounded sides at -+_FAR
    box = (-_FAR, _FAR, -_FAR, _FAR)
    # the float spray of one RK4 stage as text, for the shot kernel of
    # `manifold`: (lines run once per shot, lines run per stage), the
    # latter with {u}, {v}, {a}, {b} for the stage's point and velocity and
    # {A}, {B}, {K} for the names it sets; None where the kernel calls
    # `spray` instead
    spray_text = None
    # the float jet as text, for the tractrix stage of `manifold`: (lines
    # with {u} and {v} for the point, run after the `spray_text` setup,
    # the jet's 5 x 3 entries as expressions in the names they set); None
    # where the stage calls `jet` instead
    jet_text = None
    # a closed-form spray's formulas after the derivative lines, with
    # _SINGULAR where the metric determinant `det` can be singular
    _FORMULAS = ()

    @property
    def domain(self):
        """((umin, umax), (vmin, vmax)); None means unbounded on that side."""
        return self._domain

    @domain.setter
    def domain(self, domain):
        (ulo, uhi), (vlo, vhi) = self._domain = tuple(
            map(_domain_side, domain))
        self.box = tuple(float(far if x is None else x) for x, far in (
            (ulo, -_FAR), (uhi, _FAR), (vlo, -_FAR), (vhi, _FAR)))

    def point(self, u, v):
        """F(u, v) as a 3-tuple."""
        raise NotImplementedError

    def jet(self, u, v, xp=math):
        """(F_u, F_v, F_uu, F_uv, F_vv) at (u, v), each a 3-tuple; xp is
        `math` for floats and `numpy` for arrays (module docstring)."""
        raise NotImplementedError

    def check_domain(self, u, v):
        if not self.contains(u, v):
            raise OutOfDomainError(f"{self.name}: ({u!r}, {v!r}) outside "
                                   f"domain {self.domain}")

    def contains(self, u, v):
        ulo, uhi, vlo, vhi = self.box
        return ulo <= u <= uhi and vlo <= v <= vhi

    def _exit(self, u, v):
        return DomainExitError(f"{self.name}: geodesic left the chart domain",
                               point=(u, v))

    def spray(self, u, v, a, b, xp=math):
        """(acc_u, acc_v, K): the geodesic acceleration -Gamma(x', x') for
        the velocity x' = (a, b) at (u, v), and the Gauss curvature there,
        from one jet. On floats it raises DomainExitError outside the
        domain and SingularChartError where the metric is singular, before
        any division. On rows (xp numpy) it checks nothing and returns the
        metric determinant as a fourth entry, for the caller to check every
        row against DET_EPS."""
        if xp is math:
            ulo, uhi, vlo, vhi = self.box
            if not (ulo <= u <= uhi and vlo <= v <= vhi):
                raise self._exit(u, v)
        # unpacked once: indexing the tuples term by term costs more
        ((xu, yu, zu), (xv, yv, zv), (xuu, yuu, zuu), (xuv, yuv, zuv),
         (xvv, yvv, zvv)) = self.jet(u, v, xp)
        E = xu * xu + yu * yu + zu * zu
        F = xu * xv + yu * yv + zu * zv
        G = xv * xv + yv * yv + zv * zv
        det = E * G - F * F
        if xp is math and det < DET_EPS:
            raise singular_metric(self, u, v)
        iuu, iuv, ivv = G / det, -F / det, E / det
        cu1 = xuu * xu + yuu * yu + zuu * zu
        cu2 = xuu * xv + yuu * yv + zuu * zv
        cm1 = xuv * xu + yuv * yu + zuv * zu
        cm2 = xuv * xv + yuv * yv + zuv * zv
        cv1 = xvv * xu + yvv * yu + zvv * zu
        cv2 = xvv * xv + yvv * yv + zvv * zv
        g1uu, g2uu = iuu * cu1 + iuv * cu2, iuv * cu1 + ivv * cu2
        g1uv, g2uv = iuu * cm1 + iuv * cm2, iuv * cm1 + ivv * cm2
        g1vv, g2vv = iuu * cv1 + iuv * cv2, iuv * cv1 + ivv * cv2
        acc_u = -(g1uu * a * a + 2.0 * g1uv * a * b + g1vv * b * b)
        acc_v = -(g2uu * a * a + 2.0 * g2uv * a * b + g2vv * b * b)
        # K = (L N - M^2) / det against the unit normal; the unnormalized
        # n = F_u x F_v has |n|^2 = det, so no square root is needed
        nx, ny, nz = yu * zv - zu * yv, zu * xv - xu * zv, xu * yv - yu * xv
        L = xuu * nx + yuu * ny + zuu * nz
        M = xuv * nx + yuv * ny + zuv * nz
        N = xvv * nx + yvv * ny + zvv * nz
        K = (L * N - M * M) / (det * det)
        return (acc_u, acc_v, K) if xp is math else (acc_u, acc_v, K, det)

    def _compile(self, setup, derivs, extra, formulas):
        """Generate the closed-form spray from the derivative lines: bind
        `spray`, set `spray_text`, and return the functions of `extra`, the
        source of further methods, each bound to the chart.

        setup binds names once per call from `xp`; derivs, with {u} and
        {v} for the point, set the names that `formulas`, the class's
        `_FORMULAS` as the chart writes them, read. On floats the spray
        tests the domain, then forms the derivatives and the formulas; on
        rows it leaves the tests to its caller and returns `det` as a
        fourth entry.
        """
        stage = ["if not (ulo <= {u} <= uhi and vlo <= {v} <= vhi):",
                 "    raise self._exit({u}, {v})",
                 *_guarded(derivs, "{u}, {v}"), *formulas]
        rows = [*_guarded(derivs, "{u}, {v}"),
                *(line for line in formulas if line != _SINGULAR)]
        spray = "\n".join([
            "def spray(self, u, v, a, b, xp=math):", *_indent(setup, 1),
            "    if xp is math:", "        ulo, uhi, vlo, vhi = self.box",
            *_indent(stage, 2), "        return acc_u, acc_v, K",
            *_indent(rows, 1), "    return acc_u, acc_v, K, det", ""])
        names = compiled(spray.format(u="u", v="v", a="a", b="b", A="acc_u",
                                      B="acc_v", K="K") + extra)
        self.spray_text = ("\n".join(["ulo, uhi, vlo, vhi = self.box",
                                      *setup]), "\n".join(stage))
        self.spray = types.MethodType(names["spray"], self)
        return {name: types.MethodType(fn, self)
                for name, fn in names.items() if name != "spray"}


class RevolutionChart(SurfaceChart):
    """Surface of revolution F(u, v) = (r(u) cos v, r(u) sin v, z(u)).

    A subclass writes its profile as text (`_revolve`), from which the
    instance gets `profile` and the spray.
    """

    # what an overflow of the derivative lines names
    _derived = "profile"
    # with E = r'^2 + z'^2, F = 0 and G = r^2: Gamma^u_uu =
    # (r' r'' + z' z'') / E, Gamma^u_vv = -r r' / E, Gamma^v_uv = r' / r,
    # the others 0, and K = z' (r' z'' - r'' z') / (r E^2). The metric
    # determinant E r^2 guards every division, as E G - F^2 does in the
    # base spray
    _FORMULAS = (
        "E = r1 * r1 + z1 * z1",
        "det = E * r * r",
        _SINGULAR,
        "{A} = (r * r1 * {b} * {b} - (r1 * r2 + z1 * z2) * {a} * {a}) / E",
        "{B} = -2.0 * r1 * {a} * {b} / r",
        "{K} = z1 * (r1 * z2 - r2 * z1) / (r * E * E)")

    def profile(self, u, xp=math):
        """(r, r', r'', z', z'') of the profile curve at u."""
        raise NotImplementedError

    def _revolve(self, setup, derivs):
        """Bind `profile` and the spray generated from the profile's lines,
        which set r, r1, r2, z1 and z2 at {u}."""
        profile = "\n".join([
            "def profile(self, u, xp=math):", *_indent(setup, 1),
            *_indent(_guarded(derivs, "u"), 1),
            "    return r, r1, r2, z1, z2", ""]).format(u="u")
        self.profile = self._compile(setup, derivs, profile,
                                     self._FORMULAS)["profile"]


def _scaled(factor, expr):
    """The text of factor * expr, a profile's scale written in: nothing
    for 1.0 and a negation for -1.0, which round as the product does."""
    if factor == 1.0:
        return expr
    if factor == -1.0:
        return f"-{expr}"
    return f"{factor!r} * {expr}"


class EllipsoidChart(RevolutionChart):
    """Ellipsoid with semi-axes (a, b, c), angular parameters as the sphere's.

    A spheroid (a == b) is a surface of revolution with the profile
    r = a sin u, z = c cos u; a triaxial ellipsoid has no profile and takes
    the base spray, from the jet.
    """

    def __init__(self, a=1.0, b=1.0, c=1.0):
        if min(a, b, c) <= 0:
            raise ConfigError("ellipsoid semi-axes must be positive")
        self.a, self.b, self.c = float(a), float(b), float(c)
        self.name = f"ellipsoid({a:g},{b:g},{c:g})"
        self.domain = ((0.0, math.pi), (None, None))
        if self.a == self.b:
            a, c = self.a, self.c
            self._revolve(["sin, cos = xp.sin, xp.cos"], [
                "su = sin({u})", "cu = cos({u})", f"r = {_scaled(a, 'su')}",
                f"r1 = {_scaled(a, 'cu')}", f"r2 = {_scaled(-a, 'su')}",
                f"z1 = {_scaled(-c, 'su')}", f"z2 = {_scaled(-c, 'cu')}"])

    def point(self, u, v):
        return (self.a * math.sin(u) * math.cos(v),
                self.b * math.sin(u) * math.sin(v),
                self.c * math.cos(u))

    def jet(self, u, v, xp=math):
        a, b, c = self.a, self.b, self.c
        su, cu, sv, cv = xp.sin(u), xp.cos(u), xp.sin(v), xp.cos(v)
        return ((a * cu * cv, b * cu * sv, -c * su),
                (-a * su * sv, b * su * cv, 0.0),
                (-a * su * cv, -b * su * sv, -c * cu),
                (-a * cu * sv, b * cu * cv, 0.0),
                (-a * su * cv, -b * su * sv, 0.0))


class SphereChart(EllipsoidChart):
    """Round sphere of given radius, (colatitude, longitude) parameters: the
    ellipsoid with a = b = c = radius."""

    def __init__(self, radius=1.0):
        if radius <= 0:
            raise ConfigError("sphere radius must be positive")
        super().__init__(radius, radius, radius)
        self.radius = float(radius)
        self.name = f"sphere(R={radius:g})"


class PseudosphereChart(RevolutionChart):
    """Tractroid of pseudoradius a: constant Gauss curvature -1/a^2.

    The surface degenerates along u -> 0 (the rim); simulations must keep
    clear of it, the metric determinant check aborts otherwise. Far out,
    cosh u overflows a float, and the profile's overflow error names the
    point.
    """

    def __init__(self, a=1.0):
        if a <= 0:
            raise ConfigError("pseudosphere scale must be positive")
        self.a = a = float(a)
        self.name = f"pseudosphere(a={a:g})"
        self.domain = ((0.0, None), (None, None))
        self._revolve(["cosh, tanh = xp.cosh, xp.tanh"], [
            "se = 1.0 / cosh({u})", "ta = tanh({u})",
            f"r = {_scaled(a, 'se')}", f"r1 = {_scaled(-a, 'se * ta')}",
            f"r2 = {_scaled(a, 'se * (ta * ta - se * se)')}",
            f"z1 = {_scaled(a, 'ta * ta')}",
            f"z2 = 2.0 * {_scaled(a, 'ta * se * se')}"])

    def _sech(self, u, v, xp):
        try:
            return 1.0 / xp.cosh(u)
        except (OverflowError, ValueError):
            raise _overflow(self, u, v) from None

    def point(self, u, v):
        a = self.a
        se = self._sech(u, v, math)
        return (a * se * math.cos(v), a * se * math.sin(v),
                a * (u - math.tanh(u)))

    def jet(self, u, v, xp=math):
        a = self.a
        se, ta = self._sech(u, v, xp), xp.tanh(u)
        sv, cv = xp.sin(v), xp.cos(v)
        c = se * (ta * ta - se * se)
        return ((-a * se * ta * cv, -a * se * ta * sv, a * ta * ta),
                (-a * se * sv, a * se * cv, 0.0),
                (a * c * cv, a * c * sv, 2.0 * a * ta * se * se),
                (a * se * ta * sv, -a * se * ta * cv, 0.0),
                (-a * se * cv, -a * se * sv, 0.0))


# Derivative orders (du, dv) of the graph height: the value, then the jet.
_ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _poly_term(term):
    """(i, j, c) with integral exponents >= 0 and a finite coefficient."""
    try:
        i, j, c = (float(x) for x in term)
    except (TypeError, ValueError, OverflowError):
        i = j = c = math.nan
    if not (i.is_integer() and j.is_integer() and min(i, j) >= 0
            and math.isfinite(c)):
        raise ConfigError(f"graph poly term {term!r} must be (i, j, c) with "
                          "integral exponents >= 0 and a finite c")
    return int(i), int(j), c


def _sinsin_term(term):
    """(A, wu, pu, wv, pv), five finite numbers."""
    try:
        t = tuple(float(x) for x in term)
    except (TypeError, ValueError, OverflowError):
        t = ()
    if len(t) != 5 or not all(math.isfinite(x) for x in t):
        raise ConfigError(f"graph sinsin term {term!r} must be five finite "
                          "numbers (A, wu, pu, wv, pv)")
    return t


def _literal(x):
    """The repr of a finite coefficient; OverflowError for any other."""
    if not math.isfinite(x):
        raise OverflowError
    return repr(x)


def _graph_source(poly, sinsin):
    """(setup, angles, sums): the lines of a graph chart's height and its
    five slopes, with {u} and {v} for the point. setup binds sin and cos
    from xp, angles set each sinsin term's sines and cosines, and sums
    holds one straight-line sum per order in _ORDERS.

    A sum adds to 0.0, in table order, the poly terms and then the sinsin
    terms that the order keeps: c i^(du) j^(dv) u^(i-du) v^(j-dv), with
    falling factorials, and A (-1)^(du//2 + dv//2) wu^du wv^dv times sin or
    cos of each angle. u^0 is left out and u^1 written u, both exactly (v
    alike), and the other powers take a float exponent, which rounds as
    the int does. A coefficient that overflows raises OverflowError.
    """
    sums = [["0.0"] for _ in _ORDERS]
    setup = ["sin, cos = xp.sin, xp.cos"] if sinsin else []
    angles = []
    for i, j, c in poly:
        for terms, (du, dv) in zip(sums, _ORDERS):
            if du <= i and dv <= j:
                coef = (c * math.prod(range(i, i - du, -1), start=1.0)
                        * math.prod(range(j, j - dv, -1), start=1.0))
                terms.append(" * ".join([_literal(coef), *(
                    x if n == 1 else f"{x} ** {float(n)!r}"
                    for x, n in (("{u}", i - du), ("{v}", j - dv)) if n)]))
    for n, (amp, wu, pu, wv, pv) in enumerate(sinsin):
        angles += [f"au = {wu!r} * {{u}} + {pu!r}",
                   f"av = {wv!r} * {{v}} + {pv!r}",
                   f"su{n} = sin(au)", f"cu{n} = cos(au)",
                   f"sv{n} = sin(av)", f"cv{n} = cos(av)"]
        for terms, (du, dv) in zip(sums, _ORDERS):
            coef = (amp * ((-1.0) ** (du // 2) * (-1.0) ** (dv // 2))
                    * wu ** du * wv ** dv)
            terms.append(f"{_literal(coef)} * {'sc'[du % 2]}u{n} * "
                         f"{'sc'[dv % 2]}v{n}")
    return setup, angles, [" + ".join(terms) for terms in sums]


# the names that a graph's slope lines set, one per derivative order after
# the height's
_SLOPES = ("fu", "fv", "fuu", "fuv", "fvv")
_SLOPE_NAME = re.compile(rf"\b(?:{'|'.join(_SLOPES)})\b")


def _fold(sums):
    """(lines, refs) of a graph's slope sums, one per name in _SLOPES:
    refs maps each name to what the formulas write in its place.

    A sum that does not depend on the point is written as the literal of
    its value, so that CPython folds the formulas' products of constants,
    with the same IEEE arithmetic as at run time. A sum equal to an
    earlier one is written as that one's name. Any other sum is a line
    that sets its name.
    """
    lines, refs, named = [], {}, {}
    for name, total in zip(_SLOPES, sums):
        value = (eval(total, {"__builtins__": {}})
                 if not compile(total, "<slope>", "eval").co_names
                 else math.nan)
        if math.isfinite(value):
            refs[name] = (repr(value) if math.copysign(1.0, value) > 0.0
                          else f"({value!r})")
        elif total in named:
            refs[name] = named[total]
        else:
            named[total] = refs[name] = name
            lines.append(f"{name} = {total}")
    return lines, refs


class GraphChart(SurfaceChart):
    """Graph surface z = f(u, v) built from coefficient tables.

    poly terms: (i, j, c) contributing c * u^i * v^j;
    sinsin terms: (A, wu, pu, wv, pv) contributing A sin(wu*u+pu) sin(wv*v+pv).
    Both tables are written once as lines (`_graph_source`), from which the
    instance gets `_height`, f and its slopes of every order in _ORDERS for
    `point` and `jet`, and the spray.
    """

    name = "graph"
    _derived = "height"
    # with W = 1 + f_u^2 + f_v^2, the metric's det: Gamma^k_ij = f_k f_ij / W
    # and K = (f_uu f_vv - f_uv^2) / W^2. W >= 1, so the metric is never
    # singular
    _FORMULAS = (
        "det = 1.0 + fu * fu + fv * fv",
        "hess = (fuu * {a} * {a} + 2.0 * fuv * {a} * {b} + fvv * {b} * {b})"
        " / det",
        "{K} = (fuu * fvv - fuv * fuv) / (det * det)",
        "{A} = -fu * hess",
        "{B} = -fv * hess")

    def __init__(self, poly=(), sinsin=(), domain=((None, None), (None, None))):
        poly, sinsin = list(map(_poly_term, poly)), list(map(_sinsin_term,
                                                             sinsin))
        try:
            setup, angles, sums = _graph_source(poly, sinsin)
        except OverflowError:
            raise ConfigError(f"graph terms {poly!r}, {sinsin!r}: a "
                              "derivative's coefficient overflows a float"
                              ) from None
        height = "\n".join([
            "def _height(self, u, v, xp):", *_indent(setup, 1),
            *_indent(_guarded([*angles, f"return ({', '.join(sums)})"],
                              "u, v"), 1), ""]).format(u="u", v="v")
        slopes, refs = _fold(sums[1:])
        formulas = [_SLOPE_NAME.sub(lambda m: refs[m[0]], line)
                    for line in self._FORMULAS]
        self._height = self._compile(setup, [*angles, *slopes], height,
                                     formulas)["_height"]
        # the jet computes f as `_height` does, unused but for its overflow
        self.jet_text = (
            "\n".join(_guarded([*angles, f"f = {sums[0]}", *slopes],
                               "{u}, {v}")),
            (("1.0", "0.0", refs["fu"]), ("0.0", "1.0", refs["fv"]),
             *(("0.0", "0.0", refs[name]) for name in ("fuu", "fuv", "fvv"))))
        self.domain = domain

    def point(self, u, v):
        return (u, v, self._height(u, v, math)[0])

    def jet(self, u, v, xp=math):
        _, zu, zv, zuu, zuv, zvv = self._height(u, v, xp)
        return ((1.0, 0.0, zu), (0.0, 1.0, zv), (0.0, 0.0, zuu),
                (0.0, 0.0, zuv), (0.0, 0.0, zvv))


class PlaneChart(GraphChart):
    """Flat plane as the trivial graph z = 0."""

    name = "plane"

    def __init__(self):
        super().__init__()


class ParaboloidChart(GraphChart):
    """Paraboloid z = u^2 + v^2."""

    def __init__(self):
        super().__init__(poly=[(2, 0, 1.0), (0, 2, 1.0)])
        self.name = "paraboloid"


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
    try:
        return _CATALOG[name](**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for chart {name!r}: {exc}") from exc
