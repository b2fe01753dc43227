"""Embedded-surface chart catalog.

A chart is an immersion F(u, v) -> R^3 with an evaluator `point`, the
position, and its geometry written once, as text: the lines that give its
derivatives at a point, and its jet, the first and second partial
derivatives (F_u, F_v, F_uu, F_uv, F_vv), as names that those lines set
or as literals. A graph chart z = f(u, v) writes f's slopes, from its
coefficient tables (`_graph_source`); a surface of revolution (the
sphere, the spheroid, the pseudosphere) writes its profile curve, with
its constants written in, and the jet in the profile's derivatives; a
triaxial ellipsoid writes its jet. From that text (`SurfaceChart._compile`)
each instance gets

- `jet`, the jet at a point, in one call;
- `spray`, the geodesic acceleration -Gamma(x', x') and the Gauss
  curvature K at a point, the right-hand side of every geodesic shot.
  Graph charts and surfaces of revolution write it in closed form in
  their slopes or profile (`_FORMULAS`); any other chart takes the
  generic formulas on its jet (`_jet_formulas`): the first form, the
  Christoffel contractions and K from the second fundamental form. The
  spray is the only source of K: a tractrix record's pole shot keeps the
  least and greatest value it returns, the curvature window that the
  comparison checks use;
- `spray_text` and `jet_text`, the float spray of one RK4 stage and the
  float jet, which `manifold` writes inline into its shot kernel and its
  tractrix stage, so that a float shot makes no call per stage.

The manifold layer derives the metric and Christoffel symbols at given
points from the jet, with the arithmetic that `_first_form_lines` and
`_christoffel_lines` write out. Evaluators return plain tuples because
they sit inside integrator loops.

`jet` and `spray` run against a math namespace `xp`: `math`, the default,
for floats, `numpy` for arrays u, v of one shape, whose entries are then
arrays, or floats that broadcast where they do not depend on the point.

Every text runs through `compiled`, which executes each distinct text
once per process. Only the `repr` of validated floats enters the text,
and a graph's sums round as a term-by-term loop does. The text is folded
exactly, so that CPython's constant folding does at compile time what the
same IEEE arithmetic would do at run time: a graph slope that does not
depend on the point is written into the formulas and the jet as its
literal, one equal to an earlier slope as that slope's name (`_fold`), a
jet entry that is 0 as the literal 0.0, and a profile's scale of 1 or -1
as nothing or a negation (`_scaled`). Every spray tests the domain
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


# the singular-metric test of det with the suffix {tag} at the point {at}
_SINGULAR_AT = "if det{tag} < DET_EPS: raise singular_metric(self, {at})"
# a float spray's, left out on rows
_SINGULAR = _SINGULAR_AT.format(tag="", at="{u}, {v}")


def _first_form_lines(jet, tag, at):
    """Lines that set E, F, G and det = E G - F^2, each with the suffix
    tag, from the jet entries `jet`, then test det at the point `at`
    (_SINGULAR_AT): the arithmetic of `manifold._first_form`, in its
    order."""
    (xu, yu, zu), (xv, yv, zv) = jet[:2]
    return [f"E{tag} = {xu} * {xu} + {yu} * {yu} + {zu} * {zu}",
            f"F{tag} = {xu} * {xv} + {yu} * {yv} + {zu} * {zv}",
            f"G{tag} = {xv} * {xv} + {yv} * {yv} + {zv} * {zv}",
            f"det{tag} = E{tag} * G{tag} - F{tag} * F{tag}",
            _SINGULAR_AT.format(tag=tag, at=at)]


def _christoffel_lines(jet, tag):
    """Lines after `_first_form_lines` that set Gamma^u_ij and Gamma^v_ij
    as g1ij and g2ij (ij = uu, uv, vv), each with the suffix tag: the
    arithmetic of `manifold._christoffel`, in its order."""
    (xu, yu, zu), (xv, yv, zv) = jet[:2]
    lines = [f"iuu{tag} = G{tag} / det{tag}", f"iuv{tag} = -F{tag} / det{tag}",
             f"ivv{tag} = E{tag} / det{tag}"]
    for ij, (x, y, z) in zip(("uu", "uv", "vv"), jet[2:]):
        lines += [f"d1{tag} = {x} * {xu} + {y} * {yu} + {z} * {zu}",
                  f"d2{tag} = {x} * {xv} + {y} * {yv} + {z} * {zv}",
                  f"g1{ij}{tag} = iuu{tag} * d1{tag} + iuv{tag} * d2{tag}",
                  f"g2{ij}{tag} = iuv{tag} * d1{tag} + ivv{tag} * d2{tag}"]
    return lines


def _jet_formulas(jet):
    """The generic spray's formulas on the jet entries `jet`: the first
    form, the Christoffel contractions, the acceleration -Gamma(x', x'),
    and K = (L N - M^2) / det^2 from the second fundamental form against
    the unnormalized normal n = F_u x F_v, whose |n|^2 is det, so that no
    square root is needed."""
    ((xu, yu, zu), (xv, yv, zv), (xuu, yuu, zuu), (xuv, yuv, zuv),
     (xvv, yvv, zvv)) = jet
    return [
        *_first_form_lines(jet, "", "{u}, {v}"), *_christoffel_lines(jet, ""),
        "{A} = -(g1uu * {a} * {a} + 2.0 * g1uv * {a} * {b}"
        " + g1vv * {b} * {b})",
        "{B} = -(g2uu * {a} * {a} + 2.0 * g2uv * {a} * {b}"
        " + g2vv * {b} * {b})",
        f"nx = {yu} * {zv} - {zu} * {yv}", f"ny = {zu} * {xv} - {xu} * {zv}",
        f"nz = {xu} * {yv} - {yu} * {xv}",
        f"L = {xuu} * nx + {yuu} * ny + {zuu} * nz",
        f"M = {xuv} * nx + {yuv} * ny + {zuv} * nz",
        f"N = {xvv} * nx + {yvv} * ny + {zvv} * nz",
        "{K} = (L * N - M * M) / (det * det)"]


class SurfaceChart:
    """Base immersion. A subclass fills in `point` and writes its geometry
    as text (`_compile`), from which the instance gets `jet`, `spray`,
    `jet_text` and `spray_text`."""

    name = "chart"
    _domain = ((None, None), (None, None))
    # the domain as (umin, umax, vmin, vmax), unbounded sides at -+_FAR
    box = (-_FAR, _FAR, -_FAR, _FAR)
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

    def _compile(self, setup, derivs, jet, formulas, extra=""):
        """Generate the chart's evaluators from its text: bind `jet`,
        `spray` and the functions of `extra`, the source of further
        methods, to the chart, and set `jet_text` and `spray_text`.

        setup binds names once per call from `xp`. derivs, with {u} and {v}
        for the point, set the names that `formulas`, the spray's formulas
        as the chart writes them, read. jet is (lines, entries): lines
        that run after derivs, and the jet's 5 x 3 entries, each a name
        that derivs or those lines set, or a literal. An entry is never an
        expression, whose products in `_first_form_lines` would associate
        differently from the same products of its value.

        `jet(u, v, xp=math)` returns the jet as five 3-tuples.
        `spray(u, v, a, b, xp=math)` returns (acc_u, acc_v, K) for the
        velocity (a, b) at (u, v). On floats it raises DomainExitError
        outside the domain and SingularChartError where the metric is
        singular, before any division. On rows it checks nothing and
        returns the metric determinant `det` as a fourth entry, for the
        caller to check every row against DET_EPS.

        `spray_text` is (lines run once per shot, lines run per stage), the
        latter with {u}, {v}, {a}, {b} for the stage's point and velocity
        and {A}, {B}, {K} for the names it sets. `jet_text` is (lines with
        {u} and {v} for the point, run after the `spray_text` setup, the
        jet's entries).
        """
        lines, entries = jet
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
        jet_lines = _guarded([*derivs, *lines], "{u}, {v}")
        values = ", ".join(f"({', '.join(entry)})" for entry in entries)
        jet = "\n".join(["def jet(self, u, v, xp=math):", *_indent(setup, 1),
                         *_indent(jet_lines, 1), f"    return ({values})",
                         ""])
        names = compiled(spray.format(u="u", v="v", a="a", b="b", A="acc_u",
                                      B="acc_v", K="K")
                         + jet.format(u="u", v="v") + extra)
        self.spray_text = ("\n".join(["ulo, uhi, vlo, vhi = self.box",
                                      *setup]), "\n".join(stage))
        self.jet_text = "\n".join(jet_lines), entries
        for name, fn in names.items():
            setattr(self, name, types.MethodType(fn, self))


class RevolutionChart(SurfaceChart):
    """Surface of revolution F(u, v) = (r(u) cos v, r(u) sin v, z(u)).

    A subclass writes its profile as text (`_revolve`), from which the
    instance gets `profile`, the jet and the spray.
    """

    # what an overflow of the derivative lines names
    _derived = "profile"
    # with E = r'^2 + z'^2, F = 0 and G = r^2: Gamma^u_uu =
    # (r' r'' + z' z'') / E, Gamma^u_vv = -r r' / E, Gamma^v_uv = r' / r,
    # the others 0, and K = z' (r' z'' - r'' z') / (r E^2). The metric
    # determinant E r^2 guards every division, as E G - F^2 does in the
    # generic spray
    _FORMULAS = (
        "E = r1 * r1 + z1 * z1",
        "det = E * r * r",
        _SINGULAR,
        "{A} = (r * r1 * {b} * {b} - (r1 * r2 + z1 * z2) * {a} * {a}) / E",
        "{B} = -2.0 * r1 * {a} * {b} / r",
        "{K} = z1 * (r1 * z2 - r2 * z1) / (r * E * E)")
    # the jet in the profile's r, r1, r2, z1 and z2, after the lines that
    # set them: F_u = (r' cos v, r' sin v, z'), F_v = (-r sin v, r cos v,
    # 0), F_uu = (r'' cos v, r'' sin v, z''), F_uv = (-r' sin v, r' cos v,
    # 0) and F_vv = (-r cos v, -r sin v, 0)
    _JET = (["sv = sin({v})", "cv = cos({v})",
             "xu = r1 * cv", "yu = r1 * sv", "xv = -r * sv", "yv = r * cv",
             "xuu = r2 * cv", "yuu = r2 * sv", "xuv = -r1 * sv",
             "yuv = r1 * cv", "xvv = -r * cv", "yvv = -r * sv"],
            (("xu", "yu", "z1"), ("xv", "yv", "0.0"), ("xuu", "yuu", "z2"),
             ("xuv", "yuv", "0.0"), ("xvv", "yvv", "0.0")))

    def _revolve(self, setup, derivs):
        """Bind `profile`, u -> (r, r', r'', z', z''), and the jet and the
        spray generated from the profile's lines, which set r, r1, r2, z1
        and z2 at {u}; setup binds sin and cos among its names."""
        profile = "\n".join([
            "def profile(self, u, xp=math):", *_indent(setup, 1),
            *_indent(_guarded(derivs, "u"), 1),
            "    return r, r1, r2, z1, z2", ""]).format(u="u")
        self._compile(setup, derivs, self._JET, self._FORMULAS, profile)


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
    r = a sin u, z = c cos u; a triaxial ellipsoid writes its jet, and its
    spray is the generic one on that jet (`_jet_formulas`).
    """

    def __init__(self, a=1.0, b=1.0, c=1.0):
        if min(a, b, c) <= 0:
            raise ConfigError("ellipsoid semi-axes must be positive")
        self.a, self.b, self.c = a, b, c = float(a), float(b), float(c)
        self.name = f"ellipsoid({a:g},{b:g},{c:g})"
        self.domain = ((0.0, math.pi), (None, None))
        setup = ["sin, cos = xp.sin, xp.cos"]
        if a == b:
            self._revolve(setup, [
                "su = sin({u})", "cu = cos({u})", f"r = {_scaled(a, 'su')}",
                f"r1 = {_scaled(a, 'cu')}", f"r2 = {_scaled(-a, 'su')}",
                f"z1 = {_scaled(-c, 'su')}", f"z2 = {_scaled(-c, 'cu')}"])
            return
        # what an overflow of the jet's lines names
        self._derived = "jet"
        # F_vv is F_uu without its z entry
        jet = (("xu", "yu", "zu"), ("xv", "yv", "0.0"), ("xuu", "yuu", "zuu"),
               ("xuv", "yuv", "0.0"), ("xuu", "yuu", "0.0"))
        self._compile(setup, [
            "su = sin({u})", "cu = cos({u})", "sv = sin({v})", "cv = cos({v})",
            f"xu = {_scaled(a, 'cu * cv')}", f"yu = {_scaled(b, 'cu * sv')}",
            f"zu = {_scaled(-c, 'su')}", f"xv = {_scaled(-a, 'su * sv')}",
            f"yv = {_scaled(b, 'su * cv')}", f"xuu = {_scaled(-a, 'su * cv')}",
            f"yuu = {_scaled(-b, 'su * sv')}", f"zuu = {_scaled(-c, 'cu')}",
            f"xuv = {_scaled(-a, 'cu * sv')}",
            f"yuv = {_scaled(b, 'cu * cv')}"],
            ([], jet), _jet_formulas(jet))

    def point(self, u, v):
        return (self.a * math.sin(u) * math.cos(v),
                self.b * math.sin(u) * math.sin(v),
                self.c * math.cos(u))


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
        self._revolve(
            ["sin, cos, cosh, tanh = xp.sin, xp.cos, xp.cosh, xp.tanh"], [
                "se = 1.0 / cosh({u})", "ta = tanh({u})",
                f"r = {_scaled(a, 'se')}", f"r1 = {_scaled(-a, 'se * ta')}",
                f"r2 = {_scaled(a, 'se * (ta * ta - se * se)')}",
                f"z1 = {_scaled(a, 'ta * ta')}",
                f"z2 = 2.0 * {_scaled(a, 'ta * se * se')}"])

    def point(self, u, v):
        a = self.a
        try:
            se = 1.0 / math.cosh(u)
        except (OverflowError, ValueError):
            raise _overflow(self, u, v) from None
        return (a * se * math.cos(v), a * se * math.sin(v),
                a * (u - math.tanh(u)))


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
    instance gets `_height`, f and its slopes of every order in _ORDERS,
    for `point`, and the jet and the spray.
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
        # the jet computes f as `_height` does, unused but for its overflow
        self._compile(setup, [*angles, *slopes], ([f"f = {sums[0]}"], (
            ("1.0", "0.0", refs["fu"]), ("0.0", "1.0", refs["fv"]),
            *(("0.0", "0.0", refs[name]) for name in ("fuu", "fuv", "fvv")))),
            formulas, height)
        self.domain = domain

    def point(self, u, v):
        return (u, v, self._height(u, v, math)[0])


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
