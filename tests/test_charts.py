import ast
import copy
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractrix.charts import (
    EllipsoidChart,
    GraphChart,
    HillyChart,
    ParaboloidChart,
    PlaneChart,
    PseudosphereChart,
    SphereChart,
    _CATALOG,
    _jet_formulas,
    chart_from_config,
)
from tractrix.errors import ConfigError, OutOfDomainError, SingularChartError

from closed_forms import gauss_range
from graph_reference import LoopGraph, graph_spray

CHARTS = [
    (SphereChart(1.0), (1.1, 0.4)),
    (SphereChart(2.5), (0.7, -1.2)),
    (EllipsoidChart(1.0, 1.0, 1.2), (1.0, 0.3)),
    (EllipsoidChart(1.5, 0.8, 1.1), (0.9, 2.0)),
    (PseudosphereChart(1.0), (1.3, 0.5)),
    (ParaboloidChart(), (0.3, -0.2)),
    (HillyChart(0.5, 1.0), (0.8, 1.7)),
    (PlaneChart(), (0.2, 0.9)),
    (GraphChart(poly=[(2, 1, 0.5), (1, 0, -1.0), (0, 3, 0.25)],
                sinsin=[(0.3, 2.0, 0.1, 1.5, -0.2)]), (0.4, 0.6)),
]


def _central(f, u, v, h, wrt):
    if wrt == "u":
        a, b = f(u + h, v), f(u - h, v)
    else:
        a, b = f(u, v + h), f(u, v - h)
    return [(x - y) / (2 * h) for x, y in zip(a, b)]


def _jet_entry(chart, k):
    return lambda u, v: chart.jet(u, v)[k]


@pytest.mark.parametrize("chart,pt", CHARTS, ids=lambda c: getattr(c, "name", str(c)))
def test_first_derivatives_match_finite_differences(chart, pt):
    u, v = pt
    h = 1e-5
    fu, fv = chart.jet(u, v)[:2]
    for wrt, an in (("u", fu), ("v", fv)):
        fd = _central(chart.point, u, v, h, wrt)
        assert np.allclose(an, fd, atol=5e-9, rtol=1e-7)


@pytest.mark.parametrize("chart,pt", CHARTS, ids=lambda c: getattr(c, "name", str(c)))
def test_second_derivatives_match_finite_differences(chart, pt):
    u, v = pt
    h = 1e-5
    _, _, fuu, fuv, fvv = chart.jet(u, v)
    du, dv = _jet_entry(chart, 0), _jet_entry(chart, 1)
    cases = [
        (fuu, du, "u"),
        (fuv, du, "v"),
        (fuv, dv, "u"),
        (fvv, dv, "v"),
    ]
    for an, f, wrt in cases:
        fd = _central(f, u, v, h, wrt)
        assert np.allclose(an, fd, atol=5e-8, rtol=1e-6)


coefficient = st.floats(-2.0, 2.0)
poly_terms = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                                coefficient), max_size=3)
sinsin_terms = st.lists(st.tuples(st.floats(-1.0, 1.0), coefficient,
                                  st.floats(-math.pi, math.pi), coefficient,
                                  st.floats(-math.pi, math.pi)), max_size=2)


@settings(max_examples=60, deadline=None)
@given(poly_terms, sinsin_terms, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_graph_jet_matches_finite_differences(poly, sinsin, u, v):
    chart = GraphChart(poly=poly, sinsin=sinsin)
    h = 1e-4
    f = lambda du, dv: np.array(chart.point(u + du * h, v + dv * h))
    fd = [
        (f(1, 0) - f(-1, 0)) / (2 * h),
        (f(0, 1) - f(0, -1)) / (2 * h),
        (f(1, 0) - 2 * f(0, 0) + f(-1, 0)) / h ** 2,
        (f(1, 1) - f(1, -1) - f(-1, 1) + f(-1, -1)) / (4 * h * h),
        (f(0, 1) - 2 * f(0, 0) + f(0, -1)) / h ** 2,
    ]
    for an, num, atol in zip(chart.jet(u, v), fd, (1e-7,) * 2 + (2e-5,) * 3):
        assert np.allclose(an, num, atol=atol, rtol=1e-6)


def generic_spray(chart):
    """The spray that the generic formulas (`_jet_formulas`) derive from
    the chart's jet text, generated as a triaxial ellipsoid's is, on a
    copy of the chart."""
    twin = copy.copy(chart)
    lines, entries = chart.jet_text
    twin._compile(chart.spray_text[0].splitlines(), lines.splitlines(),
                  ([], entries), _jet_formulas(entries))
    return twin.spray


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), coefficient),
                max_size=3),
       sinsin_terms, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_graph_spray_matches_generic_spray(poly, sinsin, u, v, a, b):
    # the closed forms in f's derivatives against the generic spray, which
    # derives the same from the jet through E, F, G, the Christoffel
    # contractions and the second fundamental form
    chart = GraphChart(poly=poly, sinsin=sinsin)
    spray = chart.spray(u, v, a, b)
    reference = generic_spray(chart)(u, v, a, b)
    for x, y in zip(spray, reference):
        assert math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-13)


def _bits(x, shape=()):
    """The bytes of x as float64, broadcast to shape: equal bits, signed
    zeros and NaN payloads included."""
    return np.broadcast_to(np.asarray(x, dtype=float), shape).tobytes()


signed_point = st.sampled_from([-0.0, 0.0]) | st.floats(-1.5, 1.5)


@settings(max_examples=300, deadline=None)
@given(poly_terms, sinsin_terms, signed_point, signed_point)
def test_compiled_height_matches_loop_reference_bitwise(poly, sinsin, u, v):
    # the compiled straight-line height against the loop evaluator it
    # replaced, on floats and on rows, with -0.0 among the coordinates so
    # that the leading 0.0 of every sum is pinned
    chart = GraphChart(poly=poly, sinsin=sinsin)
    ref = LoopGraph(poly, sinsin)
    z, *slopes = ref.height(u, v)
    assert _bits(chart.point(u, v)[2]) == _bits(z)
    jet = chart.jet(u, v)
    for entry, slope in zip(jet, slopes):
        assert _bits(entry[2]) == _bits(slope)
    us, vs = np.array([u, -0.0, u, 0.0]), np.array([v, v, -0.0, -0.0])
    rows = chart.jet(us, vs, np)
    for entry, slope in zip(rows, ref.height(us, vs, np)[1:]):
        assert _bits(entry[2], us.shape) == _bits(slope, us.shape)


@settings(max_examples=300, deadline=None)
@given(poly_terms, sinsin_terms, signed_point, signed_point,
       st.lists(signed_point, min_size=2, max_size=2))
def test_compiled_spray_matches_handwritten_spray_bitwise(poly, sinsin, u, v,
                                                          velocity):
    # the spray compiled with the height against the handwritten one it
    # replaced, with -0.0 among the coordinates and the velocity
    chart = GraphChart(poly=poly, sinsin=sinsin)
    a, b = velocity
    got, want = chart.spray(u, v, a, b), graph_spray(chart, u, v, a, b)
    assert len(got) == len(want) == 3
    for x, y in zip(got, want):
        assert _bits(x) == _bits(y)


FOLDED = {
    "paraboloid": (ParaboloidChart(), ["fu", "fv"]),
    "hills": (HillyChart(0.05, 2.0), ["fu", "fv", "fuu", "fuv"]),
    "plane": (PlaneChart(), []),
    "mixed": (GraphChart(poly=[(2, 0, 1.0), (1, 1, -0.5), (0, 2, 1.0)],
                         sinsin=[(0.5, 1.0, 0.0, 1.0, 0.0)]),
              ["fu", "fv", "fuu", "fuv"]),
}


@pytest.mark.parametrize("name", sorted(FOLDED))
def test_folded_slopes_keep_the_handwritten_spray_bits(name):
    # a slope that does not depend on the point is a literal in the spray
    # text (the paraboloid's f_uu, f_uv and f_vv, all of the plane's) and a
    # repeated one its first name (the hills' f_vv is f_uu), so only the
    # others have lines; the spray keeps the handwritten spray's bits,
    # signed zeros included
    chart, lines = FOLDED[name]
    stage = chart.spray_text[1]
    assert [s for s in ("fu", "fv", "fuu", "fuv", "fvv")
            if f"    {s} = " in stage] == lines
    values = [-0.0, 0.0, 0.3, -1.2]
    for u, v, a, b in itertools.product(values, repeat=4):
        got, want = chart.spray(u, v, a, b), graph_spray(chart, u, v, a, b)
        assert _bits(got, 3) == _bits(want, 3)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([-0.0, 0.0, math.pi]) | st.floats(0.0, math.pi))
def test_unit_profiles_fold_their_scale_exactly(u):
    # a profile's scale of 1 is written as nothing and -1 as a negation,
    # which round as the products by 1.0 and -1.0 that they replace
    su, cu = math.sin(u), math.cos(u)
    for chart in (SphereChart(1.0), EllipsoidChart(1.0, 1.0, 1.0)):
        assert _bits(chart.profile(u), 5) == _bits(
            (1.0 * su, 1.0 * cu, -1.0 * su, -1.0 * su, -1.0 * cu), 5)
    se, ta = 1.0 / math.cosh(u), math.tanh(u)
    one = 1.0
    assert _bits(PseudosphereChart(1.0).profile(u), 5) == _bits(
        (one * se, -one * se * ta, one * se * (ta * ta - se * se),
         one * ta * ta, 2.0 * one * ta * se * se), 5)


def test_height_overflow_is_a_typed_error():
    # u ** 200 overflows a float at u = 40, and so does cosh u at u = 800,
    # inside the pseudosphere's domain; a derivative coefficient that
    # overflows is a bad config
    chart = GraphChart(poly=[(200, 0, 1.0)])
    for call in (lambda: chart.point(40.0, 0.0),
                 lambda: chart.jet(40.0, 0.0),
                 lambda: chart.spray(40.0, 0.0, 1.0, 0.0)):
        with pytest.raises(SingularChartError, match=r"graph: .*\(40\.0, "):
            call()
    chart = PseudosphereChart()
    for call in (lambda: chart.point(800.0, 0.5),
                 lambda: chart.jet(800.0, 0.5),
                 lambda: chart.spray(800.0, 0.5, 1.0, 0.0)):
        with pytest.raises(SingularChartError, match=(
                r"^pseudosphere\(a=1\): the profile overflows a float at "
                r"\(800\.0, 0\.5\)$")):
            call()
    with pytest.raises(SingularChartError, match=r"at \(800\.0\)$"):
        chart.profile(800.0)
    with pytest.raises(ConfigError, match="overflows"):
        GraphChart(poly=[(2, 0, 1e308)])
    with pytest.raises(ConfigError, match="overflows"):
        GraphChart(sinsin=[(1.0, 1e200, 0.0, 1.0, 0.0)])


revolution_charts = st.one_of(
    st.builds(lambda a, c: EllipsoidChart(a, a, c), st.floats(0.3, 3.0),
              st.floats(0.3, 3.0)),
    st.builds(SphereChart, st.floats(0.3, 3.0)),
    st.builds(PseudosphereChart, st.floats(0.3, 3.0)))


@settings(max_examples=300, deadline=None)
@given(revolution_charts, st.floats(0.1, math.pi - 0.1),
       st.floats(-math.pi, math.pi), st.floats(-2.0, 2.0),
       st.floats(-2.0, 2.0))
def test_revolution_spray_matches_generic_spray(chart, u, v, a, b):
    # the closed forms in the profile's derivatives against the generic
    # spray from the jet
    spray = chart.spray(u, v, a, b)
    reference = generic_spray(chart)(u, v, a, b)
    for x, y in zip(spray, reference):
        assert math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-13)


# the charts whose K has a closed form in tests/closed_forms.py
closed_form_charts = st.one_of(
    st.builds(SphereChart, st.floats(0.3, 3.0)),
    st.builds(lambda c: EllipsoidChart(1.0, 1.0, c), st.floats(0.3, 3.0)),
    st.builds(PseudosphereChart, st.floats(0.3, 3.0)),
    st.builds(ParaboloidChart), st.builds(PlaneChart))


@settings(max_examples=300, deadline=None)
@given(closed_form_charts, st.floats(0.1, math.pi - 0.1),
       st.floats(-math.pi, math.pi))
def test_spray_curvature_matches_the_closed_forms(chart, u, v):
    # K of the spray, the only K the package computes, against the
    # closed-form range over the one-point rectangle
    lo, hi = gauss_range(chart, ((u, u), (v, v)))
    assert lo == hi
    assert math.isclose(chart.spray(u, v, 0.0, 0.0)[2], lo, rel_tol=1e-12,
                        abs_tol=1e-13)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.3, 3.0), st.floats(0.3, 3.0), st.floats(0.3, 3.0),
       st.floats(0.05, math.pi - 0.05), st.floats(-math.pi, math.pi))
def test_triaxial_curvature_matches_the_closed_form(a, b, c, u, v):
    # the generic spray's K on an ellipsoid's jet against
    # K = 1 / (a b c)^2 (x^2 / a^4 + y^2 / b^4 + z^2 / c^4)^-2 at F(u, v);
    # a spheroid's closed-form spray agrees too
    chart = EllipsoidChart(a, b, c)
    x, y, z = chart.point(u, v)
    K = 1.0 / ((a * b * c) ** 2 * (x * x / a ** 4 + y * y / b ** 4
                                   + z * z / c ** 4) ** 2)
    assert math.isclose(chart.spray(u, v, 0.0, 0.0)[2], K, rel_tol=1e-12)


def _float_literal(text):
    try:
        return isinstance(ast.literal_eval(text), float)
    except (SyntaxError, ValueError):
        return False


def test_every_chart_writes_its_spray_and_jet_as_text():
    # every catalog chart and a triaxial ellipsoid carry the texts that
    # the shot kernel and the tractrix stage write in, and their jet and
    # spray are the functions compiled from the same lines
    charts = [make() for make in _CATALOG.values()]
    for chart in [*charts, EllipsoidChart(1.5, 0.8, 1.1)]:
        setup, stage = chart.spray_text
        lines, entries = chart.jet_text
        assert "self.box" in setup and "{A}" in stage and "{K}" in stage
        assert len(entries) == 5 and all(len(e) == 3 for e in entries)
        for entry in itertools.chain(*entries):
            # a name that the lines set, or a float literal
            assert (re.search(rf"^ *{re.escape(entry)} = ", lines, re.M)
                    or _float_literal(entry)), (chart.name, entry)
        for fn in (chart.jet, chart.spray):
            assert fn.__func__.__code__.co_filename == "<string>"


# every catalog chart, the graph with polynomial terms of degree 3 and more
ROW_CHARTS = dict(
    {name: make() for name, make in _CATALOG.items()},
    graph=GraphChart(poly=[(3, 1, 0.5), (1, 0, 1.0), (0, 4, 0.25),
                           (2, 2, 1.5)]))


class _MathRows:
    """A row namespace that applies math's own functions elementwise."""

    def __getattr__(self, name):
        return np.vectorize(getattr(math, name), otypes=[float])


def _row_jet(chart, u, v, xp):
    """The jet on rows as an (n, 5, 3) array, constant entries broadcast."""
    return np.stack([np.stack(np.broadcast_arrays(*entry, u)[:3], axis=-1)
                     for entry in chart.jet(u, v, xp)], axis=1)


@pytest.mark.parametrize("name", sorted(ROW_CHARTS))
def test_row_jet_equals_float_jet(name):
    # one jet serves floats and rows. On numpy rows, the charts that use
    # only sin, cos and exponents <= 1 agree to the bit. np.tanh and
    # np.cosh differ from math in the last bit: with math's own functions
    # applied elementwise the pseudosphere agrees to the bit, and with
    # numpy's the bound is in units of the point's largest jet entry,
    # because F_uu's factor tanh^2 - sech^2 cancels near u = 0.88. Numpy
    # powers differ from Python's float ** in the last bits
    chart = ROW_CHARTS[name]
    rng = np.random.default_rng(3)
    u, v = rng.uniform(0.1, 3.0, 2000), rng.uniform(0.1, 3.0, 2000)
    floats = np.array([chart.jet(a, b) for a, b in zip(u.tolist(),
                                                        v.tolist())])
    rows = _row_jet(chart, u, v, np)
    if name in ("sphere", "ellipsoid", "hilly", "plane", "paraboloid"):
        assert np.array_equal(rows, floats)
    elif name == "pseudosphere":
        assert np.array_equal(_row_jet(chart, u, v, _MathRows()), floats)
        scale = np.abs(floats).max(axis=(1, 2), keepdims=True)
        assert np.all(np.abs(rows - floats) <= 16 * np.spacing(scale))
    else:
        assert np.all(np.abs(rows - floats)
                      <= 4 * np.spacing(np.abs(floats)))


def test_sphere_domain_check():
    ch = SphereChart(1.0)
    with pytest.raises(OutOfDomainError):
        ch.check_domain(-0.1, 0.0)
    with pytest.raises(OutOfDomainError):
        ch.check_domain(3.3, 0.0)
    ch.check_domain(1.0, 100.0)  # longitude unbounded


def test_pseudosphere_domain_excludes_rim():
    ch = PseudosphereChart(1.0)
    with pytest.raises(OutOfDomainError):
        ch.check_domain(-0.5, 0.0)
    assert not ch.contains(-0.5, 0.0)


@pytest.mark.parametrize("chart", [
    SphereChart(1.0), PseudosphereChart(1.0), ParaboloidChart(),
    GraphChart(domain=((-1.0, 1.0), (None, 2.0)))],
    ids=lambda c: c.name)
def test_non_finite_coordinates_are_outside(chart):
    # NaN fails every bound, and an infinity fails an unbounded side too
    assert chart.contains(1.0, 0.5)
    for bad in (math.nan, math.inf, -math.inf):
        assert not chart.contains(bad, 0.5)
        assert not chart.contains(1.0, bad)
        with pytest.raises(OutOfDomainError):
            chart.check_domain(bad, 0.5)


def test_exact_curvature_ranges():
    # the test oracle (closed_forms.gauss_range) on known values
    rect = ((0.9, 1.3), (0.0, 2.0))
    assert gauss_range(SphereChart(2.0), rect) == (0.25, 0.25)
    assert gauss_range(PlaneChart(), rect) == (0.0, 0.0)
    assert gauss_range(PseudosphereChart(1.0), rect) == (-1.0, -1.0)

    lo, hi = gauss_range(ParaboloidChart(), ((0.0, 0.3), (-0.2, 0.0)))
    assert hi == 4.0  # rect contains the apex
    assert lo == pytest.approx(1.7313019390581717, rel=1e-12)

    lo, hi = gauss_range(EllipsoidChart(1, 1, 1.2),
                         ((1.0, math.pi / 2), (0, 1)))
    assert lo == pytest.approx(0.69444444444444444, rel=1e-12)
    assert hi == pytest.approx(0.83712683256463423, rel=1e-12)
    # a triaxial ellipsoid and the hills have no closed-form range here
    assert gauss_range(EllipsoidChart(1.5, 0.8, 1.1), rect) is None
    assert gauss_range(HillyChart(), rect) is None


def test_chart_from_config():
    ch = chart_from_config({"name": "ellipsoid", "a": 1, "b": 1, "c": 1.2})
    assert isinstance(ch, EllipsoidChart)
    assert chart_from_config("paraboloid").name == "paraboloid"
    with pytest.raises(ConfigError):
        chart_from_config({"name": "torus"})
    with pytest.raises(ConfigError):
        chart_from_config({"name": "sphere", "radius": -1})
    with pytest.raises(ConfigError):
        chart_from_config({"name": "sphere", "bogus": 2})


@pytest.mark.parametrize("domain", [
    [[1, -1], [0, 1]], [[0, 1], [2.0, 2.0]], [["nan", 1], [0, 1]],
    [[0, 1], [None, float("inf")]], [[0, "x"], [0, 1]], [[0, 1, 2], [0, 1]]],
    ids=["reversed", "empty", "nan", "infinite", "not-a-number", "triple"])
def test_graph_domain_is_checked_at_load(domain):
    with pytest.raises(ConfigError):
        chart_from_config({"name": "graph", "domain": domain})


def test_graph_domain_bounds_may_be_open():
    chart = chart_from_config({"name": "graph",
                               "domain": [[-1, 2.5], [None, 0]]})
    assert chart.domain == ((-1.0, 2.5), (None, 0.0))
    assert chart.contains(2.5, -1e300) and not chart.contains(0.0, 0.5)
