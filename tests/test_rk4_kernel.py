"""The RK4 shot kernel, row shots and the compiled tractrix stage and
sub-step against the hand-written references, bit for bit, guards on
what the compiled functions contain, and the order conditions of the RK4
tableau that they are written from.

Every surface shot but a tractrix stage's enters through
`SurfaceModel._rk4_geodesic`, the kernel with the chart's spray text
written in; the reference calls `chart.spray`. A row shot
(`SurfaceModel.shoot_rows`) is one such shot a row, against one reference
shot a row. A tractrix stage runs its pole shot inline
(`manifold._tractrix`); its reference is the stage and sub-step of
`stage_reference`, whose shot is the reference kernel in its record
("jacobi") mode.
"""

import math
import types
from fractions import Fraction

import numpy as np
import pytest
import stage_reference
from hypothesis import given, settings
from hypothesis import strategies as st
from rk4_reference import _rk4_geodesic as reference_rk4

from tractrix import manifold
from tractrix.charts import (
    EllipsoidChart,
    GraphChart,
    PlaneChart,
    PseudosphereChart,
    SphereChart,
    _CATALOG,
)
from tractrix.errors import (
    DomainExitError,
    NoConvergenceError,
    OutOfDomainError,
    SingularChartError,
)
from tractrix.manifold import _drift_stride, shot_steps, surface_model

# each chart with the box (umin, umax, vmin, vmax) its shots start in; the
# bounded domains, the poles and the pseudosphere's rim are all reachable
CHARTS = {
    "plane": (PlaneChart(), (-1.0, 1.0, -1.0, 1.0)),
    "poly": (GraphChart(poly=[(2, 0, 0.3), (1, 1, -0.4), (0, 3, 0.2)],
                        domain=((-1.0, 1.0), (-1.0, 1.0))),
             (-0.8, 0.8, -0.8, 0.8)),
    "sinsin": (GraphChart(poly=[(1, 0, 0.1)],
                          sinsin=[(0.5, 1.3, 0.2, 0.9, -0.4)],
                          domain=((-1.5, 1.5), (None, None))),
               (-1.2, 1.2, -2.0, 2.0)),
    "sphere": (SphereChart(1.4), (0.3, 2.8, -3.0, 3.0)),
    "spheroid": (EllipsoidChart(1.0, 1.0, 1.3), (0.3, 2.8, -3.0, 3.0)),
    "pseudosphere": (PseudosphereChart(1.2), (0.3, 2.5, -3.0, 3.0)),
    "triaxial": (EllipsoidChart(1.3, 0.8, 1.1), (0.3, 2.8, -3.0, 3.0)),
}
MODELS = {name: surface_model(chart) for name, (chart, _) in CHARTS.items()}
# (collect, rows): every mode on floats: the end only, the record mode,
# and the samples of every step or of every third. The record mode is the
# record stage's pole shot, which runs on floats: on rows, each row is one
# stage. A row shot (`shoot_rows`) has one mode, (False, True)
MODES = [(collect, False) for collect in (False, "jacobi", True, 3)] + [
    ("jacobi", True), (False, True)]


def bits(value):
    """A key that tells every bit of value apart, -0.0 from 0.0 included,
    and the type of every entry."""
    if isinstance(value, np.ndarray):
        return "array", value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (tuple, list)):
        return type(value).__name__, *map(bits, value)
    return type(value).__name__, float(value).hex()


def outcome(shot):
    """The shot's result as `bits`, or the type, message and point of
    what it raised: a domain exit names the stage's point."""
    try:
        return bits(shot())
    except Exception as exc:  # noqa: BLE001 - any failure must match
        return type(exc), str(exc), getattr(exc, "point", None)


def samples(shot, stride):
    """A reference shot that kept every step, (points, velocities, cs,
    ss), as the kernel keeps it with collect a stride: the samples before
    every stride-th step and at the end, and the final c and s."""
    points, velocities, cs, ss = shot
    idx = [*range(0, len(points) - 1, stride), len(points) - 1]
    return points[idx], velocities[idx], cs[-1], ss[-1]


def record_stages(name, x0, v0, length, n_steps):
    """The outcomes of the record stage from x0 with the pole along v0, as
    compiled and as the reference writes it, one stage a row on rows; eta'
    is v0 turned by a right angle in the chart."""
    model = MODELS[name]
    starts = (x0, v0, length) if np.ndim(x0) == 2 \
        else ([x0], [v0], [length])
    new, ref = [], []
    for eta, X, ell in zip(*starts):
        args = ([float(a) for a in eta], [-float(X[1]), float(X[0])],
                [float(a) for a in X], float(ell), n_steps)
        new.append(outcome(lambda: model.tractrix_stage(*args, record=True)))
        ref.append(outcome(lambda: stage_reference.tractrix_stage(
            model, *args, record=True)))
    return (new[0], ref[0]) if np.ndim(x0) == 1 else (new, ref)


def reference_rows(model, p, v, length, pole_step):
    """`shoot_rows` on the reference: one shot a row on the chart's spray,
    each of the steps of the longest, whose error names its row, and one
    drift check over the drift samples of every row."""
    n_steps = shot_steps(np.max(length), pole_step)
    shots = []
    for row, args in enumerate(zip(p.tolist(), v.tolist(), length.tolist())):
        try:
            every = reference_rk4(model.chart.spray, *args, n_steps, True)
        except (DomainExitError, SingularChartError) as exc:
            exc.args = (f"{exc} in row {row}",)
            raise
        shots.append(samples(every, _drift_stride(n_steps)))
    pts, tans, c, s = (np.stack(x, axis=-1) for x in zip(*shots))
    model._check_drift(pts, tans)
    return pts[-1].T, tans[-1].T, c, s


def both(name, rows, x0, v0, length, n_steps, collect):
    """The outcomes of one shot through the model's entry and through the
    reference on the chart's spray; on rows, of `shoot_rows` and
    `reference_rows` at the pole step that gives the longest row n_steps
    steps (8 at the least); in the record mode, of the record stage
    (`record_stages`)."""
    if collect == "jacobi":
        return record_stages(name, x0, v0, length, n_steps)
    model = MODELS[name]
    if rows:
        step = max(np.max(length), 1e-3) / max(n_steps, 1)
        return (outcome(lambda: model.shoot_rows(x0, v0, length, step)),
                outcome(lambda: reference_rows(model, x0, v0, length, step)))
    rhs = model.chart.spray
    args = (x0, v0, length, n_steps)
    return (outcome(lambda: model._rk4_geodesic(*args, collect)),
            outcome(lambda: samples(reference_rk4(rhs, *args, True), collect)
                    if collect else reference_rk4(rhs, *args, collect)))


def shot_inputs(name, rows, starts):
    """x0, v0 and length for one shot (floats) or four (rows, (4, 2)
    arrays) from the starts' (fu, fv, angle, speed, length). Rows take unit
    tangents, as `shoot_rows` does, so that their drift check passes where
    the steps are short enough."""
    ulo, uhi, vlo, vhi = CHARTS[name][1]
    points = [(ulo + fu * (uhi - ulo), vlo + fv * (vhi - vlo))
              for fu, fv, _, _, _ in starts]
    velocities = [(speed * math.cos(t), speed * math.sin(t))
                  for _, _, t, speed, _ in starts]
    lengths = [L for *_, L in starts]
    if rows:
        points, velocities = np.array(points), np.array(velocities)
        velocities /= MODELS[name].norm_rows(points, velocities)[:, None]
        return points, velocities, np.array(lengths)
    return points[0], velocities[0], lengths[0]


START = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                  st.floats(0.0, math.tau), st.floats(0.2, 1.5),
                  st.floats(0.0, 2.5))


@settings(max_examples=500, deadline=None)
@given(name=st.sampled_from(sorted(CHARTS)), mode=st.sampled_from(MODES),
       starts=st.lists(START, min_size=4, max_size=4),
       n_steps=st.integers(0, 24))
def test_kernel_matches_the_reference_bitwise(name, mode, starts, n_steps):
    # points, tangents, c and s, in the record mode the whole record stage
    # with its K window, or the same error at the same point
    collect, rows = mode
    new, ref = both(name, rows, *shot_inputs(name, rows, starts), n_steps,
                    collect)
    assert new == ref


@pytest.mark.parametrize("name", sorted(CHARTS))
@pytest.mark.parametrize("mode", MODES, ids=str)
def test_kernel_matches_the_reference_on_a_long_shot(name, mode):
    # every chart in every mode: a 40-step shot that stays inside and
    # returns, on rows in the record mode as four record stages
    collect, rows = mode
    start = (0.45, 0.4, 0.7, 1.0, 0.8)
    new, ref = both(name, rows, *shot_inputs(name, rows, [start] * 4), 40,
                    collect)
    assert new == ref
    for shot in new if mode == ("jacobi", True) else [new]:
        assert shot[0] == "tuple"


def test_kernel_leaves_the_domain_at_the_reference_stage():
    # a spheroid shot from near the north pole, heading north: it crosses
    # u = 0 at the second stage of its fifth step, the 18th spray, as a
    # float shot and as the third of four rows; the float shot's error
    # names that stage's point
    start = (0.05, 0.5, math.pi, 1.0, 1.0)
    model = MODELS["spheroid"]
    calls = []

    def counted(*args):
        calls.append(args)
        return model.chart.spray(*args)

    args = (*shot_inputs("spheroid", False, [start]), 10, False)
    with pytest.raises(DomainExitError):
        reference_rk4(counted, *args)
    assert len(calls) == 18
    for rows, starts in ((False, [start]), (True, [(0.5, 0.5, 0.0, 1.0, 1.0)]
                                            * 2 + [start, start])):
        new, ref = both("spheroid", rows,
                        *shot_inputs("spheroid", rows, starts), 10, False)
        assert new == ref and new[0] is DomainExitError
    assert both("spheroid", False, *args)[0][2] == calls[-1][:2]


@pytest.mark.parametrize("name", ["sphere", "spheroid", "pseudosphere",
                                  "triaxial"])
@pytest.mark.parametrize("rows", [False, True], ids=["floats", "rows"])
def test_kernel_raises_the_reference_error_at_a_singular_metric(name, rows):
    # a shot down a meridian whose first step's second stage, at
    # u0 + (h / 2) p, lands exactly on u = 0: a pole, or the
    # pseudosphere's rim, where the metric is singular
    length, p = 0.4, -1.0
    hh = 0.5 * (length / shot_steps(length, 0.05))
    args = ((hh, 0.3), (p, 0.0), length, shot_steps(length, 0.05), False)
    if rows:
        args = (np.array([[1.2, 0.3], [hh, 0.3]]),
                np.array([[0.0, 1.0], [p, 0.0]]), np.array([length] * 2),
                *args[3:])
    new, ref = both(name, rows, *args)
    assert new == ref and new[0] is SingularChartError


def test_drift_samples_are_the_rows_the_check_reads():
    # a shot that keeps its drift samples (`_shot`, `shoot_rows`) keeps
    # the rows that `_check_drift` reads of a shot that keeps every step,
    # and the check, striding again, reads every one of them
    model = MODELS["poly"]
    for n_steps in [*range(0, 70), 199, 200, 201, 1000]:
        stride = _drift_stride(n_steps)
        kept = model._rk4_geodesic((0.1, 0.2), (0.6, 0.5), 0.5, n_steps,
                                   stride)[0]
        every = reference_rk4(model.chart.spray, (0.1, 0.2), (0.6, 0.5), 0.5,
                              n_steps, True)[0]
        assert bits(kept) == bits(samples((every, every, [0.0], [0.0]),
                                          stride)[0])
        assert _drift_stride(len(kept) - 1) == 1


def compiled_kernels():
    """Every chart's float kernel, and every model's tractrix stage and
    sub-step."""
    return {**{name: model._float_shot for name, model in MODELS.items()},
            **{f"{name} {fn}": getattr(model, f"tractrix_{fn}")
               for name, model in MODELS.items() for fn in ("stage", "step")}}


def test_kernel_has_no_int_constant():
    # an int operand, 2 * x, takes CPython's slow int-times-float path;
    # the code of comprehensions is checked too. The stage's spray count
    # is an int, and its factor lives in the function that binds it
    def ints(consts):
        for c in consts:
            if isinstance(c, (tuple, frozenset)):
                yield from ints(c)
            elif isinstance(c, types.CodeType):
                yield from ints(c.co_consts)
            elif isinstance(c, int) and not isinstance(c, bool):
                yield c

    for name, kernel in compiled_kernels().items():
        assert list(ints(kernel.__code__.co_consts)) == [], name


def test_inline_kernels_make_no_call_into_the_chart():
    # every chart writes its spray and jet as text, and its kernel, stage
    # and sub-step write them in: they name none of the chart's evaluators
    models = {**MODELS, **{name: surface_model(make())
                           for name, make in _CATALOG.items()}}
    for name, model in models.items():
        for fn in ("_float_shot", "tractrix_stage", "tractrix_step"):
            names = set(getattr(model, fn).__code__.co_names)
            assert not names & {"jet", "spray", "profile", "_height",
                                "_geo_rhs"}, f"{name} {fn}"


# -- the tractrix stage and sub-step ---------------------------------------


def chart_point(name, fu, fv):
    """The point at fractions (fu, fv) of the chart's start box."""
    ulo, uhi, vlo, vhi = CHARTS[name][1]
    return [ulo + fu * (uhi - ulo), vlo + fv * (vhi - vlo)]


def stages(name, eta, eta_prime, X, ell, n_pole):
    """The outcomes of both stage modes, compiled and reference."""
    model = MODELS[name]
    args = (eta, eta_prime, X, ell, n_pole)
    return [(outcome(lambda: model.tractrix_stage(*args, record=record)),
             outcome(lambda: stage_reference.tractrix_stage(
                 model, *args, record=record)))
            for record in (False, True)]


def steps(name, *args):
    """The outcomes of one sub-step, compiled and reference."""
    model = MODELS[name]
    return (outcome(lambda: model.tractrix_step(*args)),
            outcome(lambda: stage_reference.tractrix_step(model, *args)))


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_second_model_on_a_chart_generates_no_text(monkeypatch, name):
    # the kernel, stage and sub-step texts are generated and compiled once
    # per chart text in a process: a second model on a chart already seen
    # binds the same functions to itself, and they give the first model's
    # bits and count the second model's sprays
    def generated(*_, **__):
        raise AssertionError("a model generated text")

    for fn in ("_lines", "_step", "compiled"):
        monkeypatch.setattr(manifold, fn, generated)
    first = MODELS[name]
    second = surface_model(CHARTS[name][0])
    eta, mid, end = (chart_point(name, *f)
                     for f in ((0.4, 0.5), (0.45, 0.5), (0.5, 0.55)))
    stage = (eta, [0.3, 1.0], [1.0, 0.2], 0.5, 6)
    k1, q1, _ = first.tractrix_stage(*stage)
    step = ([1.0, 0.2], k1, q1, (mid, [0.3, 1.0]), (end, [0.2, 1.0]), 0.05,
            0.025, 0.05 / 6.0, 0.5, 6)
    for run in (lambda model: model.tractrix_stage(*stage),
                lambda model: model.tractrix_stage(*stage, record=True),
                lambda model: model.tractrix_step(*step)):
        before = first.sprays, second.sprays
        assert outcome(lambda: run(second)) == outcome(lambda: run(first))
        assert first.sprays - before[0] == second.sprays - before[1] > 0


POINT = st.tuples(st.floats(-0.1, 1.1), st.floats(-0.1, 1.1))
VECTOR = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(CHARTS)), eta=POINT, eta_prime=VECTOR,
       X=VECTOR, ell=st.floats(0.0, 2.5), n_pole=st.integers(0, 24))
def test_stage_matches_the_reference_bitwise(name, eta, eta_prime, X, ell,
                                             n_pole):
    # both modes on every chart: the rate, the speed and the record, or
    # the same error; eta may lie just outside the start box, and outside
    # a bounded domain
    for new, ref in stages(name, chart_point(name, *eta), list(eta_prime),
                           list(X), ell, n_pole):
        assert new == ref


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(CHARTS)), mid=st.tuples(POINT, VECTOR),
       end=st.tuples(POINT, VECTOR), state=VECTOR, k1=VECTOR,
       q1=st.floats(0.0, 2.0), dt=st.floats(1e-4, 0.2),
       ell=st.floats(0.0, 2.5), n_pole=st.integers(0, 24))
def test_step_matches_the_reference_bitwise(name, mid, end, state, k1, q1,
                                            dt, ell, n_pole):
    # stages 2 to 4 and the RK4 combination, or the same error
    mid, end = (([*chart_point(name, *p)], list(v)) for p, v in (mid, end))
    new, ref = steps(name, state, k1, q1, mid, end, dt, dt / 2, dt / 6.0,
                     ell, n_pole)
    assert new == ref


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_stage_and_step_raise_the_reference_errors(name):
    # eta outside the domain (NaN is outside every one), a pole direction
    # of size 0, and on the sphere of radius 1.4 a pole past its conjugate
    # point at 1.4 pi; and a sub-step whose end leaves the domain after
    # its midpoint passed
    inside, past = chart_point(name, 0.4, 0.5), [math.nan, 0.5]
    cases = [((past, [1.0, 0.0], [0.0, 1.0], 0.5, 10), OutOfDomainError),
             ((inside, [1.0, 0.0], [0.0, 0.0], 0.5, 10), ZeroDivisionError)]
    if name == "sphere":
        cases.append(((inside, [1.0, 0.0], [0.0, 1.0], 4.6, 92),
                      NoConvergenceError))
    for args, error in cases:
        for new, ref in stages(name, *args):
            assert new == ref and new[0] is error
    new, ref = steps(name, [0.0, 1.0], [0.1, 0.2], 0.3,
                     (inside, [1.0, 0.0]), (past, [1.0, 0.0]), 0.01, 0.005,
                     0.01 / 6.0, 0.5, 10)
    assert new == ref and new[0] is OutOfDomainError


@pytest.mark.parametrize("name", ["sphere", "spheroid", "pseudosphere",
                                  "triaxial"])
def test_stage_raises_the_reference_error_at_a_singular_metric(name):
    # eta on u = 0, in the closed domain of the round charts, where the
    # metric is singular
    for new, ref in stages(name, [0.0, 0.3], [1.0, 0.0], [1.0, 0.5], 0.5,
                           10):
        assert new == ref and new[0] is SingularChartError


def test_stage_overflow_names_the_point():
    # far out on the pseudosphere cosh u overflows in the jet at eta
    for new, ref in stages("pseudosphere", [800.0, 0.3], [1.0, 0.0],
                           [0.0, 1.0], 0.5, 10):
        assert new == ref and new[0] is SingularChartError
        assert "(800.0, 0.3)" in new[1]


# K scripts whose windows end on ties of signed zeros, on NaN, which min
# and max never pick, and on infinities; periods of 5 and 1 put every value
# at every stage of a step
K_SCRIPTS = {
    "zeros": [0.0, -0.0, -0.0, 0.0, -0.0],
    "zeros from -0.0": [-0.0, 0.0, 0.0, -0.0, 0.0],
    "nan": [math.nan, 0.5, math.nan, -0.5, -0.0],
    "all nan": [math.nan],
    "infinities": [math.inf, 1.0, -math.inf, math.nan, 1.0],
}


@pytest.mark.parametrize("script", K_SCRIPTS.values(), ids=K_SCRIPTS)
def test_record_window_keeps_what_min_and_max_keep(monkeypatch, script):
    # a spray whose K runs through the script, from every place in it: the
    # record stage's comparisons keep the K window that a min and a max
    # over each step keep, and so does the reference stage. The chart's
    # spray text is a call of its spray, so that the script reaches the
    # compiled stage
    chart = EllipsoidChart(1.3, 0.8, 1.1)
    chart.spray_text = (chart.spray_text[0],
                        "{A}, {B}, {K} = self.spray({u}, {v}, {a}, {b})")
    model = surface_model(chart)
    spray = chart.spray
    Ks = []

    def scripted(u, v, a, b):
        acc_u, acc_v, _ = spray(u, v, a, b)
        Ks.append(script[(shift + len(Ks)) % len(script)])
        return acc_u, acc_v, Ks[-1]

    monkeypatch.setattr(model.chart, "spray", scripted)
    args = ([1.2, 0.3], [1.0, 0.0], [0.3, 1.0], 0.5, 6)
    for shift in range(len(script)):
        Ks.clear()
        rec = model.tractrix_stage(*args, record=True)[2]
        lo, hi = math.inf, -math.inf
        for n in range(0, len(Ks), 4):
            lo, hi = min(lo, *Ks[n:n + 4]), max(hi, *Ks[n:n + 4])
        assert len(Ks) == 24
        assert bits(rec[-3:-1]) == bits((lo, hi))
        Ks.clear()
        reference = stage_reference.tractrix_stage(model, *args,
                                                   record=True)[2]
        assert bits(reference[-3:-1]) == bits((lo, hi))


def order_conditions(A, b, denom):
    """The eight order conditions of a Runge-Kutta tableau through order 4
    (Hairer, Norsett and Wanner, Solving ODEs I, II.2), as the list of
    (sum, the value it must take), exactly in Fractions: A's rows and the
    weights b are integer numerators over denom, and c_i = sum_j a_ij."""
    n = len(b)
    a = [[Fraction(x, denom) for x in row] + [Fraction(0)] * (n - len(row))
         for row in A]
    b = [Fraction(x, denom) for x in b]
    c = [sum(row) for row in a]

    def times_a(v):
        return [sum(x * y for x, y in zip(row, v)) for row in a]

    ac = times_a(c)
    terms = ([1] * n, c, [x * x for x in c], ac, [x ** 3 for x in c],
             [x * y for x, y in zip(c, ac)], times_a([x * x for x in c]),
             times_a(ac))
    sums = [sum(w * t for w, t in zip(b, term)) for term in terms]
    return list(zip(sums, [Fraction(1, k)
                           for k in (1, 2, 3, 6, 4, 8, 12, 24)]))


def test_rk4_tableau_meets_the_order_conditions_exactly():
    tableau = manifold._RK4_A, manifold._RK4_B, manifold._RK4_DENOM
    assert all(got == want for got, want in order_conditions(*tableau))
    # moving weight from k3 to k2, which share their node, keeps every
    # quadrature condition, sum b c^k, and fails three of those with A
    A, _, denom = tableau
    conditions = order_conditions(A, (1, 3, 1, 1), denom)
    assert [got == want for got, want in conditions] == [
        True, True, True, False, True, False, False, True]
