"""The RK4 shot kernels against the tuple-per-stage reference, bit for bit,
and guards on what the compiled kernels contain.

Every surface shot enters through `SurfaceModel._rk4_geodesic`: on floats
the kernel with the chart's spray text written in (or calling the spray,
for the triaxial ellipsoid), on rows the kernel that calls `_geo_rows`.
The reference calls `chart.spray`, or `_geo_rows` on rows.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from rk4_reference import _rk4_geodesic as reference_rk4

from tractrix.charts import (
    EllipsoidChart,
    GraphChart,
    PlaneChart,
    PseudosphereChart,
    SphereChart,
)
from tractrix.errors import DomainExitError, SingularChartError
from tractrix.manifold import _rk4_rhs, shot_steps, surface_model

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
# the charts whose spray is written into their kernel
INLINE = sorted(set(CHARTS) - {"triaxial"})
# (collect, rows): every mode on floats and on rows. The record mode keeps
# its K window with Python's min and max, so on rows it raises, and the
# kernels must raise as the reference does
MODES = [(collect, rows) for rows in (False, True)
         for collect in (False, "jacobi", True)]


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


def both(name, rows, *args):
    """The outcomes of one shot through the model's entry and through the
    reference on the chart's spray (`_geo_rows` on rows)."""
    model = MODELS[name]
    rhs = model._geo_rows if rows else model.chart.spray
    return (outcome(lambda: model._rk4_geodesic(*args)),
            outcome(lambda: reference_rk4(rhs, *args)))


def shot_inputs(name, rows, starts):
    """x0, v0 and length for one shot (floats) or four (rows) from the
    starts' (fu, fv, angle, speed, length)."""
    ulo, uhi, vlo, vhi = CHARTS[name][1]
    points = [(ulo + fu * (uhi - ulo), vlo + fv * (vhi - vlo))
              for fu, fv, _, _, _ in starts]
    velocities = [(speed * math.cos(t), speed * math.sin(t))
                  for _, _, t, speed, _ in starts]
    lengths = [L for *_, L in starts]
    if rows:
        return (np.transpose(points), np.transpose(velocities),
                np.array(lengths))
    return points[0], velocities[0], lengths[0]


START = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                  st.floats(0.0, math.tau), st.floats(0.2, 1.5),
                  st.floats(0.0, 2.5))


@settings(max_examples=500, deadline=None)
@given(name=st.sampled_from(sorted(CHARTS)), mode=st.sampled_from(MODES),
       starts=st.lists(START, min_size=4, max_size=4),
       n_steps=st.integers(0, 24))
def test_kernel_matches_the_reference_bitwise(name, mode, starts, n_steps):
    # points, tangents, c, s and the K window, or the same error at the
    # same point
    collect, rows = mode
    new, ref = both(name, rows, *shot_inputs(name, rows, starts), n_steps,
                    collect)
    assert new == ref


@pytest.mark.parametrize("name", sorted(CHARTS))
@pytest.mark.parametrize("mode", MODES, ids=str)
def test_kernel_matches_the_reference_on_a_long_shot(name, mode):
    # every chart in every mode: a 40-step shot that stays inside and
    # returns, but in the record mode on rows, which raises where K is an
    # array, as the reference does
    collect, rows = mode
    start = (0.45, 0.4, 0.7, 1.0, 0.8)
    new, ref = both(name, rows, *shot_inputs(name, rows, [start] * 4), 40,
                    collect)
    assert new == ref
    if mode != ("jacobi", True):
        assert new[0] == "tuple"


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
        args = (np.array([[1.2, hh], [0.3, 0.3]]),
                np.array([[0.0, p], [1.0, 0.0]]), *args[2:])
    new, ref = both(name, rows, *args)
    assert new == ref and new[0] is SingularChartError


def compiled_kernels():
    """Every chart's float kernel and the call-line kernel."""
    return {**{name: model._float_shot for name, model in MODELS.items()},
            "call": _rk4_rhs}


def test_kernel_has_no_int_constant():
    # an int operand, 2 * x, takes CPython's slow int-times-float path;
    # bools are ints too, but `collect is True` only compares
    def ints(consts):
        for c in consts:
            if isinstance(c, (tuple, frozenset)):
                yield from ints(c)
            elif isinstance(c, int) and not isinstance(c, bool):
                yield c

    for name, kernel in compiled_kernels().items():
        assert list(ints(kernel.__code__.co_consts)) == [], name


def test_inline_kernels_make_no_call_into_the_chart():
    # a graph or revolution chart's kernel writes the spray in: it names
    # none of the chart's evaluators, and only the triaxial ellipsoid's
    # kernel is the call-line kernel
    kernels = compiled_kernels()
    for name in INLINE:
        names = set(kernels[name].__code__.co_names)
        assert not names & {"spray", "profile", "_height", "_geo_rhs"}, name
        assert kernels[name] is not _rk4_rhs
    assert kernels["triaxial"] is _rk4_rhs
    assert MODELS["triaxial"]._spray == CHARTS["triaxial"][0].spray
