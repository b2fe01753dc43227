"""The RK4 geodesic kernel against its tuple-per-stage reference, bit for
bit, and a guard on the kernel's constants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from rk4_reference import _rk4_geodesic as reference_rk4

from tractrix.charts import EllipsoidChart, GraphChart, PseudosphereChart
from tractrix.errors import DomainExitError
from tractrix.manifold import _rk4_geodesic, surface_model

# each chart with the box (umin, umax, vmin, vmax) its shots start in; the
# bounded domains, the poles and the pseudosphere's rim are all reachable
CHARTS = {
    "poly": (GraphChart(poly=[(2, 0, 0.3), (1, 1, -0.4), (0, 3, 0.2)],
                        domain=((-1.0, 1.0), (-1.0, 1.0))),
             (-0.8, 0.8, -0.8, 0.8)),
    "sinsin": (GraphChart(poly=[(1, 0, 0.1)],
                          sinsin=[(0.5, 1.3, 0.2, 0.9, -0.4)],
                          domain=((-1.5, 1.5), (None, None))),
               (-1.2, 1.2, -2.0, 2.0)),
    "spheroid": (EllipsoidChart(1.0, 1.0, 1.3), (0.3, 2.8, -3.0, 3.0)),
    "pseudosphere": (PseudosphereChart(), (0.3, 2.5, -3.0, 3.0)),
    "triaxial": (EllipsoidChart(1.3, 0.8, 1.1), (0.3, 2.8, -3.0, 3.0)),
}
MODELS = {name: surface_model(chart) for name, (chart, _) in CHARTS.items()}
# (collect, rows): the record mode keeps its K window with Python's min
# and max, so it runs on floats only
MODES = [(False, False), ("jacobi", False), (True, False), (False, True),
         (True, True)]


def bits(value):
    """A key that tells every bit of value apart, -0.0 from 0.0 included,
    and the type of every entry."""
    if isinstance(value, np.ndarray):
        return "array", value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (tuple, list)):
        return type(value).__name__, *map(bits, value)
    return type(value).__name__, float(value).hex()


def outcome(kernel, name, rows, x0, v0, length, n_steps, collect):
    """The kernel's result as `bits` and its right-hand side calls, or the
    type and message of what it raised and the calls made until then."""
    model = MODELS[name]
    rhs = model._geo_rows if rows else model._geo_rhs
    calls = []

    def counted(*args):
        calls.append(args)
        return rhs(*args)

    try:
        result = kernel(counted, x0, v0, length, n_steps, collect)
    except Exception as exc:  # noqa: BLE001 - any failure must match
        return type(exc), str(exc), len(calls)
    return bits(result), len(calls)


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


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(CHARTS)), mode=st.sampled_from(MODES),
       starts=st.lists(START, min_size=4, max_size=4),
       n_steps=st.integers(0, 24))
def test_kernel_matches_the_reference_bitwise(name, mode, starts, n_steps):
    # points, tangents, c, s and the K window, or the same error after the
    # same number of stages
    collect, rows = mode
    args = (name, rows, *shot_inputs(name, rows, starts), n_steps, collect)
    assert outcome(_rk4_geodesic, *args) == outcome(reference_rk4, *args)


def test_kernel_leaves_the_domain_at_the_reference_stage():
    # a spheroid shot from near the north pole, heading north: it crosses
    # u = 0 at the second stage of its fifth step, the 18th call, as a
    # float shot and as the third of four rows
    start = (0.05, 0.5, math.pi, 1.0, 1.0)
    for rows, starts in ((False, [start]), (True, [(0.5, 0.5, 0.0, 1.0, 1.0)]
                                            * 2 + [start, start])):
        args = ("spheroid", rows, *shot_inputs("spheroid", rows, starts), 10,
                False)
        new = outcome(_rk4_geodesic, *args)
        assert new == outcome(reference_rk4, *args)
        assert new[0] is DomainExitError and new[2] == 18


def test_kernel_has_no_int_constant():
    # an int operand, 2 * x, takes CPython's slow int-times-float path;
    # bools are ints too, but `collect is True` only compares
    def ints(consts):
        for c in consts:
            if isinstance(c, (tuple, frozenset)):
                yield from ints(c)
            elif isinstance(c, int) and not isinstance(c, bool):
                yield c

    assert list(ints(_rk4_geodesic.__code__.co_consts)) == []
