import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractrix.errors import ConfigError, NotClosedError, PoleTooLongError
from tractrix.functionals import polyline_length
from tractrix.manifold import space_form, surface_model
from tractrix.shortening import (
    geodesic_residual,
    loop_repeated,
    self_repeated,
)

FLAT = space_form(0.0, dim=2)
FLAT3 = space_form(0.0, dim=3)
SPHERE = space_form(1.0)
TORUS = space_form(0.0, dim=2, periods=(1.0, 1.0))
CYLINDER = space_form(0.0, dim=2, periods=(2.0, None))


def wiggly_chord(P, Q, amplitude, knots=60):
    t = np.linspace(0.0, 1.0, knots)[:, None]
    pts = np.asarray(P, float) + t * (np.asarray(Q, float) - np.asarray(P, float))
    pts[:, 1] += amplitude * np.sin(np.pi * t[:, 0])
    return pts


# ---------------------------------------------------------------------------
# Discrete geodesic residual


def test_residual_zero_on_straight_line():
    x = np.linspace(0.0, 5.0, 40)
    pts = np.column_stack([x, 0.3 * x + 1.0])
    assert geodesic_residual(FLAT, pts) < 1e-12


def test_residual_matches_circle_curvature():
    theta = np.linspace(0.0, np.pi, 200)
    pts = 2.0 * np.column_stack([np.cos(theta), np.sin(theta)])
    res = geodesic_residual(FLAT, pts)
    assert res == pytest.approx(0.5, rel=1e-3)


def test_residual_closed_wrap_counts_seam():
    theta = np.linspace(0.0, 2 * np.pi, 300)[:-1]
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    closed = np.vstack([pts, pts[:1]])
    res = geodesic_residual(FLAT, closed, closed=True)
    assert res == pytest.approx(1.0, rel=1e-3)
    # each corner of a closed square turns by pi/2 over a unit edge; the
    # vertex before the seam has the seam as its next neighbor
    square = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
    assert geodesic_residual(FLAT, square, closed=True) == math.sqrt(2.0)
    # an open kinked lift shows the seam only in closed mode
    line = np.column_stack([np.linspace(0, 1, 50), np.full(50, 0.25)])
    assert geodesic_residual(FLAT, line, closed=True) < 1e-12


def test_residual_zero_on_sphere_equator():
    v = np.linspace(0.0, np.pi, 60)
    pts = np.column_stack([np.full_like(v, np.pi / 2), v])
    assert geodesic_residual(SPHERE, pts) < 1e-10


def test_residual_detects_sphere_detour():
    v = np.linspace(0.0, np.pi / 2, 60)
    pts = np.column_stack([np.pi / 2 + 0.2 * np.sin(2 * v), v])
    assert geodesic_residual(SPHERE, pts) > 1e-2


def test_repeated_vertex_keeps_its_corner():
    # a repeated vertex is collapsed, so the corner behind it still counts;
    # a turn of pi/4 over edges 1 and sqrt(2) reads 2 sqrt(2 - sqrt(2)) /
    # (1 + sqrt(2)), correctly rounded
    corner = geodesic_residual(FLAT, [[0, 0], [1, 0], [2, 1]])
    with localcontext() as digits:
        digits.prec = 40
        root = Decimal(2).sqrt()
        assert corner == float(2 * (2 - root).sqrt() / (1 + root))
    assert geodesic_residual(FLAT, [[0, 0], [1, 0], [1, 0], [2, 1]]) == corner
    assert geodesic_residual(FLAT, [[0, 0], [1, 0], [1, 1e-13], [2, 1]]) \
        == corner
    assert geodesic_residual(FLAT, [[0, 0], [1, 0], [1, 0]]) == 0.0
    # a closed loop that goes out and back turns by pi at both vertices
    assert geodesic_residual(FLAT, [[0, 0], [0.5, 0], [0, 0]],
                             closed=True) == 4.0
    run = self_repeated(FLAT, (0, 0), (2, 1),
                        [[0, 0], [1, 0], [1, 0], [2, 1]], ell=0.5)
    assert len(run.iterates) > 1
    assert run.final.length == pytest.approx(math.sqrt(5.0), abs=1e-5)


signed_entry = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([FLAT, FLAT3]),
       st.lists(signed_entry, min_size=3, max_size=3),
       st.lists(st.lists(signed_entry, min_size=3, max_size=3), min_size=2,
                max_size=12),
       st.lists(st.integers(0, 12), max_size=3))
def test_flat_rows_are_the_per_edge_distance(model, start, moves, repeats):
    # the edge lengths and the polyline length are each edge's distance,
    # summed left to right; each move is at least 0.01 long, and repeated
    # vertices leave the residual as is
    moves = [[math.copysign(abs(m[0]) + 0.01, m[0])] + m[1:model.dim]
             for m in moves]
    pts = np.cumsum([start[:model.dim]] + moves, axis=0)
    edges = [model.distance(a, b) for a, b in zip(pts[:-1], pts[1:])]
    assert model.edge_lengths(pts).tolist() == edges
    assert polyline_length(model, pts) == sum(edges)
    loop = np.vstack([pts, pts[:1]])
    assert polyline_length(model, pts, closed=True) == sum(
        model.distance(a, b) for a, b in zip(loop[:-1], loop[1:]))
    doubled = np.insert(pts, [min(i, len(pts)) for i in repeats],
                        pts[[min(i, len(pts) - 1) for i in repeats]], axis=0)
    for closed in (False, True):
        assert geodesic_residual(model, doubled, closed=closed) == \
            geodesic_residual(model, pts, closed=closed)


def test_flat_measures_are_exact_on_integer_edges():
    # a 3-4-5 edge in the plane and a 2-3-6-7 one in space; the closed
    # square's sqrt(2) and the corner are pinned in the residual tests
    # above
    pts = np.array([[1.0, 1.0], [4.0, 5.0], [4.0, 5.0 + 0.25]])
    assert FLAT.edge_lengths(pts).tolist() == [5.0, 0.25]
    assert polyline_length(FLAT, pts) == 5.25
    v, L = FLAT.log_map(pts[0], pts[1])
    assert (v.tolist(), L) == ([0.6, 0.8], 5.0)
    assert FLAT3.distance([1.0, 0.0, -1.0], [3.0, 3.0, 5.0]) == 7.0


def test_latitude_measures_on_a_surface_and_a_space_form():
    # a latitude arc of the unit sphere: the surface's midpoint chords
    # are its exact length sin(theta) dphi, and both models read its
    # geodesic curvature cot(theta) from the acceleration norms
    theta = 1.0
    pts = np.column_stack([np.full(401, theta), np.linspace(0.0, 1.0, 401)])
    chart = surface_model("sphere")
    assert polyline_length(chart, pts) == pytest.approx(math.sin(theta),
                                                        rel=1e-14)
    for model in (chart, SPHERE):
        h = model.edge_lengths(pts)
        norms = model.acceleration_norms(pts, h)
        assert np.max(np.abs(norms - 1.0 / math.tan(theta))) <= 1e-5


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.floats(-1e150, 1e150), min_size=3, max_size=3),
                min_size=1, max_size=20), st.sampled_from([2, 3]))
def test_vecdot_is_the_dot_kernel(rows, dim):
    # the flat distances square edges with np.vecdot, the dot kernel of
    # float(d @ d), which the 3-D attachment takes; a NumPy whose kernels
    # differ fails here
    d = np.array([r[:dim] for r in rows])
    assert np.vecdot(d, d).tolist() == [float(r @ r) for r in d]


@pytest.mark.parametrize("dim", [2, 3])
def test_vecdot_is_the_dot_kernel_on_many_rows(dim):
    d = np.random.default_rng(dim).standard_normal((50_000, dim))
    assert np.vecdot(d, d).tolist() == [float(r @ r) for r in d]


# ---------------------------------------------------------------------------
# Fixed-endpoint process


@pytest.fixture(scope="module")
def flat_run():
    pts = wiggly_chord((0, 0), (10, 0), 0.8, knots=201)
    pts[:, 1] = 0.8 * np.sin(3 * np.pi * pts[:, 0] / 10.0)
    return self_repeated(FLAT, (0, 0), (10, 0), pts, ell=2.0,
                         tol=1e-6, max_iter=50)


def test_flat_wiggle_converges_to_chord(flat_run):
    assert len(flat_run.iterates) <= 50
    assert flat_run.lengths[-1] == pytest.approx(10.0, abs=1e-4)


def test_flat_lengths_monotone(flat_run):
    assert np.all(np.diff(flat_run.lengths) <= 1e-9)


def test_flat_iterates_connect_endpoints(flat_run):
    P, Q = np.array([0.0, 0.0]), np.array([10.0, 0.0])
    ends = [P, Q]
    for k, it in enumerate(flat_run.iterates):
        a, b = ends[k % 2], ends[(k + 1) % 2]
        assert np.allclose(it.points[0], a, atol=1e-12)
        assert np.allclose(it.points[-1], b, atol=1e-12)


def test_flat_iterate_length_bookkeeping(flat_run):
    it = flat_run.iterates[0]
    assert it.length == pytest.approx(
        polyline_length(FLAT, it.points), rel=1e-6)


def test_sphere_detour_converges_to_great_circle():
    via = np.array([
        [np.pi / 2, 0.0],
        [np.pi / 2 - 0.3, np.pi / 8],
        [np.pi / 2 + 0.2, np.pi / 4],
        [np.pi / 2 - 0.1, 3 * np.pi / 8],
        [np.pi / 2, np.pi / 2],
    ])
    fine = [np.linspace(a, b, 30)[:-1] for a, b in zip(via[:-1], via[1:])]
    fine.append(via[-1:])
    pts = np.vstack(fine)
    run = self_repeated(SPHERE, via[0], via[-1], pts, ell=0.7,
                        tol=1e-6, max_iter=60)
    assert run.lengths[-1] == pytest.approx(np.pi / 2, abs=1e-3)
    assert np.all(np.diff(run.lengths) <= 1e-9)
    u = run.final.points[:, 0]
    assert np.abs(u - np.pi / 2).max() < 1e-2


def test_hilly_basin_residual_gate():
    model = surface_model({"name": "hilly", "amplitude": 0.1,
                           "frequency": 1.0})
    P, Q = np.array([0.7, 0.7]), np.array([2.0, 1.6])
    pts = wiggly_chord(P, Q, 0.22, knots=50)
    initial_length = polyline_length(model, pts)
    run = self_repeated(model, P, Q, pts, ell=0.7, tol=1e-3,
                        max_iter=40, steps_per_round=120)
    assert run.stop_reason == "residual"
    assert run.residuals[-1] < 1e-3
    assert run.lengths[-1] <= initial_length
    assert np.all(np.diff(run.lengths) <= 1e-9)


def test_already_geodesic_returns_single_iterate():
    x = np.linspace(0.0, 3.0, 20)
    pts = np.column_stack([x, np.zeros_like(x)])
    run = self_repeated(FLAT, (0, 0), (3, 0), pts, ell=1.0, tol=1e-6)
    assert len(run.iterates) == 1
    assert run.stop_reason == "residual"
    assert run.lengths[0] == pytest.approx(3.0, abs=1e-12)


def test_self_requires_connecting_curve():
    pts = wiggly_chord((0, 0), (4, 1), 0.2)
    with pytest.raises(ConfigError):
        self_repeated(FLAT, (0, 0), (5, 0), pts, ell=1.0)


def test_self_pole_longer_than_distance_raises():
    pts = wiggly_chord((0, 0), (1, 0), 0.1)
    with pytest.raises(PoleTooLongError):
        self_repeated(FLAT, (0, 0), (1, 0), pts, ell=2.0)


def test_self_rejects_periodic_identifications():
    pts = wiggly_chord((0, 0), (0.8, 0), 0.05)
    with pytest.raises(ConfigError):
        self_repeated(TORUS, (0, 0), (0.8, 0), pts, ell=0.2)


# ---------------------------------------------------------------------------
# Free-loop process


@pytest.fixture(scope="module")
def torus_run():
    t = np.linspace(0.0, 1.0, 120)
    loop = np.column_stack([t, 0.15 * np.sin(2 * np.pi * t) + 0.3])
    return loop_repeated(TORUS, loop, ell=0.2, tol=1e-6, max_iter=80)


def test_torus_loop_shortens_to_period(torus_run):
    assert torus_run.lengths[-1] == pytest.approx(1.0, abs=1e-3)
    assert np.all(np.diff(torus_run.lengths) <= 1e-9)


def test_torus_winding_constant(torus_run):
    assert np.allclose(torus_run.winding, [1.0, 0.0], atol=1e-12)
    for it in torus_run.iterates:
        gap = it.points[-1] - it.points[0]
        assert np.allclose(gap, torus_run.winding, atol=1e-9)


def test_cylinder_loop_shortens_to_circle():
    t = np.linspace(0.0, 2.0, 120)
    loop = np.column_stack([t, 0.25 * np.sin(np.pi * t)])
    run = loop_repeated(CYLINDER, loop, ell=0.4, tol=1e-6, max_iter=80)
    assert run.lengths[-1] == pytest.approx(2.0, abs=1e-3)
    assert np.allclose(run.winding, [2.0, 0.0], atol=1e-12)


def test_already_geodesic_loop_single_iterate():
    t = np.linspace(0.0, 1.0, 50)
    loop = np.column_stack([t, np.full_like(t, 0.3)])
    run = loop_repeated(TORUS, loop, ell=0.2, tol=1e-6)
    assert len(run.iterates) == 1
    assert run.stop_reason == "residual"
    assert run.lengths[0] == pytest.approx(1.0, abs=1e-12)


def test_two_point_loop_lift_single_iterate():
    # a straight lift of two points is a closed geodesic; the residual
    # needs three points, so the first round records it
    loop = np.array([[0.0, 0.3], [1.0, 0.3]])
    run = loop_repeated(TORUS, loop, ell=0.2, tol=1e-6)
    assert len(run.iterates) == 1
    assert run.stop_reason == "residual"
    assert run.lengths[0] == pytest.approx(1.0, abs=1e-12)


def test_loop_requires_periodic_flat_model():
    t = np.linspace(0.0, 1.0, 50)
    loop = np.column_stack([t, np.zeros_like(t)])
    with pytest.raises(ConfigError):
        loop_repeated(FLAT, loop, ell=0.2)
    with pytest.raises(ConfigError):
        loop_repeated(SPHERE, loop, ell=0.2)


def test_loop_open_lift_raises():
    t = np.linspace(0.0, 0.6, 50)
    loop = np.column_stack([t, np.zeros_like(t)])
    with pytest.raises(NotClosedError):
        loop_repeated(TORUS, loop, ell=0.2)
    drift = np.column_stack([np.linspace(0, 2.0, 50), np.linspace(0, 0.4, 50)])
    with pytest.raises(NotClosedError):
        loop_repeated(CYLINDER, drift, ell=0.2)


def test_loop_contractible_raises():
    theta = np.linspace(0.0, 2 * np.pi, 60)
    loop = 0.2 * np.column_stack([np.cos(theta), np.sin(theta)]) + 0.5
    with pytest.raises(ConfigError):
        loop_repeated(TORUS, loop, ell=0.1)


def test_loop_pole_at_injectivity_raises():
    t = np.linspace(0.0, 1.0, 50)
    loop = np.column_stack([t, np.full_like(t, 0.2)])
    with pytest.raises(PoleTooLongError):
        loop_repeated(TORUS, loop, ell=0.5)


@pytest.mark.parametrize("period", [0.0, float("nan"), -1.0, float("inf")],
                         ids=["zero", "nan", "negative", "inf"])
def test_flat_periods_must_be_finite_and_positive(period):
    # rejected where the model is made, before the loop process divides
    # by the period or takes half of it as the injectivity bound
    t = np.linspace(0.0, 1.0, 50)
    loop = np.column_stack([0.2 + 0.05 * np.sin(2 * np.pi * t), t])
    with pytest.raises(ConfigError, match="periods"):
        loop_repeated(space_form(0.0, periods=(period, 1.0)), loop, ell=0.2)


def test_run_accessors(torus_run):
    assert len(torus_run.lengths) == len(torus_run.iterates)
    assert len(torus_run.residuals) == len(torus_run.iterates)
    assert torus_run.final is torus_run.iterates[-1]
    assert torus_run.mode == "loop_repeated"
