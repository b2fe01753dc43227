import bisect
import dataclasses
import math

import numpy as np
import pytest
from rk4_reference import _rk4_geodesic as reference_rk4
from scipy.integrate import simpson
from scipy.optimize import brentq, minimize_scalar

from tractrix.errors import (
    ConfigError,
    NoConvergenceError,
    NotClosedError,
    OutOfDomainError,
    PoleLengthDriftError,
    RecordOverflowError,
    SingularChartError,
)
from tractrix import tractrix_sim
from tractrix.config import bundled_scenario
from tractrix.manifold import (
    POLE_STEP,
    SurfaceModel,
    model_from_config,
    shot_steps,
    space_form,
    surface_model,
)
from tractrix.spaceform import dist_at, kappa_at, solve_from_d0
from tractrix.tractrix_sim import (
    _POLE_DRIFT_LIMIT,
    _ROW_BLOCK,
    SimParams,
    _attachment_map,
    _detect_cusps,
    _fermi_shot,
    _fill_curvature,
    _INPUT_STEP,
    TractorCurve,
    _foot_newton,
    orthogonal_attachment,
    polyline_tractor,
    simulate,
    tractor_from_config,
    tractor_from_tractrix,
)

from closed_forms import (
    classical_tractrix,
    geodesic_pole_angle,
    long_pole_sphere,
    polyline_tractrix,
)

FLAT2 = space_form(0.0)
FLAT3 = space_form(0.0, dim=3)
SPHERE = space_form(1.0)
HYP = space_form(-1.0)


def analytic_tractor(point, velocity, t0, t1, *, is_geodesic=False,
                     closed=False):
    """Tractor from scalar point and velocity callables, called per row."""

    def rows(ts):
        ts = ts.tolist()
        return (np.array([point(t) for t in ts], dtype=float),
                np.array([velocity(t) for t in ts], dtype=float))

    return TractorCurve(rows=rows, t0=float(t0), t1=float(t1), closed=closed,
                        is_geodesic=is_geodesic)


def reversed_tractor(curve):
    """Same path traversed the other way (push <-> pull)."""
    t0, t1 = curve.t0, curve.t1

    def rows(ts):
        pts, vel = curve.rows(t0 + t1 - ts)
        return pts, -vel

    return TractorCurve(rows=rows, t0=t0, t1=t1,
                        closed=curve.closed, is_geodesic=curve.is_geodesic,
                        breaks=tuple(sorted(t0 + t1 - b for b in curve.breaks)))


def x_line(t0, t1):
    return tractor_from_config(FLAT2, {"kind": "line", "start": [0.0, 0.0],
                                       "direction": [1.0, 0.0],
                                       "t0": t0, "t1": t1})


def equator(t1):
    return tractor_from_config(SPHERE, {"kind": "latitude",
                                        "colatitude": math.pi / 2,
                                        "t0": 0.0, "t1": t1})


# ---------------------------------------------------------------------------
# Right-hand side: the pole solve and the projected speed


def flat_velocity(eta, eta_prime, gamma):
    """Tractrix velocity <eta', T(ell)> v from the flat pole solve."""
    v, _, t_end = FLAT2.connect(gamma, eta)
    return FLAT2.inner(eta, eta_prime, t_end) * v


def test_rhs_pull_along_axis():
    vel = flat_velocity(np.array([2.0, 0.0]), np.array([1.0, 0.0]),
                        np.array([0.0, 0.0]))
    assert vel == pytest.approx([1.0, 0.0])


def test_rhs_orthogonal_pole_stalls():
    vel = flat_velocity(np.array([0.0, 2.0]), np.array([1.0, 0.0]),
                        np.array([0.0, 0.0]))
    assert np.linalg.norm(vel) == pytest.approx(0.0, abs=1e-15)


def test_rhs_push_points_backward():
    vel = flat_velocity(np.array([2.0, 0.0]), np.array([-1.0, 0.0]),
                        np.array([0.0, 0.0]))
    assert vel == pytest.approx([-1.0, 0.0])


def test_rhs_rejects_pole_length_drift():
    # the pole solve reports the length; the run rejects a drifted one
    with pytest.raises(PoleLengthDriftError):
        simulate(FLAT2, x_line(0.0, 1.0), np.array([-2.1, 0.0]), 2.0)


def sphere_latitude(t0, t1):
    return tractor_from_config(SPHERE, {"kind": "latitude",
                                        "colatitude": 1.0, "t0": t0,
                                        "t1": t1})


@pytest.mark.parametrize("model, tractor, offset, ell", [
    (SPHERE, sphere_latitude(0.25, 1.0), [0.0, 1e-100], 1e-100),
    (FLAT2, x_line(0.0, 1.0), [0.0, 0.0], 1e-7),
], ids=["generic-step", "record-stage"])
def test_collapsed_pole_is_a_typed_error(model, tractor, offset, ell):
    # a pole of 1e-100 on the sphere is coincident points to the log map
    # that gives the run its first pole direction; so is gamma0 at eta
    # itself on the flat line, 1e-7 from ell, inside the drift limit
    with pytest.raises(PoleLengthDriftError,
                       match=rf"from t={tractor.t0}: log map undefined for "
                             rf"coinc"):
        simulate(model, tractor, tractor.point(tractor.t0) + offset, ell,
                 SimParams(dt=0.01))


@pytest.mark.parametrize("model, spec, ell", [
    (surface_model("pseudosphere"), {"kind": "chart_circle",
                                     "center": [1.0, 0.0], "radius": 0.3,
                                     "t1": 1.0}, 0.3),
    (surface_model("sphere"), {"kind": "chart_circle", "center": [1.2, 0.0],
                               "radius": 0.4, "t1": 1.0}, 0.5),
    (surface_model("paraboloid"), {"kind": "chart_circle",
                                   "center": [0.0, 0.0], "radius": 0.6,
                                   "t1": 0.5}, 0.4),
], ids=["pseudosphere", "sphere", "paraboloid"])
def test_tractor_evaluated_once_per_stage_time(model, spec, ell):
    # the RK4 loop of a surface: one sampled time for the record, one for
    # the midpoint that k2 and k3 share and one for the step end per step,
    # plus the start and the last record, in `rows` calls of at most one
    # block each
    tractor = tractor_from_config(model, spec)
    gamma0, _ = orthogonal_attachment(model, tractor, ell, 0.5 * ell)
    calls = []

    def rows(ts):
        calls.append(len(ts))
        return tractor.rows(ts)

    counted = dataclasses.replace(tractor, rows=rows)
    tr = simulate(model, counted, gamma0, ell,
                  SimParams(dt=tractor.span / 100))
    n_steps = len(tr.t) - 1
    assert n_steps == 100 and not tractor.breaks
    assert sum(calls) <= 3 * n_steps + 2
    assert max(calls) == _ROW_BLOCK < sum(calls)


@pytest.mark.parametrize("knot, kept, gamma_end, s_end", [
    # strictly inside the step from 0.50 to 0.51
    (0.505, 1, ("0x1.d740f88f3033dp-2", "0x1.22ad825d1e15bp-2"),
     "0x1.ea568507e2f5cp-1"),
    # exactly on the grid time 0.5
    (0.5, 0, ("0x1.d31ba647ee7e0p-2", "0x1.282cda96944fdp-2"),
     "0x1.e9e6edf65ccdap-1"),
    # 5e-13 before the grid time 0.5, within the 1e-12 that drops a break
    (0.5 - 5e-13, 0, ("0x1.d31ba647ec543p-2", "0x1.282cda9696f1ep-2"),
     "0x1.e9e6edf65d648p-1"),
], ids=["inside", "on_grid", "near_grid"])
def test_tractor_evaluated_once_per_stage_time_across_breaks(
        knot, kept, gamma_end, s_end):
    # a chart polyline with a corner at `knot` on the paraboloid, which the
    # RK4 loop steps, on a grid of 100 steps over [0, 1]: a kept break
    # splits its step in two, and each piece after the first samples its
    # own start, so rows sees 3 (steps + kept) + 1 times, after the one
    # time of the start point; the trace is pinned bit for bit
    tractor = polyline_tractor([[0.0, 0.0], [knot, 0.0],
                                [knot, 1.0 - knot]])
    parab = surface_model("paraboloid")
    gamma0, _ = orthogonal_attachment(parab, tractor, 0.3, 0.15)
    calls = []

    def rows(ts):
        calls.append(len(ts))
        return tractor.rows(ts)

    counted = dataclasses.replace(tractor, rows=rows)
    tr = simulate(parab, counted, gamma0, 0.3,
                  SimParams(dt=tractor.span / 100))
    assert tractor.breaks == (knot,) and len(tr.t) == 101
    assert calls[0] == 1 and sum(calls[1:]) == 3 * (100 + kept) + 1
    assert max(calls) == _ROW_BLOCK
    assert tuple(x.hex() for x in tr.gamma[-1].tolist()) == gamma_end
    assert float(tr.s[-1]).hex() == s_end


def test_break_just_after_a_grid_time_takes_k1_past_it():
    # a corner 5e-13 after the grid time 0.5 is dropped as a sub-step, but
    # the step from 0.5 takes its k1 at the corner, on the segment it
    # opens; the run ends where the run with its corner on 0.5 does
    ends = []
    for knot in (0.5, 0.5 + 5e-13):
        tractor = polyline_tractor([[0.0, 0.0], [knot, 0.0],
                                    [knot, 1.0 - knot]])
        tr = simulate(FLAT2, tractor, np.array([-0.3, 0.0]), 0.3,
                      SimParams(dt=tractor.span / 100))
        ends.append(tr.gamma[-1])
    assert np.max(np.abs(ends[1] - ends[0])) < 1e-9


# ---------------------------------------------------------------------------
# Classical pull on the flat plane


@pytest.fixture(scope="module")
def classical_trace():
    return simulate(FLAT2, x_line(0.0, 10.0), np.array([0.0, 2.0]), 2.0,
                    SimParams(dt=0.005))


def test_classical_gamma_matches_closed_form(classical_trace):
    cl = classical_tractrix(2.0)
    err = np.max(np.abs(classical_trace.gamma - cl.gamma(classical_trace.t)))
    assert err < 1e-9


def test_classical_arclength_matches_closed_form(classical_trace):
    cl = classical_tractrix(2.0)
    err = np.max(np.abs(classical_trace.s - cl.arclength(classical_trace.t)))
    assert err < 1e-9


def test_classical_orthogonal_distance(classical_trace):
    cl = classical_tractrix(2.0)
    err = np.max(np.abs(classical_trace.d - cl.dist(classical_trace.s)))
    assert err < 1e-9


def test_classical_curvature(classical_trace):
    cl = classical_tractrix(2.0)
    ref = cl.kappa(classical_trace.s)
    away = classical_trace.s > 0.05
    ok = away & ~np.isnan(classical_trace.kappa)
    assert np.any(ok)
    rel = np.abs(classical_trace.kappa[ok] - ref[ok]) / ref[ok]
    assert np.max(rel) < 1e-4


def speed_identity_curvature(tr, eps=SimParams().cusp_speed_eps):
    """kappa = sqrt(|eta'|^2 - sdot^2) / (|sdot| J(ell)), NaN where the
    curvature pass masks: stall windows with one record of margin on each
    side, |sdot| < eps, and |d - ell| < 1e-4 on geodesic tractors."""
    n = len(tr.t)
    masked = np.abs(tr.speed) < eps
    for a, b, _, _ in tr.stall_windows:
        masked[max(a - 1, 0):min(b + 2, n)] = True
    if tr.tractor.is_geodesic:
        masked |= np.abs(tr.d - tr.ell) < 1e-4
    sdot = np.abs(tr.speed)
    excess = np.maximum(tr.eta_speed ** 2 - sdot ** 2, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        ks = np.sqrt(excess) / (sdot * tr.jacobi_ell)
    ks[masked] = np.nan
    return ks


def test_classical_speed_identity_curvature(classical_trace):
    cl = classical_tractrix(2.0)
    ref = cl.kappa(classical_trace.s)
    ks = speed_identity_curvature(classical_trace)
    ok = ~np.isnan(ks)
    assert np.any(ok)
    rel = np.abs(ks[ok] - ref[ok]) / ref[ok]
    assert np.max(rel) < 1e-8


def test_classical_pull_has_no_sign_change(classical_trace):
    assert set(classical_trace.sigma.tolist()) == {1}
    assert not any(c.sign_flip for c in classical_trace.cusps)


def test_classical_invariants(classical_trace):
    classical_trace.check_invariants()
    assert classical_trace.max_drift < 1e-10


def test_classical_pole_length_held(classical_trace):
    gaps = np.linalg.norm(classical_trace.eta - classical_trace.gamma, axis=1)
    assert np.max(np.abs(gaps - 2.0)) < 1e-10


# ---------------------------------------------------------------------------
# Cusp crossing and stalls


def test_cusp_crossing_flips_sign():
    cl = classical_tractrix(2.0)
    tr = simulate(FLAT2, x_line(-4.0, 6.0), cl.gamma(-4.0), 2.0,
                  SimParams(dt=0.005))
    assert tr.sigma[0] == -1
    assert tr.sigma[-1] == 1
    flips = [c for c in tr.cusps if c.sign_flip]
    assert len(flips) == 1
    cusp = flips[0]
    assert cusp.t == pytest.approx(0.0, abs=0.01)
    assert cusp.s == pytest.approx(2.0 * math.log(math.cosh(2.0)), abs=0.01)
    # reported turning includes the window's share of the regular turning,
    # which shrinks with cusp_speed_eps
    assert cusp.turning_angle == pytest.approx(math.pi, abs=0.15)


def test_cusp_crossing_stays_on_closed_form():
    cl = classical_tractrix(2.0)
    tr = simulate(FLAT2, x_line(-4.0, 6.0), cl.gamma(-4.0), 2.0,
                  SimParams(dt=0.005))
    assert np.max(np.abs(tr.gamma - cl.gamma(tr.t))) < 1e-9
    s_ref = cl.arclength(tr.t) - cl.arclength(-4.0)
    assert np.max(np.abs(tr.s - s_ref)) < 1e-9


def test_circle_of_pole_radius_stalls_completely():
    circ = tractor_from_config(FLAT2, {"kind": "circle",
                                       "center": [0.0, 0.0], "radius": 2.0,
                                       "t0": 0.0, "t1": 2.0 * math.tau,
                                       "closed": True})
    tr = simulate(FLAT2, circ, np.array([0.0, 0.0]), 2.0, SimParams(dt=0.005))
    assert np.max(np.abs(tr.gamma)) < 1e-12
    assert tr.s[-1] < 1e-12
    assert len(tr.stall_windows) == 1
    turning = sum(w[2] for w in tr.stall_windows)
    assert turning == pytest.approx(math.tau, abs=1e-9)


def test_detect_cusp_interpolates_sign_change():
    # the classical tractrix dragged from t = -4 reaches its cusp at t = 0
    cl = classical_tractrix(2.0)
    tr = simulate(FLAT2, x_line(-4.0, 1.0), cl.gamma(-4.0), 2.0,
                  SimParams(dt=0.01))
    flips = [c for c in tr.cusps if c.sign_flip]
    assert len(flips) == 1
    i = int(np.nonzero(tr.speed[:-1] * tr.speed[1:] < 0)[0][0])
    sp, t = tr.speed, tr.t
    t_c = t[i] + (t[i + 1] - t[i]) * sp[i] / (sp[i] - sp[i + 1])
    assert flips[0].t == pytest.approx(t_c, abs=1e-12)
    assert flips[0].t == pytest.approx(0.0, abs=1e-6)
    # a run with no sign change records no crossing
    pull = simulate(FLAT2, x_line(0.0, 1.0), np.array([0.0, 2.0]), 2.0,
                    SimParams(dt=0.01))
    assert not any(c.sign_flip for c in pull.cusps)


# ---------------------------------------------------------------------------
# Flat space: the pole direction by the monodromy


BENT_POLYLINES = {
    # sharp turns, so the runs push through cusps
    "plane": [[0.0, 0.0], [2.0, 0.0], [2.3, 1.5], [0.5, 1.0], [1.5, -0.5]],
    "space": [[0.0, 0.0, 0.0], [2.0, 0.0, 0.5], [2.3, 1.5, 0.0],
              [0.5, 1.0, -1.0], [1.5, -0.5, 0.2]],
}


@pytest.mark.parametrize("steps", [37, 173, 1000])
@pytest.mark.parametrize("name", ["plane", "space"])
def test_flat_polyline_matches_the_closed_form(name, steps):
    # on a segment A is constant, so each sub-step's map is exact: the
    # breaks split the steps where the velocity turns, and the run follows
    # tan(theta / 2) = tan(theta0 / 2) exp(-t / ell) to rounding
    points = BENT_POLYLINES[name]
    dim = len(points[0])
    tractor = polyline_tractor(points)
    ell = 0.8
    gamma0 = np.array(points[0]) - ell * np.array(
        [math.cos(0.9), math.sin(0.9), 0.0][:dim])
    tr = simulate(space_form(0.0, dim=dim), tractor, gamma0, ell,
                  SimParams(dt=tractor.span / steps))
    exact = polyline_tractrix(points, gamma0, ell, tr.t)
    assert np.max(np.abs(tr.gamma - exact)) <= 1e-13
    assert sum(c.sign_flip for c in tr.cusps) >= 2


def test_step_longer_than_a_block_of_sub_steps():
    # one step over a polyline of 3,000 vertices splits into more sub-steps
    # than a block of maps holds, so the blocks after the first hold no
    # record; the run still follows the closed form to rounding
    ts = np.linspace(0.0, 30.0, 3000)
    points = np.stack([ts / 10.0, 0.2 * np.sin(ts)], axis=1)
    tractor = polyline_tractor(points)
    assert len(tractor.breaks) > 2 * tractrix_sim._MONODROMY_BLOCK
    gamma0 = points[0] - 0.8 * np.array([math.cos(0.9), math.sin(0.9)])
    tr = simulate(FLAT2, tractor, gamma0, 0.8, SimParams(dt=tractor.span))
    exact = polyline_tractrix(points, gamma0, 0.8, tr.t)
    assert len(tr.t) == 2
    assert np.max(np.abs(tr.gamma - exact)) <= 1e-12


def test_line_tractor_matches_the_classical_tractrix_through_its_cusp():
    # A is constant on a line, so even at dt = 0.04 the run is the closed
    # form to rounding through the cusp at t = 0
    cl = classical_tractrix(2.0)
    tr = simulate(FLAT2, x_line(-4.0, 6.0), cl.gamma(-4.0), 2.0,
                  SimParams(dt=0.04))
    assert [c.sign_flip for c in tr.cusps] == [True]
    assert np.max(np.abs(tr.gamma - cl.gamma(tr.t))) <= 1e-13


@pytest.mark.parametrize("name", ["circle3d", "helix3d"])
def test_flat_monodromy_is_sixth_order(name):
    # the sixth-order Magnus maps: halving dt divides gamma's error by 2^6
    cfg = bundled_scenario(name)
    model = model_from_config(cfg.model)
    tractor = tractor_from_config(model, dict(cfg.tractor))
    gamma0 = np.asarray(cfg.gamma0, dtype=float)

    def run(steps):
        return simulate(model, tractor, gamma0, cfg.ell,
                        SimParams(dt=tractor.span / steps)).gamma

    fine = run(1600)
    errors = [np.max(np.abs(run(steps) - fine[::1600 // steps]))
              for steps in (50, 100, 200)]
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all(orders >= 5.5), orders


def test_flat_tiny_pole_follows_its_tractor():
    # a pole of 1e-100 on the line: each map is a rank-one limit of the
    # tanh form, and after its start gamma trails eta along the line
    tr = simulate(FLAT2, x_line(0.25, 1.0), np.array([0.25, 1e-100]), 1e-100,
                  SimParams(dt=0.01))
    assert np.array_equal(tr.gamma[0], [0.25, 1e-100])
    assert np.array_equal(tr.gamma[1:], tr.eta[1:])
    assert np.array_equal(tr.pole_dir[-1], [1.0, 0.0])


def test_non_finite_monodromy_is_a_typed_error():
    # the generator overflows past t = 0.5: the maps of the step from 0.5
    # are not finite, which names that record time, with no RuntimeWarning
    def rows(ts):
        return (np.stack([ts, np.zeros_like(ts)], axis=1),
                np.stack([np.where(ts > 0.5, 1e300, 1.0),
                          np.zeros_like(ts)], axis=1))

    tractor = TractorCurve(rows=rows, t0=0.0, t1=1.0)
    with pytest.raises(PoleLengthDriftError, match=(
            r"^the pole monodromy is not finite in the step from t=0\.5$")):
        simulate(FLAT2, tractor, np.array([0.0, 1.0]), 1.0,
                 SimParams(dt=0.01))
    # so is a pole so short that mu^2 = -det Omega overflows
    with pytest.raises(PoleLengthDriftError, match=r"from t=0\.25$"):
        simulate(FLAT2, x_line(0.25, 1.0), np.array([0.25, 1e-160]), 1e-160,
                 SimParams(dt=0.01))


# ---------------------------------------------------------------------------
# Push runs and the flat fast path


def test_push_is_time_reversal_of_pull():
    pull = simulate(FLAT2, x_line(0.0, 8.0), np.array([0.0, 2.0]), 2.0,
                    SimParams(dt=0.01))
    push = simulate(FLAT2, reversed_tractor(x_line(0.0, 8.0)),
                    pull.gamma[-1].copy(), 2.0, SimParams(dt=0.01))
    assert np.max(np.abs(push.gamma - pull.gamma[::-1])) < 1e-9
    assert set(push.sigma.tolist()) == {-1}


def test_plane_surface_matches_flat_model():
    # one simulation path: the plane as an embedded surface (RK4 poles,
    # Newton connect) must reproduce the closed-form flat run
    plane = surface_model("plane")
    line = {"kind": "chart_line", "start": [0.0, 0.0],
            "direction": [1.0, 0.0], "t1": 1.5}
    fast = simulate(FLAT2, tractor_from_config(FLAT2, line),
                    np.array([0.0, 1.5]), 1.5, SimParams(dt=0.01))
    slow = simulate(plane, tractor_from_config(plane, line),
                    np.array([0.0, 1.5]), 1.5, SimParams(dt=0.01))
    assert np.max(np.abs(fast.gamma - slow.gamma)) < 1e-7
    assert np.max(np.abs(fast.s - slow.s)) < 1e-7


def test_geodesic_aligned_start_stays_on_track():
    tr = simulate(FLAT2, x_line(0.0, 6.0), np.array([-1.5, 0.0]), 1.5,
                  SimParams(dt=0.01))
    assert np.max(np.abs(tr.gamma[:, 1])) < 1e-12
    assert np.max(np.abs(tr.d)) < 1e-12
    kap = tr.kappa[~np.isnan(tr.kappa)]
    assert np.max(np.abs(kap)) < 1e-8
    assert np.max(np.abs(tr.speed - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# Space forms


def test_sphere_short_pole_matches_scalar_solution():
    eq = equator(6.0)
    g0, _ = orthogonal_attachment(SPHERE, eq, 0.8, 0.4, side=-1,
                                  mode="behind")
    tr = simulate(SPHERE, eq, g0, 0.8, SimParams(dt=0.01))
    tr.check_invariants()
    sol = solve_from_d0(1.0, 0.8, 0.4)
    assert np.max(np.abs(tr.d - dist_at(sol, tr.s))) < 1e-8
    ref = kappa_at(sol, tr.s)
    ok = ~np.isnan(tr.kappa)
    assert np.max(np.abs(tr.kappa[ok] - ref[ok]) / ref[ok]) < 1e-3


def test_hyperbolic_short_pole_matches_scalar_solution():
    ray = tractor_from_config(HYP, {"kind": "disk_ray", "angle": 0.0,
                                    "t0": 0.0, "t1": 6.0})
    g0, _ = orthogonal_attachment(HYP, ray, 1.0, 0.5, side=1, mode="behind")
    tr = simulate(HYP, ray, g0, 1.0, SimParams(dt=0.01))
    tr.check_invariants()
    sol = solve_from_d0(-1.0, 1.0, 0.5)
    assert np.max(np.abs(tr.d - dist_at(sol, tr.s))) < 1e-8
    ref = kappa_at(sol, tr.s)
    ok = ~np.isnan(tr.kappa)
    assert np.max(np.abs(tr.kappa[ok] - ref[ok]) / np.abs(ref[ok])) < 1e-3


@pytest.fixture(scope="module")
def long_pole_pull():
    eq = equator(6.0)
    ell = 3.0 * math.pi / 4.0
    g0, _ = orthogonal_attachment(SPHERE, eq, ell, 3.0 * math.pi / 80.0,
                                  side=-1, mode="behind")
    return simulate(SPHERE, eq, g0, ell, SimParams(dt=0.01)), g0


def test_long_pole_matches_analytic_construction(long_pole_pull):
    tr, _ = long_pole_pull
    d_cusp = math.pi - 3.0 * math.pi / 4.0
    i_cusp = int(np.argmax(tr.d > d_cusp - 0.02))
    s_hi = float(tr.s[i_cusp])
    ref = long_pole_sphere(3.0 * math.pi / 4.0, 3.0 * math.pi / 80.0,
                           s_max=s_hi, samples=4001)
    mask = tr.s <= s_hi
    d_ref = np.interp(tr.s[mask], ref.s, ref.d)
    assert np.max(np.abs(tr.d[mask] - d_ref)) < 1e-6


def test_long_pole_cusp_when_pole_reaches_antipodal_band(long_pole_pull):
    tr, _ = long_pole_pull
    flips = [c for c in tr.cusps if c.sign_flip]
    assert len(flips) == 1
    # frozen from the scalar solution of the same setup
    assert flips[0].s == pytest.approx(1.7944251295201716, abs=0.01)


def test_long_pole_duality_with_antipodal_push(long_pole_pull):
    pull, g0 = long_pole_pull
    eq = equator(6.0)
    anti = np.array([math.pi - g0[0], g0[1] + math.pi])
    push = simulate(SPHERE, eq, anti, math.pi / 4.0, SimParams(dt=0.01))
    mapped = np.column_stack([math.pi - pull.gamma[:, 0],
                              pull.gamma[:, 1] + math.pi])
    gaps = [SPHERE.distance(mapped[i], push.gamma[i])
            for i in range(len(mapped))]
    assert max(gaps) < 1e-6


def test_quarter_circumference_pole_keeps_distance():
    eq = equator(5.0)
    for d0 in (0.3, 0.8, 1.3):
        g0, _ = orthogonal_attachment(SPHERE, eq, math.pi / 2, d0, side=-1,
                                      mode="behind")
        tr = simulate(SPHERE, eq, g0, math.pi / 2, SimParams(dt=0.02))
        assert np.ptp(tr.d) < 1e-10


# ---------------------------------------------------------------------------
# The sphere and the disk by the monodromy


def disk_ray(t1, **spec):
    return tractor_from_config(HYP, {"kind": "disk_ray", "t1": t1, **spec})


@pytest.mark.parametrize("model, tractor, ell, d0, mode, cusp", [
    (SPHERE, equator(6.0), 0.8, 0.4, "behind", False),
    (SPHERE, equator(6.0), 0.8, 0.4, "ahead", True),
    (SPHERE, equator(4.0), 2.2, 0.5, "behind", True),
    (HYP, disk_ray(6.0, angle=0.7), 1.0, 0.5, "behind", False),
    (HYP, disk_ray(6.0, angle=0.7), 1.0, 0.5, "ahead", True),
], ids=["sphere-pull", "sphere-push", "sphere-longpole", "disk-pull",
        "disk-push"])
def test_geodesic_tractor_matches_the_closed_form(model, tractor, ell, d0,
                                                  mode, cusp):
    # along the equator and a diameter the chart's frame is parallel
    # (omega = 0) and eta' is constant in it, so A is constant and every
    # map exact: the pole angle from eta' follows tan(theta / 2) =
    # tan(theta0 / 2) exp(-E t) to rounding, through the cusp of a push
    # and of a pole longer than a quarter circle (E < 0)
    gamma0, _ = orthogonal_attachment(model, tractor, ell, d0, mode=mode)
    tr = simulate(model, tractor, gamma0, ell, SimParams(dt=0.05))
    theta = []
    for eta, gamma, t in zip(tr.eta, tr.gamma, tr.t):
        x = -model.log_map(eta, gamma)[0]
        v = tractor.velocity(t)
        theta.append(math.atan2(model.inner(eta, model.quarter_turn(eta, v),
                                            x), model.inner(eta, v, x)))
    exact = geodesic_pole_angle(model.K, ell, theta[0], tr.t - tr.t[0])
    assert np.max(np.abs(np.array(theta) - exact)) <= 1e-12
    assert np.max(np.abs(tr.speed - np.cos(exact))) <= 1e-12
    assert any(c.sign_flip for c in tr.cusps) is cusp


# the final gamma of the sphere's and the disk's former RK4 loop at
# dt = 0.0025, whose error there is O(1e-11)
TURNING_FRAMES = {
    "latitude": (SPHERE, {"kind": "latitude", "colatitude": 1.0, "t1": 6.0},
                 0.9, 0.4, [0.5219470090372185, 5.933514264305309]),
    "disk_circle": (HYP, {"kind": "chart_circle", "center": [0.2, 0.1],
                          "radius": 0.5, "t1": 6.0},
                    0.6, 0.3, [0.5429946886990342, -0.161962130487541]),
}


@pytest.mark.parametrize("name", sorted(TURNING_FRAMES))
def test_turning_frame_runs_match_the_fine_loop(name):
    # tractors whose frame turns (omega != 0), which no bundled space-form
    # scenario has: a flipped sign of omega moves gamma by far more than
    # 1e-10. Along the latitude A is constant and the maps exact; on the
    # disk's chart circle lambda varies and the maps are sixth order
    model, spec, ell, d0, end = TURNING_FRAMES[name]
    tractor = tractor_from_config(model, spec)
    gamma0, _ = orthogonal_attachment(model, tractor, ell, d0)
    ends = [simulate(model, tractor, gamma0, ell,
                     SimParams(dt=dt)).gamma[-1] for dt in (0.04, 0.02, 0.01)]
    assert np.max(np.abs(ends[-1] - end)) <= 1e-10
    if name == "disk_circle":
        gaps = [np.max(np.abs(a - b)) for a, b in zip(ends[:-1], ends[1:])]
        assert math.log2(gaps[0] / gaps[1]) >= 5.5, gaps


def test_far_disk_ray_trips_the_drift_gate():
    # far out on a diameter, gamma = exp_eta(-ell X) is rounding away from
    # the pole length: the record whose drift passes the limit ends the
    # run, as the RK4 loop's gate did (there at t = 23.25)
    gamma0, _ = orthogonal_attachment(HYP, disk_ray(30.0), 1.0, 0.5)
    with pytest.raises(PoleLengthDriftError,
                       match=r"^pole drift 1\.1\d*e-06 exceeds 1e-06 at "
                             r"t=23\.\d+$"):
        simulate(HYP, disk_ray(30.0), gamma0, 1.0, SimParams(dt=0.01))


def test_earliest_failure_ends_the_run():
    # one block of 800 sub-steps holds both the drift failure at t ~ 23.5
    # and tractor points that round onto |z| = 1 from t ~ 37: the earlier
    # one is raised
    ray = dataclasses.replace(disk_ray(40.0), is_geodesic=False)
    gamma0, _ = orthogonal_attachment(HYP, ray, 1.0, 0.5)
    with pytest.raises(PoleLengthDriftError, match=r"at t=2[34]\.\d+$"):
        simulate(HYP, ray, gamma0, 1.0, SimParams(dt=0.05))


@pytest.mark.parametrize("spec, gamma0, ell, error, what", [
    # the tractor reaches the north pole at t = 0.5, a Simpson node
    ({"kind": "chart_line", "start": [0.5, 0.3], "direction": [-1.0, 0.0],
      "t1": 1.0}, [0.9, 0.3], 0.4, SingularChartError, r"theta=0\.0\)"),
    # the tractor passes the south pole between two records: a node of
    # the step between them reads it (the later record, 3.149)
    ({"kind": "chart_line", "start": [2.0, 0.3], "direction": [1.0, 0.3],
      "t1": 1.5}, [1.6, 0.3], 0.4, OutOfDomainError,
     r"^colatitude 3\.144\d* outside"),
    # a push in the meridian plane: gamma lands on the north pole at the
    # record t = 0.5, before the tractor passes it between two rows
    ({"kind": "chart_line", "start": [1.0037, 0.0], "direction": [-1.0, 0.0],
      "t1": 1.3}, [0.5, 0.0], 0.5037, SingularChartError,
     r"theta=0\.0\)"),
    # the same push with t1 = 0.8: gamma crosses the north pole between
    # the records t = 0.49 and 0.5, and the chart continued through it
    # reads the second at a negative colatitude
    ({"kind": "chart_line", "start": [1.0037, 0.0], "direction": [-1.0, 0.0],
      "t1": 0.8}, [0.5037, 0.0], 0.5, OutOfDomainError,
     r"^colatitude -0\.0062\d* outside"),
    # its mirror image crosses the south pole, beyond pi
    ({"kind": "chart_line", "start": [math.pi - 1.0037, 0.0],
      "direction": [1.0, 0.0], "t1": 0.8}, [math.pi - 0.5037, 0.0], 0.5,
     OutOfDomainError, r"^colatitude 3\.14\d* outside"),
], ids=["tractor-at-pole", "tractor-past-pole", "gamma-at-pole",
        "gamma-past-north-pole", "gamma-past-south-pole"])
def test_sphere_rows_pass_the_domain_check(spec, gamma0, ell, error, what):
    # every tractor row and every gamma meets `check_rows`, with the
    # typed errors of the stage that solved each pole before
    with pytest.raises(error, match=what):
        simulate(SPHERE, tractor_from_config(SPHERE, spec),
                 np.array(gamma0), ell, SimParams(dt=0.01))


def test_gamma_near_a_pole_keeps_its_chart():
    # the push above with a longitude slope of 0.1: gamma passes the north
    # pole 0.024 away, more than twice its step of 0.0099, and stays in the
    # chart, its longitude turning by at most 0.42 a record
    tractor = tractor_from_config(SPHERE, {
        "kind": "chart_line", "start": [1.0037, 0.0],
        "direction": [-1.0, 0.1], "t1": 0.8})
    tr = simulate(SPHERE, tractor, np.array([0.5037, 0.0]), 0.5,
                  SimParams(dt=0.01))
    assert 0.02 < np.min(tr.gamma[:, 0]) < 0.03
    assert 0.4 < np.max(np.abs(np.diff(tr.gamma[:, 1]))) < 0.45


def test_far_geodesic_disk_tractor_is_refused_before_its_distances():
    # at t1 = 40 tanh(20) rounds to 1: the tractor's end is outside the
    # disk, and the geodesic check says so before measuring from it (a
    # RuntimeWarning fails the suite)
    gamma0, _ = orthogonal_attachment(HYP, disk_ray(40.0), 1.0, 0.5)
    with pytest.raises(OutOfDomainError,
                       match=r"^point \|z\|\^2=1\.0 outside the unit disk$"):
        simulate(HYP, disk_ray(40.0), gamma0, 1.0)


# ---------------------------------------------------------------------------
# General surfaces


def test_paraboloid_ring_pull():
    parab = surface_model("paraboloid")
    ring = tractor_from_config(parab, {"kind": "chart_circle",
                                       "center": [0.0, 0.0], "radius": 1.5,
                                       "rate": 1.0, "t0": 0.0,
                                       "t1": math.pi})
    g0, _ = orthogonal_attachment(parab, ring, 0.9, 0.45, side=1,
                                  mode="behind")
    tr = simulate(parab, ring, g0, 0.9, SimParams(dt=0.02))
    tr.check_invariants()
    assert tr.max_drift < 1e-6
    ks = speed_identity_curvature(tr)
    both = ~np.isnan(tr.kappa) & ~np.isnan(ks)
    assert np.any(both)
    rel = np.abs(tr.kappa[both] - ks[both]) / np.abs(ks[both])
    assert np.max(rel) < 1e-3


SURFACE_PULLS = ("paraboloid_pull", "hilly_pull")


def bundled_run(name, span=None, dt=None):
    """(model, trace, gamma0) of a bundled scenario, span and dt optional."""
    cfg = bundled_scenario(name)
    model = model_from_config(cfg.model)
    spec = dict(cfg.tractor)
    if span is not None:
        spec["t1"] = spec.get("t0", 0.0) + span
    tractor = tractor_from_config(model, spec)
    if isinstance(cfg.gamma0, dict):
        g0, _ = orthogonal_attachment(model, tractor, cfg.ell, **cfg.gamma0)
    else:
        g0 = np.asarray(cfg.gamma0, dtype=float)
    sim = dict(cfg.sim, **({} if dt is None else {"dt": dt}))
    return model, simulate(model, tractor, g0, cfg.ell, SimParams(**sim)), g0


@pytest.fixture(scope="module", params=SURFACE_PULLS)
def surface_pull(request):
    return bundled_run(request.param)


def test_surface_profile_matches_a_shot_from_gamma(surface_pull):
    # J(ell) and the integral of J, read off the Wronskian profile of the
    # tractor-end shot, equal those of the Jacobi field integrated from
    # gamma along the pole; both pulls run the default pole step
    model, tr, _ = surface_pull
    n_pole = shot_steps(tr.ell, SimParams().pole_step)
    u = np.linspace(0.0, tr.ell, n_pole + 1)
    for i in np.linspace(0, len(tr.t) - 1, 6).astype(int):
        points, _, _, s = reference_rk4(model.chart.spray, tr.gamma[i],
                                        tr.pole_dir[i], tr.ell, n_pole, True)
        assert abs(s[-1] - tr.jacobi_ell[i]) < 1e-8
        assert abs(simpson(s, x=u) - tr.jacobi_int[i]) < 1e-8
        assert points[-1] == pytest.approx(tr.eta[i], abs=1e-6)


def test_surface_first_record_lands_on_gamma0(surface_pull):
    # record 0 is a length-ell shot along the direction solved at gamma0's
    # own pole length, which differs from ell by the shot's RK4 error
    _, tr, g0 = surface_pull
    assert np.linalg.norm(tr.gamma[0] - g0) <= _POLE_DRIFT_LIMIT


def test_surface_drift_is_measured(surface_pull):
    _, tr, _ = surface_pull
    tr.check_invariants()
    assert 0.0 < tr.max_drift < _POLE_DRIFT_LIMIT


@pytest.mark.parametrize("name", SURFACE_PULLS)
def test_surface_pull_self_converges_at_fourth_order(name):
    runs = [bundled_run(name, span=0.5, dt=dt)[1]
            for dt in (0.05, 0.025, 0.0125, 0.00625)]
    for value in (lambda tr: tr.gamma[-1], lambda tr: tr.s[-1] - tr.s[0]):
        gaps = [np.linalg.norm(value(a) - value(b))
                for a, b in zip(runs[:-1], runs[1:])]
        orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
        assert np.all(orders >= 3.5), (gaps, orders)


def test_helix_pull_crosses_one_cusp():
    hx = tractor_from_config(FLAT3, {"kind": "helix", "radius": 1.0,
                                     "pitch": 0.3, "t0": 0.0, "t1": 12.0})
    g0 = hx.point(0.0) + np.array([0.0, 0.0, 1.2])
    tr = simulate(FLAT3, hx, g0, 1.2, SimParams(dt=0.01))
    tr.check_invariants()
    flips = [c for c in tr.cusps if c.sign_flip]
    assert len(flips) == 1
    assert tr.sigma[0] == -1 and tr.sigma[-1] == 1


# ---------------------------------------------------------------------------
# Foot distance d on geodesic tractors


def scan_foot(model, tractor, gamma, center, width):
    """(d, tau) by a bounded scan of dist(gamma, eta(tau)) over tau."""
    res = minimize_scalar(
        lambda tau: model.distance(gamma, tractor.point(tau)),
        bounds=(center - width, center + width), method="bounded",
        options={"xatol": 1e-10})
    return float(res.fun), float(res.x)


def test_foot_solve_matches_distance_scan_on_ellipsoid(ellipsoid_setup):
    model, tr = ellipsoid_setup

    def foot_geodesic(tau, gamma):
        """Length and cosine to the tractor of the geodesic foot -> gamma."""
        foot = tr.tractor.point(tau)
        v, length, _ = model.connect(foot, gamma)
        return length, model.inner(foot, v, model.unit(
            foot, tr.tractor.velocity(tau)))

    for i in np.linspace(0, len(tr.t) - 1, 5).astype(int):
        d, tau = scan_foot(model, tr.tractor, tr.gamma[i], tr.t[i],
                           1.8 * tr.ell)
        assert tr.d[i] == pytest.approx(d, abs=1e-9)
        # the foot geodesic meets the tractor at a right angle
        tau = brentq(lambda x: foot_geodesic(x, tr.gamma[i])[1],
                     tau - 0.01, tau + 0.01, xtol=1e-14)
        assert tr.d[i] == pytest.approx(foot_geodesic(tau, tr.gamma[i])[0],
                                        abs=1e-9)


def test_plane_surface_foot_distance_matches_flat_model():
    plane = surface_model("plane")
    line = {"kind": "chart_line", "start": [0.0, 0.0],
            "direction": [1.0, 0.0], "t1": 1.0, "geodesic": True}
    g0 = np.array([-1.2, 0.9])
    flat = simulate(FLAT2, tractor_from_config(FLAT2, line), g0, 1.5,
                    SimParams(dt=0.01))
    surf = simulate(plane, tractor_from_config(plane, line), g0, 1.5,
                    SimParams(dt=0.01))
    assert np.max(np.abs(surf.d - flat.d)) < 1e-9


def test_foot_distance_to_a_line_in_three_dimensions():
    line = tractor_from_config(FLAT3, {"kind": "line",
                                       "start": [0.0, 0.0, 0.0],
                                       "direction": [1.0, 0.0, 0.0],
                                       "t1": 2.0})
    tr = simulate(FLAT3, line, np.array([-1.0, 0.6, 0.8]), math.sqrt(2.0),
                  SimParams(dt=0.01))
    assert np.max(np.abs(tr.d - np.hypot(tr.gamma[:, 1], tr.gamma[:, 2]))) \
        < 1e-12
    on_line = simulate(FLAT3, line, np.array([-1.5, 0.0, 0.0]), 1.5,
                       SimParams(dt=0.01))
    assert np.max(on_line.d) < 1e-12


def test_singular_foot_jacobian_raises_no_convergence(monkeypatch):
    # space forms measure d in closed form; the Newton foot solve is the
    # surfaces' path. A meridian of the paraboloid, where the chord start
    # is not exact, so Newton steps are taken
    model = surface_model("paraboloid")
    line = tractor_from_config(model, {"kind": "chart_line",
                                       "start": [0.0, 0.0],
                                       "direction": [0.6, 0.8], "t1": 1.0,
                                       "geodesic": True})
    g0, _ = orthogonal_attachment(model, line, 0.8, 0.4)
    # c = 0 makes the foot solve's tau column zero
    shoot_rows = model.shoot_rows
    monkeypatch.setattr(model, "shoot_rows", lambda *a, **kw: (
        lambda end, tangent, c, s: (end, tangent, 0.0 * c, s))(
            *shoot_rows(*a, **kw)))
    with pytest.raises(NoConvergenceError,
                       match=r"record \d+: singular Jacobian"):
        simulate(model, line, g0, 0.8, SimParams(dt=0.1))


@pytest.mark.parametrize("chart, start, direction", [
    ("paraboloid", [0.0, 0.0], [0.6, 0.8]),
    ({"name": "hilly", "amplitude": 0.5, "frequency": 1.0}, [0.0, 0.0],
     [1.0, 1.0]),
    ({"name": "ellipsoid", "a": 1.0, "b": 1.0, "c": 1.2},
     [math.pi / 2, 0.0], [0.0, 1.0]),
    ("sphere", [1.0, 0.3], [1.0, 0.0]),
], ids=["paraboloid", "hilly", "ellipsoid", "sphere"])
def test_foot_tau_column_matches_central_difference(chart, start, direction):
    # geodesic tractors: a meridian, the diagonal of the hills (a mirror
    # line), the equator, a meridian
    model = surface_model(chart)
    tractor = tractor_from_config(model, {
        "kind": "chart_line", "start": start, "direction": direction,
        "t0": -1.0, "t1": 1.0, "geodesic": True})
    rng = np.random.default_rng(7)
    h = 1e-5
    tau = rng.uniform(-0.5, 0.5, 8)
    d = rng.choice([-1.0, 1.0], 8) * rng.uniform(0.05, 0.9, 8)
    # shots of 48 steps: the analytic column is the derivative of the
    # exact map, which the stepped map matches at O(step^4)
    step = np.max(np.abs(d)) / 48
    _, tau_col, _ = _fermi_shot(model, tractor, tau, d, step)
    fd = (_fermi_shot(model, tractor, tau + h, d, step)[0]
          - _fermi_shot(model, tractor, tau - h, d, step)[0]) / (2.0 * h)
    assert np.all(np.linalg.norm(tau_col - fd, axis=1)
                  <= 1e-6 * np.linalg.norm(fd, axis=1))


def test_foot_solve_makes_few_shots_per_record(monkeypatch):
    # the chord start, then two lockstep Newton passes: about 3 rows per
    # record in at most 4 row shots
    model, tr, _ = bundled_run("ellipsoid_equator", span=0.2)
    rows = []
    shoot_rows = model.shoot_rows
    monkeypatch.setattr(model, "shoot_rows", lambda p, *a, **kw: (
        rows.append(len(p)), shoot_rows(p, *a, **kw))[1])
    d = _foot_newton(tr, SimParams().pole_step)
    assert np.array_equal(d, tr.d)
    assert len(rows) <= 4
    assert sum(rows) <= 3.5 * len(tr.t)


def test_foot_solve_on_the_sphere_chart_matches_the_closed_form():
    # the equator of the unit sphere as a chart_line of the surface model:
    # the Newton foot solve against the space form's closed form
    chart_model = surface_model("sphere")
    equator = tractor_from_config(chart_model, {
        "kind": "chart_line", "start": [math.pi / 2, 0.0],
        "direction": [0.0, 1.0], "t1": 1.5, "geodesic": True})
    g0, _ = orthogonal_attachment(chart_model, equator, 0.8, 0.5)
    tr = simulate(chart_model, equator, g0, 0.8, SimParams(dt=0.01))
    closed = SPHERE.distance_to_geodesic(
        np.array([math.pi / 2, 0.0]), np.array([0.0, 1.0]), tr.gamma)
    assert np.max(tr.d) > 0.4
    assert np.max(np.abs(tr.d - closed)) < 1e-9


def logged_shots(monkeypatch, name, pole_step, span=None):
    """({phase: [(steps, length)]}, (stage shots, their sprays)) of a
    bundled scenario's attachment, simulation at pole_step and
    `check_invariants`.

    The log holds every shot through `_rk4_geodesic`. The phases are
    "attach", "simulate", "foot" (the foot solve) and "check"; a shot
    inside `connect` is logged with the starting length that sized the
    solve, and a row of `shoot_rows` with the length of its longest row.
    The tractrix stages run their pole shots inline, so those are counted
    apart: the shots of the run's `tractrix_stage` and `tractrix_step`
    calls (one and three) and the sprays that the model's counter gained
    in the run beyond those of the logged shots.
    """
    log, where = {}, {"phase": None, "start": None}
    logged_sprays = [0]
    rk4 = SurfaceModel._rk4_geodesic

    def logged(self, x0, v0, length, n_steps, collect):
        start = where["start"]
        log.setdefault(where["phase"], []).append(
            (n_steps, length if start is None else start))
        before = self.sprays
        try:
            return rk4(self, x0, v0, length, n_steps, collect)
        finally:
            logged_sprays[0] += self.sprays - before

    connect = SurfaceModel.connect

    def logged_connect(self, p, q, v_guess=None, L_guess=None, **kw):
        assert L_guess is not None
        where["start"] = L_guess
        try:
            return connect(self, p, q, v_guess, L_guess, **kw)
        finally:
            where["start"] = None

    shoot_rows = SurfaceModel.shoot_rows

    def logged_rows(self, p, v, length, pole_step):
        where["start"] = float(np.max(length))
        try:
            return shoot_rows(self, p, v, length, pole_step)
        finally:
            where["start"] = None

    foot_newton = tractrix_sim._foot_newton

    def logged_foot(trace, step):
        where["phase"] = "foot"
        try:
            return foot_newton(trace, step)
        finally:
            where["phase"] = "simulate"

    monkeypatch.setattr(SurfaceModel, "_rk4_geodesic", logged)
    monkeypatch.setattr(SurfaceModel, "connect", logged_connect)
    monkeypatch.setattr(SurfaceModel, "shoot_rows", logged_rows)
    monkeypatch.setattr(tractrix_sim, "_foot_newton", logged_foot)
    cfg = bundled_scenario(name)
    model = model_from_config(cfg.model)
    spec = dict(cfg.tractor)
    if span is not None:
        spec["t1"] = spec.get("t0", 0.0) + span
    tractor = tractor_from_config(model, spec)
    where["phase"] = "attach"
    g0, _ = orthogonal_attachment(model, tractor, cfg.ell, **cfg.gamma0)
    where["phase"] = "simulate"
    stage_shots = [0]

    def counted(fn, shots):
        def call(*args, **kw):
            stage_shots[0] += shots
            return fn(*args, **kw)
        return call

    model.tractrix_stage = counted(model.tractrix_stage, 1)
    model.tractrix_step = counted(model.tractrix_step, 3)
    before, logged_sprays[0] = model.sprays, 0
    trace = simulate(model, tractor, g0, cfg.ell,
                     SimParams(**dict(cfg.sim, pole_step=pole_step)))
    stages = stage_shots[0], model.sprays - before - logged_sprays[0]
    where["phase"] = "check"
    trace.check_invariants()
    monkeypatch.undo()
    return log, stages


def test_every_shot_follows_the_step_rule(monkeypatch):
    # hilly_pull and ellipsoid_equator at the bench's spans: every shot
    # takes shot_steps(length, step), the attachment's at _INPUT_STEP and
    # the run's, check_invariants' included, at its pole_step; a stage's
    # inline pole shot shows as its 4 sprays a step on the model's counter
    runs, stages = {}, {}
    for name, span in (("hilly_pull", None), ("ellipsoid_equator", 0.2)):
        for h in (POLE_STEP, 0.025, 0.0125):
            runs[name, h], stages[name, h] = logged_shots(monkeypatch, name,
                                                          h, span)
    for (name, h), (shots, sprays) in stages.items():
        ell = bundled_scenario(name).ell
        assert shots > 0 and sprays == 4 * shot_steps(ell, h) * shots
    for (name, h), log in runs.items():
        assert set(log) == ({"attach", "simulate", "foot", "check"}
                            if name == "ellipsoid_equator"
                            else {"attach", "simulate", "check"})
        for phase, shots in log.items():
            step = _INPUT_STEP if phase == "attach" else h
            assert all(n == shot_steps(L, step) for n, L in shots), phase
    # halving pole_step doubles the run's counts (up to the ceiling, for
    # the foot solve's rows) and leaves the attachment's alone; the foot
    # solve's rows, at most 0.27 long, take the floor of 8 at POLE_STEP
    assert {n for n, _ in runs["ellipsoid_equator", POLE_STEP]["foot"]} \
        == {8}
    coarse, fine = (runs["ellipsoid_equator", h] for h in (0.025, 0.0125))
    assert fine["attach"] == coarse["attach"]
    assert {n for n, _ in coarse["simulate"]} == {20}
    assert {n for n, _ in fine["simulate"]} == {40}
    assert len(fine["foot"]) == len(coarse["foot"])
    for (n, _), (m, _) in zip(coarse["foot"], fine["foot"]):
        assert 2 * n - 1 <= m <= 2 * n


def test_foot_solve_converges_at_fourth_order_in_pole_step():
    # the hills diagonal at amplitude 0.5: the foot distances of one set
    # of gamma, solved with shots at h, h/2 and h/4
    model = surface_model({"name": "hilly", "amplitude": 0.5,
                           "frequency": 1.0})
    tractor = tractor_from_config(model, {
        "kind": "chart_line", "start": [0.0, 0.0], "direction": [1.0, 1.0],
        "t1": 1.0, "geodesic": True})
    g0, _ = orthogonal_attachment(model, tractor, 0.8, 0.6)
    tr = simulate(model, tractor, g0, 0.8, SimParams(dt=0.05))
    d = [_foot_newton(tr, POLE_STEP / 2 ** k) for k in range(3)]
    coarse, fine = (np.max(np.abs(a - b)) for a, b in zip(d, d[1:]))
    assert fine > 0.0
    assert math.log2(coarse / fine) >= 3.5


def test_paraboloid_propagation_rhs_count():
    # the scalar path: one paraboloid_pull propagation makes exactly as
    # many spray evaluations, by the model's counter, as it made
    # right-hand side calls before the row shots
    cfg = bundled_scenario("paraboloid_pull")
    model = model_from_config(cfg.model)
    tractor = tractor_from_config(model, cfg.tractor)
    g0, _ = orthogonal_attachment(model, tractor, cfg.ell, **cfg.gamma0)
    before = model.sprays
    tr = simulate(model, tractor, g0, cfg.ell, SimParams(**cfg.sim))
    assert (len(tr.t), model.sprays - before) == (251, 40240)


def plane_cusp_run():
    """(model, trace, params) of the classical tractrix across its cusp,
    on the plane as an embedded surface: one stall window."""
    plane = surface_model("plane")
    line = tractor_from_config(plane, {
        "kind": "chart_line", "start": [-1.0, 0.0], "direction": [1.0, 0.0],
        "t1": 2.0})
    params = SimParams(dt=0.02, pole_step=0.1)
    gamma0 = classical_tractrix(2.0).gamma(-1.0)
    return plane, simulate(plane, line, gamma0, 2.0, params), params


@pytest.mark.parametrize("case", ["paraboloid_pull", "plane_cusp"])
def test_surface_post_passes_transport_in_rows(monkeypatch, case):
    # the cusp and curvature passes transport all their records in row
    # calls: no scalar christoffel_at, and one two-substep RK4 (8 row
    # evaluations) per transport call, however many records it carries
    if case == "plane_cusp":
        model, tr, params = plane_cusp_run()
        assert len(tr.stall_windows) == 1
    else:
        model, tr, _ = bundled_run(case, span=0.5)
        params = SimParams(**bundled_scenario(case).sim)
    calls = {}
    for name in ("christoffel_at", "christoffel_rows", "parallel_transport"):
        calls[name] = 0
        original = getattr(type(model), name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(type(model), name, counted)
    again = dataclasses.replace(tr, kappa=np.full(len(tr.t), np.nan),
                                cusps=[], stall_windows=[])
    _detect_cusps(again, params)
    _fill_curvature(again, params)
    assert calls["christoffel_at"] == 0
    assert calls["parallel_transport"] == 2 + len(tr.stall_windows)
    assert calls["christoffel_rows"] == 8 * calls["parallel_transport"]
    assert again.stall_windows == tr.stall_windows
    np.testing.assert_array_equal(again.kappa, tr.kappa)
    assert np.count_nonzero(np.isfinite(tr.kappa)) > len(tr.t) // 2


@pytest.mark.parametrize("name", ["sphere_pull", "halfk_pull",
                                  "sphere_longpole", "hyperbolic_pull",
                                  "classical_flat"])
def test_closed_form_foot_distance_matches_newton(name):
    _, tr, _ = bundled_run(name)
    assert np.max(np.abs(tr.d - _foot_newton(tr, POLE_STEP))) < 1e-10


# ---------------------------------------------------------------------------
# Derived tractors


def test_tractor_from_tractrix_shifts_a_line():
    line = x_line(0.0, 8.0)
    derived = tractor_from_tractrix(FLAT2, line, 1.5, sign=1)
    assert derived.is_geodesic
    for t in np.linspace(0.0, 8.0, 9):
        assert derived.point(t) == pytest.approx(line.point(t)
                                                 + np.array([1.5, 0.0]))


def test_tractrix_of_derived_tractor_is_the_base():
    line = x_line(0.0, 8.0)
    derived = tractor_from_tractrix(FLAT2, line, 1.5, sign=1)
    tr = simulate(FLAT2, derived, np.array([0.0, 0.0]), 1.5,
                  SimParams(dt=0.01))
    assert np.max(np.abs(tr.gamma[:, 1])) < 1e-9
    assert np.ptp(tr.speed) < 1e-6


def test_closed_base_reproduced_around_full_loop():
    c3 = tractor_from_config(FLAT3, {"kind": "circle3d", "radius": 2.0})
    derived = tractor_from_tractrix(FLAT3, c3, 0.7, sign=1)
    assert derived.closed
    tr = simulate(FLAT3, derived, c3.point(0.0), 0.7, SimParams(dt=0.01))
    tr.check_invariants()
    ref = np.array([c3.point(t) for t in tr.t])
    assert np.max(np.abs(tr.gamma - ref)) < 1e-6
    assert tr.s[-1] == pytest.approx(2.0 * math.pi * 2.0, abs=1e-6)


# ---------------------------------------------------------------------------
# Polyline tractors


def test_polyline_corner_does_not_drift():
    poly = polyline_tractor(np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 3.0]]))
    tr = simulate(FLAT2, poly, np.array([0.0, 1.0]), 1.0, SimParams(dt=0.01))
    tr.check_invariants()
    assert tr.max_drift < 1e-8


def test_closed_square_loop():
    sq = polyline_tractor(np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0],
                                    [0.0, 4.0], [0.0, 0.0]]), closed=True)
    assert sq.closed
    tr = simulate(FLAT2, sq, np.array([0.0, -1.0]), 1.0, SimParams(dt=0.01))
    tr.check_invariants()
    assert set(tr.sigma.tolist()) == {1}


def test_polyline_drops_zero_segments():
    poly = polyline_tractor(np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]]))
    assert poly.span == pytest.approx(2.0)


def test_reversed_tractor_flips_breaks():
    poly = polyline_tractor(np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 1.0]]))
    rev = reversed_tractor(poly)
    assert rev.breaks == pytest.approx((1.0,))
    assert rev.point(rev.t0) == pytest.approx([3.0, 1.0])


# ---------------------------------------------------------------------------
# Tractor rows against the scalar evaluation


def polyline_scalar(points, closed=False):
    """The scalar point and velocity of a polyline: the segment found by
    bisecting the knots, closed curves wrapped by Python's %."""
    pts = np.asarray(points, dtype=float)
    seg = np.diff(pts, axis=0)
    lens = np.linalg.norm(seg, axis=1)
    knots = np.concatenate([[0.0], np.cumsum(lens)])
    dirs = seg / lens[:, None]

    def locate(t):
        t = float(t) % knots[-1] if closed else float(t)
        i = min(max(bisect.bisect_right(knots.tolist(), t) - 1, 0),
                len(lens) - 1)
        return i, t

    def point(t):
        i, t = locate(t)
        return pts[i] + (t - knots[i]) * dirs[i]

    return point, lambda t: dirs[locate(t)[0]].copy()


LINE_DIR = np.array([3.0, -1.0]) / np.linalg.norm([3.0, -1.0])
HELIX_W = 1.0 / math.hypot(1.3, 0.4)
LAT_W = 1.0 / math.sin(1.1)
RAY_U = np.array([math.cos(0.7), math.sin(0.7)])
SQUARE = [[0.0, 0.0], [1.3, 0.2], [1.1, 1.7], [-0.4, 0.9], [0.0, 0.0]]
BENT = [[0.0, 0.0], [1.0, 0.5], [1.5, 2.0], [3.0, 2.2]]

# (model, spec, scalar point, scalar velocity): the closed forms each
# catalog kind evaluated one parameter at a time, with math.sin and math.cos
SCALAR_TRACTORS = {
    "line": (FLAT2, {"kind": "line", "start": [0.3, -0.2],
                     "direction": [3.0, -1.0], "t0": -1.0, "t1": 2.0},
             lambda t: np.array([0.3, -0.2]) + t * LINE_DIR,
             lambda t: LINE_DIR.copy()),
    "chart_circle": (
        SPHERE, {"kind": "chart_circle", "center": [1.2, 0.1],
                 "radius": 0.3, "rate": 1.7, "t1": 3.0},
        lambda t: np.array([1.2, 0.1]) + 0.3 * np.array(
            [math.cos(1.7 * t), math.sin(1.7 * t)]),
        lambda t: 0.3 * 1.7 * np.array([-math.sin(1.7 * t),
                                        math.cos(1.7 * t)])),
    "circle": (
        FLAT2, {"kind": "circle", "center": [0.5, -1.0], "radius": 2.0,
                "t1": 4.0 * math.pi, "closed": True},
        lambda t: np.array([0.5, -1.0]) + 2.0 * np.array(
            [math.cos(0.5 * t), math.sin(0.5 * t)]),
        lambda t: 2.0 * 0.5 * np.array([-math.sin(0.5 * t),
                                        math.cos(0.5 * t)])),
    "latitude": (SPHERE, {"kind": "latitude", "colatitude": 1.1,
                          "phi0": 0.4, "t1": 2.0},
                 lambda t: np.array([1.1, 0.4 + LAT_W * t]),
                 lambda t: np.array([0.0, LAT_W])),
    "disk_ray": (HYP, {"kind": "disk_ray", "angle": 0.7, "t1": 3.0},
                 lambda t: np.tanh(0.5 * t) * RAY_U,
                 lambda t: (0.5 / (np.cosh(0.5 * t) * np.cosh(0.5 * t)))
                 * RAY_U),
    "helix": (
        FLAT3, {"kind": "helix", "radius": 1.3, "pitch": 0.4, "t1": 9.0},
        lambda t: np.array([1.3 * math.cos(HELIX_W * t),
                            1.3 * math.sin(HELIX_W * t), 0.4 * HELIX_W * t]),
        lambda t: np.array([-1.3 * HELIX_W * math.sin(HELIX_W * t),
                            1.3 * HELIX_W * math.cos(HELIX_W * t),
                            0.4 * HELIX_W])),
    "circle3d": (
        FLAT3, {"kind": "circle3d", "radius": 1.7},
        lambda t: np.array([1.7 * math.cos(t / 1.7),
                            1.7 * math.sin(t / 1.7), 0.0]),
        lambda t: np.array([-math.sin(t / 1.7), math.cos(t / 1.7), 0.0])),
    "wiggly_circle": (
        FLAT3, {"kind": "wiggly_circle", "radius": 1.0, "amplitude": 0.2,
                "lobes": 3},
        lambda t: np.array([1.0 * math.cos(t), 1.0 * math.sin(t),
                            0.2 * math.sin(3 * t)]),
        lambda t: np.array([-1.0 * math.sin(t), 1.0 * math.cos(t),
                            0.2 * 3 * math.cos(3 * t)])),
    "polyline": (FLAT2, {"kind": "polyline", "points": BENT},
                 *polyline_scalar(BENT)),
    "closed_polyline": (FLAT2, {"kind": "polyline", "points": SQUARE,
                                "closed": True},
                        *polyline_scalar(SQUARE, closed=True)),
}


def probe_times(tractor):
    """More than a block of times inside and outside [t0, t1], the
    polyline knots and, around a closed curve, the span and beyond."""
    t0, t1 = tractor.t0, tractor.t1
    return np.concatenate([
        np.linspace(t0 - 0.5 * tractor.span, t1 + 0.5 * tractor.span, 301),
        [t0, t1, 2.0 * t1 - t0, 3.0 * t1 - 2.0 * t0],
        tractor.breaks, np.add(tractor.breaks, tractor.span)])


def assert_rows_match(tractor, point, velocity, ts):
    pts, vel = tractor.rows(ts)
    for rows, scalar, one_row in ((pts, point, tractor.point),
                                  (vel, velocity, tractor.velocity)):
        assert np.array_equal(rows, np.array([scalar(t) for t in ts]))
        assert np.array_equal(rows, np.array([one_row(t) for t in ts]))


@pytest.mark.parametrize("name", sorted(SCALAR_TRACTORS))
def test_rows_match_the_scalar_evaluation(name):
    model, spec, point, velocity = SCALAR_TRACTORS[name]
    tractor = tractor_from_config(model, spec)
    ts = probe_times(tractor)
    assert_rows_match(tractor, point, velocity, ts)
    t0, t1 = tractor.t0, tractor.t1
    assert_rows_match(reversed_tractor(tractor),
                      lambda t: point(t0 + t1 - t),
                      lambda t: -velocity(t0 + t1 - t), ts)


def test_tractrix_of_rows_match_the_scalar_shots():
    model, spec, point, velocity = SCALAR_TRACTORS["helix"]
    derived = tractor_from_config(model, {"kind": "tractrix_of",
                                          "curve": spec, "ell": 0.7,
                                          "sign": -1})

    def shot(t):
        p = point(t)
        return model.exp_point(p, -model.unit(p, velocity(t)), 0.7)[0]

    ts = np.linspace(-1.0, 10.0, 37)
    assert_rows_match(derived, shot,
                      lambda t: (shot(t + 1e-6) - shot(t - 1e-6)) / 2e-6, ts)


def scalar_loop(model, tractor, gamma0, ell, params, times):
    """The columns of `simulate`'s records and arclengths from its
    per-stage loop, with two scalar tractor calls per stage time."""
    n_pole = shot_steps(ell, params.pole_step)

    def tractor_at(t):
        return (np.asarray(tractor.point(t), dtype=float).tolist(),
                np.asarray(tractor.velocity(t), dtype=float).tolist())

    state, _ = model.tractrix_start(tractor.point(tractor.t0), gamma0, ell,
                                    params.pole_step)
    stage = model.tractrix_stage
    breaks = [float(b) for b in tractor.breaks if times[0] < b < times[-1]]
    records, s_list, s = [], [], 0.0
    for i, t in enumerate(times):
        eta, etap = tractor_at(t)
        rate, sdot, rec = stage(eta, etap, state, ell, n_pole, record=True)
        records.append((eta,) + rec)
        s_list.append(s)
        if i == len(times) - 1:
            break
        t_next = times[i + 1]
        lo = bisect.bisect_left(breaks, t + 1e-12)
        hi = bisect.bisect_left(breaks, t_next - 1e-12)
        knots = [t, *breaks[lo:hi], t_next]
        for ta, tb in zip(knots[:-1], knots[1:]):
            hh = tb - ta
            half = hh / 2
            if ta == t:
                k1, q1 = rate, sdot
            else:
                k1, q1, _ = stage(*tractor_at(ta), state, ell, n_pole)
            eta, etap = tractor_at(ta + half)
            k2, q2, _ = stage(eta, etap,
                              [y + half * k for y, k in zip(state, k1)],
                              ell, n_pole)
            k3, q3, _ = stage(eta, etap,
                              [y + half * k for y, k in zip(state, k2)],
                              ell, n_pole)
            k4, q4, _ = stage(*tractor_at(tb - 1e-9 * hh),
                              [y + hh * k for y, k in zip(state, k3)],
                              ell, n_pole)
            h6 = hh / 6.0
            state = [y + h6 * (a + 2 * b + 2 * c + d)
                     for y, a, b, c, d in zip(state, k1, k2, k3, k4)]
            s = s + h6 * (q1 + 2 * q2 + 2 * q3 + q4)
    columns = [np.array(column) for column in zip(*records)]
    # a record carries the samples of J along its pole: each row's
    # integral by Simpson's rule on the pole grid
    grid = np.linspace(0.0, ell, n_pole + 1)
    columns[5] = np.array([simpson(row, x=grid) for row in columns[5]])
    return columns, np.array(s_list)


@pytest.mark.parametrize("name", ["hilly_pull"])
def test_simulate_matches_the_scalar_loop(name):
    # the RK4 loop, which only surfaces take
    model, tr, g0 = bundled_run(name)
    tractor, ell = tr.tractor, tr.ell
    params = SimParams(**bundled_scenario(name).sim)
    columns, s = scalar_loop(model, tractor, g0, ell, params, tr.t.tolist())
    (eta, gamma, pole_dir, speed, jac_ell, jac_int, conj, drift, eta_speed,
     K_lo, K_hi) = columns
    for got, want in ((tr.eta, eta), (tr.gamma, gamma),
                      (tr.pole_dir, pole_dir), (tr.speed, speed),
                      (tr.jacobi_ell, jac_ell), (tr.jacobi_int, jac_int),
                      (tr.pole_conjugate, conj), (tr.eta_speed, eta_speed),
                      (tr.pole_K_lo, K_lo), (tr.pole_K_hi, K_hi),
                      (tr.s, s)):
        assert np.array_equal(got, want)
    assert tr.max_drift == max(0.0, *drift)


# ---------------------------------------------------------------------------
# Attachment helper


def test_orthogonal_attachment_behind():
    line = x_line(0.0, 6.0)
    g0, t_star = orthogonal_attachment(FLAT2, line, 2.0, 1.2, side=1,
                                       mode="behind")
    assert t_star < 0.0
    assert np.linalg.norm(g0 - line.point(0.0)) == pytest.approx(2.0,
                                                                 abs=1e-9)
    assert g0[1] == pytest.approx(1.2, abs=1e-9)
    assert g0[0] == pytest.approx(-math.sqrt(4.0 - 1.44), abs=1e-9)


def test_orthogonal_attachment_ahead():
    line = x_line(0.0, 6.0)
    g0, t_star = orthogonal_attachment(FLAT2, line, 2.0, 1.2, side=-1,
                                       mode="ahead")
    assert t_star > 0.0
    assert g0[1] == pytest.approx(-1.2, abs=1e-9)
    assert g0[0] == pytest.approx(math.sqrt(4.0 - 1.44), abs=1e-9)


def fermi_coordinates(model, tractor, gamma, tau, d):
    """(tau, d) with exp_{eta(tau)}(d N(tau)) = gamma, N = eta' turned by
    +pi/2, by Newton on forward differences from the given start, with
    shots at the attachment's step."""

    def fermi(tau, d):
        foot = np.asarray(tractor.point(tau), dtype=float)
        normal = model.quarter_turn(foot,
                                    model.unit(foot, tractor.velocity(tau)))
        return model.exp_point(foot, math.copysign(1.0, d) * normal,
                               abs(d), _INPUT_STEP)[0]

    h = 1e-7
    for _ in range(30):
        r = gamma - fermi(tau, d)
        if np.linalg.norm(r) < 1e-13:
            return tau, d
        J = np.column_stack([(fermi(tau + h, d) - fermi(tau, d)) / h,
                             (fermi(tau, d + h) - fermi(tau, d)) / h])
        step = np.linalg.solve(J, r)
        tau, d = tau + step[0], d + step[1]
    raise AssertionError("Fermi coordinates did not converge")


@pytest.mark.parametrize("mode", ["behind", "ahead"])
@pytest.mark.parametrize("name", ["paraboloid_pull", "hilly_pull",
                                  "ellipsoid_equator"])
def test_surface_attachment_meets_pole_length_and_offset(name, mode):
    cfg = bundled_scenario(name)
    model = model_from_config(cfg.model)
    tractor = tractor_from_config(model, cfg.tractor)
    d0, side = cfg.gamma0["d0"], cfg.gamma0["side"]
    g0, tau = orthogonal_attachment(model, tractor, cfg.ell, d0, side=side,
                                    mode=mode)
    t0 = tractor.t0
    assert (tau - t0 > 0.0) == (mode == "ahead")
    assert abs(model.distance(g0, tractor.point(t0), L_guess=cfg.ell,
                              pole_step=_INPUT_STEP) - cfg.ell) < 1e-10
    # start the Fermi solve on the tractor, off the returned foot
    tau_f, d_f = fermi_coordinates(model, tractor, g0, tau + 0.05, 0.0)
    assert abs(d_f - side * d0) < 1e-10
    assert abs(tau_f - tau) < 1e-9


def test_attachment_stays_on_the_side_mode_selects():
    # the line x = sinh(5t) / 5 (x = t ahead of t0) speeds up behind t0,
    # so the flat estimate lies far too far back and the first step
    # overshoots past t0, where a second root waits
    line = analytic_tractor(
        lambda t: np.array([math.sinh(5 * t) / 5 if t < 0 else t, 0.0]),
        lambda t: np.array([math.cosh(5 * t) if t < 0 else 1.0, 0.0]),
        0.0, 1.0)
    g0, t_star = orthogonal_attachment(FLAT2, line, 1.0, 0.6, side=1,
                                       mode="behind")
    assert t_star == pytest.approx(math.asinh(-4.0) / 5, abs=1e-12)
    assert g0 == pytest.approx([-0.8, 0.6], abs=1e-12)


def test_orthogonal_attachment_rejects_offset_beyond_pole():
    with pytest.raises(ConfigError):
        orthogonal_attachment(FLAT2, x_line(0.0, 6.0), 1.0, 1.5)


@pytest.mark.parametrize("side", [2, 0, 0.5, -2])
def test_orthogonal_attachment_rejects_a_side_other_than_plus_or_minus_one(
        side):
    with pytest.raises(ConfigError, match="side"):
        orthogonal_attachment(FLAT2, x_line(0.0, 6.0), 1.0, 0.6, side=side)


@pytest.mark.parametrize("ell", [math.nan, math.inf])
def test_non_finite_pole_length_is_a_config_error(ell):
    line = x_line(0.0, 6.0)
    with pytest.raises(ConfigError, match="ell"):
        simulate(FLAT2, line, np.array([0.0, 1.0]), ell)
    with pytest.raises(ConfigError, match="ell"):
        orthogonal_attachment(FLAT2, line, ell, 0.5)


@pytest.mark.parametrize("mode", ["behind", "ahead"])
@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize("name", ["paraboloid_pull", "hilly_pull",
                                  "ellipsoid_equator", "sphere_pull",
                                  "hyperbolic_pull"])
def test_attachment_jacobian_columns_match_central_differences(name, side,
                                                               mode):
    # at the attachment's starting (tau, theta): the tau column, a Jacobi
    # field along the offset shot, and the theta column, one along the
    # pole, against central differences of the residual itself
    cfg = bundled_scenario(name)
    model = model_from_config(cfg.model)
    tractor = tractor_from_config(model, cfg.tractor)
    _, tau = orthogonal_attachment(model, tractor, cfg.ell, cfg.gamma0["d0"],
                                   side=side, mode=mode)
    start, evaluate = _attachment_map(model, tractor, cfg.ell,
                                      cfg.gamma0["d0"], side)
    x, _, jac, _ = start(tau)
    h = 1e-5
    for k in range(2):
        e = h * np.eye(2)[k]
        fd = (evaluate(x + e)[0] - evaluate(x - e)[0]) / (2.0 * h)
        assert np.linalg.norm(jac[:, k] - fd) <= 1e-8 * np.linalg.norm(fd)


@pytest.mark.parametrize("mode", ["behind", "ahead"])
@pytest.mark.parametrize("name", ["paraboloid_pull", "hilly_pull",
                                  "ellipsoid_equator"])
def test_surface_attachment_takes_few_newton_iterations(monkeypatch, name,
                                                        mode):
    # every iteration evaluates the map once (two shots) unless a step is
    # halved
    cfg = bundled_scenario(name)
    model = model_from_config(cfg.model)
    tractor = tractor_from_config(model, cfg.tractor)
    calls = []
    attachment_map = tractrix_sim._attachment_map

    def counted(*args):
        start, evaluate = attachment_map(*args)
        return start, lambda x: (calls.append(x), evaluate(x))[1]

    monkeypatch.setattr(tractrix_sim, "_attachment_map", counted)
    orthogonal_attachment(model, tractor, cfg.ell, cfg.gamma0["d0"],
                          side=cfg.gamma0["side"], mode=mode)
    assert 1 <= len(calls) <= 4


@pytest.mark.parametrize("fault, match", [
    ("singular", "singular Jacobian"), ("offset", "did not converge")])
def test_attachment_failures_are_no_convergence_errors(monkeypatch, fault,
                                                       match):
    # on a circle in 2-D and 3-D, where the flat estimate misses: a
    # Jacobian with a zero column (the whole 1x1 Jacobian in 3-D), and a
    # residual that no step can lower below 1e-3, end the solve with
    # NoConvergenceError, never a ZeroDivisionError
    attachment_map = tractrix_sim._attachment_map

    def faulty(*args):
        start, evaluate = attachment_map(*args)

        def spoil(F, J, gamma0):
            if fault == "singular":
                J = J.copy()
                J[:, 0] = 0.0
                return F, J, gamma0
            return np.hypot(F, 1e-3), J, gamma0

        def spoiled_start(tau):
            x, *rest = start(tau)
            return (x, *spoil(*rest))

        return spoiled_start, lambda x: spoil(*evaluate(x))

    monkeypatch.setattr(tractrix_sim, "_attachment_map", faulty)
    for model, spec in (
            (FLAT2, {"kind": "circle", "center": [0.0, 0.0], "radius": 2.0}),
            (FLAT3, {"kind": "circle3d", "radius": 2.0})):
        with pytest.raises(NoConvergenceError, match=match):
            orthogonal_attachment(model, tractor_from_config(model, spec),
                                  1.0, 0.6)


@pytest.mark.parametrize("spec, ell, d0, side, mode, gamma0, tau", [
    ({"kind": "line", "start": [0, 0, 0], "direction": [0, 0, 1]},
     0.5, 0.3, 1, "behind", [0.0, 0.3, -0.4], -0.4),
    ({"kind": "line", "start": [0, 0, 0], "direction": [0, 0, 1]},
     0.5, 0.3, -1, "ahead", [0.0, -0.3, 0.4], 0.4),
    ({"kind": "helix", "radius": 1.0, "pitch": 0.4, "t1": 2.0},
     1.2, 0.5, 1, "behind",
     [0.06908966434444849, -0.4952036129520578, -0.5728693818741313],
     -1.5424980171767342),
    ({"kind": "helix", "radius": 1.0, "pitch": 0.4, "t1": 2.0},
     1.2, 0.5, -1, "ahead",
     [0.9657347704209474, 1.1477614530903189, 0.34852480663776164],
     0.9384317615595159),
], ids=["z-line", "z-line-ahead", "helix", "helix-ahead"])
def test_flat3_attachment_offsets_in_the_xy_plane(spec, ell, d0, side, mode,
                                                  gamma0, tau):
    # gamma0 = eta(tau) + d0 N(tau), N normal to eta' in the (x, y) plane
    # (along +-y for the z axis), |gamma0 - eta(0)| = ell; the values are
    # those of the earlier secant solve
    tractor = tractor_from_config(FLAT3, spec)
    g0, t = orthogonal_attachment(FLAT3, tractor, ell, d0, side=side,
                                  mode=mode)
    assert g0 == pytest.approx(gamma0, abs=1e-12)
    assert t == pytest.approx(tau, abs=1e-12)
    assert np.linalg.norm(g0 - tractor.point(0.0)) == pytest.approx(
        ell, abs=1e-12)


# ---------------------------------------------------------------------------
# Configuration and guards


def test_params_validation():
    with pytest.raises(ConfigError):
        SimParams(dt=0.0)
    with pytest.raises(ConfigError):
        SimParams(cusp_speed_eps=1.5)
    with pytest.raises(ConfigError):
        SimParams(max_records=1)


@pytest.mark.parametrize("cap", [2.5, 10.0, True, "10"])
def test_params_reject_a_record_cap_that_is_not_an_integer(cap):
    with pytest.raises(ConfigError, match="max_records must be an integer"):
        SimParams(max_records=cap)


def test_params_take_integer_record_caps():
    assert SimParams(max_records=np.int64(10)).max_records == 10
    assert SimParams(max_records=math.inf).max_records == math.inf


# an unbounded record cap, max_records = inf, is allowed
@pytest.mark.parametrize("name, value", [
    (name, value)
    for name in ("dt", "pole_step", "cusp_speed_eps", "max_records")
    for value in (math.nan, math.inf, -math.inf, 0.0, -0.1)
    if (name, value) != ("max_records", math.inf)])
def test_params_reject_bad_values_by_name(name, value):
    with pytest.raises(ConfigError, match=name):
        SimParams(**{name: value})


def test_span_cut_into_steps_gives_steps_plus_one_records():
    # span / (span / 400) rounds up to 400 plus one ulp for this span, and
    # a plain ceil would take 401 steps
    poly = polyline_tractor(np.array([[0.0, 0.0], [1.09, 0.0]]))
    steps = 400
    assert math.ceil(poly.span / (poly.span / steps)) == steps + 1
    tr = simulate(FLAT2, poly, np.array([-1.0, 0.0]), 1.0,
                  SimParams(dt=poly.span / steps))
    assert len(tr.t) == steps + 1
    assert tr.t[-1] == poly.t1


def test_record_overflow_guard():
    with pytest.raises(RecordOverflowError):
        simulate(FLAT2, x_line(0.0, 10.0), np.array([0.0, 1.0]), 1.0,
                 SimParams(dt=0.001, max_records=100))


def test_initial_attachment_must_match_pole():
    with pytest.raises(PoleLengthDriftError):
        simulate(FLAT2, x_line(0.0, 5.0), np.array([0.0, 1.5]), 1.0)


def test_config_requires_kind():
    with pytest.raises(ConfigError):
        tractor_from_config(FLAT2, {"start": [0, 0]})


def test_config_missing_key_names_field():
    with pytest.raises(ConfigError, match="direction"):
        tractor_from_config(FLAT2, {"kind": "line", "start": [0, 0],
                                    "t0": 0.0, "t1": 1.0})


def test_config_rejects_chart_kinds_on_wrong_model():
    with pytest.raises(ConfigError):
        tractor_from_config(SPHERE, {"kind": "line", "start": [0, 0],
                                     "direction": [1, 0], "t0": 0, "t1": 1})
    with pytest.raises(ConfigError):
        tractor_from_config(FLAT2, {"kind": "latitude",
                                    "colatitude": 1.0, "t0": 0, "t1": 1})


def test_config_rejects_partial_closed_circle():
    with pytest.raises(NotClosedError):
        tractor_from_config(FLAT2, {"kind": "circle", "center": [0, 0],
                                    "radius": 1.0, "t0": 0.0, "t1": 1.0,
                                    "closed": True})


@pytest.mark.parametrize("sign", [1.7, 0.5, 0, -2, -1.0])
def test_tractrix_of_sign_must_be_plus_or_minus_one(sign):
    spec = {"kind": "tractrix_of", "ell": 0.5, "sign": sign,
            "curve": {"kind": "line", "start": [0, 0], "direction": [1, 0]}}
    if sign != -1:
        with pytest.raises(ConfigError, match="tractor.sign"):
            tractor_from_config(FLAT2, spec)
    else:
        assert tractor_from_config(FLAT2, spec).point(1.0) == pytest.approx(
            [0.5, 0.0], abs=1e-12)


def test_analytic_tractor_closed_gap_check():
    with pytest.raises(NotClosedError):
        analytic_tractor(lambda t: np.array([t, 0.0]),
                         lambda t: np.array([1.0, 0.0]), 0.0, 1.0,
                         closed=True)
