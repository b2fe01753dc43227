import math

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from tractrix.errors import (
    ConfigError,
    NoConvergenceError,
    NotClosedError,
    PoleLengthDriftError,
    RecordOverflowError,
)
from tractrix.config import bundled_scenario
from tractrix.manifold import model_from_config, space_form, surface_model
from tractrix.spaceform import classical_tractrix, dist_at, kappa_at, \
    long_pole_sphere, solve_from_d0
from tractrix.tractrix_sim import (
    _POLE_DRIFT_LIMIT,
    SimParams,
    analytic_tractor,
    orthogonal_attachment,
    polyline_tractor,
    reversed_tractor,
    simulate,
    tractor_from_config,
    tractor_from_tractrix,
)

FLAT2 = space_form(0.0)
FLAT3 = space_form(0.0, dim=3)
SPHERE = space_form(1.0)
HYP = space_form(-1.0)


def x_line(t0, t1, model=FLAT2):
    return tractor_from_config(model, {"kind": "line", "start": [0.0, 0.0],
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


def test_classical_speed_identity_curvature(classical_trace):
    cl = classical_tractrix(2.0)
    ref = cl.kappa(classical_trace.s)
    ok = ~np.isnan(classical_trace.kappa_speed)
    rel = np.abs(classical_trace.kappa_speed[ok] - ref[ok]) / ref[ok]
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
    both = ~np.isnan(tr.kappa) & ~np.isnan(tr.kappa_speed)
    rel = np.abs(tr.kappa[both] - tr.kappa_speed[both]) \
        / np.abs(tr.kappa_speed[both])
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
    g0, _ = orthogonal_attachment(model, tractor, cfg.ell, **cfg.gamma0)
    sim = dict(cfg.sim, **({} if dt is None else {"dt": dt}))
    return model, simulate(model, tractor, g0, cfg.ell, SimParams(**sim)), g0


@pytest.fixture(scope="module", params=SURFACE_PULLS)
def surface_pull(request):
    return bundled_run(request.param)


def test_surface_profile_matches_a_shot_from_gamma(surface_pull):
    # the Wronskian profile of the tractor-end shot equals the Jacobi
    # profile integrated from gamma along the pole
    model, tr, _ = surface_pull
    n_pole = len(tr.pole_u) - 1
    for i in np.linspace(0, len(tr.t) - 1, 6).astype(int):
        pole = model.exp_map(tr.gamma[i], tr.pole_dir[i], tr.ell,
                             steps=n_pole, want_jacobi=True)
        assert np.max(np.abs(pole.jacobi - tr.jacobi[i])) < 1e-8
        assert pole.endpoint == pytest.approx(tr.eta[i], abs=1e-6)


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
    model = space_form(0.0)
    monkeypatch.setattr(model, "exp_point", lambda *a, **kw: (
        np.zeros(2), np.array([0.0, 1.0])))
    with pytest.raises(NoConvergenceError, match="singular"):
        simulate(model, x_line(0.0, 1.0, model=model),
                 np.array([-1.2, 0.9]), 1.5, SimParams(dt=0.1))


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


def test_orthogonal_attachment_rejects_offset_beyond_pole():
    with pytest.raises(ConfigError):
        orthogonal_attachment(FLAT2, x_line(0.0, 6.0), 1.0, 1.5)


# ---------------------------------------------------------------------------
# Configuration and guards


def test_params_validation():
    with pytest.raises(ConfigError):
        SimParams(dt=0.0)
    with pytest.raises(ConfigError):
        SimParams(cusp_speed_eps=1.5)
    with pytest.raises(ConfigError):
        SimParams(max_records=1)


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


def test_analytic_tractor_closed_gap_check():
    with pytest.raises(NotClosedError):
        analytic_tractor(lambda t: np.array([t, 0.0]),
                         lambda t: np.array([1.0, 0.0]), 0.0, 1.0,
                         closed=True)
