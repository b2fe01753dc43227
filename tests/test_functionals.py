import math

import numpy as np
import pytest

from tractrix.errors import MissingJacobiError, NonPositiveSampleError
from tractrix.functionals import (
    ExponentFit,
    leading_exponent_estimate,
    length_gap_bound,
    polyline_length,
    sweep_area,
    sweep_result,
    total_curvature,
    tractor_length,
)
from tractrix.manifold import space_form
from tractrix.tractrix_sim import (
    SimParams,
    orthogonal_attachment,
    simulate,
    tractor_from_config,
    tractor_from_tractrix,
)

from closed_forms import classical_tractrix

FLAT2 = space_form(0.0)
FLAT3 = space_form(0.0, dim=3)
SPHERE = space_form(1.0)
HYP = space_form(-1.0)


def x_line(t0, t1):
    return tractor_from_config(FLAT2, {"kind": "line", "start": [0.0, 0.0],
                                       "direction": [1.0, 0.0],
                                       "t0": t0, "t1": t1})


@pytest.fixture(scope="module")
def classical_trace():
    return simulate(FLAT2, x_line(0.0, 10.0), np.array([0.0, 2.0]), 2.0,
                    SimParams(dt=0.005))


@pytest.fixture(scope="module")
def geodesic_trace():
    return simulate(FLAT2, x_line(0.0, 6.0), np.array([-1.5, 0.0]), 1.5,
                    SimParams(dt=0.01))


@pytest.fixture(scope="module")
def sphere_trace():
    eq = tractor_from_config(SPHERE, {"kind": "latitude",
                                      "colatitude": math.pi / 2,
                                      "t0": 0.0, "t1": 5.0})
    g0, _, _ = orthogonal_attachment(SPHERE, eq, 1.0, 0.5, side=-1,
                                     mode="behind")
    return simulate(SPHERE, eq, g0, 1.0, SimParams(dt=0.01))


@pytest.fixture(scope="module")
def hyperbolic_trace():
    ray = tractor_from_config(HYP, {"kind": "disk_ray", "angle": 0.0,
                                    "t0": 0.0, "t1": 6.0})
    g0, _, _ = orthogonal_attachment(HYP, ray, 1.0, 0.5, side=1, mode="behind")
    return simulate(HYP, ray, g0, 1.0, SimParams(dt=0.01))


# ---------------------------------------------------------------------------
# Tractor length


def test_geodesic_lengths_coincide(geodesic_trace):
    assert tractor_length(geodesic_trace) == pytest.approx(
        geodesic_trace.s[-1], abs=1e-9)


def test_classical_formula_recovers_track_length(classical_trace):
    L = tractor_length(classical_trace)
    assert abs(L - 10.0) / 10.0 < 1e-4
    assert classical_trace.s[-1] == pytest.approx(
        2.0 * math.log(math.cosh(5.0)), abs=1e-9)


def test_classical_formula_vs_polyline(classical_trace):
    L = tractor_length(classical_trace)
    pl = polyline_length(FLAT2, classical_trace.eta)
    assert abs(L - pl) / pl < 1e-3


def test_parallel_circle_lengths_on_sphere():
    eq = tractor_from_config(SPHERE, {"kind": "latitude",
                                      "colatitude": math.pi / 2,
                                      "t0": 0.0, "t1": math.tau})
    g0, _, _ = orthogonal_attachment(SPHERE, eq, math.pi / 2, math.pi / 6,
                                     side=-1, mode="behind")
    tr = simulate(SPHERE, eq, g0, math.pi / 2, SimParams(dt=0.01))
    L = tractor_length(tr)
    pl = polyline_length(SPHERE, tr.eta)
    assert abs(L - pl) / pl < 1e-4
    # both curves are concentric parallel circles
    assert pl == pytest.approx(math.tau, abs=1e-9)
    theta = tr.gamma[0, 0]
    assert tr.s[-1] == pytest.approx(math.tau * math.sin(theta), abs=1e-8)


def test_missing_jacobi_raises(classical_trace):
    import dataclasses

    broken = dataclasses.replace(
        classical_trace,
        jacobi_ell=np.full(len(classical_trace.t), np.nan))
    with pytest.raises(MissingJacobiError):
        tractor_length(broken)
    with pytest.raises(MissingJacobiError):
        sweep_area(broken)


# ---------------------------------------------------------------------------
# Sweep area


def test_flat_area_is_half_ell_squared_curvature(classical_trace):
    A = sweep_area(classical_trace)
    K = total_curvature(classical_trace)
    assert abs(A - 0.5 * 4.0 * K) / A < 1e-4


def test_half_classical_area_limit():
    tr = simulate(FLAT2, x_line(0.0, 25.4), np.array([0.0, 2.0]), 2.0,
                  SimParams(dt=0.005))
    assert tr.s[-1] >= 24.0
    assert abs(sweep_area(tr) - math.pi) < 1e-3
    assert abs(total_curvature(tr) - math.pi / 2) < 1e-3


def test_sphere_area_factorization(sphere_trace):
    A = sweep_area(sphere_trace)
    K = total_curvature(sphere_trace)
    assert abs(A - (1.0 - math.cos(1.0)) * K) / A < 1e-3


def test_hyperbolic_area_factorization(hyperbolic_trace):
    A = sweep_area(hyperbolic_trace)
    K = total_curvature(hyperbolic_trace)
    assert abs(A - (math.cosh(1.0) - 1.0) * K) / A < 1e-3


def test_full_pole_rotation_sweeps_disk_area():
    circ = tractor_from_config(FLAT2, {"kind": "circle", "center": [0, 0],
                                       "radius": 2.0, "t0": 0.0,
                                       "t1": 2.0 * math.tau, "closed": True})
    tr = simulate(FLAT2, circ, np.array([0.0, 0.0]), 2.0, SimParams(dt=0.005))
    assert sweep_area(tr) == pytest.approx(math.pi * 4.0, abs=1e-9)
    assert total_curvature(tr) == pytest.approx(math.tau, abs=1e-9)


def test_fenchel_circle_attains_pi_ell_squared():
    base = tractor_from_config(FLAT3, {"kind": "circle3d", "radius": 2.0})
    drv = tractor_from_tractrix(FLAT3, base, 0.7, sign=1)
    tr = simulate(FLAT3, drv, base.point(base.t0), 0.7, SimParams(dt=0.005))
    A = sweep_area(tr)
    assert abs(A - math.pi * 0.49) / (math.pi * 0.49) < 1e-3
    assert total_curvature(tr) == pytest.approx(math.tau, abs=1e-3)


def test_fenchel_nonplanar_exceeds_pi_ell_squared():
    base = tractor_from_config(FLAT3, {"kind": "wiggly_circle",
                                       "radius": 2.0, "amplitude": 0.35,
                                       "lobes": 4})
    drv = tractor_from_tractrix(FLAT3, base, 0.7, sign=1)
    tr = simulate(FLAT3, drv, base.point(base.t0), 0.7, SimParams(dt=0.005))
    assert sweep_area(tr) > math.pi * 0.49 + 1e-3


# ---------------------------------------------------------------------------
# Total curvature


def test_straight_tractrix_has_zero_turning(geodesic_trace):
    assert abs(total_curvature(geodesic_trace)) < 1e-8


def test_half_classical_turning(classical_trace):
    ref = math.atan(math.sinh(5.0))
    assert total_curvature(classical_trace) == pytest.approx(ref, abs=1e-5)


def test_cusp_crossing_turning_includes_pi():
    cl = classical_tractrix(2.0)
    tr = simulate(FLAT2, x_line(-4.0, 6.0), cl.gamma(-4.0), 2.0,
                  SimParams(dt=0.005))
    ref = math.atan(math.sinh(2.0)) + math.atan(math.sinh(3.0)) + math.pi
    assert total_curvature(tr) == pytest.approx(ref, abs=1e-4)


# ---------------------------------------------------------------------------
# Length-gap bound


def test_gap_bound_zero_for_geodesic(geodesic_trace):
    gb = length_gap_bound(geodesic_trace.s[-1], geodesic_trace.kappa,
                          geodesic_trace.jacobi_ell, s=geodesic_trace.s)
    assert gb == pytest.approx(0.0, abs=1e-9)


def test_gap_bound_below_measured_gap(classical_trace, sphere_trace,
                                      hyperbolic_trace):
    for tr in (classical_trace, sphere_trace, hyperbolic_trace):
        gap = tractor_length(tr) - (tr.s[-1] - tr.s[0])
        gb = length_gap_bound(tr.s[-1] - tr.s[0], tr.kappa, tr.jacobi_ell,
                              s=tr.s)
        assert 0.0 < gb <= gap + 1e-6


def test_sweep_result_invariants(classical_trace, sphere_trace):
    for tr in (classical_trace, sphere_trace):
        sw = sweep_result(tr)
        assert sw.L_eta >= sw.L_gamma
        assert sw.area >= 0.0 and sw.K_total >= 0.0
        assert sw.gap_bound <= sw.L_eta - sw.L_gamma + 1e-6
        assert sw.ell == tr.ell
        assert len(sw.jacobi_at_ell) == len(tr.t)


def test_equality_characterization(classical_trace, geodesic_trace):
    geo_gap = tractor_length(geodesic_trace) - geodesic_trace.s[-1]
    assert geo_gap < 1e-6
    assert np.nanmax(np.abs(geodesic_trace.kappa)) < 1e-4
    cl_gap = tractor_length(classical_trace) - classical_trace.s[-1]
    assert cl_gap > 1e-6
    assert np.nanmax(classical_trace.kappa) > 1e-4


# ---------------------------------------------------------------------------
# Leading-exponent fit


def test_exponent_of_classical_decay(classical_trace):
    fit = leading_exponent_estimate(classical_trace.s, classical_trace.d)
    assert fit.slope == pytest.approx(-0.5, abs=1e-6)
    assert fit.r2 > 0.999
    assert not fit.low_confidence
    assert float(fit) == fit.slope


def test_exponent_of_constant_series_is_zero():
    s = np.linspace(0.0, 5.0, 200)
    fit = leading_exponent_estimate(s, np.full_like(s, 0.7))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r2 == 1.0


def test_exponent_window_is_tail_half():
    s = np.linspace(0.0, 10.0, 400)
    fit = leading_exponent_estimate(s, np.exp(-0.3 * s))
    assert fit.window[0] >= 5.0 - 1e-9
    assert fit.n_samples >= 20


def test_exponent_widens_short_windows():
    s = np.linspace(0.0, 1.0, 30)
    fit = leading_exponent_estimate(s, np.exp(-s))
    assert fit.n_samples >= 20


def test_exponent_rejects_nonpositive_samples():
    s = np.linspace(0.0, 10.0, 100)
    f = np.exp(-s)
    f[-3] = 0.0
    with pytest.raises(NonPositiveSampleError):
        leading_exponent_estimate(s, f)


def test_exponent_flags_non_exponential_series():
    s = np.linspace(0.0, 10.0, 400)
    f = np.exp(-s) * (2.0 + np.sin(3.0 * s))
    fit = leading_exponent_estimate(s, f)
    assert fit.low_confidence


def test_exponent_fit_is_frozen_dataclass():
    fit = ExponentFit(slope=-1.0, intercept=0.0, r2=1.0,
                      window=(0.0, 1.0), n_samples=20)
    with pytest.raises(Exception):
        fit.slope = 0.0
