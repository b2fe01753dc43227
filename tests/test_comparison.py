import dataclasses
import math

import numpy as np
import pytest

from tractrix.comparison import (
    Check,
    ComparisonReport,
    CurvatureBounds,
    certify_bounds,
    le_sandwich_check,
    merge_reports,
    rauch_length_area_check,
    toponogov_sandwich_check,
)
from tractrix.errors import (
    DomainViolationError,
    HypothesisViolatedError,
    LowConfidenceFitError,
    UncertifiedBoundsError,
)
from tractrix.functionals import sweep_result
from tractrix.manifold import space_form, surface_model
from tractrix.spaceform import (
    classical_tractrix,
    leading_exponent,
    solve_from_d0,
)
from tractrix.tractrix_sim import (
    SimParams,
    orthogonal_attachment,
    simulate,
    tractor_from_config,
)

FLAT2 = space_form(0.0)
SPHERE = space_form(1.0)


@pytest.fixture(scope="module")
def flat_trace():
    line = tractor_from_config(FLAT2, {"kind": "line", "start": [0.0, 0.0],
                                       "direction": [1.0, 0.0],
                                       "t0": 0.0, "t1": 8.0})
    g0, _ = orthogonal_attachment(FLAT2, line, 2.0, 1.0, mode="behind")
    return simulate(FLAT2, line, g0, 2.0, SimParams(dt=0.005))


@pytest.fixture(scope="module")
def geodesic_trace():
    line = tractor_from_config(FLAT2, {"kind": "line", "start": [0.0, 0.0],
                                       "direction": [1.0, 0.0],
                                       "t0": 0.0, "t1": 6.0})
    return simulate(FLAT2, line, np.array([-1.5, 0.0]), 1.5,
                    SimParams(dt=0.01))


@pytest.fixture(scope="module")
def sphere_trace():
    eq = tractor_from_config(SPHERE, {"kind": "latitude",
                                      "colatitude": math.pi / 2,
                                      "t0": 0.0, "t1": 5.0})
    g0, _ = orthogonal_attachment(SPHERE, eq, 1.0, 0.5, side=-1,
                                  mode="behind")
    return simulate(SPHERE, eq, g0, 1.0, SimParams(dt=0.005))


# ---------------------------------------------------------------------------
# Bound certification


def test_bounds_reject_empty_window():
    with pytest.raises(UncertifiedBoundsError, match="empty"):
        CurvatureBounds(1.0, 1.0, "constant")


def test_spaceform_bounds_are_constant_window(sphere_trace):
    cb = certify_bounds(SPHERE, sphere_trace)
    assert cb.certified == "constant"
    assert cb.K_lo < 1.0 < cb.K_hi
    assert cb.K_hi - cb.K_lo < 0.01


def test_ellipsoid_analytic_bounds_bracket_visited_curvature(
        ellipsoid_setup):
    model, trace = ellipsoid_setup
    cb = certify_bounds(model, trace, method="analytic")
    assert cb.certified == "analytic"
    for p in np.vstack([trace.gamma[::40], trace.eta[::40]]):
        assert cb.K_lo < model.gauss_at(p) < cb.K_hi


def test_ellipsoid_grid_bounds_contain_analytic_window(ellipsoid_setup):
    model, trace = ellipsoid_setup
    grid = certify_bounds(model, trace, method="grid")
    analytic = certify_bounds(model, trace, method="analytic")
    assert grid.certified == "grid"
    assert grid.K_lo < analytic.K_lo
    assert grid.K_hi > analytic.K_hi
    # 5% safety margin stays a margin, not a blowup
    assert grid.K_hi - grid.K_lo < 2.0 * (analytic.K_hi - analytic.K_lo)


def test_grid_fallback_used_when_no_closed_form(flat_trace):
    model = surface_model({"name": "hilly", "amplitude": 0.05,
                           "frequency": 2.0})
    line = tractor_from_config(model, {"kind": "chart_line",
                                       "start": [0.0, 0.0],
                                       "direction": [1.0, 0.0],
                                       "t0": 0.0, "t1": 1.5})
    g0, _ = orthogonal_attachment(model, line, 0.5, 0.3, mode="behind")
    trace = simulate(model, line, g0, 0.5, SimParams(dt=0.01))
    cb = certify_bounds(model, trace)
    assert cb.certified == "grid"
    for p in trace.gamma[::40]:
        assert cb.K_lo < model.gauss_at(p) < cb.K_hi
    with pytest.raises(UncertifiedBoundsError, match="closed-form"):
        certify_bounds(model, trace, method="analytic")


# ---------------------------------------------------------------------------
# Length/area inequalities


def test_rauch_requires_certification(sphere_trace):
    sw = sweep_result(sphere_trace)
    with pytest.raises(UncertifiedBoundsError, match="certification"):
        rauch_length_area_check(sphere_trace, sw,
                                CurvatureBounds(0.9, 1.1, "handwave"))


def test_constant_curvature_pinch(sphere_trace):
    sw = sweep_result(sphere_trace)
    eps = 1e-3
    rep = rauch_length_area_check(
        sphere_trace, sw, CurvatureBounds(1 - eps, 1 + eps, "constant"))
    assert rep.passed
    by_name = {c.name: c for c in rep.checks}
    # the area identity is exact at constant K, so both sides pinch
    assert 0 < by_name["area_floor_upper_K"].margin < 1e-4
    assert 0 < by_name["area_cap_lower_K"].margin < 1e-4


def test_rauch_passes_with_certified_spaceform_bounds(sphere_trace):
    sw = sweep_result(sphere_trace)
    rep = rauch_length_area_check(sphere_trace, sw,
                                  certify_bounds(SPHERE, sphere_trace))
    assert rep.passed
    assert all(c.margin > 0 for c in rep.checks)


def test_geodesic_equality_margins(geodesic_trace):
    sw = sweep_result(geodesic_trace)
    rep = rauch_length_area_check(
        geodesic_trace, sw, CurvatureBounds(-0.2, 0.2, "constant"))
    assert rep.passed
    assert all(abs(c.margin) < 1e-6 for c in rep.checks)
    assert np.nanmax(np.abs(geodesic_trace.kappa)) < 1e-4


def test_non_geodesic_margins_are_not_equalities(flat_trace):
    sw = sweep_result(flat_trace)
    rep = rauch_length_area_check(
        flat_trace, sw, CurvatureBounds(-0.1, 0.1, "constant"))
    assert rep.passed
    assert all(c.margin > 1e-4 for c in rep.checks)


def test_flat_cusp_run_passes_rauch():
    # through a cusp the tangent reverses in place: pi per sign flip turns
    # without sweeping, and the remaining turning sweeps K_eff * ell^2 / 2
    cl = classical_tractrix(2.0)
    line = tractor_from_config(FLAT2, {"kind": "line", "start": [0.0, 0.0],
                                       "direction": [1.0, 0.0],
                                       "t0": -4.0, "t1": 6.0})
    trace = simulate(FLAT2, line, cl.gamma(-4.0), 2.0, SimParams(dt=0.01))
    flips = sum(c.sign_flip for c in trace.cusps)
    assert flips == 1
    sw = sweep_result(trace)
    K_eff = sw.K_total - math.pi * flips
    assert sw.area == pytest.approx(K_eff * 2.0 ** 2 / 2, abs=1e-4)
    rep = rauch_length_area_check(trace, sw, certify_bounds(FLAT2, trace))
    assert rep.passed
    assert not any(c.skipped for c in rep.checks)


def test_rauch_on_ellipsoid_with_grid_bounds(ellipsoid_setup):
    model, trace = ellipsoid_setup
    sw = sweep_result(trace)
    for method in ("grid", "analytic"):
        rep = rauch_length_area_check(
            trace, sw, certify_bounds(model, trace, method=method))
        assert rep.passed
        assert all(c.margin > 0 for c in rep.checks)


def test_rauch_skips_closed_reference_profile(flat_trace):
    sw = sweep_result(flat_trace)
    # sqrt(9.9) * 2 > pi closes the upper reference before the pole end
    rep = rauch_length_area_check(flat_trace, sw,
                                  CurvatureBounds(-0.5, 9.9, "constant"))
    states = {c.name: c.skipped for c in rep.checks}
    assert states["length_floor_upper_K"] and states["area_floor_upper_K"]
    assert not states["length_cap_lower_K"]
    assert not states["area_cap_lower_K"]
    assert rep.passed


def test_rauch_conjugate_flag_demotes_to_skipped(sphere_trace):
    sw = sweep_result(sphere_trace)
    flagged = dataclasses.replace(
        sphere_trace,
        pole_conjugate=np.ones_like(sphere_trace.pole_conjugate))
    rep = rauch_length_area_check(flagged, sw,
                                  certify_bounds(SPHERE, sphere_trace))
    assert all(c.skipped for c in rep.checks)
    assert rep.passed
    assert not rep.failures


# ---------------------------------------------------------------------------
# Distance/curvature sandwich


def test_flat_trace_sandwiched_between_signed_curvatures(flat_trace):
    d0 = float(flat_trace.d[0])
    rep = toponogov_sandwich_check(flat_trace,
                                   solve_from_d0(0.1, 2.0, d0),
                                   solve_from_d0(-0.1, 2.0, d0),
                                   scenario="flat")
    assert rep.passed
    assert all(c.margin > 0 for c in rep.checks)
    assert len(rep.checks) == 4


def test_sphere_self_sandwich_margins_scale_with_eps(sphere_trace):
    d0 = float(sphere_trace.d[0])
    rep = toponogov_sandwich_check(sphere_trace,
                                   solve_from_d0(1.05, 1.0, d0),
                                   solve_from_d0(0.95, 1.0, d0))
    assert rep.passed
    assert all(0 < c.margin < 0.05 for c in rep.checks)


def test_ellipsoid_sandwich_with_certified_bounds(ellipsoid_setup):
    model, trace = ellipsoid_setup
    cb = certify_bounds(model, trace, method="grid")
    d0 = float(trace.d[0])
    rep = toponogov_sandwich_check(trace,
                                   solve_from_d0(cb.K_hi, 0.5, d0),
                                   solve_from_d0(cb.K_lo, 0.5, d0))
    assert rep.passed
    assert all(c.margin > 0 for c in rep.checks)


def test_sandwich_rejects_non_geodesic_tractor():
    ring = tractor_from_config(FLAT2, {"kind": "circle",
                                       "center": [0.0, 0.0], "radius": 3.0,
                                       "t0": 0.0, "t1": 0.3})
    g0, _ = orthogonal_attachment(FLAT2, ring, 1.0, 0.5, mode="behind")
    trace = simulate(FLAT2, ring, g0, 1.0, SimParams(dt=0.01))
    with pytest.raises(HypothesisViolatedError, match="geodesic"):
        toponogov_sandwich_check(trace, solve_from_d0(0.1, 1.0, 0.5),
                                 solve_from_d0(-0.1, 1.0, 0.5))


def test_sandwich_rejects_mismatched_start(flat_trace):
    d0 = float(flat_trace.d[0])
    with pytest.raises(HypothesisViolatedError, match="starts at"):
        toponogov_sandwich_check(flat_trace,
                                 solve_from_d0(0.1, 2.0, d0 + 0.01),
                                 solve_from_d0(-0.1, 2.0, d0))


def test_sandwich_rejects_mismatched_pole(flat_trace):
    d0 = float(flat_trace.d[0])
    with pytest.raises(HypothesisViolatedError, match="pole"):
        toponogov_sandwich_check(flat_trace,
                                 solve_from_d0(0.1, 2.0, d0),
                                 solve_from_d0(-0.1, 1.9, d0))


def test_sandwich_rejects_unordered_references(flat_trace):
    d0 = float(flat_trace.d[0])
    with pytest.raises(HypothesisViolatedError, match="K_lo < K_hi"):
        toponogov_sandwich_check(flat_trace,
                                 solve_from_d0(-0.1, 2.0, d0),
                                 solve_from_d0(0.1, 2.0, d0))


def test_sandwich_conjugate_flag_demotes_to_skipped(flat_trace):
    d0 = float(flat_trace.d[0])
    flagged = dataclasses.replace(
        flat_trace, pole_conjugate=np.ones_like(flat_trace.pole_conjugate))
    rep = toponogov_sandwich_check(flagged, solve_from_d0(0.1, 2.0, d0),
                                   solve_from_d0(-0.1, 2.0, d0))
    assert all(c.skipped for c in rep.checks)
    assert rep.passed


# ---------------------------------------------------------------------------
# Leading-exponent sandwich


def test_flat_exponent_sits_in_signed_window(flat_trace):
    rep = le_sandwich_check(flat_trace, 2.0,
                            CurvatureBounds(-0.1, 0.1, "constant"))
    assert rep.passed
    lo = leading_exponent(-0.1, 2.0)
    hi = leading_exponent(0.1, 2.0)
    assert lo < -0.5 < hi
    fits = {c.name: c for c in rep.checks}
    assert fits["dist_le_above_lower"].rhs == pytest.approx(-0.5, abs=1e-6)


def test_constant_curvature_exponent_matches_closed_form(sphere_trace):
    # the fit carries a transient bias of a few 1e-3, so the window must
    # be wider than that for the sandwich to be meaningful
    rep = le_sandwich_check(sphere_trace, 1.0,
                            certify_bounds(SPHERE, sphere_trace,
                                           widen=0.05))
    assert rep.passed
    fits = {c.name: c for c in rep.checks}
    Le = leading_exponent(1.0, 1.0)
    assert fits["dist_le_above_lower"].rhs == pytest.approx(Le, abs=2e-3)
    assert fits["kappa_le_above_lower"].rhs == pytest.approx(Le, abs=5e-3)


def test_le_guard_rejects_closing_upper_bound(flat_trace):
    with pytest.raises(DomainViolationError, match="pi/2"):
        le_sandwich_check(flat_trace, 2.0,
                          CurvatureBounds(-0.1, 0.7, "constant"))


def test_le_low_confidence_is_an_error(flat_trace):
    wobble = np.exp(-flat_trace.s) * (2.0 + np.sin(3.0 * flat_trace.s))
    noisy = dataclasses.replace(flat_trace, d=wobble)
    with pytest.raises(LowConfidenceFitError, match="R\\^2"):
        le_sandwich_check(noisy, 2.0,
                          CurvatureBounds(-0.1, 0.1, "constant"))


def test_le_requires_certification(flat_trace):
    with pytest.raises(UncertifiedBoundsError):
        le_sandwich_check(flat_trace, 2.0,
                          CurvatureBounds(-0.1, 0.1, ""))


# ---------------------------------------------------------------------------
# Report plumbing


def test_report_text_labels_states(flat_trace):
    d0 = float(flat_trace.d[0])
    rep = toponogov_sandwich_check(flat_trace, solve_from_d0(0.1, 2.0, d0),
                                   solve_from_d0(-0.1, 2.0, d0),
                                   scenario="flat")
    text = rep.text()
    assert text.startswith("comparison report: flat")
    assert text.count("[PASS]") == 4


def test_failed_check_listed_in_failures():
    bad = Check(name="demo", inequality="a <= b", lhs=1.0, rhs=0.0,
                margin=-1.0, passed=False)
    rep = ComparisonReport(checks=(bad,), scenario="demo")
    assert not rep.passed
    assert rep.failures == [bad]
    assert "[FAIL]" in rep.text()


def test_merge_reports_concatenates_checks(flat_trace):
    d0 = float(flat_trace.d[0])
    a = toponogov_sandwich_check(flat_trace, solve_from_d0(0.1, 2.0, d0),
                                 solve_from_d0(-0.1, 2.0, d0),
                                 scenario="flat")
    b = le_sandwich_check(flat_trace, 2.0,
                          CurvatureBounds(-0.1, 0.1, "constant"))
    merged = merge_reports([a, b], scenario="flat-all")
    assert len(merged.checks) == len(a.checks) + len(b.checks)
    assert merged.scenario == "flat-all"
    assert merged.passed
