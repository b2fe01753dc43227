import dataclasses
import math

import numpy as np
import pytest
from rk4_reference import _rk4_geodesic as reference_rk4

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
from tractrix.config import bundled_scenario
from tractrix.errors import (
    DomainViolationError,
    HypothesisViolatedError,
    LowConfidenceFitError,
    UncertifiedBoundsError,
)
from tractrix.functionals import sweep_result
from tractrix.manifold import (
    model_from_config,
    shot_steps,
    space_form,
    surface_model,
)
from tractrix.spaceform import leading_exponent
from tractrix.tractrix_sim import (
    SimParams,
    orthogonal_attachment,
    simulate,
    tractor_from_config,
)

from closed_forms import classical_tractrix, gauss_range

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


def test_bounds_reject_an_uncertified_label():
    # the type holds the certification, so no check sees a handwave
    for label in ("handwave", ""):
        with pytest.raises(UncertifiedBoundsError, match="certification"):
            CurvatureBounds(0.9, 1.1, label)


def test_spaceform_bounds_are_constant_window(sphere_trace):
    cb = certify_bounds(sphere_trace)
    assert cb.certified == "constant"
    assert cb.K_lo < 1.0 < cb.K_hi
    assert cb.K_hi - cb.K_lo < 0.01


def stage_curvatures(model, p, v, length, n_steps):
    """The points (n, 2) and K of every RK4 stage of a shot from p along
    v, each as the spray gave it."""
    points, Ks = [], []

    def rhs(x, y, a, b):
        out = model.chart.spray(x, y, a, b)
        points.append((x, y))
        Ks.append(out[2])
        return out

    reference_rk4(rhs, tuple(p), tuple(v), length, n_steps, collect=False)
    return np.array(points), np.array(Ks)


@pytest.mark.parametrize("name", ["paraboloid_pull", "hilly_pull",
                                  "ellipsoid_equator"])
def test_pole_window_contains_k_along_finer_shots(name):
    # each record's pole shot again from gamma, at an eighth of the run's
    # pole_step, with K at every stage: the widened window holds all of
    # it. The run's own window lies in the closed-form range of K over
    # the finer shots' chart box, padded by pole_step^2 because an RK4
    # stage point sits that far off the pole; hills have no closed form
    cfg = bundled_scenario(name)
    model = model_from_config(cfg.model)
    tractor = tractor_from_config(model, cfg.tractor)
    g0, _ = orthogonal_attachment(model, tractor, cfg.ell, **cfg.gamma0)
    trace = simulate(model, tractor, g0, cfg.ell, SimParams(**cfg.sim))
    cb = certify_bounds(trace)
    assert cb.certified == "poles"
    n_fine = shot_steps(trace.ell, trace.pole_step / 8)
    shots = [stage_curvatures(model, p, v, trace.ell, n_fine)
             for p, v in zip(trace.gamma, trace.pole_dir)]
    points = np.vstack([pts for pts, _ in shots])
    Ks = np.concatenate([k for _, k in shots])
    assert cb.K_lo < Ks.min() and Ks.max() < cb.K_hi
    lo, hi = trace.pole_K_lo.min(), trace.pole_K_hi.max()
    assert lo <= hi
    pad = trace.pole_step ** 2
    rng = gauss_range(model.chart, tuple(
        (points[:, i].min() - pad, points[:, i].max() + pad)
        for i in range(2)))
    assert (rng is None) == (name == "hilly_pull")
    if rng is not None:
        assert rng[0] <= lo and hi <= rng[1]


def test_paraboloid_window_over_the_apex_contains_four():
    # K = 4 / (1 + 4 r^2)^2 peaks at the apex. The u-axis is a geodesic,
    # so the first pole, from (0.25, 0) along -u, runs over the apex
    model = surface_model("paraboloid")
    line = tractor_from_config(model, {"kind": "chart_line",
                                       "start": [0.25, 0.0],
                                       "direction": [0.0, 1.0],
                                       "t0": 0.0, "t1": 0.2})
    eta0 = line.point(0.0)
    g0 = model.exp_point(eta0, model.unit(eta0, [-1.0, 0.0]), 0.5)[0]
    trace = simulate(model, line, g0, 0.5, SimParams(dt=0.01))
    assert trace.pole_K_hi[0] > 3.9
    cb = certify_bounds(trace)
    assert cb.K_lo < 4.0 < cb.K_hi


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
                                  certify_bounds(sphere_trace))
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
    rep = rauch_length_area_check(trace, sw, certify_bounds(trace))
    assert rep.passed
    assert not any(c.skipped for c in rep.checks)


def test_rauch_on_ellipsoid_with_pole_bounds(ellipsoid_setup):
    _, trace = ellipsoid_setup
    rep = rauch_length_area_check(trace, sweep_result(trace),
                                  certify_bounds(trace))
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


@pytest.mark.parametrize("K_lo, skipped", [(-1.2e5, False),
                                            (-1.3e5, True)])
def test_rauch_skips_a_lower_reference_past_a_float(flat_trace, K_lo,
                                                    skipped):
    # with ell = 2, sqrt(-K_lo) * ell is 693 and 721: sinh and cosh
    # overflow a float past 710, where J_lo(ell) and its integral left a
    # RuntimeWarning and an OverflowError; the lower side is skipped
    # there, and checked, against a huge cap, below it
    rep = rauch_length_area_check(flat_trace, sweep_result(flat_trace),
                                  CurvatureBounds(K_lo, 0.5, "constant"))
    states = {c.name: c.skipped for c in rep.checks}
    assert states == {"length_floor_upper_K": False,
                      "area_floor_upper_K": False,
                      "length_cap_lower_K": skipped,
                      "area_cap_lower_K": skipped}
    assert rep.passed


def test_rauch_conjugate_flag_demotes_to_skipped(sphere_trace):
    sw = sweep_result(sphere_trace)
    flagged = dataclasses.replace(
        sphere_trace,
        pole_conjugate=np.ones_like(sphere_trace.pole_conjugate))
    rep = rauch_length_area_check(flagged, sw,
                                  certify_bounds(sphere_trace))
    assert all(c.skipped for c in rep.checks)
    assert rep.passed


# ---------------------------------------------------------------------------
# Distance/curvature sandwich


def test_flat_trace_sandwiched_between_signed_curvatures(flat_trace):
    rep = toponogov_sandwich_check(flat_trace,
                                   CurvatureBounds(-0.1, 0.1, "constant"))
    assert rep.passed
    assert all(c.margin > 0 for c in rep.checks)
    assert len(rep.checks) == 4


def test_sphere_self_sandwich_margins_scale_with_eps(sphere_trace):
    rep = toponogov_sandwich_check(sphere_trace,
                                   CurvatureBounds(0.95, 1.05, "constant"))
    assert rep.passed
    assert all(0 < c.margin < 0.05 for c in rep.checks)


def test_ellipsoid_sandwich_with_certified_bounds(ellipsoid_setup):
    _, trace = ellipsoid_setup
    rep = toponogov_sandwich_check(trace, certify_bounds(trace))
    assert rep.passed
    assert all(c.margin > 0 for c in rep.checks)


def test_sandwich_rejects_non_geodesic_tractor():
    ring = tractor_from_config(FLAT2, {"kind": "circle",
                                       "center": [0.0, 0.0], "radius": 3.0,
                                       "t0": 0.0, "t1": 0.3})
    g0, _ = orthogonal_attachment(FLAT2, ring, 1.0, 0.5, mode="behind")
    trace = simulate(FLAT2, ring, g0, 1.0, SimParams(dt=0.01))
    with pytest.raises(HypothesisViolatedError, match="geodesic"):
        toponogov_sandwich_check(trace,
                                 CurvatureBounds(-0.1, 0.1, "constant"))


def test_sandwich_conjugate_flag_demotes_to_skipped(flat_trace):
    flagged = dataclasses.replace(
        flat_trace, pole_conjugate=np.ones_like(flat_trace.pole_conjugate))
    rep = toponogov_sandwich_check(flagged,
                                   CurvatureBounds(-0.1, 0.1, "constant"))
    assert all(c.skipped for c in rep.checks)
    assert rep.passed


# ---------------------------------------------------------------------------
# Leading-exponent sandwich


def test_flat_exponent_sits_in_signed_window(flat_trace):
    rep = le_sandwich_check(flat_trace, CurvatureBounds(-0.1, 0.1, "constant"))
    assert rep.passed
    lo = leading_exponent(-0.1, 2.0)
    hi = leading_exponent(0.1, 2.0)
    assert lo < -0.5 < hi
    fits = {c.name: c for c in rep.checks}
    assert fits["dist_le_above_lower"].rhs == pytest.approx(-0.5, abs=1e-6)


def test_constant_curvature_exponent_matches_closed_form(sphere_trace):
    # the fit carries a transient bias of a few 1e-3, so the window must
    # be wider than that for the sandwich to be meaningful
    rep = le_sandwich_check(sphere_trace,
                            certify_bounds(sphere_trace, widen=0.05))
    assert rep.passed
    fits = {c.name: c for c in rep.checks}
    Le = leading_exponent(1.0, 1.0)
    assert fits["dist_le_above_lower"].rhs == pytest.approx(Le, abs=2e-3)
    assert fits["kappa_le_above_lower"].rhs == pytest.approx(Le, abs=5e-3)


def test_le_guard_rejects_closing_upper_bound(flat_trace):
    with pytest.raises(DomainViolationError, match="pi/2"):
        le_sandwich_check(flat_trace, CurvatureBounds(-0.1, 0.7, "constant"))


def test_le_low_confidence_is_an_error(flat_trace):
    wobble = np.exp(-flat_trace.s) * (2.0 + np.sin(3.0 * flat_trace.s))
    noisy = dataclasses.replace(flat_trace, d=wobble)
    with pytest.raises(LowConfidenceFitError, match="R\\^2"):
        le_sandwich_check(noisy, CurvatureBounds(-0.1, 0.1, "constant"))


def test_le_requires_certification(flat_trace):
    with pytest.raises(UncertifiedBoundsError):
        le_sandwich_check(flat_trace, CurvatureBounds(-0.1, 0.1, ""))


# ---------------------------------------------------------------------------
# Report plumbing


def test_report_text_labels_states(flat_trace):
    bounds = CurvatureBounds(-0.1, 0.1, "constant")
    rep = merge_reports([toponogov_sandwich_check(flat_trace, bounds)],
                        "flat")
    text = rep.text()
    assert text.startswith("comparison report: flat")
    assert text.count("[PASS]") == 4


def test_failed_check_listed_in_failures():
    bad = Check(name="demo", inequality="a <= b", lhs=1.0, rhs=0.0,
                margin=-1.0, passed=False)
    rep = ComparisonReport(checks=(bad,), scenario="demo")
    assert not rep.passed
    assert "[FAIL] demo" in rep.text()


def test_merge_reports_concatenates_checks(flat_trace):
    bounds = CurvatureBounds(-0.1, 0.1, "constant")
    a = toponogov_sandwich_check(flat_trace, bounds)
    b = le_sandwich_check(flat_trace, bounds)
    merged = merge_reports([a, b], "flat-all")
    assert len(merged.checks) == len(a.checks) + len(b.checks)
    assert merged.scenario == "flat-all"
    assert merged.passed
