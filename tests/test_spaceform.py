import math

import numpy as np
import pytest

from tractrix.errors import DomainViolationError
from tractrix.manifold import space_form
from tractrix.spaceform import (
    dist_at,
    kappa_at,
    kappa_from_dist,
    leading_exponent,
    solve_from_d0,
)

from closed_forms import classical_tractrix, long_pole_sphere


def test_leading_exponent_frozen_values():
    assert leading_exponent(0.0, 2.0) == pytest.approx(-0.5)
    assert leading_exponent(-1.0, 1.0) == pytest.approx(-1.3130352854993313,
                                                        rel=1e-14)
    assert leading_exponent(0.5, 1.0) == pytest.approx(-0.82749929632058835,
                                                       rel=1e-14)
    assert leading_exponent(0.9, math.pi / 2) == pytest.approx(
        -0.07663760616432161, rel=1e-12)


def test_leading_exponent_monotone_in_K():
    ls = [leading_exponent(K, 1.2) for K in (-2.0, -1.0, -0.25, 0.0, 0.25, 1.0)]
    assert all(a < b for a, b in zip(ls, ls[1:]))


def test_leading_exponent_domain():
    with pytest.raises(DomainViolationError):
        leading_exponent(9.0, 1.2)  # k*ell slightly above pi
    with pytest.raises(DomainViolationError):
        leading_exponent(1.0, -1.0)


def test_kappa_from_dist_frozen_values():
    assert kappa_from_dist(0.0, 2.0, 1.0) == pytest.approx(
        0.28867513459481288, rel=1e-14)
    assert kappa_from_dist(1.0, 0.8, 0.4) == pytest.approx(
        0.90106547369952457, rel=1e-14)
    assert kappa_from_dist(-1.0, 1.0, 0.5) == pytest.approx(
        0.42094952576013484, rel=1e-14)


@pytest.mark.parametrize("K", [1e-12, -1e-12])
def test_kappa_from_dist_keeps_its_digits_near_flat(K):
    # the flat value d / (ell sqrt(ell^2 - d^2)) = 1 / (2 sqrt 3), off by
    # K ell^2 ~ 4e-12 at most; cos^2(kd) - cos^2(k ell) left 3e-5 of it
    assert kappa_from_dist(K, 2.0, 1.0) == pytest.approx(
        1.0 / (2.0 * math.sqrt(3.0)), rel=1e-11)


def test_kappa_from_dist_classical_limit_is_infinite():
    assert kappa_from_dist(0.0, 2.0, 2.0) == math.inf
    assert kappa_from_dist(-1.0, 1.0, 1.0) == math.inf


def test_kappa_from_dist_domain():
    with pytest.raises(DomainViolationError):
        kappa_from_dist(0.0, 2.0, 2.5)
    with pytest.raises(DomainViolationError):
        kappa_from_dist(1.0, 2.0, -0.1)


def test_solve_preconditions():
    with pytest.raises(DomainViolationError):
        solve_from_d0(0.0, 1.0, 1.5)  # d0 beyond pole
    with pytest.raises(DomainViolationError):
        solve_from_d0(1.0, 0.6 * math.pi, 0.45 * math.pi)  # beyond the cusp
    with pytest.raises(DomainViolationError):
        solve_from_d0(1.0, math.pi, 0.1)  # k*ell reaches pi


def test_d0_past_a_tiny_pole_starts_on_the_cusp():
    # one ulp past ell = 1e-300 is within the tolerance, which is relative
    # to ell: the profile starts on the cusp, x = 1
    sol = solve_from_d0(0.45, 1e-300, math.nextafter(1e-300, math.inf))
    assert sol.kappa0 == math.inf and kappa_at(sol, 0.0) == math.inf
    assert dist_at(sol, 0.0) == pytest.approx(1e-300, rel=1e-15)


def test_d0_far_past_a_tiny_pole_is_a_domain_error():
    # d0 = 1.78e-19 is 1.78e281 times ell = 1e-300; an absolute 1e-12
    # tolerance took it for ell and started the profile on the cusp
    with pytest.raises(DomainViolationError, match="exceeds the pole length"):
        solve_from_d0(0.45, 1e-300, 1.78e-19)


@pytest.mark.parametrize("r", [1.0, 2.0 ** 14, 2.0 ** 30])
def test_one_ulp_past_a_bound_passes_at_every_scale(r):
    # the tolerances are relative to the bound, so a space form scaled by
    # r admits the same rounding; an absolute 1e-12 is below half an ulp
    # of the bound from 2^13 up, and refused one ulp past it there
    ell = r
    up = math.nextafter(ell, math.inf)
    assert solve_from_d0(0.0, ell, up).kappa0 == math.inf
    assert kappa_from_dist(0.0, ell, up) == math.inf
    # the window of d0 = ell / 2 starts at s_lo = -ell ln 2
    sol = solve_from_d0(0.0, ell, 0.5 * ell)
    assert dist_at(sol, math.nextafter(sol.s_lo, -math.inf)) == \
        pytest.approx(ell, rel=1e-14)
    # a long pole on the sphere of radius r ends at the cusp d = pi r / 4
    sol = solve_from_d0(r ** -2, 0.75 * math.pi * r, 0.1 * r)
    assert dist_at(sol, math.nextafter(sol.s_hi, math.inf)) == \
        pytest.approx(0.25 * math.pi * r, rel=1e-14)


@pytest.mark.parametrize("ell, d0", [(math.pi / 2 + 1e-9, 0.1),
                                     (0.75 * math.pi, 0.5)],
                         ids=["near-parallel", "sphere_longpole"])
def test_dist_at_s_hi_is_the_cusp_distance(ell, d0):
    # the cusp of a long pole on the unit sphere is at d = pi - ell; near
    # the parallel circle sn(ell) rounds to 1, and arcsin of sn(ell) x
    # clamped there at pi / 2, a billionth past the cusp
    sol = solve_from_d0(1.0, ell, d0)
    for s in (sol.s_hi, math.nextafter(sol.s_hi, math.inf)):
        assert dist_at(sol, s) == pytest.approx(math.pi - ell, abs=4e-16)


def test_a_small_bound_admits_no_absolute_slack():
    # at the scale r = 1e-6 an absolute 1e-12 is a millionth of each
    # bound, which let these values a billionth past it through
    r, past = 1e-6, 1.0 + 1e-9
    with pytest.raises(DomainViolationError, match="exceeds the pole length"):
        solve_from_d0(0.0, r, r * past)
    with pytest.raises(DomainViolationError, match="cusp bound"):
        kappa_from_dist(0.0, r, r * past)
    sol = solve_from_d0(0.0, r, 0.5 * r)
    with pytest.raises(DomainViolationError, match="validity interval"):
        dist_at(sol, sol.s_lo * past)
    sol = solve_from_d0(r ** -2, 0.75 * math.pi * r, 0.1 * r)
    with pytest.raises(DomainViolationError, match="validity interval"):
        kappa_at(sol, sol.s_hi * past)


def test_d0_below_a_float_against_the_pole_is_a_domain_error():
    # sn(5e-324) rounds to 0 at k = 0.5, where math.log raised ValueError
    with pytest.raises(DomainViolationError, match="underflows a float"):
        solve_from_d0(0.25, 1.0, 5e-324)


def test_near_parallel_long_pole_keeps_its_cusp_distance():
    # sn is flat at its maximum, so asn(sn(ell)) would miss pi - ell by
    # 1e-8 at k*ell = pi/2 + 1e-8: the cusp is ell's mirror image in the
    # maximum instead, exact
    ell = math.pi / 2 + 1e-8
    cusp = math.pi - ell
    assert solve_from_d0(1.0, ell, cusp - 1e-11).long_pole
    with pytest.raises(DomainViolationError, match="cusp distance"):
        solve_from_d0(1.0, ell, cusp)
    assert kappa_from_dist(1.0, ell, cusp - 1e-11) > 0
    with pytest.raises(DomainViolationError, match="cusp bound"):
        kappa_from_dist(1.0, ell, cusp + 1e-11)


def test_long_pole_mode_follows_from_K_and_ell():
    assert solve_from_d0(1.0, 0.6 * math.pi, 0.1).long_pole
    assert solve_from_d0(4.0, 0.3 * math.pi, 0.1).long_pole  # k = 2
    assert not solve_from_d0(1.0, 0.4, 0.2).long_pole
    assert not solve_from_d0(-1.0, 3.0, 0.5).long_pole
    assert not solve_from_d0(0.0, 3.0, 0.5).long_pole
    # k*ell = pi/2 is the parallel circle, on the short side of the rule
    sol = solve_from_d0(1.0, math.pi / 2, 0.3)
    assert sol.parallel_circle and not sol.long_pole


def test_flat_solution_profile():
    sol = solve_from_d0(0.0, 2.0, 1.0)
    s = np.linspace(0.0, 8.0, 50)
    assert np.allclose(dist_at(sol, s), np.exp(-s / 2.0))
    assert sol.rate == pytest.approx(0.5)
    assert sol.kappa0 == pytest.approx(0.28867513459481288, rel=1e-14)


def test_kappa_at_equals_kappa_from_dist_randomized():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 100:
        K = rng.uniform(-2.0, 2.0)
        if K > 0:
            ell = rng.uniform(0.2, 0.95 * math.pi / 2 / math.sqrt(K))
        else:
            ell = rng.uniform(0.2, 3.0)
        d0 = rng.uniform(0.05, 0.95) * ell
        sol = solve_from_d0(K, ell, d0)
        s = rng.uniform(0.0, 5.0)
        lhs = kappa_at(sol, s)
        rhs = kappa_from_dist(K, ell, dist_at(sol, s))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
        checked += 1


@pytest.mark.parametrize("K", [1.0, 0.5, 0.0, -0.5, -1.0])
def test_dist_profile_satisfies_first_order_ode(K):
    # d'(s) = -tan(k d) cot(k ell) (elliptic), -d/ell (flat),
    #         -tanh(k d) coth(k ell) (hyperbolic)
    ell, d0 = 1.2, 0.7
    if K > 0:
        ell = min(ell, 0.9 * math.pi / 2 / math.sqrt(K))
    sol = solve_from_d0(K, ell, d0)
    h = 1e-6
    for s in (0.0, 0.5, 1.7, 4.0):
        d = dist_at(sol, s)
        fd = (dist_at(sol, s + h) - dist_at(sol, max(s - h, 0.0))) / (
            h if s == 0.0 else 2 * h)
        if K > 0:
            k = math.sqrt(K)
            expected = -math.tan(k * d) / math.tan(k * ell)
        elif K < 0:
            k = math.sqrt(-K)
            expected = -math.tanh(k * d) / math.tanh(k * ell)
        else:
            expected = -d / ell
        assert fd == pytest.approx(expected, rel=1e-5, abs=1e-8)


def test_dist_monotone_in_K_pointwise():
    # propDistComp ordering at fixed (ell, d0, s)
    ell, d0 = math.pi / 2, math.pi / 4
    sols = [solve_from_d0(K, ell, d0) for K in (-1.0, 0.0, 0.9)]
    for s in (0.5, 2.0, 5.0):
        ds = [dist_at(sol, s) for sol in sols]
        assert ds[0] < ds[1] < ds[2]


def test_parallel_circle_mode():
    sol = solve_from_d0(1.0, math.pi / 2, 0.3)
    assert sol.parallel_circle
    s = np.linspace(0, 10, 11)
    assert np.allclose(dist_at(sol, s), 0.3)
    assert np.allclose(kappa_at(sol, s), 0.30933624960962323)


def test_validity_window_and_cusp_behind():
    sol = solve_from_d0(0.0, 2.0, 1.0)
    # behind the start the profile reaches d = ell at s_lo = -ell ln(ell/d0)
    assert sol.s_lo == pytest.approx(-2.0 * math.log(2.0), rel=1e-14)
    assert dist_at(sol, sol.s_lo) == pytest.approx(2.0, rel=1e-12)
    assert kappa_at(sol, sol.s_lo) == math.inf
    with pytest.raises(DomainViolationError):
        dist_at(sol, sol.s_lo - 0.01)


def test_long_pole_solution_grows_to_cusp():
    ell, d0 = 3 * math.pi / 4, 3 * math.pi / 80
    sol = solve_from_d0(1.0, ell, d0)
    assert sol.long_pole
    assert sol.s_hi == pytest.approx(1.7944251295201716, rel=1e-12)
    s = np.linspace(0.0, 1.7, 30)
    d = dist_at(sol, s)
    assert np.all(np.diff(d) > 0)
    assert dist_at(sol, sol.s_hi) == pytest.approx(math.pi - ell, rel=1e-10)
    with pytest.raises(DomainViolationError):
        dist_at(sol, sol.s_hi + 0.01)


# -- classical tractrix -------------------------------------------------------


def test_classical_arclength_roundtrip():
    tr = classical_tractrix(2.0)
    t = np.linspace(-4.0, 6.0, 25)
    s = tr.arclength(t)
    assert np.allclose(tr.t_of_s(s), t, atol=1e-10)


def test_classical_pole_length_everywhere():
    tr = classical_tractrix(2.0)
    t = np.linspace(-5.0, 5.0, 101)
    gap = tr.eta(t) - tr.gamma(t)
    assert np.allclose(np.hypot(gap[:, 0], gap[:, 1]), 2.0, atol=1e-12)


def test_classical_tangent_parallel_to_pole():
    tr = classical_tractrix(1.5)
    h = 1e-6
    for t in (-2.0, 0.7, 3.1):
        dg = (tr.gamma(t + h) - tr.gamma(t - h)) / (2 * h)
        pole = tr.eta(t) - tr.gamma(t)
        cross = dg[0] * pole[1] - dg[1] * pole[0]
        assert abs(cross) < 1e-8


def test_classical_dist_and_kappa_profiles():
    tr = classical_tractrix(2.0)
    t = np.linspace(0.3, 6.0, 40)
    s = tr.arclength(t)
    # orthogonal distance to the x-axis is the height of gamma
    assert np.allclose(tr.gamma(t)[:, 1], tr.dist(s), atol=1e-12)
    # curvature against the center-difference turning rate of the curve
    for tv in (0.8, 2.0, 4.0):
        h = 1e-5
        g0, g1, g2 = tr.gamma(tv - h), tr.gamma(tv), tr.gamma(tv + h)
        v1, v2 = g1 - g0, g2 - g1
        ang = math.atan2(v1[0] * v2[1] - v1[1] * v2[0], float(v1 @ v2))
        ds = 0.5 * (np.linalg.norm(v1) + np.linalg.norm(v2))
        kappa_fd = abs(ang) / ds
        assert kappa_fd == pytest.approx(
            float(tr.kappa(tr.arclength(tv))), rel=1e-4)


def test_classical_total_curvature_limit():
    tr = classical_tractrix(2.0)
    full = tr.total_curvature(24.0)
    assert abs(full - math.pi / 2) < 1e-5
    assert tr.swept_area(24.0) == pytest.approx(0.5 * 4 * full)


# -- long poles on the unit sphere -------------------------------------------


def test_long_pole_requires_valid_range():
    with pytest.raises(DomainViolationError):
        long_pole_sphere(0.4 * math.pi, 0.1, 1.0)
    with pytest.raises(DomainViolationError):
        long_pole_sphere(0.75 * math.pi, 0.3 * math.pi, 1.0)
    with pytest.raises(DomainViolationError):
        long_pole_sphere(0.75 * math.pi, 3 * math.pi / 80, 1.8)


def test_long_pole_triangle_closes():
    tr = long_pole_sphere(0.75 * math.pi, 3 * math.pi / 80, 1.6, samples=120)
    sphere = space_form(1.0)
    for i in range(0, 120, 7):
        # hypotenuse of the right triangle must equal the pole length
        assert sphere.distance(tr.gamma[i], tr.eta[i]) == pytest.approx(
            tr.ell, abs=1e-12)
        assert sphere.distance(tr.gamma[i], tr.foot[i]) == \
            pytest.approx(tr.d[i], abs=1e-12)


def test_long_pole_tangent_points_along_pole():
    # defining property: dgamma/ds is the unit pole direction at gamma
    tr = long_pole_sphere(0.75 * math.pi, 3 * math.pi / 80, 1.2, samples=2401)
    sphere = space_form(1.0)
    h = tr.s[1] - tr.s[0]
    for i in range(200, 2200, 400):
        dg = (tr.gamma[i + 1] - tr.gamma[i - 1]) / (2 * h)
        v, L, _ = sphere.connect(tr.gamma[i], tr.eta[i])
        assert L == pytest.approx(tr.ell, abs=1e-12)
        assert np.allclose(dg, v, atol=5e-4)
        assert sphere.norm(tr.gamma[i], dg) == pytest.approx(1.0, abs=5e-4)


def test_long_pole_approaches_parallel_circle():
    tr = long_pole_sphere(math.pi / 2 + 1e-6, 0.3, 2.0, samples=50)
    assert np.all(np.abs(tr.d - 0.3) < 1e-5)
