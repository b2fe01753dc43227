import math

import numpy as np
import pytest

from tractrix.charts import HillyChart, ParaboloidChart, PseudosphereChart
from tractrix.errors import (
    NoConvergenceError,
    OutOfDomainError,
    SingularChartError,
)
from tractrix.manifold import (
    _rk4_geodesic,
    jacobi_reference,
    jacobi_reference_integral,
    space_form,
    surface_model,
)

SPHERE = space_form(1.0)
HYP = space_form(-1.0)
FLAT2 = space_form(0.0)
FLAT3 = space_form(0.0, dim=3)
PARAB = surface_model(ParaboloidChart())
PSEUDO = surface_model(PseudosphereChart())
HILLY = surface_model(HillyChart(0.5, 1.0))

MODELS_2D = [SPHERE, HYP, FLAT2, PARAB, PSEUDO, HILLY]


def random_point(model, rng):
    if model is SPHERE:
        return np.array([rng.uniform(0.6, math.pi - 0.6), rng.uniform(-2, 2)])
    if model is HYP:
        r = rng.uniform(0, 0.6)
        a = rng.uniform(0, math.tau)
        return np.array([r * math.cos(a), r * math.sin(a)])
    if model is PSEUDO:
        return np.array([rng.uniform(0.8, 2.0), rng.uniform(-2, 2)])
    return rng.uniform(-1.0, 1.0, size=model.dim)


# -- metric / Christoffel / curvature oracles --------------------------------


def test_sphere_metric_at_equator_is_identity():
    g = SPHERE.metric_at([math.pi / 2, 0.3])
    assert np.allclose(g, np.eye(2), atol=1e-15)


def test_sphere_metric_scales_with_radius():
    model = space_form(0.25)  # radius 2
    g = model.metric_at([1.0, 0.0])
    assert g[0, 0] == pytest.approx(4.0)
    assert g[1, 1] == pytest.approx(4.0 * math.sin(1.0) ** 2)


def test_hyperbolic_metric_at_origin():
    g = HYP.metric_at([0.0, 0.0])
    assert np.allclose(g, 4.0 * np.eye(2))


def test_sphere_christoffels_vanish_at_equator():
    G = SPHERE.christoffel_at([math.pi / 2, 1.0])
    assert np.allclose(G, 0.0, atol=1e-15)


def test_sphere_christoffels_at_pi_third():
    G = SPHERE.christoffel_at([math.pi / 3, 0.0])
    assert G[0, 1, 1] == pytest.approx(-math.sqrt(3) / 4, rel=1e-14)
    assert G[1, 0, 1] == pytest.approx(1 / math.sqrt(3), rel=1e-14)
    assert G[1, 1, 0] == pytest.approx(1 / math.sqrt(3), rel=1e-14)


def test_singular_chart_raises():
    with pytest.raises((SingularChartError, OutOfDomainError)):
        SPHERE.metric_at([1e-9, 0.0])
    with pytest.raises(OutOfDomainError):
        HYP.metric_at([0.8, 0.7])


@pytest.mark.parametrize("model", MODELS_2D, ids=lambda m: m.__class__.__name__)
def test_metric_compatibility_with_christoffels(model):
    # d_k g_ij = Gamma^l_ki g_lj + Gamma^l_kj g_il, FD on the left
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(8):
        p = random_point(model, rng)
        G = model.christoffel_at(p)
        g = model.metric_at(p)
        for kdir in range(2):
            dp = np.zeros(2)
            dp[kdir] = h
            dg = (model.metric_at(p + dp) - model.metric_at(p - dp)) / (2 * h)
            rhs = np.zeros((2, 2))
            for i in range(2):
                for j in range(2):
                    rhs[i, j] = sum(G[l, kdir, i] * g[l, j]
                                    + G[l, kdir, j] * g[i, l]
                                    for l in range(2))
            assert np.allclose(dg, rhs, atol=1e-6), model


def test_gauss_curvature_values():
    assert SPHERE.gauss_at([1.0, 2.0]) == pytest.approx(1.0)
    assert HYP.gauss_at([0.3, -0.2]) == pytest.approx(-1.0)
    assert FLAT2.gauss_at([0.0, 0.0]) == 0.0
    assert PARAB.gauss_at([0.0, 0.0]) == pytest.approx(4.0, rel=1e-12)
    assert PARAB.gauss_at([0.3, -0.2]) == pytest.approx(1.7313019390581717,
                                                        rel=1e-10)
    assert HILLY.gauss_at([math.pi / 2, math.pi / 2]) == pytest.approx(
        0.25, rel=1e-10)


def test_pseudosphere_constant_negative_curvature():
    rng = np.random.default_rng(2)
    for _ in range(12):
        p = np.array([rng.uniform(0.5, 2.5), rng.uniform(-3, 3)])
        assert PSEUDO.gauss_at(p) == pytest.approx(-1.0, abs=1e-10)


def test_embedded_sphere_matches_spaceform_curvature():
    from tractrix.charts import SphereChart

    emb = surface_model(SphereChart(2.0))
    assert emb.gauss_at([1.2, 0.7]) == pytest.approx(0.25, rel=1e-12)


# -- exp_map ------------------------------------------------------------------


def test_exp_map_flat_line():
    pole = FLAT2.exp_map([1.0, 2.0], [0.6, 0.8], 5.0)
    assert np.allclose(pole.endpoint, [4.0, 6.0])
    assert np.allclose(pole.end_tangent, [0.6, 0.8])
    assert pole.jacobi is not None
    assert pole.jacobi[-1] == pytest.approx(5.0)


def test_exp_map_rejects_non_unit_tangent():
    with pytest.raises(ValueError):
        FLAT2.exp_map([0.0, 0.0], [1.0, 1.0], 1.0)


def test_exp_map_sphere_meridian_and_equator():
    pole = SPHERE.exp_map([math.pi / 2, 0.0], [-1.0, 0.0], math.pi / 4)
    assert np.allclose(pole.endpoint, [math.pi / 4, 0.0], atol=1e-9)
    pole = SPHERE.exp_map([math.pi / 2, 0.0], [0.0, 1.0], 1.3)
    assert np.allclose(pole.endpoint, [math.pi / 2, 1.3], atol=1e-9)


# space forms sample their poles in closed form; their _geo_rhs is the
# reference that checks the RK4 integrator itself


def test_exp_map_sphere_matches_closed_form():
    p = np.array([1.1, 0.4])
    v = SPHERE.unit(p, [0.3, 0.8])
    end, end_tangent = _rk4_geodesic(SPHERE, p, v, 1.0, 200, False,
                                     collect=False)
    q, t = SPHERE.exp_point(p, v, 1.0)
    assert np.allclose(end, q, atol=1e-8)
    assert np.allclose(end_tangent, t, atol=1e-8)


def test_exp_map_hyperbolic_matches_closed_form():
    p = np.array([0.2, -0.1])
    v = HYP.unit(p, [1.0, 0.5])
    end, end_tangent = _rk4_geodesic(HYP, p, v, 1.5, 200, False,
                                     collect=False)
    q, t = HYP.exp_point(p, v, 1.5)
    assert np.allclose(end, q, atol=1e-8)
    assert np.allclose(end_tangent, t, atol=1e-8)


def test_exp_map_unit_speed_drift():
    p = np.array([0.4, 0.2])
    v = PARAB.unit(p, [1.0, -0.4])
    pole = PARAB.exp_map(p, v, 2.0, steps=200)
    norms = [PARAB.norm(pole.points[i], pole.tangents[i])
             for i in range(0, len(pole.u), 10)]
    assert max(abs(n - 1.0) for n in norms) < 1e-6


def test_exp_map_self_convergence_on_paraboloid():
    p = np.array([0.4, 0.2])
    v = PARAB.unit(p, [1.0, -0.4])
    coarse = PARAB.exp_map(p, v, 2.0, steps=200)
    fine = PARAB.exp_map(p, v, 2.0, steps=2000)
    assert np.linalg.norm(coarse.endpoint - fine.endpoint) < 1e-7


def test_exp_map_gates_conjugate_scale():
    with pytest.raises(ValueError):
        SPHERE.exp_map([math.pi / 2, 0.0], [0.0, 1.0], math.pi + 0.1)
    pole = SPHERE.exp_map([math.pi / 2, 0.0], [0.0, 1.0], math.pi - 0.05)
    assert not pole.conjugate


# -- Jacobi -------------------------------------------------------------------


def test_jacobi_reference_values():
    assert jacobi_reference(1.0, math.pi / 2) == pytest.approx(1.0)
    assert jacobi_reference(0.0, 2.5) == pytest.approx(2.5)
    assert jacobi_reference(-1.0, 1.0) == pytest.approx(math.sinh(1.0))
    assert jacobi_reference(4.0, 0.5) == pytest.approx(math.sin(1.0) / 2)
    assert jacobi_reference_integral(1.0, 1.0) == pytest.approx(
        1 - math.cos(1.0))
    assert jacobi_reference_integral(0.0, 2.0) == pytest.approx(2.0)
    assert jacobi_reference_integral(-1.0, 1.0) == pytest.approx(
        math.cosh(1.0) - 1)


def test_jacobi_scalar_sphere_closed_form():
    # exp_map refuses the conjugate scale itself, so the pole stops 1e-13
    # short of it, inside the flag's threshold
    pole = SPHERE.exp_map([math.pi / 2, 0.0], [0.0, 1.0], math.pi - 1e-13,
                          steps=100, want_jacobi=True)
    j, conj = pole.jacobi, pole.conjugate
    assert np.allclose(j, np.sin(pole.u), atol=1e-12)
    assert conj  # first conjugate point sits at u = pi


def test_jacobi_scalar_constant_negative_surface():
    # pseudosphere has K = -1: numeric j(1) must match sinh(1)
    p = np.array([1.2, 0.0])
    v = PSEUDO.unit(p, [0.0, 1.0])
    pole = PSEUDO.exp_map(p, v, 1.0, steps=200, want_jacobi=True)
    j, conj = pole.jacobi, pole.conjugate
    assert j[-1] == pytest.approx(math.sinh(1.0), abs=1e-8)
    assert not conj


def test_jacobi_normalization_small_u():
    p = np.array([0.4, 0.2])
    v = PARAB.unit(p, [1.0, -0.4])
    u = np.linspace(0.0, 0.5, 101)
    j = PARAB.exp_map(p, v, 0.5, steps=100, want_jacobi=True).jacobi
    # j(u) = u - K(p) u^3 / 6 + O(u^4)
    taylor = 1.0 - PARAB.gauss_at(p) * u[1] ** 2 / 6.0
    assert j[1] / u[1] == pytest.approx(taylor, abs=1e-7)


# -- shooting (two-point connect) ---------------------------------------------


def test_shoot_flat_direct():
    v, L, _ = FLAT2.connect([0.0, 0.0], [3.0, 4.0])
    assert np.allclose(v, [0.6, 0.8])
    assert L == 5.0
    # a Newton connect that may not iterate cannot meet its tolerance
    with pytest.raises(NoConvergenceError):
        PARAB.connect([0.3, -0.1], [0.9, 0.4], max_iter=0)


def test_shoot_sphere_quarter_circle():
    v, L, _ = SPHERE.connect([math.pi / 2, 0.0], [math.pi / 2, math.pi / 2])
    assert np.allclose(v, [0.0, 1.0], atol=1e-7)
    assert L == pytest.approx(math.pi / 2)


@pytest.mark.parametrize("model", [SPHERE, HYP, PARAB],
                         ids=lambda m: m.__class__.__name__)
def test_shoot_roundtrip_random(model):
    rng = np.random.default_rng(11)
    n = 30 if model is PARAB else 100
    steps = 96
    for _ in range(n):
        p = random_point(model, rng)
        ang = rng.uniform(0, math.tau)
        v = model.tangent_from_angle(p, ang)
        ell = rng.uniform(0.2, 0.9)
        pole = model.exp_map(p, v, ell, steps=steps, want_jacobi=False)
        v_rec, L, _ = model.connect(p, pole.endpoint, v_guess=v, L_guess=ell,
                                    steps=steps)
        assert np.linalg.norm(v_rec - v) < 1e-6
        assert L == pytest.approx(ell, abs=1e-9)


def test_connect_matches_closed_forms():
    p = np.array([1.0, 0.2])
    q = np.array([1.4, 1.1])
    v, L, t_end = SPHERE.connect(p, q)
    assert L == pytest.approx(SPHERE.distance(p, q), rel=1e-12)
    q2, t2 = SPHERE.exp_point(p, v, L)
    assert np.allclose(q2, q, atol=1e-12)
    assert np.allclose(t2, t_end, atol=1e-12)


def test_connect_on_surface_roundtrip():
    p = np.array([0.3, -0.1])
    q = np.array([0.9, 0.4])
    v, L, t_end = PARAB.connect(p, q, steps=64)
    pole = PARAB.exp_map(p, v, L, steps=64, want_jacobi=False)
    assert np.allclose(pole.endpoint, q, atol=1e-8)
    assert abs(PARAB.norm(q, t_end) - 1.0) < 1e-9
    # symmetry of the induced distance
    _, L_back, _ = PARAB.connect(q, p, steps=64)
    assert L_back == pytest.approx(L, abs=1e-9)


def test_distance_helpers():
    assert SPHERE.distance([math.pi / 2, 0.0], [math.pi / 2, 1.0]) == \
        pytest.approx(1.0)
    assert HYP.distance([0.0, 0.0], [0.5, 0.0]) == pytest.approx(
        1.0986122886681097, rel=1e-12)
    assert space_form(-4.0).distance([0.0, 0.0], [0.5, 0.0]) == pytest.approx(
        0.54930614433405485, rel=1e-12)
    assert FLAT3.distance([0, 0, 0], [1, 2, 2]) == pytest.approx(3.0)


# -- parallel transport -------------------------------------------------------


def transport_along(model, pts, w0):
    """w0 carried edge by edge along the polyline pts."""
    w = np.asarray(w0, dtype=float)
    for a, b in zip(pts[:-1], pts[1:]):
        w = model.parallel_transport(a, b, w)
    return w


def test_transport_flat_is_constant():
    pts = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, -0.3]])
    out = transport_along(FLAT2, pts, [0.3, 0.7])
    assert np.allclose(out, [0.3, 0.7])


@pytest.mark.parametrize("model", [SPHERE, HYP, PARAB],
                         ids=lambda m: m.__class__.__name__)
def test_transport_preserves_norm(model):
    rng = np.random.default_rng(3)
    p0 = random_point(model, rng)
    # wander along a smooth arc staying inside the domain
    ts = np.linspace(0, 1, 80)
    pts = np.stack([p0[0] + 0.25 * np.sin(2 * ts),
                    p0[1] + 0.25 * ts], axis=-1)
    w0 = model.tangent_from_angle(pts[0], 0.7)
    out = transport_along(model, pts, w0)
    n0 = model.norm(pts[0], w0)
    nend = model.norm(pts[-1], out)
    assert abs(nend - n0) < 1e-8


def test_transport_holonomy_latitude_circle():
    # transport around colatitude theta0 rotates by -2*pi*cos(theta0)
    theta0 = 1.0
    m = 600
    phis = np.linspace(0.0, math.tau, m + 1)
    pts = np.stack([np.full_like(phis, theta0), phis], axis=-1)
    frame = SPHERE.frame_at(pts[0])
    w0 = frame[0]
    out = transport_along(SPHERE, pts, w0)
    g = SPHERE.metric_at(pts[0])
    a = float(out @ g @ frame[0])
    b = float(out @ g @ frame[1])
    angle = math.atan2(b, a)
    assert angle == pytest.approx(2.8883657975136401, abs=1e-6)
