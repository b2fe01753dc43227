import contextlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from rk4_reference import _rk4_geodesic as reference_rk4

from tractrix import manifold
from tractrix.charts import (
    EllipsoidChart,
    GraphChart,
    HillyChart,
    ParaboloidChart,
    PseudosphereChart,
    SphereChart,
    SurfaceChart,
)
from tractrix.errors import (
    ConfigError,
    DomainExitError,
    NoConvergenceError,
    OutOfDomainError,
    SingularChartError,
    StepTooLargeError,
)
from tractrix.manifold import (
    ManifoldModel,
    SphereModel,
    SurfaceModel,
    _has_conjugate,
    _reference_pole,
    jacobi_reference,
    jacobi_reference_integral,
    shot_steps,
    space_form,
    surface_model,
)
from tractrix.quadrature import simpson
from tractrix.tractrix_sim import _require_pole

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


def spray_K(model, p):
    """K at p as a surface's spray gives it (at rest)."""
    return model.chart.spray(p[0], p[1], 0.0, 0.0)[2]


def test_gauss_curvature_values():
    assert SPHERE.K == 1.0
    assert HYP.K == -1.0
    assert FLAT2.K == 0.0
    assert spray_K(PARAB, [0.0, 0.0]) == pytest.approx(4.0, rel=1e-12)
    assert spray_K(PARAB, [0.3, -0.2]) == pytest.approx(1.7313019390581717,
                                                        rel=1e-10)
    assert spray_K(HILLY, [math.pi / 2, math.pi / 2]) == pytest.approx(
        0.25, rel=1e-10)


def test_pseudosphere_constant_negative_curvature():
    rng = np.random.default_rng(2)
    for _ in range(12):
        p = np.array([rng.uniform(0.5, 2.5), rng.uniform(-3, 3)])
        assert spray_K(PSEUDO, p) == pytest.approx(-1.0, abs=1e-10)


def test_embedded_sphere_matches_spaceform_curvature():
    emb = surface_model(SphereChart(2.0))
    assert spray_K(emb, [1.2, 0.7]) == pytest.approx(0.25, rel=1e-12)


# -- exp_point and shoot ------------------------------------------------------


def test_exp_map_flat_line():
    end, end_tangent, _, s = FLAT2.shoot([1.0, 2.0], [0.6, 0.8], 5.0)
    assert np.allclose(end, [4.0, 6.0])
    assert np.allclose(end_tangent, [0.6, 0.8])
    assert s == pytest.approx(5.0)


def test_exp_map_rejects_non_unit_tangent():
    with pytest.raises(ValueError):
        PARAB.exp_point([0.0, 0.0], [1.0, 1.0], 1.0)


@pytest.mark.parametrize("model, p, v, length", [
    (PARAB, [0.0, 0.0], [math.nan, 0.0], 1.0),
    (PARAB, [0.0, 0.0], [1.0, 0.0], math.nan),
    (SPHERE, [math.pi / 2, 0.0], [math.nan, 0.0], 1.0),
    (SPHERE, [math.pi / 2, 0.0], [2.0, 0.0], 1.0),
    (HYP, [0.0, 0.0], [0.5, math.nan], 1.0),
    (FLAT3, [0.0, 0.0, 0.0], [math.nan, 0.0, 0.0], 1.0),
    (FLAT3, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], -1.0),
], ids=["surface-nan-tangent", "surface-nan-length", "sphere-nan-tangent",
        "sphere-non-unit", "hyperbolic-nan-tangent", "flat3-nan-tangent",
        "flat3-negative-length"])
def test_exp_point_checks_its_tangent_and_length(model, p, v, length):
    # a NaN norm or length fails the checks, and the space forms' closed
    # forms take the same checks as a surface's shot
    with pytest.raises(ValueError, match="unit tangent|nonnegative"):
        model.exp_point(p, v, length)


def test_exp_map_sphere_meridian_and_equator():
    end, _ = SPHERE.exp_point([math.pi / 2, 0.0], [-1.0, 0.0], math.pi / 4)
    assert np.allclose(end, [math.pi / 4, 0.0], atol=1e-9)
    end, _ = SPHERE.exp_point([math.pi / 2, 0.0], [0.0, 1.0], 1.3)
    assert np.allclose(end, [math.pi / 2, 1.3], atol=1e-9)


# space forms shoot in closed form, and that closed form checks the RK4
# integrator itself: the surface sphere uses the sphere model's chart,
# and the pseudosphere has K = -1, so its c and s are cosh and sinh


def test_exp_map_sphere_matches_closed_form():
    p = np.array([1.1, 0.4])
    v = SPHERE.unit(p, [0.3, 0.8])
    end, end_tangent, c, s = surface_model(SphereChart(1.0))._shot(
        p, v, 1.0, 200)
    q, t = SPHERE.exp_point(p, v, 1.0)
    assert np.allclose(end, q, atol=1e-8)
    assert np.allclose(end_tangent, t, atol=1e-8)
    assert np.allclose((c, s), (math.cos(1.0), math.sin(1.0)), atol=1e-8)


def test_exp_map_hyperbolic_matches_closed_form():
    p = np.array([1.2, 0.3])
    v = PSEUDO.unit(p, [1.0, 0.5])
    _, _, c, s = PSEUDO._shot(p, v, 1.5, 200)
    assert np.allclose((c, s), (math.cosh(1.5), math.sinh(1.5)), atol=1e-8)


def test_exp_map_unit_speed_drift():
    p = np.array([0.4, 0.2])
    v = PARAB.unit(p, [1.0, -0.4])
    points, tangents, _, _ = PARAB._rk4_geodesic(p, v, 2.0, 200,
                                                 collect=True)
    norms = [PARAB.norm(points[i], tangents[i])
             for i in range(0, len(points), 10)]
    assert max(abs(n - 1.0) for n in norms) < 1e-6


def test_exp_map_self_convergence_on_paraboloid():
    p = np.array([0.4, 0.2])
    v = PARAB.unit(p, [1.0, -0.4])
    coarse, _ = PARAB.exp_point(p, v, 2.0, pole_step=0.01)  # 200 steps
    fine, _ = PARAB.exp_point(p, v, 2.0, pole_step=0.001)  # 2000 steps
    assert np.linalg.norm(coarse - fine) < 1e-7


def test_exp_map_gates_conjugate_scale():
    # the pole length is gated where a run starts; below the scale the
    # profile has no conjugate point
    with pytest.raises(ConfigError):
        _require_pole(SPHERE, math.pi + 0.1)
    length = math.pi - 0.05
    j_ell, j_int, conjugate = _reference_pole(SPHERE.K, length, 200)
    assert j_ell == pytest.approx(math.sin(length), abs=1e-15)
    assert j_int == jacobi_reference_integral(SPHERE.K, length)
    assert not conjugate


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
    # the pole stops 1e-13 short of the conjugate scale, inside the flag's
    # threshold
    length = math.pi - 1e-13
    j = jacobi_reference(SPHERE.K, np.linspace(0.0, length, 101))
    assert np.allclose(j, np.sin(np.linspace(0.0, length, 101)), atol=1e-12)
    assert _has_conjugate(j)  # first conjugate point sits at u = pi
    j_ell, j_int, conj = _reference_pole(SPHERE.K, length, 100)
    assert j_ell == j[-1]
    assert j_int == pytest.approx(2.0, abs=1e-12)
    assert conj


def test_jacobi_scalar_constant_negative_surface():
    # pseudosphere has K = -1: numeric j(1) must match sinh(1)
    p = np.array([1.2, 0.0])
    v = PSEUDO.unit(p, [0.0, 1.0])
    assert PSEUDO.shoot(p, v, 1.0, pole_step=0.005)[3] == pytest.approx(
        math.sinh(1.0), abs=1e-8)
    # the profile of s along the shot, from the kernel that keeps it
    j = reference_rk4(PSEUDO.chart.spray, p, v, 1.0, 200, True)[3]
    assert not _has_conjugate(np.array(j))


def test_jacobi_normalization_small_u():
    p = np.array([0.4, 0.2])
    v = PARAB.unit(p, [1.0, -0.4])
    u = np.linspace(0.0, 0.5, 101)
    j = reference_rk4(PARAB.chart.spray, p, v, 0.5, 100, True)[3]
    # j(u) = u - K(p) u^3 / 6 + O(u^4)
    taylor = 1.0 - spray_K(PARAB, p) * u[1] ** 2 / 6.0
    assert j[1] / u[1] == pytest.approx(taylor, abs=1e-7)


# -- shooting (two-point connect) ---------------------------------------------


def test_shoot_flat_direct(monkeypatch):
    v, L, _ = FLAT2.connect([0.0, 0.0], [3.0, 4.0])
    assert np.allclose(v, [0.6, 0.8])
    assert L == 5.0
    # a Newton connect that may not iterate cannot meet its tolerance
    monkeypatch.setattr(manifold, "_SHOOT_MAX_ITER", 0)
    with pytest.raises(NoConvergenceError):
        PARAB.connect([0.3, -0.1], [0.9, 0.4])


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
        # about `steps` steps, the same count for both: the shot's length
        # is connect's length guess
        end, _ = model.exp_point(p, v, ell, pole_step=ell / steps)
        v_rec, L, _ = model.connect(p, end, v_guess=v, L_guess=ell,
                                    pole_step=ell / steps)
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
    # 64 steps both ways: a solve keeps the count of its starting length,
    # here the guess 1.19, near the distance
    step = 1.19 / 64
    v, L, t_end = PARAB.connect(p, q, L_guess=1.19, pole_step=step)
    end, _ = PARAB.exp_point(p, v, L, pole_step=step)
    assert np.allclose(end, q, atol=1e-8)
    assert abs(PARAB.norm(q, t_end) - 1.0) < 1e-9
    # symmetry of the induced distance
    _, L_back, _ = PARAB.connect(q, p, L_guess=1.19, pole_step=step)
    assert L_back == pytest.approx(L, abs=1e-9)


ELLIPSOID = surface_model({"name": "ellipsoid", "a": 1.0, "b": 1.0,
                           "c": 1.2})
SPHERE_CHART = surface_model("sphere")  # the unit sphere, SPHERE's chart


def chart_point(model, rng):
    if model in (ELLIPSOID, SPHERE_CHART):
        return np.array([rng.uniform(1.1, math.pi - 1.1), rng.uniform(-2, 2)])
    return rng.uniform(-0.6, 0.6, size=2)


@pytest.mark.parametrize("model", [PARAB, HILLY, ELLIPSOID, SPHERE_CHART],
                         ids=["paraboloid", "hilly", "ellipsoid", "sphere"])
def test_connect_angle_column_matches_central_difference(model):
    # d/d alpha of exp_p(L v(alpha)) is the Jacobi field with J(0) = 0 and
    # J'(0) = v turned by +pi/2: s(L) times the end tangent turned likewise
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(8):
        p = chart_point(model, rng)
        frame = model.frame_at(p)
        alpha = rng.uniform(0.0, math.tau)
        L = rng.uniform(0.05, 0.9)
        end, t_end, _, s = model.shoot(
            p, model.tangent_from_angle(p, alpha, frame), L)
        column = s * model.quarter_turn(end, t_end)
        plus, minus = (model.shoot(p, model.tangent_from_angle(
            p, alpha + sgn * h, frame), L)[0] for sgn in (1.0, -1.0))
        fd = (plus - minus) / (2.0 * h)
        assert np.linalg.norm(column - fd) <= 1e-6 * np.linalg.norm(fd)


def test_closed_form_shot_matches_the_integrated_one():
    # SPHERE and SPHERE_CHART are one unit sphere in one chart
    rng = np.random.default_rng(9)
    for _ in range(10):
        p = np.array([rng.uniform(1.1, math.pi - 1.1), rng.uniform(-2, 2)])
        v = SPHERE.tangent_from_angle(p, rng.uniform(0.0, math.tau))
        L = rng.uniform(0.05, 0.9)
        for a, b in zip(SPHERE.shoot(p, v, L),
                        SPHERE_CHART.shoot(p, v, L, pole_step=L / 200)):
            assert np.max(np.abs(np.subtract(a, b))) < 1e-9
    v = np.array([0.6, 0.8])
    assert FLAT2.shoot([0.0, 0.0], v, 1.5)[2:] == (1.0, 1.5)
    c, s = HYP.shoot([0.1, 0.2], HYP.unit([0.1, 0.2], v), 1.5)[2:]
    assert c == pytest.approx(math.cosh(1.5), rel=1e-14)
    assert s == pytest.approx(math.sinh(1.5), rel=1e-14)
    for model in (SPHERE, PARAB):
        p = np.array([1.0, 0.2])
        w = model.unit(p, v)
        end, tangent, c, s = model.shoot(p, w, 0.0)
        assert np.array_equal(end, p) and np.array_equal(tangent, w)
        assert (c, s) == (1.0, 0.0)


def test_shot_gates_unit_speed_drift():
    # the floor of 8 steps over a long arc of the hills drifts from unit
    # speed
    p = np.array([0.1, 0.2])
    with pytest.raises(StepTooLargeError):
        HILLY.shoot(p, HILLY.unit(p, [1.0, 0.3]), 2.5, pole_step=2.5)


@pytest.mark.parametrize("length, pole_step", [(0.5, 0.05), (0.3, 0.1)])
def test_shot_makes_four_rhs_calls_per_step(monkeypatch, length,
                                            pole_step):
    # one spray per RK4 stage: a k-step shot counts 4k sprays on the
    # model, and a row shot 4k a row. A shot on any chart, a triaxial
    # ellipsoid's included, and so every row of a row shot, writes the
    # spray in and makes no spray call
    calls = []
    k = shot_steps(length, pole_step)
    for chart, p in ((ParaboloidChart(), [0.4, 0.2]),
                     (EllipsoidChart(1.3, 0.8, 1.1), [1.2, 0.3])):
        monkeypatch.setattr(chart, "spray", lambda *x: calls.append(x))
        model = surface_model(chart)
        p = np.array(p)
        model.shoot(p, model.unit(p, [1.0, -0.4]), length, pole_step)
        assert (model.sprays, calls) == (4 * k, [])
        rows = p + np.array([[0.0, 0.0], [-0.3, -0.5], [0.2, 0.3]])
        tangents = np.array([model.unit(x, [1.0, 0.5]) for x in rows])
        model.shoot_rows(rows, tangents,
                         np.array([length, 0.5 * length, 0.0]), pole_step)
        assert (model.sprays, calls) == (4 * k + 3 * 4 * k, [])


@pytest.mark.parametrize("model", [PARAB, HILLY], ids=["paraboloid",
                                                       "hills"])
def test_graph_shot_makes_no_call_below_the_rhs(monkeypatch, model):
    # the compiled graph kernel tests the domain and forms the slopes
    # inline, so a k-step float shot counts its 4k sprays and makes no
    # spray, contains or _height call
    p = [0.4, 0.2]
    v = model.unit(p, [1.0, -0.4]).tolist()
    calls = []
    spray = model.chart.spray
    monkeypatch.setattr(model.chart, "spray", lambda *x: (
        calls.append("spray"), spray(*x))[1])
    contains = SurfaceChart.contains
    monkeypatch.setattr(SurfaceChart, "contains", lambda self, *x: (
        calls.append("contains"), contains(self, *x))[1])
    height = model.chart._height
    monkeypatch.setattr(model.chart, "_height", lambda *x: (
        calls.append("_height"), height(*x))[1])
    model.check_point(p)
    model.chart.point(*p)
    assert calls == ["contains", "_height"]
    calls.clear()
    sprays = model.sprays
    end, _, _, s = model._rk4_geodesic(p, v, 0.5, 10, collect=False)
    assert (model.sprays - sprays, calls) == (40, [])
    assert s > 0.0 and model.chart.contains(*end)


def test_drift_check_reads_the_end_point():
    # a 200-step shot is sampled at 0, 12, ..., 192 and at its end, 200:
    # drift that appears only after sample 192 raises, for one shot and
    # for a shot among rows, which is named
    p = np.array([0.4, 0.2])
    v = PARAB.unit(p, [1.0, -0.4])
    pts, tans, _, _ = PARAB._rk4_geodesic(p, v, 1.0, 200, collect=True)
    PARAB._check_drift(pts, tans)
    bent = tans.copy()
    bent[193:] *= 1.0 + 1e-5
    with pytest.raises(StepTooLargeError):
        PARAB._check_drift(pts, bent)
    with pytest.raises(StepTooLargeError, match="in row 1"):
        PARAB._check_drift(np.stack([pts, pts], axis=2),
                           np.stack([tans, bent], axis=2))


def test_drift_check_rejects_a_long_step_and_a_domain_exit():
    # each shot is checked alone, (m, 2), and as one row, (m, 2, 1)
    chart = ParaboloidChart()
    chart.domain = ((-1.0, 1.0), (None, None))
    bounded = surface_model(chart)
    for model, shooter, p, w, length, n_steps, error in (
            # the floor of 8 steps over a long arc of the hills drifts from
            # unit speed; 400 steps hold it
            (HILLY, HILLY, (0.1, 0.2), [1.0, 0.3], 2.5, 8, StepTooLargeError),
            (HILLY, HILLY, (0.1, 0.2), [1.0, 0.3], 2.5, 400, None),
            # a shot on the unbounded paraboloid ends at u = 1.13, outside
            # the copy bounded at u = 1
            (bounded, PARAB, (0.5, 0.0), [1.0, 0.0], 1.2, 48,
             DomainExitError)):
        v = tuple(model.unit(p, w).tolist())
        pts, tans, _, _ = shooter._rk4_geodesic(p, v, length, n_steps,
                                                collect=True)
        for shot in ((pts, tans), (pts[..., None], tans[..., None])):
            with (pytest.raises(error) if error
                  else contextlib.nullcontext()):
                model._check_drift(*shot)


@pytest.mark.parametrize("model", [PARAB, PSEUDO, HILLY, SPHERE, HYP],
                         ids=lambda m: type(getattr(m, "chart", m)).__name__)
def test_row_shot_matches_one_shot_per_row(model):
    rng = np.random.default_rng(11)
    p = np.array([[rng.uniform(0.9, 1.4), rng.uniform(-0.3, 0.3)]
                  for _ in range(6)]) * (0.3 if model is HYP else 1.0)
    v = np.array([model.unit(a, [math.cos(t), math.sin(t)])
                  for a, t in zip(p, rng.uniform(0.0, math.tau, 6))])
    L = np.append(rng.uniform(0.05, 0.6, 5), 0.0)
    # about 48 steps over the longest row, whose count every row takes
    step = np.max(L) / 48
    rows = model.shoot_rows(p, v, L, step)
    steps = shot_steps(np.max(L), step)
    one = [np.array(x) for x in zip(*(model._shot(a, b, n, steps)
                                      for a, b, n in zip(p, v, L)))]
    for a, b in zip(rows, one):
        np.testing.assert_array_equal(a, b)


def test_shot_steps_rule():
    assert shot_steps(0.5, 0.05) == 10
    assert shot_steps(0.51, 0.05) == 11
    assert shot_steps(0.1, 0.05) == shot_steps(0.0, 0.05) == 8


@pytest.mark.parametrize("pole_step", [1e-9, 5e-324, math.nan])
def test_shot_steps_refuses_a_step_count_past_its_cap(pole_step):
    # 5e8 steps, an infinite count and a NaN one are a bad pole_step, not
    # a shot that runs for minutes or an OverflowError from math.ceil
    with pytest.raises(ConfigError, match="pole_step"):
        shot_steps(0.5, pole_step)
    assert shot_steps(1.0, 1e-6) == 10 ** 6


@pytest.mark.parametrize("model", [PARAB, SPHERE, FLAT3],
                         ids=lambda m: type(getattr(m, "chart", m)).__name__)
def test_row_shot_of_no_rows(model):
    empty = np.empty((0, model.dim))
    end, tangent, c, s = model.shoot_rows(empty, empty, np.empty(0))
    assert end.shape == tangent.shape == empty.shape
    assert c.shape == s.shape == (0,)


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


@settings(max_examples=200, deadline=None)
@given(st.floats(0.3, math.pi - 0.3), st.floats(-3.0, 3.0),
       st.floats(0.0, math.tau), st.floats(1e-6, 1e-3),
       st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_sphere_transport_matches_rk4_on_short_segments(th, ph, turn, length,
                                                        wx, wy):
    # the closed form follows the same chart segment as the integration,
    # so they agree to the integration's O(length^5) error
    a = np.array([th, ph])
    b = a + length * np.array([math.cos(turn), math.sin(turn)])
    w = np.array([wx, wy + 2.0])
    ref = ManifoldModel.parallel_transport(SPHERE, a, b, w)
    assert np.linalg.norm(SPHERE.parallel_transport(a, b, w) - ref) \
        <= 1e-12 * np.linalg.norm(ref)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 0.7), st.floats(0.0, math.tau),
       st.floats(0.0, math.tau), st.floats(1e-6, 1e-3),
       st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_disk_transport_matches_rk4_on_short_segments(r, arg, turn, length,
                                                      wx, wy):
    a = r * np.array([math.cos(arg), math.sin(arg)])
    # a chart step of length * f(a) is a hyperbolic step of about 2 length
    b = a + length * (1.0 - r * r) * np.array([math.cos(turn),
                                               math.sin(turn)])
    w = np.array([wx, wy + 2.0])
    ref = ManifoldModel.parallel_transport(HYP, a, b, w)
    assert np.linalg.norm(HYP.parallel_transport(a, b, w) - ref) \
        <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("model", [FLAT2, SPHERE, HYP],
                         ids=lambda m: m.__class__.__name__)
def test_distance_to_geodesic_reads_the_fermi_offset(model):
    # p = exp_foot(d N) with the foot on the geodesic through a along v and
    # N normal to it there lies at distance d from that geodesic
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_point(model, rng)
        v = model.tangent_from_angle(a, rng.uniform(0.0, math.tau))
        foot, tangent = model.exp_point(a, v, rng.uniform(0.0, 0.8))
        side = math.copysign(1.0, rng.uniform(-1.0, 1.0))
        d = rng.uniform(0.0, 0.6)
        p = model.exp_point(foot, side * model.quarter_turn(foot, tangent),
                            d)[0]
        assert model.distance_to_geodesic(a, 2.5 * v, p[None, :])[0] == \
            pytest.approx(d, abs=1e-12)


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


@pytest.mark.parametrize("model", [SPHERE, space_form(0.25), HYP, FLAT2,
                                   FLAT3, PARAB],
                         ids=["sphere", "sphere-r2", "disk", "flat2",
                              "flat3", "paraboloid"])
def test_transport_and_norm_rows_match_single_calls(model):
    # the curvature pass transports and measures all records in one call
    rng = np.random.default_rng(11)
    a = np.array([random_point(SPHERE if isinstance(model, SphereModel)
                               else model, rng) for _ in range(40)])
    b = a + 0.05 * rng.standard_normal(a.shape)
    w = rng.standard_normal(a.shape)
    rows = model.parallel_transport(a, b, w)
    single = np.array([model.parallel_transport(p, q, x)
                       for p, q, x in zip(a, b, w)])
    np.testing.assert_allclose(rows, single, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(model.norm_rows(a, w),
                               [model.norm(p, x) for p, x in zip(a, w)],
                               rtol=1e-14)
    empty = np.empty((0, model.dim))
    assert model.parallel_transport(empty, empty, empty).shape == empty.shape


# -- the closed-form tractrix record ------------------------------------------


# flat space is checked against its own closed forms (`test_tractrix_sim`)
STAGE_MODELS = [SPHERE, space_form(4.0), HYP, space_form(-0.25)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(STAGE_MODELS),
       st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
       st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       st.floats(0.0, 1.0),
       st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_closed_form_stage_matches_connect(model, where, heading, frac,
                                           etap):
    # a record reads gamma = exp_eta(-ell X), the pole direction at gamma
    # and <eta', X> off the spinor of X (`spinor`, `pole_rows`); connect
    # (log_map + exp_point) and inner give the same pole to rounding
    if isinstance(model, SphereModel):
        gamma = [0.3 + (math.pi - 0.6) * where[0], 6.0 * where[1] - 3.0]
        heading = [math.cos(math.tau * where[2]),
                   math.sin(math.tau * where[2])]
        top = 0.9 * model.conjugate_scale
    else:
        gamma = [0.6 * where[0] * math.cos(math.tau * where[1]),
                 0.6 * where[0] * math.sin(math.tau * where[1])]
        heading = heading[:2]
        top = 2.0
    assume(math.hypot(*heading) > 0.1)
    ell = 0.05 + (top - 0.05) * frac
    v0 = model.unit(gamma, np.array(heading))
    eta = model.exp_point(np.array(gamma), v0, ell)[0]
    if isinstance(model, SphereModel):
        assume(math.sin(eta[0]) > 0.1)
    etap = np.array(etap[:model.dim])
    v_o, _, t_o = model.connect(np.array(gamma), eta)
    x, _ = model.log_map(eta, np.array(gamma))
    u1, u2 = (np.array([u]) for u in model.spinor(eta, -x))
    rows = eta[None], etap[None]
    got_gamma, pole_dir, speed = model.pole_rows(*rows, u1, u2, ell,
                                                 np.array(gamma))
    # the signed speeds for eta' = e_i are <e_i, T>_g, which fix T: a
    # bound of 1e-12 |e_i|_g on each holds when |T - T_o|_g <= 1e-12
    for e_i in np.eye(model.dim):
        speed_i = model.pole_speeds(eta[None], e_i[None], u1, u2)[0]
        assert (abs(speed_i - model.inner(eta, e_i, t_o))
                <= 1e-12 * model.norm(eta, e_i))
    scale = model.norm(eta, etap)
    assume(scale > 1e-3)
    assert model.pole_speeds(*rows, u1, u2)[0] == speed[0]
    assert abs(speed[0] - model.inner(eta, etap, t_o)) <= 1e-12 * scale
    assert np.max(np.abs(got_gamma[0] - gamma)) <= 1e-12
    assert model.norm(gamma, pole_dir[0] - v_o) <= 1e-12
    assert abs(model.distance_rows(eta[None], got_gamma)[0] - ell) <= 1e-12


@pytest.mark.parametrize("model, eta, gamma, error", [
    (HYP, [0.3, 0.1], [0.3, 0.1], ValueError),
    (SPHERE, [1.0, 0.5], [1.0, 0.5], ValueError),
    (SPHERE, [1.0, 0.5], [math.pi - 1.0, 0.5 + math.pi], ValueError),
    (SPHERE, [1.0, 0.5], [1e-9, 0.0], SingularChartError),
    (SPHERE, [1e-9, 0.5], [1.0, 0.0], SingularChartError),
    (HYP, [0.8, 0.8], [0.0, 0.0], OutOfDomainError),
], ids=["disk-coincident",
        "sphere-coincident", "sphere-antipodal", "sphere-gamma-pole",
        "sphere-eta-pole", "disk-eta-outside"])
def test_closed_form_stage_rejects_bad_poles(model, eta, gamma, error):
    # every tractor point and every gamma of a space-form run passes
    # `check_rows`, which refuses a point at the chart pole or outside the
    # disk as `check_point` does, one row at a time; the run's start is
    # the log map from eta to gamma, which refuses coincident and
    # antipodal points
    rows = np.array([[0.5, 0.2], eta, gamma])
    with pytest.raises(error):
        model.check_rows(rows)
        model.log_map(np.array(eta), np.array(gamma))
    assert np.array_equal(model.row_faults(rows),
                          [False, *(_refused(model, p) for p in rows[1:])])


@pytest.mark.parametrize("separation", [1e-9, 1e-7, 7e-7, 1e-5, 1e-3, 0.1,
                                        1.0, 3.0])
def test_sphere_log_map_is_unit_at_every_separation(separation):
    # the log map inverts exp_point to rounding from 1e-9 to near the
    # antipode: a unit direction, the separation as its length, and the
    # start direction to 2e-14 of arc at the end. An angle by acos of
    # X . Y loses half its digits: |v|_g - 1 was -2.8e-4 at 7e-7
    p = np.array([1.2, 0.4])
    for heading in (0.3, 2.0, 4.0):
        v0 = SPHERE.unit(p, [math.cos(heading), math.sin(heading)])
        v, L = SPHERE.log_map(p, SPHERE.exp_point(p, v0, separation)[0])
        assert abs(SPHERE.norm(p, v) - 1.0) <= 3e-14
        assert abs(L - separation) <= 1e-15
        assert SPHERE.norm(p, v - v0) * separation <= 2e-14


def _refused(model, p):
    try:
        model.check_point(p)
    except (OutOfDomainError, SingularChartError):
        return True
    return False


# -- chart exits -------------------------------------------------------------


@pytest.mark.parametrize("chart, u, what", [
    (PseudosphereChart(), 800.0, r"pseudosphere\(a=1\): the profile"),
    (GraphChart(poly=[(200, 0, 1.0)]), 40.0, r"graph: the height"),
], ids=["pseudosphere", "graph"])
def test_row_overflow_is_the_float_paths_error(chart, u, what):
    # cosh 800 and 40 ** 200 overflow a float inside the domain: a float
    # shot raises the chart's overflow error, and the row paths raise it
    # too, naming the row, where they warned and then read a singular
    # metric (a RuntimeWarning fails the suite). Row 0's shot stays finite
    model = SurfaceModel(chart)
    at = rf"^{what} overflows a float at \({u!r}, 0\.0\)"
    with pytest.raises(SingularChartError, match=at + "$"):
        model.shoot([u, 0.0], [1.0, 0.0], 0.5)
    points = np.array([[0.5, 0.0], [u, 0.0]])
    for call in (lambda: model.metric_rows(points),
                 lambda: model.shoot_rows(points, np.array([[1.0, 0.0]] * 2),
                                          np.array([0.5, 0.5]))):
        with pytest.raises(SingularChartError, match=at + " in row 1$"):
            call()



@pytest.mark.parametrize("p, v", [([math.nan, 0.0], [1.0, 0.0]),
                                  ([math.inf, 0.0], [1.0, 0.0]),
                                  ([0.0, 0.0], [math.nan, 0.0])],
                         ids=["nan-point", "inf-point", "nan-tangent"])
def test_non_finite_shots_raise_typed_errors(p, v):
    # a non-finite point is outside every chart, so no shot returns NaN
    with pytest.raises(DomainExitError):
        PARAB.shoot(p, v, 1.0)
    with pytest.raises(DomainExitError, match="row 1"):
        PARAB.shoot_rows(np.array([[0.0, 0.0], p]),
                         np.array([[1.0, 0.0], v]), np.array([1.0, 1.0]))
    if not np.all(np.isfinite(p)):
        with pytest.raises(OutOfDomainError):
            PARAB.exp_point(p, v, 1.0)


def test_shots_that_leave_a_bounded_graph_raise():
    # the paraboloid cut to the square |u|, |v| <= 1 by its config domain:
    # the unit shot along the u axis from u = 0.5 leaves it at u = 1
    model = surface_model({"name": "graph",
                           "poly": [[2, 0, 1.0], [0, 2, 1.0]],
                           "domain": [[-1.0, 1.0], [-1.0, 1.0]]})
    unit = [1.0 / math.sqrt(2.0), 0.0]
    assert model.norm([0.5, 0.0], unit) == pytest.approx(1.0)
    model.shoot([0.5, 0.0], unit, 0.2)
    with pytest.raises(DomainExitError):
        model.shoot([0.5, 0.0], unit, 2.0)
    # on rows, row 0 stays inside and row 1 leaves
    with pytest.raises(DomainExitError, match="row 1"):
        model.shoot_rows(np.array([[0.0, 0.0], [0.5, 0.0]]),
                         np.array([[1.0, 0.0], unit]), np.array([0.1, 2.0]))


@pytest.mark.parametrize("p, length", [([0.5, 0.3], 0.5), ([0.5, 0.3], 1.0),
                                       ([0.25, 0.0], 0.25)])
def test_shots_into_the_sphere_chart_pole_raise_typed_errors(p, length):
    # along a meridian into colatitude 0, where the chart's metric is
    # singular; the check precedes every division by det
    sphere = surface_model("sphere")
    with pytest.raises((SingularChartError, DomainExitError)):
        sphere.shoot(p, [-1.0, 0.0], length)
    with pytest.raises((SingularChartError, DomainExitError), match="row 0"):
        sphere.shoot_rows(np.array([p]), np.array([[-1.0, 0.0]]),
                          np.array([length]))


@pytest.mark.parametrize("landing, error", [(0.0, SingularChartError),
                                            (-0.5, DomainExitError)],
                         ids=["onto-the-pole", "past-the-pole"])
def test_spheroid_row_shots_into_the_pole_raise_naming_their_row(landing,
                                                                 error):
    # row 1 runs down a meridian of the spheroid, and its first step's
    # second stage, at u0 + (h / 2) p, lands exactly on the pole, where
    # det = E r^2 = 0, or past it, outside the domain; row 0 stays inside.
    # Both raise at that stage, before the shot's unit speed is checked
    model = surface_model(EllipsoidChart(1.0, 1.0, 1.2))
    length, p = 0.4, -1.0
    hh = 0.5 * (length / shot_steps(length, 0.05))  # as _rk4_geodesic
    u0 = hh * (1.0 + landing)
    assert u0 + hh * p == landing * hh
    with pytest.raises(error):
        model.shoot([u0, 0.3], [p, 0.0], length)
    with pytest.raises(error, match="row 1"):
        model.shoot_rows(np.array([[1.2, 0.3], [u0, 0.3]]),
                         np.array([[-0.8, 0.3], [p, 0.0]]),
                         np.array([0.3, length]))


# -- the surface tractrix stage ----------------------------------------------


def surface_stage_oracle(model, eta, eta_prime, X, ell, n_pole):
    """The surface stage in NumPy matrices, from `metric_at`,
    `christoffel_at` and shots of given step counts (`_shot`): (rate,
    speed, record). The record's curvature window is the least and
    greatest K of the pole shot's stages, each recorded as the spray
    returns it."""
    eta, eta_prime, X = np.array(eta), np.array(eta_prime), np.array(X)
    g = model.metric_at(eta)
    size = math.sqrt(float(X @ g @ X))
    unit = X / size
    gamma, tangent, c_ell, s_ell = model._shot(eta, unit, ell, n_pole)
    along = float(eta_prime @ g @ unit)
    rate = ((c_ell / s_ell) * (along * X - size * eta_prime)
            - model.christoffel_at(eta) @ X @ eta_prime)
    # the profile of c and s along the pole, one k-step shot to sample k
    grid = np.linspace(0.0, ell, n_pole + 1)
    c, s = np.array([model._shot(eta, unit, u, k)[2:]
                     for k, u in enumerate(grid)]).T
    jac = s_ell * c[::-1] - c_ell * s[::-1]
    speed = model.norm(gamma, tangent)
    Ks = []

    def rhs(*state):
        out = model.chart.spray(*state)
        Ks.append(out[2])
        return out

    reference_rk4(rhs, eta, unit, ell, n_pole, collect=False)
    return rate, abs(along), (
        gamma, -tangent / speed, -along, s_ell, simpson(jac, grid),
        _has_conjugate(jac), abs(speed - 1.0), model.norm(eta, eta_prime),
        min(Ks), max(Ks))


SURFACE_STAGE_MODELS = [PARAB, HILLY,
                        surface_model(EllipsoidChart(1.0, 1.0, 1.2))]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SURFACE_STAGE_MODELS), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0), st.floats(0.0, math.tau), st.floats(0.9, 1.1),
       st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
       st.floats(0.1, 0.6), st.integers(8, 16), st.booleans())
def test_surface_stage_matches_the_matrix_oracle(model, fu, fv, heading,
                                                 scale, etap, ell, n_pole,
                                                 record):
    # the float stage writes out what the oracle takes from 2x2 matrices;
    # only the rounding of the sums may differ
    if isinstance(model.chart, EllipsoidChart):
        eta = [0.9 + (math.pi - 1.8) * fu, 6.0 * fv - 3.0]
    else:
        eta = [2.0 * fu - 1.0, 2.0 * fv - 1.0]
    scale_g = model.norm(eta, etap)
    assume(scale_g > 1e-3)
    X = (scale * model.unit(eta, [math.cos(heading), math.sin(heading)])
         ).tolist()
    rate, sdot, rec = model.tractrix_stage(eta, etap, X, ell, n_pole,
                                           record=record)
    rate_o, sdot_o, rec_o = surface_stage_oracle(model, eta, etap, X, ell,
                                                 n_pole)
    assert model.norm(eta, np.subtract(rate, rate_o)) <= 1e-13 * scale_g
    assert abs(sdot - sdot_o) <= 1e-13 * scale_g
    if not record:
        assert rec is None
        return
    assert len(rec) == len(rec_o)
    # the record carries the samples of J, which simulate integrates by
    # the pole grid's Simpson rule
    rec = (*rec[:4], simpson(rec[4], np.linspace(0.0, ell, n_pole + 1)),
           *rec[5:])
    for got, want in zip(rec, rec_o):
        if isinstance(want, (bool, np.bool_)):
            assert got is want or got == want
        else:
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-13


@pytest.mark.parametrize("ell, conjugate", [(1.0, False),
                                             (math.tau + 0.3, True)],
                         ids=["short", "past-two-conjugate-points"])
def test_stage_conjugate_flag_matches_the_array_flag(ell, conjugate):
    # along the equator of the unit sphere J(u) = sin(u): a pole of length
    # 2 pi + 0.3 has s(ell) > 0 but passes conjugate points at pi and
    # 2 pi. The flag, formed on floats, agrees with _has_conjugate on the
    # record's samples of J
    model = surface_model("sphere")
    n_pole = shot_steps(ell, 0.05)
    rec = model.tractrix_stage([math.pi / 2, 0.0], [1.0, 0.0], [0.0, 1.0],
                               ell, n_pole, record=True)[2]
    samples, flag = rec[4], rec[5]
    assert len(samples) == n_pole + 1 and samples[-1] == rec[3]
    assert flag is conjugate
    assert flag == _has_conjugate(np.array(samples))


@pytest.mark.parametrize("record", [False, True])
def test_surface_stage_refuses_a_pole_past_its_conjugate_point(record):
    # along the equator of the unit sphere s(ell) = sin(ell) < 0 for
    # ell = 3.3, past the conjugate point at pi
    model = surface_model("sphere")
    with pytest.raises(NoConvergenceError, match="conjugate point"):
        model.tractrix_stage([math.pi / 2, 0.0], [1.0, 0.0], [0.0, 1.0],
                             3.3, 40, record=record)
