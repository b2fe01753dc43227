"""Manifold models and their geodesy.

Every model answers the same questions, which are all that the
tractor/tractrix machinery asks of a manifold: metric, Christoffel symbols
and Gauss curvature at a point; geodesics from a point (`exp_point`, the
sampled pole `exp_map` with its Jacobi profile j'' + K j = 0); two-point
geodesics (`connect`, `distance`); parallel transport; one stage of the
tractrix propagation (`tractrix_start`, `tractrix_stage`); and the edge
length and discrete geodesic acceleration of a polyline.

The defaults on ManifoldModel are numerical. Geodesics integrate
x'' + Gamma(x', x') = 0 with a fixed-step classical Runge-Kutta scheme, and
the scalar Jacobi equation rides along, which is exact in dimension two.
Two-point geodesics are solved by damped Newton. The tractrix state is the
pole direction at the tractor, so a stage is one shot and no two-point
solve. Embedded parametric surfaces F(u, v) in R^3 (SurfaceModel) use these
defaults. The constant-curvature space forms, in standard charts
(colatitude/longitude for K > 0, Cartesian for K = 0, Poincare disk for
K < 0), override them with closed forms.

Sign conventions: Gamma^k_ij = (1/2) g^kl (d_i g_jl + d_j g_il - d_l g_ij);
Gauss curvature from the second fundamental form for embedded charts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import simpson

from .charts import SurfaceChart
from .errors import (
    ConfigError,
    DomainExitError,
    NoConvergenceError,
    OutOfDomainError,
    SingularChartError,
    StepTooLargeError,
)

__all__ = [
    "ManifoldModel",
    "SpaceFormModel",
    "FlatModel",
    "SphereModel",
    "HyperbolicModel",
    "SurfaceModel",
    "PoleGeodesic",
    "space_form",
    "surface_model",
    "model_from_config",
    "jacobi_reference",
    "jacobi_reference_integral",
]

_DET_EPS = 1e-12
_DRIFT_TOL = 1e-6
# sin(pi) rounds to ~1.2e-16, so a conjugate point is flagged by a small
# positive threshold rather than an exact sign change.
_CONJ_TOL = 1e-12
_SHOOT_MAX_ITER = 50
_SHOOT_FD_H = 1e-6


def jacobi_reference(K, u):
    """Normalized Jacobi solution J^K(u) of j'' + K j = 0, j(0)=0, j'(0)=1."""
    u = np.asarray(u, dtype=float)
    if K > 0:
        k = math.sqrt(K)
        out = np.sin(k * u) / k
    elif K < 0:
        k = math.sqrt(-K)
        out = np.sinh(k * u) / k
    else:
        out = u.copy()
    return out if out.ndim else float(out)


def jacobi_reference_integral(K, ell):
    """Integral of J^K over [0, ell]."""
    if K > 0:
        k = math.sqrt(K)
        return (1.0 - math.cos(k * ell)) / K
    if K < 0:
        k = math.sqrt(-K)
        return (math.cosh(k * ell) - 1.0) / (-K)
    return 0.5 * ell * ell


def _has_conjugate(jacobi):
    return bool(jacobi is not None and np.any(jacobi[1:] <= _CONJ_TOL))


@lru_cache(maxsize=8)
def _reference_profile(K, length, steps):
    """Read-only J^K at steps + 1 samples of [0, length] and its flag."""
    j = jacobi_reference(K, np.linspace(0.0, length, steps + 1))
    j.flags.writeable = False
    return j, _has_conjugate(j)


@dataclass
class PoleGeodesic:
    """Sampled unit-speed geodesic segment (one pole position)."""

    u: np.ndarray
    points: np.ndarray
    tangents: np.ndarray
    length: float
    jacobi: np.ndarray | None = None
    conjugate: bool = False

    @property
    def endpoint(self):
        return self.points[-1]

    @property
    def end_tangent(self):
        return self.tangents[-1]


class ManifoldModel:
    """Common interface; the geodesy defaults integrate (RK4, Newton)."""

    dim = 2
    # Constant Gauss curvature, or None where it varies.
    K = None
    # Positive curvature bound sup K, used to gate pole lengths; None if free.
    conjugate_scale = None

    def metric_at(self, p):
        raise NotImplementedError

    def christoffel_at(self, p):
        raise NotImplementedError

    def gauss_at(self, p):
        raise NotImplementedError

    def check_point(self, p):
        """Raise OutOfDomain/SingularChart when p is unusable."""

    def _geo_rhs(self, x, v, want_k=False):
        """Acceleration tuple -Gamma(v, v) at x; raises on bad points.

        With want_k the Gauss curvature at x follows as a third entry.
        """
        raise NotImplementedError

    # -- metric helpers ----------------------------------------------------

    def inner(self, p, a, b):
        g = self.metric_at(p)
        return float(np.asarray(a) @ g @ np.asarray(b))

    def norm(self, p, a):
        return math.sqrt(max(self.inner(p, a, a), 0.0))

    def unit(self, p, a):
        n = self.norm(p, a)
        if n < 1e-300:
            raise ValueError("cannot normalize a zero tangent vector")
        return np.asarray(a, dtype=float) / n

    def frame_at(self, p):
        """g-orthonormal frame (rows) built from the coordinate basis."""
        g = self.metric_at(p)
        n = self.dim
        basis = np.eye(n)
        frame = []
        for i in range(n):
            w = basis[i].astype(float)
            for e in frame:
                w = w - (w @ g @ e) * e
            nn = math.sqrt(max(float(w @ g @ w), 0.0))
            if nn < 1e-150:
                raise SingularChartError(f"degenerate frame at {p}")
            frame.append(w / nn)
        return np.array(frame)

    def tangent_from_angle(self, p, angle, frame=None):
        if frame is None:
            frame = self.frame_at(p)
        return math.cos(angle) * frame[0] + math.sin(angle) * frame[1]

    def angle_of(self, p, v, frame=None):
        if frame is None:
            frame = self.frame_at(p)
        g = self.metric_at(p)
        a = float(np.asarray(v) @ g @ frame[0])
        b = float(np.asarray(v) @ g @ frame[1])
        return math.atan2(b, a)

    def rotate(self, p, v, angle):
        frame = self.frame_at(p)
        return self.tangent_from_angle(
            p, self.angle_of(p, v, frame) + angle, frame)

    # -- geodesy -----------------------------------------------------------

    def exp_map(self, p, v, length, steps=None, want_jacobi=True):
        """Shoot a unit-speed geodesic of given length; return sampled pole.

        steps defaults to 200 samples. The scalar Jacobi profile comes along
        when `want_jacobi` (j(0)=0, j'(0)=1); the flag `conjugate` is set
        when j dips to zero or below inside (0, length].
        """
        p = np.asarray(p, dtype=float)
        v = np.asarray(v, dtype=float)
        self.check_point(p)
        nv = self.norm(p, v)
        if abs(nv - 1.0) > 1e-8:
            raise ValueError(
                f"exp_map needs a unit tangent (|v|_g = {nv!r}); "
                "normalize first")
        if length < 0:
            raise ValueError("pole length must be nonnegative")
        if (self.conjugate_scale is not None
                and length >= self.conjugate_scale):
            raise ValueError(
                f"pole length {length!r} reaches the conjugate scale "
                f"{self.conjugate_scale!r}")
        if steps is None:
            steps = 200
        steps = max(4, int(steps))
        if length == 0.0:
            return PoleGeodesic(np.array([0.0]), p[None, :].copy(),
                                v[None, :].copy(), 0.0,
                                jacobi=np.array([0.0]), conjugate=False)
        u = np.linspace(0.0, length, steps + 1)
        pts, tans, jac = self._pole_samples(p, v, length, u, want_jacobi)
        return PoleGeodesic(u, pts, tans, float(length), jacobi=jac,
                            conjugate=_has_conjugate(jac))

    def _pole_samples(self, p, v, length, u, want_jacobi):
        """(points, tangents, jacobi or None) at the parameters u."""
        steps = len(u) - 1
        shot = _rk4_geodesic(self, p, v, length, steps, want_jacobi,
                             collect=True)
        pts = np.vstack(shot[0])
        tans = np.vstack(shot[1])
        drift = max(abs(self.norm(pts[i], tans[i]) - 1.0)
                    for i in range(0, steps + 1, max(1, steps // 16)))
        if drift > _DRIFT_TOL:
            raise StepTooLargeError(
                f"unit-speed drift {drift:.3e} exceeds {_DRIFT_TOL}; "
                "reduce the pole step")
        return pts, tans, np.array(shot[3]) if want_jacobi else None

    def exp_point(self, p, v, length, steps=None):
        """Endpoint and end tangent of the unit-speed geodesic p, v, length."""
        pole = self.exp_map(p, v, length, steps=steps, want_jacobi=False)
        return pole.endpoint, pole.end_tangent

    def connect(self, p, q, v_guess=None, L_guess=None, steps=48,
                tol=1e-11, max_iter=_SHOOT_MAX_ITER):
        """Two-point geodesic: returns (unit v at p, length, unit tangent at q).

        Solves for (direction angle, length) jointly by damped Newton on the
        fixed-step endpoint map; the length column of the Jacobian is the
        endpoint velocity, the angle column is a forward difference
        (h = 1e-6). The start is v_guess, else the chart chord.
        """
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        frame = self.frame_at(p)
        g = self.metric_at(p)
        d = q - p
        chord = math.sqrt(max(float(d @ g @ d), 1e-300))
        if v_guess is not None:
            alpha = self.angle_of(p, np.asarray(v_guess, float), frame)
        else:
            alpha = self.angle_of(p, d / chord, frame)
        L = float(L_guess) if L_guess else chord

        def endpoint(a, ell):
            v = self.tangent_from_angle(p, a, frame)
            return _rk4_geodesic(self, p, v, ell, steps, False,
                                 collect=False)

        end, t_end = endpoint(alpha, L)
        r = end - q
        rn = float(np.linalg.norm(r))
        scale = max(1.0, float(np.linalg.norm(q - p)))
        for _ in range(max_iter):
            if rn < tol * scale:
                break
            da = (endpoint(alpha + _SHOOT_FD_H, L)[0] - end) / _SHOOT_FD_H
            J = np.column_stack([da, t_end])
            try:
                delta = np.linalg.solve(J, -r)
            except np.linalg.LinAlgError as exc:
                raise NoConvergenceError(f"connect Jacobian singular: {exc}")
            damp = 1.0
            while True:
                a_new = alpha + damp * delta[0]
                L_new = max(L + damp * delta[1], 1e-12)
                end_new, t_new = endpoint(a_new, L_new)
                r_new = end_new - q
                rn_new = float(np.linalg.norm(r_new))
                if rn_new <= rn or damp < 1e-6:
                    break
                damp *= 0.5
            alpha, L, end, t_end, r, rn = (a_new, L_new, end_new, t_new,
                                           r_new, rn_new)
        if rn >= max(tol * scale, 1e-9):
            raise NoConvergenceError(
                f"connect stalled at residual {rn:.3e} between {p} and {q}")
        v = self.tangent_from_angle(p, alpha, frame)
        t_end = t_end / max(self.norm(q, t_end), 1e-300)
        return v, L, t_end

    def distance(self, p, q, v_guess=None, L_guess=None):
        """Geodesic distance; the guesses warm-start the Newton solve."""
        return self.connect(p, q, v_guess=v_guess, L_guess=L_guess)[1]

    def parallel_transport(self, a, b, w):
        """Transport w from a to b along the chart segment between them.

        dw/dt = -Gamma(b - a, w) is integrated with two RK4 substeps.
        """
        a = np.asarray(a, dtype=float)
        seg = np.asarray(b, dtype=float) - a
        w = np.asarray(w, dtype=float)

        def rhs(x, wv):
            G = self.christoffel_at(x)
            return -np.einsum("kij,i,j->k", G, seg, wv)

        h = 0.5
        for m in range(2):
            t0 = m * h
            k1 = rhs(a + t0 * seg, w)
            k2 = rhs(a + (t0 + h / 2) * seg, w + 0.5 * h * k1)
            k3 = rhs(a + (t0 + h / 2) * seg, w + 0.5 * h * k2)
            k4 = rhs(a + (t0 + h) * seg, w + h * k3)
            w = w + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return w

    # -- tractrix propagation ---------------------------------------------

    def tractrix_start(self, eta, gamma, ell, n_pole):
        """(state, L): the propagated state of a tractrix at gamma, and L,
        the distance from eta to gamma that it was solved at.

        The state is the unit pole direction X at the tractor point eta,
        from one n_pole-step `connect`.
        """
        X, L, _ = self.connect(eta, gamma, L_guess=ell, steps=n_pole)
        return X, L

    def tractrix_stage(self, eta, eta_prime, X, ell, n_pole, record=False):
        """One stage: (rate of the state, tractrix speed |ds/dt|, record).

        The tractrix is gamma = exp_eta(ell X). Its velocity is the Jacobi
        field J along the pole with J(0) = eta' and J'(0) = D_t X, taken at
        gamma. J has no normal part there, so gamma moves along the pole
        with speed <eta', X>, and

            D_t X = -(c(ell) / s(ell)) (eta' - <eta', X> X),

        with c and s the cosine and sine solutions of j'' + K j = 0 along
        the pole. One RK4 shot of n_pole steps from eta along X carries them.
        The chart rate is D_t X - Gamma(eta', X), extended to |X| != 1
        homogeneously, so |X| is a first integral and the direction needs
        no renormalizing.

        The record is None unless asked for; it is (gamma, pole_dir at
        gamma, pole_end at eta, signed speed, Jacobi profile from gamma,
        conjugate flag, drift). The profile j(u) = s(ell) c(ell - u)
        - c(ell) s(ell - u) follows from the Wronskian, and the drift is the
        shot's unit-speed error |T(ell)|_g - 1 at gamma.
        """
        g = self.metric_at(eta)
        size = math.sqrt(float(X @ g @ X))
        unit = X / size
        end, tangent, c, s = _rk4_geodesic(self, eta, unit, ell, n_pole,
                                           True, collect=record)
        c_ell, s_ell = (c[-1], s[-1]) if record else (c, s)
        if s_ell <= _CONJ_TOL:
            raise NoConvergenceError(
                f"the pole of length {ell!r} from {eta} reaches a conjugate "
                f"point (s(ell) = {s_ell:.3e})")
        along = float(eta_prime @ g @ unit)
        rate = ((c_ell / s_ell) * (along * X - size * eta_prime)
                - self.christoffel_at(eta) @ X @ eta_prime)
        if not record:
            return rate, abs(along), None
        gamma, tangent = end[-1], tangent[-1]
        c, s = np.array(c), np.array(s)
        jac = s_ell * c[::-1] - c_ell * s[::-1]
        speed = self.norm(gamma, tangent)
        return rate, abs(along), (gamma, -tangent / speed, -unit, -along, jac,
                                  _has_conjugate(jac), abs(speed - 1.0))

    def jacobi_integrals(self, u, jacobi):
        """Integral over [0, u[-1]] of each sampled profile (rows of jacobi)."""
        return simpson(jacobi, x=u, axis=1)

    def edge_length(self, a, b):
        """Length of a polyline edge: the metric chord at its midpoint."""
        return self.norm(0.5 * (a + b), b - a)

    def discrete_acceleration(self, prev, x, nxt, h_prev, h_next):
        """Covariant acceleration at polyline vertex x taken as unit speed.

        h_prev and h_next are the metric lengths of the adjacent edges.
        """
        vm = (x - prev) / h_prev
        vp = (nxt - x) / h_next
        vbar = 0.5 * (vm + vp)
        return ((vp - vm) / (0.5 * (h_prev + h_next))
                + np.einsum("kij,i,j->k", self.christoffel_at(x), vbar, vbar))


# ---------------------------------------------------------------------------
# Space forms


class SpaceFormModel(ManifoldModel):
    """Constant curvature: closed-form geodesy from exp_point and log_map."""

    def __init__(self, K, dim=2, periods=None):
        self.K = float(K)
        self.dim = int(dim)
        self.periods = periods

    def log_map(self, p, q):
        """(unit v at p, length) of the minimizing geodesic from p to q."""
        raise NotImplementedError

    def _pole_samples(self, p, v, length, u, want_jacobi):
        ends = [self.exp_point(p, v, x) for x in u]
        jac = jacobi_reference(self.K, u) if want_jacobi else None
        return (np.array([q for q, _ in ends]),
                np.array([t for _, t in ends]), jac)

    def connect(self, p, q, **_):
        """Closed form; the Newton hints and settings do not apply."""
        v, L = self.log_map(p, q)
        return v, L, self.exp_point(p, v, L)[1]

    def tractrix_start(self, eta, gamma, ell, n_pole):
        # the closed-form pole solve is exact, so the state is gamma itself
        return gamma.copy(), self.distance(gamma, eta, L_guess=ell)

    def tractrix_stage(self, eta, eta_prime, gamma, ell, n_pole,
                       record=False):
        """The same stage with gamma as the state: a closed-form pole solve.

        gamma moves along the unit direction v towards eta with the speed
        <eta', T(ell)>, T(ell) the pole tangent at eta. The drift is the
        solved pole length's error |L - ell|, and one Jacobi profile serves
        every pole.
        """
        v, L, t_end = self.connect(gamma, eta)
        speed = self.inner(eta, eta_prime, t_end)
        if not record:
            return speed * v, abs(speed), None
        jac, conj = _reference_profile(self.K, ell, n_pole)
        return speed * v, abs(speed), (gamma, v, t_end, speed, jac, conj,
                                       abs(L - ell))

    def jacobi_integrals(self, u, jacobi):
        return np.full(len(jacobi), jacobi_reference_integral(self.K, u[-1]))

    def edge_length(self, a, b):
        return self.distance(a, b)

    def discrete_acceleration(self, prev, x, nxt, h_prev, h_next):
        v_out, _ = self.log_map(x, nxt)
        v_in, _ = self.log_map(x, prev)
        return (v_out + v_in) / (0.5 * (h_prev + h_next))


class FlatModel(SpaceFormModel):
    """Euclidean plane or 3-space; optional periodic identifications in 2D."""

    def __init__(self, dim=2, periods=None):
        if dim not in (2, 3):
            raise ConfigError("flat model supports dimension 2 or 3")
        if periods is not None:
            if dim != 2:
                raise ConfigError("periodic identifications need dimension 2")
            periods = tuple(None if x is None else float(x) for x in periods)
        super().__init__(0.0, dim, periods)

    def metric_at(self, p):
        return np.eye(self.dim)

    def christoffel_at(self, p):
        return np.zeros((self.dim,) * 3)

    def gauss_at(self, p):
        return 0.0

    def _geo_rhs(self, x, v, want_k=False):
        return (0.0,) * (self.dim + 1 if want_k else self.dim)

    def inner(self, p, a, b):
        # identical to a @ I @ b, without building I
        return float(np.dot(a, b))

    def exp_point(self, p, v, length, steps=None):
        p = np.asarray(p, dtype=float)
        v = np.asarray(v, dtype=float)
        q = p + length * v
        return q, v.copy()

    def log_map(self, p, q):
        d = np.asarray(q, dtype=float) - np.asarray(p, dtype=float)
        L = float(np.linalg.norm(d))
        if L < 1e-300:
            raise ValueError("log map undefined for coincident points")
        return d / L, L

    def connect(self, p, q, **_):
        v, L = self.log_map(p, q)
        return v, L, v

    def distance(self, p, q, **_):
        return float(np.linalg.norm(np.asarray(q, float) - np.asarray(p, float)))

    def parallel_transport(self, a, b, w):
        # straight chart lines: transport is the identity
        return w


class SphereModel(SpaceFormModel):
    """Round sphere of curvature K = k^2 in (colatitude, longitude)."""

    def __init__(self, K):
        if K <= 0:
            raise ConfigError("SphereModel needs K > 0")
        super().__init__(K, 2)
        self.k = math.sqrt(K)
        self.radius = 1.0 / self.k
        self.conjugate_scale = math.pi / self.k

    def check_point(self, p):
        th = float(p[0])
        if not 0.0 < th < math.pi:
            raise OutOfDomainError(
                f"colatitude {th!r} outside (0, pi)")
        if math.sin(th) ** 2 * self.radius ** 4 < _DET_EPS:
            raise SingularChartError(
                f"chart singular near the poles (theta={th!r})")

    def metric_at(self, p):
        self.check_point(p)
        r2 = self.radius ** 2
        return np.diag([r2, r2 * math.sin(float(p[0])) ** 2])

    def christoffel_at(self, p):
        self.check_point(p)
        th = float(p[0])
        G = np.zeros((2, 2, 2))
        G[0, 1, 1] = -math.sin(th) * math.cos(th)
        G[1, 0, 1] = G[1, 1, 0] = 1.0 / math.tan(th)
        return G

    def gauss_at(self, p):
        return self.K

    def _geo_rhs(self, x, v, want_k=False):
        th = x[0]
        s, c = math.sin(th), math.cos(th)
        if abs(s) < 1e-9:
            raise SingularChartError(
                f"geodesic hit chart pole (theta={float(th)!r})")
        acc = (s * c * v[1] * v[1], -2.0 * (c / s) * v[0] * v[1])
        return acc + (self.K,) if want_k else acc

    # chart <-> R^3 embedding on the unit sphere (lengths scaled by radius)

    @staticmethod
    def _embed(p):
        th, ph = float(p[0]), float(p[1])
        return np.array([math.sin(th) * math.cos(ph),
                         math.sin(th) * math.sin(ph),
                         math.cos(th)])

    @staticmethod
    def _frame3(p):
        th, ph = float(p[0]), float(p[1])
        e_th = np.array([math.cos(th) * math.cos(ph),
                         math.cos(th) * math.sin(ph),
                         -math.sin(th)])
        e_ph = np.array([-math.sin(ph), math.cos(ph), 0.0])
        return e_th, e_ph

    def _tangent3(self, p, v):
        # chart tangent (unit g-norm) -> unit tangent of the unit sphere
        e_th, e_ph = self._frame3(p)
        w = v[0] * e_th + v[1] * math.sin(float(p[0])) * e_ph
        return w * self.radius

    def _tangent_chart(self, p3, t3, ref_phi):
        th = math.acos(min(1.0, max(-1.0, float(p3[2]))))
        ph = math.atan2(float(p3[1]), float(p3[0]))
        # keep longitude continuous relative to the caller's reference
        ph = ref_phi + math.remainder(ph - ref_phi, math.tau)
        p = np.array([th, ph])
        e_th, e_ph = self._frame3(p)
        s = math.sin(th)
        if s < 1e-12:
            raise SingularChartError("endpoint at chart pole")
        a = float(t3 @ e_th) / self.radius
        b = float(t3 @ e_ph) / (s * self.radius)
        return p, np.array([a, b])

    def exp_point(self, p, v, length, steps=None):
        X = self._embed(p)
        W = self._tangent3(p, np.asarray(v, dtype=float))
        psi = self.k * length
        Y = X * math.cos(psi) + W * math.sin(psi)
        T3 = -X * math.sin(psi) + W * math.cos(psi)
        return self._tangent_chart(Y, T3, ref_phi=float(p[1]))

    def log_map(self, p, q):
        X, Y = self._embed(p), self._embed(q)
        c = min(1.0, max(-1.0, float(X @ Y)))
        psi = math.acos(c)
        if psi < 1e-14:
            raise ValueError("log map undefined for coincident points")
        if math.pi - psi < 1e-12:
            raise ValueError("log map undefined for antipodal points")
        W = (Y - X * c) / math.sin(psi)
        _, v = self._tangent_chart(X, W, ref_phi=float(p[1]))
        # _tangent_chart normalizes against radius; W is unit in R^3 here
        return v, psi * self.radius

    def distance(self, p, q, **_):
        c = min(1.0, max(-1.0, float(self._embed(p) @ self._embed(q))))
        return math.acos(c) * self.radius


class HyperbolicModel(SpaceFormModel):
    """Hyperbolic plane of curvature K = -k^2 in the Poincare disk."""

    def __init__(self, K):
        if K >= 0:
            raise ConfigError("HyperbolicModel needs K < 0")
        super().__init__(K, 2)
        self.k = math.sqrt(-K)

    def check_point(self, p):
        r2 = float(p[0]) ** 2 + float(p[1]) ** 2
        if r2 >= 1.0:
            raise OutOfDomainError(f"point |z|^2={r2!r} outside the unit disk")

    def _lam(self, p):
        return (2.0 / self.k) / (1.0 - (p[0] ** 2 + p[1] ** 2))

    def metric_at(self, p):
        self.check_point(p)
        lam = self._lam(np.asarray(p, dtype=float))
        return np.eye(2) * lam ** 2

    def christoffel_at(self, p):
        self.check_point(p)
        x, y = float(p[0]), float(p[1])
        f = 1.0 - x * x - y * y
        px, py = 2.0 * x / f, 2.0 * y / f
        G = np.zeros((2, 2, 2))
        G[0, 0, 0] = px
        G[0, 0, 1] = G[0, 1, 0] = py
        G[0, 1, 1] = -px
        G[1, 0, 0] = -py
        G[1, 0, 1] = G[1, 1, 0] = px
        G[1, 1, 1] = py
        return G

    def gauss_at(self, p):
        return self.K

    def _geo_rhs(self, x, v, want_k=False):
        f = 1.0 - x[0] * x[0] - x[1] * x[1]
        if f <= 0.0:
            raise DomainExitError("geodesic left the Poincare disk",
                                  point=np.array(x))
        px, py = 2.0 * x[0] / f, 2.0 * x[1] / f
        a1 = -(px * v[0] * v[0] + 2.0 * py * v[0] * v[1] - px * v[1] * v[1])
        a2 = -(-py * v[0] * v[0] + 2.0 * px * v[0] * v[1] + py * v[1] * v[1])
        return (a1, a2, self.K) if want_k else (a1, a2)

    def exp_point(self, p, v, length, steps=None):
        z = complex(p[0], p[1])
        vc = complex(v[0], v[1])
        r2 = 1.0 - abs(z) ** 2
        v0 = vc / r2
        u = v0 / abs(v0)
        rho = math.tanh(0.5 * self.k * length)
        zeta = u * rho
        den = 1.0 + z.conjugate() * zeta
        w = (zeta + z) / den
        # velocity of the unit-speed geodesic at the endpoint
        dzeta = u * 0.5 * self.k / math.cosh(0.5 * self.k * length) ** 2
        dw = (1.0 - abs(z) ** 2) / den ** 2 * dzeta
        lam_w = (2.0 / self.k) / (1.0 - abs(w) ** 2)
        t = dw / (lam_w * abs(dw)) if abs(dw) > 0 else dw
        return (np.array([w.real, w.imag]),
                np.array([t.real, t.imag]) if abs(dw) > 0 else
                np.array([0.0, 0.0]))

    def log_map(self, p, q):
        z = complex(p[0], p[1])
        w = complex(q[0], q[1])
        zeta = (w - z) / (1.0 - z.conjugate() * w)
        az = abs(zeta)
        if az < 1e-300:
            raise ValueError("log map undefined for coincident points")
        L = (2.0 / self.k) * math.atanh(az)
        vc = (zeta / az) * (1.0 - abs(z) ** 2) * (self.k / 2.0)
        return np.array([vc.real, vc.imag]), L

    def distance(self, p, q, **_):
        z = complex(p[0], p[1])
        w = complex(q[0], q[1])
        num = 2.0 * abs(z - w) ** 2
        den = (1.0 - abs(z) ** 2) * (1.0 - abs(w) ** 2)
        return math.acosh(1.0 + num / den) / self.k


def space_form(K, dim=2, periods=None):
    """Constant-curvature model; K != 0 restricted to dimension 2."""
    if K == 0:
        return FlatModel(dim=dim, periods=periods)
    if dim != 2:
        raise ConfigError(
            "curved space forms are implemented in dimension 2 only")
    if periods is not None:
        raise ConfigError("periodic identifications need K = 0")
    return SphereModel(K) if K > 0 else HyperbolicModel(K)


# ---------------------------------------------------------------------------
# Embedded surfaces


def _singular_metric(chart, u, v):
    return SingularChartError(
        f"{chart.name}: metric singular at ({float(u)!r}, {float(v)!r})")


class SurfaceModel(ManifoldModel):
    """Embedded surface F(u, v) in R^3; geometry from the chart derivatives."""

    def __init__(self, chart: SurfaceChart):
        self.chart = chart

    def check_point(self, p):
        self.chart.check_domain(float(p[0]), float(p[1]))

    def _forms(self, u, v):
        """Chart jet, E, F, G and det at (u, v); raises if singular."""
        jet = self.chart.jet(u, v)
        fu, fv = jet[0], jet[1]
        E = fu[0] * fu[0] + fu[1] * fu[1] + fu[2] * fu[2]
        F = fu[0] * fv[0] + fu[1] * fv[1] + fu[2] * fv[2]
        G = fv[0] * fv[0] + fv[1] * fv[1] + fv[2] * fv[2]
        det = E * G - F * F
        if det < _DET_EPS:
            raise _singular_metric(self.chart, u, v)
        return jet, E, F, G, det

    def metric_at(self, p):
        u, v = float(p[0]), float(p[1])
        self.check_point(p)
        _, E, F, G, _ = self._forms(u, v)
        return np.array([[E, F], [F, G]])

    def christoffel_at(self, p):
        u, v = float(p[0]), float(p[1])
        self.check_point(p)
        (fu, fv, suu, suv, svv), E, F, G, det = self._forms(u, v)
        iuu, iuv, ivv = G / det, -F / det, E / det
        out = np.zeros((2, 2, 2))
        for idx, second in ((0, suu), (1, suv), (2, svv)):
            c1 = second[0] * fu[0] + second[1] * fu[1] + second[2] * fu[2]
            c2 = second[0] * fv[0] + second[1] * fv[1] + second[2] * fv[2]
            g1 = iuu * c1 + iuv * c2
            g2 = iuv * c1 + ivv * c2
            if idx == 0:
                out[0, 0, 0], out[1, 0, 0] = g1, g2
            elif idx == 1:
                out[0, 0, 1] = out[0, 1, 0] = g1
                out[1, 0, 1] = out[1, 1, 0] = g2
            else:
                out[0, 1, 1], out[1, 1, 1] = g1, g2
        return out

    def gauss_at(self, p):
        u, v = float(p[0]), float(p[1])
        (fu, fv, suu, suv, svv), _, _, _, det = self._forms(u, v)
        nx = fu[1] * fv[2] - fu[2] * fv[1]
        ny = fu[2] * fv[0] - fu[0] * fv[2]
        nz = fu[0] * fv[1] - fu[1] * fv[0]
        nn = math.sqrt(nx * nx + ny * ny + nz * nz)
        nx, ny, nz = nx / nn, ny / nn, nz / nn
        L = suu[0] * nx + suu[1] * ny + suu[2] * nz
        M = suv[0] * nx + suv[1] * ny + suv[2] * nz
        N = svv[0] * nx + svv[1] * ny + svv[2] * nz
        return (L * N - M * M) / det

    def _geo_rhs(self, x, v, want_k=False):
        # the hottest call: _forms, christoffel_at and gauss_at stay inlined
        u, w = x[0], x[1]
        ch = self.chart
        if not ch.contains(u, w):
            raise DomainExitError(
                f"{ch.name}: geodesic left the chart domain",
                point=np.array([u, w]))
        # unpacked once: indexing the tuples term by term costs more
        ((xu, yu, zu), (xv, yv, zv), (xuu, yuu, zuu), (xuv, yuv, zuv),
         (xvv, yvv, zvv)) = ch.jet(u, w)
        E = xu * xu + yu * yu + zu * zu
        F = xu * xv + yu * yv + zu * zv
        G = xv * xv + yv * yv + zv * zv
        det = E * G - F * F
        if det < _DET_EPS:
            raise _singular_metric(ch, u, w)
        iuu, iuv, ivv = G / det, -F / det, E / det
        cu1 = xuu * xu + yuu * yu + zuu * zu
        cu2 = xuu * xv + yuu * yv + zuu * zv
        cm1 = xuv * xu + yuv * yu + zuv * zu
        cm2 = xuv * xv + yuv * yv + zuv * zv
        cv1 = xvv * xu + yvv * yu + zvv * zu
        cv2 = xvv * xv + yvv * yv + zvv * zv
        g1uu, g2uu = iuu * cu1 + iuv * cu2, iuv * cu1 + ivv * cu2
        g1uv, g2uv = iuu * cm1 + iuv * cm2, iuv * cm1 + ivv * cm2
        g1vv, g2vv = iuu * cv1 + iuv * cv2, iuv * cv1 + ivv * cv2
        a, b = v[0], v[1]
        acc_u = -(g1uu * a * a + 2.0 * g1uv * a * b + g1vv * b * b)
        acc_v = -(g2uu * a * a + 2.0 * g2uv * a * b + g2vv * b * b)
        if not want_k:
            return acc_u, acc_v
        # K = (L N - M^2) / det against the unit normal; the unnormalized
        # n = F_u x F_v has |n|^2 = det, so no square root is needed
        nx, ny, nz = yu * zv - zu * yv, zu * xv - xu * zv, xu * yv - yu * xv
        L = xuu * nx + yuu * ny + zuu * nz
        M = xuv * nx + yuv * ny + zuv * nz
        N = xvv * nx + yvv * ny + zvv * nz
        return acc_u, acc_v, (L * N - M * M) / (det * det)


def surface_model(chart):
    if isinstance(chart, (str, dict)):
        from .charts import chart_from_config

        if isinstance(chart, str):
            chart = {"name": chart}
        chart = chart_from_config(chart)
    return SurfaceModel(chart)


def model_from_config(spec):
    """Build a model from a config mapping."""
    from .charts import chart_from_config

    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("model spec needs a 'kind' field")
    kind = spec["kind"]
    if kind == "spaceform":
        periods = spec.get("periods")
        if periods is not None:
            periods = tuple(periods)
        return space_form(float(spec.get("K", 0.0)),
                          dim=int(spec.get("dim", 2)),
                          periods=periods)
    if kind == "surface":
        if "chart" not in spec:
            raise ConfigError("surface model spec needs a 'chart' section")
        return surface_model(chart_from_config(spec["chart"]))
    raise ConfigError(f"unknown model kind {kind!r}")


# ---------------------------------------------------------------------------
# Geodesic integration


def _jacobi_step(j, jp, K1, K2, K3, K4, h, hh, h6):
    """One RK4 step of j'' = -K j with the geodesic step's stage values."""
    k1, k1p = jp, -K1 * j
    k2, k2p = jp + hh * k1p, -K2 * (j + hh * k1)
    k3, k3p = jp + hh * k2p, -K3 * (j + hh * k2)
    k4, k4p = jp + h * k3p, -K4 * (j + h * k3)
    return (j + h6 * (k1 + 2 * k2 + 2 * k3 + k4),
            jp + h6 * (k1p + 2 * k2p + 2 * k3p + k4p))


def _rk4_geodesic(model, x0, v0, length, n_steps, want_jacobi, collect):
    """Fixed-step RK4 on (x, v[, c, c', s, s']); final state or samples.

    The state is two-dimensional and held in scalar locals: (x, y) for the
    point, (p, q) for the velocity. Only surfaces reach this integrator,
    because the space forms, the only models that can be three-dimensional,
    override each of its callers (`_pole_samples`, `connect`, `exp_point`,
    `tractrix_stage`) with closed forms. With want_jacobi the cosine and
    sine solutions of j'' + K j = 0 ride along, c(0) = 1, c'(0) = 0 and
    s(0) = 0, s'(0) = 1, with K from the same chart jet as the acceleration.

    The result is (x, v), followed by (c, s) with want_jacobi: lists of
    samples when collect, else the final point and velocity as arrays and
    the final c and s.
    """
    h = length / n_steps if n_steps else 0.0
    # 0.5 * h * k parses as (0.5 * h) * k: hoisting hh and h6 keeps every bit
    hh, h6 = 0.5 * h, h / 6.0
    x, y = float(x0[0]), float(x0[1])
    p, q = float(v0[0]), float(v0[1])
    c, cp, s, sp = 1.0, 0.0, 0.0, 1.0
    rhs = model._geo_rhs
    if collect:
        xs, vs, cs, ss = [np.array((x, y))], [np.array((p, q))], [c], [s]
    for _ in range(n_steps):
        if want_jacobi:
            a1, b1, K1 = rhs((x, y), (p, q), True)
        else:
            a1, b1 = rhs((x, y), (p, q))
        x2, y2, p2, q2 = x + hh * p, y + hh * q, p + hh * a1, q + hh * b1
        if want_jacobi:
            a2, b2, K2 = rhs((x2, y2), (p2, q2), True)
        else:
            a2, b2 = rhs((x2, y2), (p2, q2))
        x3, y3, p3, q3 = x + hh * p2, y + hh * q2, p + hh * a2, q + hh * b2
        if want_jacobi:
            a3, b3, K3 = rhs((x3, y3), (p3, q3), True)
        else:
            a3, b3 = rhs((x3, y3), (p3, q3))
        x4, y4, p4, q4 = x + h * p3, y + h * q3, p + h * a3, q + h * b3
        if want_jacobi:
            a4, b4, K4 = rhs((x4, y4), (p4, q4), True)
        else:
            a4, b4 = rhs((x4, y4), (p4, q4))
        x, y, p, q = (x + h6 * (p + 2 * p2 + 2 * p3 + p4),
                      y + h6 * (q + 2 * q2 + 2 * q3 + q4),
                      p + h6 * (a1 + 2 * a2 + 2 * a3 + a4),
                      q + h6 * (b1 + 2 * b2 + 2 * b3 + b4))
        if want_jacobi:
            c, cp = _jacobi_step(c, cp, K1, K2, K3, K4, h, hh, h6)
            s, sp = _jacobi_step(s, sp, K1, K2, K3, K4, h, hh, h6)
        if collect:
            xs.append(np.array((x, y)))
            vs.append(np.array((p, q)))
            cs.append(c)
            ss.append(s)
    if collect:
        return (xs, vs, cs, ss) if want_jacobi else (xs, vs)
    if want_jacobi:
        return np.array((x, y)), np.array((p, q)), c, s
    return np.array((x, y)), np.array((p, q))
