"""Manifold models and their geodesy.

Every model answers what the tractor/tractrix machinery asks of a
manifold: metric and Christoffel symbols at a point; geodesic shots
(`exp_point`, and `shoot` with the Jacobi pair of j'' + K j = 0 along
it); two-point geodesics (`connect`, `distance`); parallel transport
along chart segments; the distance to a geodesic; a domain check on rows
(`check_rows`); the tractrix, either as its pole's generator on rows
(`generator_rows`, space forms) or as its start, one stage and one RK4
sub-step (`tractrix_start`, and the compiled `tractrix_stage` and
`tractrix_step` of each surface, on Python floats); and a polyline's edge
lengths and discrete geodesic
accelerations (`edge_lengths`, `acceleration_norms`). The `*_rows`
methods, transport and the polyline measures take (n, dim) rows, so a
post-pass is one call.

The defaults on ManifoldModel are numerical, and embedded surfaces F(u, v)
in R^3 (SurfaceModel) use them. A shot integrates x'' + Gamma(x', x') = 0
by classical RK4 with the cosine and sine solutions c, s of j'' + K j = 0
riding along. The chart supplies that right-hand side, the acceleration
and K, as text (`SurfaceChart.spray_text`: closed forms on graph charts
and surfaces of revolution, the generic formulas on the jet of the
others). One RK4 step with the spray written in at each stage, `_STEP`,
is the body of every shot loop. The shot kernel, `_KERNEL`, is that loop:
`_kernel` writes a chart's spray text into every RK4 stage and compiles
the result once per text, so a shot makes no call per stage. A row shot
is one such shot per row. A shot whose unit speed is checked keeps only
the samples that the check reads (`_drift_stride`). Every surface shot
but a tractrix stage's enters through `SurfaceModel._rk4_geodesic`, which
adds the shot's spray evaluations, 4 per step, to the model's `sprays`
counter. The tractrix stage and RK4 sub-step are compiled per chart from
templates around the same step, `_STAGE` and `_SUBSTEP` (`_tractrix`):
each writes the chart's jet text and its first form and Christoffel
arithmetic at the tractor point, and its pole shots, inline, and counts
their sprays the same way. A tractrix record's shot also keeps the
least and greatest K of its stages: the curvature window of its pole,
which the comparison checks certify. The metric and Christoffel symbols
at given points are derived here from the chart jet. A Newton solve gets
its Jacobian from the shots it makes: `connect` is damped Newton with one
shot per iteration, the direction column being s(L) times the end tangent
turned by +pi/2 (`quarter_turn`), and the attachment
(`tractrix_sim.orthogonal_attachment`) makes no `connect` call: it is one
damped Newton solve of its own, an offset shot and a pole shot per
iteration, with both columns Jacobi fields of theirs.
Transport integrates dw/dt = -Gamma(b - a, w) in two RK4 substeps over all
rows in lockstep. A surface's tractrix state is the pole direction at the
tractor, so a stage is one shot. The space forms, in standard charts
(colatitude/longitude for K > 0, Cartesian for K = 0, Poincare disk for
K < 0), override all of this with closed forms: their shot ignores its
step count, and transport and the distance to a geodesic are one array
expression over all rows. Each gives the pole direction's generator on
rows, a traceless 2x2 matrix linear in the tractor velocity, so that
`tractrix_sim.simulate` multiplies the tractrix out as a product of
Moebius maps, the bicycle monodromy, and reads gamma off the pole
direction by its closed-form exp on rows (`pole_rows`).

One rule sizes every shot: a shot of length L takes `shot_steps(L,
pole_step)` = max(8, ceil(L / pole_step)) steps, a row shot as many as its
longest row, and `connect` as many as its starting length, a count it keeps
through its Newton solve. The pole shots' O(pole_step^4) error sets the
error of a run's outputs, so a run's `pole_step` (`SimParams.pole_step`,
default POLE_STEP) also sizes its foot solve and shortening rounds. The
shots that build an attached gamma0 and a derived tractor take the fixed
`tractrix_sim._INPUT_STEP`: these inputs define the problem, so they must
not change with `pole_step`.

Sign conventions: Gamma^k_ij = (1/2) g^kl (d_i g_jl + d_j g_il - d_l g_ij);
Gauss curvature from the second fundamental form for embedded charts.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .charts import (
    DET_EPS,
    SurfaceChart,
    _christoffel_lines,
    _first_form_lines,
    compiled,
    singular_metric,
)
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
    "space_form",
    "surface_model",
    "model_from_config",
    "jacobi_reference",
    "jacobi_reference_integral",
    "shot_steps",
    "POLE_STEP",
]

_DRIFT_TOL = 1e-6
# sin(pi) rounds to ~1.2e-16, so a conjugate point is flagged by a small
# positive threshold rather than an exact sign change.
_CONJ_TOL = 1e-12
_SHOOT_MAX_ITER = 50
# `connect` stops once its end misses q by less than this, relative to
# max(1, |q - p|) in the chart
_CONNECT_TOL = 1e-11
# the default step length of a shot, and of a run's pole shots
POLE_STEP = 0.05
# the most RK4 steps one shot may take
_MAX_SHOT_STEPS = 10 ** 6
# E with E @ g @ w normal to w, turned by +pi/2 (chart orientation)
_QUARTER_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])


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


def _jacobi_pair(K, length):
    """(c, s) at length: the cosine and sine solutions of j'' + K j = 0."""
    if K > 0:
        k = math.sqrt(K)
        return math.cos(k * length), math.sin(k * length) / k
    if K < 0:
        k = math.sqrt(-K)
        return math.cosh(k * length), math.sinh(k * length) / k
    return 1.0, float(length)


def shot_steps(length, pole_step):
    """RK4 steps of a geodesic shot of `length`: ceil(length / pole_step),
    and never fewer than 8. The one place that sizes a shot; for a finite
    length, a count that is not finite or exceeds _MAX_SHOT_STEPS is a
    ConfigError against pole_step. `simulate` caps a run's pole shots
    together by the same rule."""
    steps = length / pole_step
    # written so that a NaN count fails it
    if not steps <= _MAX_SHOT_STEPS and math.isfinite(length):
        raise ConfigError(
            f"pole_step {pole_step!r}: a length of {length!r} would take "
            f"{steps:.3g} RK4 steps, more than {_MAX_SHOT_STEPS:,}")
    return max(8, math.ceil(steps))


def _has_conjugate(jacobi):
    return bool(np.any(jacobi[1:] <= _CONJ_TOL))


@lru_cache(maxsize=8)
def _reference_pole(K, length, steps):
    """(J^K(length), its integral over [0, length], conjugate flag), the
    flag read off J^K at steps + 1 samples of [0, length]."""
    j = jacobi_reference(K, np.linspace(0.0, length, steps + 1))
    return j[-1], jacobi_reference_integral(K, length), _has_conjugate(j)


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

    def check_point(self, p):
        """Raise OutOfDomain/SingularChart when p is unusable."""

    def check_rows(self, points):
        """`check_point` on (n, dim) rows: its error for the first row it
        refuses."""
        for p in np.reshape(points, (-1, self.dim)):
            self.check_point(p)

    def _rk4_geodesic(self, x0, v0, length, n_steps, collect):
        """One RK4 shot of n_steps from the point x0 along the velocity v0,
        on floats, keeping the samples that collect asks for (`_kernel`);
        raises on bad points."""
        raise NotImplementedError

    def _check_drift(self, pts, tans):
        """Raise StepTooLargeError when a shot's sampled unit speed drifts."""
        raise NotImplementedError

    def metric_rows(self, points):
        """(E, F, G), the metric at (n, 2) rows of points, as three arrays."""
        g = np.array([self.metric_at(p) for p in points])
        return g[:, 0, 0], g[:, 0, 1], g[:, 1, 1]

    def christoffel_rows(self, points):
        """Gamma^k_ij at (n, dim) rows of points, (n, dim, dim, dim)."""
        d = self.dim
        return np.array([self.christoffel_at(p) for p in points]).reshape(
            -1, d, d, d)

    # -- metric helpers ----------------------------------------------------

    def inner(self, p, a, b):
        g = self.metric_at(p)
        return float(np.asarray(a) @ g @ np.asarray(b))

    def norm(self, p, a):
        return math.sqrt(max(self.inner(p, a, a), 0.0))

    def norm_rows(self, points, vectors):
        """|vectors[i]|_g at points[i], for (n, 2) rows, as one array."""
        E, F, G = self.metric_rows(points)
        p, q = np.transpose(vectors)
        return np.sqrt(np.maximum((E * p + F * q) * p + (F * p + G * q) * q,
                                  0.0))

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

    def quarter_turn(self, p, w):
        """w turned by +pi/2 in the metric at p, the orientation of
        `frame_at`; two dimensions only. |w|_g is kept."""
        g = self.metric_at(p)
        det = float(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])
        return _QUARTER_TURN @ g @ np.asarray(w, dtype=float) / math.sqrt(
            det)

    # -- geodesy -----------------------------------------------------------

    def exp_point(self, p, v, length, pole_step=POLE_STEP):
        """Endpoint and end tangent of the unit-speed geodesic p, v, length
        (`_exp`), after checking p, the unit tangent and the length."""
        self.check_point(p)
        nv = self.norm(p, v)
        # written so that a NaN norm or length fails them
        if not abs(nv - 1.0) <= 1e-8:
            raise ValueError(
                f"exp_point needs a unit tangent (|v|_g = {nv!r}); "
                "normalize first")
        if not length >= 0:
            raise ValueError("pole length must be nonnegative")
        return self._exp(p, v, length, pole_step)

    def _exp(self, p, v, length, pole_step):
        """`exp_point` without its checks: the first two entries of
        `shoot`."""
        return self.shoot(p, v, length, pole_step)[:2]

    def shoot(self, p, v, length, pole_step=POLE_STEP):
        """One shot: (end point, end tangent, c(length), s(length)), in
        `shot_steps(length, pole_step)` RK4 steps (`_shot`)."""
        return self._shot(p, v, length, shot_steps(length, pole_step))

    def _shot(self, p, v, length, n_steps):
        """`shoot` of the unit-speed geodesic from p along the unit v in
        n_steps RK4 steps.

        The cosine and sine solutions of j'' + K j = 0 ride along (c(0) = 1,
        c'(0) = 0; s(0) = 0, s'(0) = 1). In two dimensions they give every
        Jacobi field along the shot: the one with J(0) = a N(0) and
        J'(0) = b N(0), N the parallel unit normal, ends at (a c + b s) N.
        A unit-speed drift above _DRIFT_TOL at evenly spaced samples of the
        shot, its end point included, raises StepTooLargeError; the kernel
        keeps only those samples (`_drift_stride`). Length 0 returns
        (p, v, 1, 0).
        """
        if length == 0.0:
            return (np.asarray(p, dtype=float), np.asarray(v, dtype=float),
                    1.0, 0.0)
        pts, tans, c, s = self._rk4_geodesic(
            (float(p[0]), float(p[1])), (float(v[0]), float(v[1])), length,
            n_steps, collect=_drift_stride(n_steps))
        self._check_drift(pts[..., None], tans[..., None])
        return pts[-1], tans[-1], c, s

    def shoot_rows(self, p, v, length, pole_step=POLE_STEP):
        """`shoot` for (n, dim) rows p, v and n lengths, as rows, every row
        sized by the longest."""
        n_steps = shot_steps(np.max(length, initial=0.0), pole_step)
        shots = [self._shot(a, b, L, n_steps)
                 for a, b, L in zip(p, v, length)]
        end, tangent, c, s = zip(*shots) if shots else (
            (np.empty((0, self.dim)),) * 2 + ((), ()))
        return np.array(end), np.array(tangent), np.array(c), np.array(s)

    def connect(self, p, q, v_guess=None, L_guess=None, pole_step=POLE_STEP):
        """Two-point geodesic: returns (unit v at p, length, unit tangent at q).

        Solves for (direction angle, length) jointly by damped Newton on the
        fixed-step endpoint map, one shot (`_shot`) per iteration, each of
        the steps that the starting length takes at `pole_step`. The
        Jacobian comes with the shot: the length column is the end tangent
        T(L), and the angle column is the Jacobi field with J(0) = 0 and
        J'(0) the start direction turned by +pi/2, which ends at s(L) times
        T(L) turned by +pi/2 (`quarter_turn`). The start is v_guess, else
        the chart chord, and L_guess, else the chord's length. At most
        _SHOOT_MAX_ITER Newton steps may bring the residual below
        _CONNECT_TOL.
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
        n_steps = shot_steps(L, pole_step)

        def endpoint(a, ell):
            v = self.tangent_from_angle(p, a, frame)
            end, t_end, _, s = self._shot(p, v, ell, n_steps)
            return end, t_end, s

        end, t_end, s = endpoint(alpha, L)
        r = end - q
        rn = float(np.linalg.norm(r))
        scale = max(1.0, float(np.linalg.norm(q - p)))
        for _ in range(_SHOOT_MAX_ITER):
            if rn < _CONNECT_TOL * scale:
                break
            J = np.column_stack([s * self.quarter_turn(end, t_end), t_end])
            try:
                delta = np.linalg.solve(J, -r)
            except np.linalg.LinAlgError as exc:
                raise NoConvergenceError(f"connect Jacobian singular: {exc}")
            damp = 1.0
            while True:
                a_new = alpha + damp * delta[0]
                L_new = max(L + damp * delta[1], 1e-12)
                end_new, t_new, s_new = endpoint(a_new, L_new)
                r_new = end_new - q
                rn_new = float(np.linalg.norm(r_new))
                if rn_new <= rn or damp < 1e-6:
                    break
                damp *= 0.5
            alpha, L, end, t_end, s, r, rn = (a_new, L_new, end_new, t_new,
                                              s_new, r_new, rn_new)
        if rn >= max(_CONNECT_TOL * scale, 1e-9):
            raise NoConvergenceError(
                f"connect stalled at residual {rn:.3e} between {p} and {q}")
        v = self.tangent_from_angle(p, alpha, frame)
        t_end = t_end / max(self.norm(q, t_end), 1e-300)
        return v, L, t_end

    def distance(self, p, q, **kw):
        """Geodesic distance; `connect`'s guesses warm-start the Newton
        solve and its pole_step sizes it."""
        return self.connect(p, q, **kw)[1]

    def distance_to_geodesic(self, a, v, points):
        """Distance from each of `points` to the geodesic through a along v,
        as one array, or None where the model has no closed form for it."""
        return None

    def parallel_transport(self, a, b, w):
        """Transport w from a to b along the chart segment between them.

        dw/dt = -Gamma(b - a, w) is integrated with two RK4 substeps over
        the (n, dim) rows a, b and w in lockstep, each stage's Christoffel
        symbols from one `christoffel_rows` call. A single point is one
        row.
        """
        a, b, w = (np.asarray(x, dtype=float) for x in (a, b, w))
        single = a.ndim == 1
        a, b, w = np.atleast_2d(a, b, w)
        seg = b - a

        def rhs(x, wv):
            return -np.einsum("nkij,ni,nj->nk", self.christoffel_rows(x),
                              seg, wv)

        h = 0.5
        for m in range(2):
            t0 = m * h
            k1 = rhs(a + t0 * seg, w)
            k2 = rhs(a + (t0 + h / 2) * seg, w + 0.5 * h * k1)
            k3 = rhs(a + (t0 + h / 2) * seg, w + 0.5 * h * k2)
            k4 = rhs(a + (t0 + h) * seg, w + h * k3)
            w = w + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return w[0] if single else w

    def edge_length(self, a, b):
        """Length of a polyline edge: the metric chord at its midpoint."""
        return self.norm(0.5 * (a + b), b - a)

    def edge_lengths(self, points):
        """The `edge_length` of each edge of (m, dim) rows, as one array."""
        return np.array([self.edge_length(a, b)
                         for a, b in zip(points[:-1], points[1:])])

    def discrete_acceleration(self, prev, x, nxt, h_prev, h_next):
        """Covariant acceleration at polyline vertex x taken as unit speed.

        h_prev and h_next are the metric lengths of the adjacent edges.
        """
        vm = (x - prev) / h_prev
        vp = (nxt - x) / h_next
        vbar = 0.5 * (vm + vp)
        return ((vp - vm) / (0.5 * (h_prev + h_next))
                + np.einsum("kij,i,j->k", self.christoffel_at(x), vbar, vbar))

    def acceleration_norms(self, points, h):
        """|`discrete_acceleration`|_g at each interior vertex of (m, dim)
        rows, h the m - 1 edge lengths, as one array."""
        return np.array([
            self.norm(x, self.discrete_acceleration(a, x, b, hm, hp))
            for a, x, b, hm, hp in zip(points[:-2], points[1:-1], points[2:],
                                       h[:-1], h[1:])])


# ---------------------------------------------------------------------------
# Space forms


class SpaceFormModel(ManifoldModel):
    """Constant curvature: closed-form geodesy from `_exp` and log_map.

    The tractrix moves by the bicycle monodromy. Here for the 2-D curved
    models: write X = cos psi e1 + sin psi e2 for the unit pole direction
    at the tractor point eta, pointing away from gamma, in the chart's
    orthonormal frame (e1, e2), and eta' = p e1 + q e2. The frame turns by
    the connection form omega(eta') (D e1 = omega e2), and the pole rule
    D_t X = E (eta' - <eta', X> X), E = c(ell) / s(ell) the ratio of the
    cosine and sine solutions of j'' + K j = 0, reads
    psi' = E (q cos psi - p sin psi) - omega. That is a Riccati equation
    for z = tan(psi / 2) = u1 / u2, linear in the spinor u: u' = A u with
    A = (1/2) [[-E p, E q - omega], [E q + omega, E p]]. A model supplies
    (p, q, omega) (`_frame_rows`), its exp on rows from a frame direction
    (`_exp_rows`), its distance on rows (`distance_rows`) and its domain
    check on rows (`row_faults`, whose refused rows `check_point` names).
    """

    def __init__(self, K, dim=2, periods=None):
        self.K = float(K)
        self.dim = int(dim)
        self.periods = periods

    def log_map(self, p, q):
        """(unit v at p, length) of the minimizing geodesic from p to q."""
        raise NotImplementedError

    def row_faults(self, points):
        """The rows of (..., dim) points that `check_point` refuses, as a
        mask: none unless the chart has bounds."""
        return np.zeros(np.shape(points)[:-1], dtype=bool)

    def check_rows(self, points):
        """`check_point`'s error for the first row that `row_faults`
        refuses."""
        bad = np.ravel(self.row_faults(points))
        if bad.any():
            self.check_point(np.reshape(points, (-1, self.dim))[
                np.argmax(bad)])

    def _shot(self, p, v, length, n_steps):
        """The shot in closed form: `_exp` and the constant-K Jacobi pair,
        whatever the step count."""
        if length == 0.0:
            return (np.asarray(p, dtype=float), np.asarray(v, dtype=float),
                    1.0, 0.0)
        return (*self._exp(p, v, length), *_jacobi_pair(self.K, length))

    def connect(self, p, q, **_):
        """Closed form; the Newton hints and settings do not apply."""
        v, L = self.log_map(p, q)
        return v, L, self._exp(p, v, L)[1]

    def generator_rows(self, points, velocities, ell):
        """(a, b, c), complex arrays: the generator A = [[a, b], [c, -a]] of
        the pole spinor at (n, 2) rows of tractor points and velocities."""
        p, q, omega = self._frame_rows(points, velocities)
        c, s = _jacobi_pair(self.K, ell)
        E = 0.5 * c / s
        return (-E * p + 0j, E * q - 0.5 * omega + 0j,
                E * q + 0.5 * omega + 0j)

    def spinor(self, point, x):
        """(u1, u2): a unit spinor of the unit vector x at point, u1 / u2 =
        tan(psi / 2) taken from whichever half-angle formula keeps its
        digits."""
        p, q, _ = (float(y[0]) for y in self._frame_rows(
            np.array([point], dtype=float), np.array([x], dtype=float)))
        u = (q, 1.0 + p) if p >= 0.0 else (1.0 - p, q)
        size = math.hypot(*u)
        return complex(u[0] / size), complex(u[1] / size)

    @staticmethod
    def _angle_rows(u1, u2):
        """(cos psi, sin psi) of the spinors (u1, u2)."""
        n1, n2 = u1.real ** 2 + u1.imag ** 2, u2.real ** 2 + u2.imag ** 2
        return (n2 - n1) / (n1 + n2), 2.0 * (u1 * u2.conj()).real / (n1 + n2)

    def pole_speeds(self, points, velocities, u1, u2):
        """<eta', X> at (n, 2) rows of tractor points and velocities, X the
        pole direction of the spinors (u1, u2)."""
        p, q, _ = self._frame_rows(points, velocities)
        cos, sin = self._angle_rows(u1, u2)
        return p * cos + q * sin

    def pole_rows(self, points, velocities, u1, u2, ell, start):
        """(gamma, pole direction at gamma towards eta, <eta', X>) at (n, 2)
        rows, gamma = exp_eta(-ell X) (`_exp_rows`), whose chart
        coordinates continue row by row from the point `start`."""
        cos, sin = self._angle_rows(u1, u2)
        gamma, tangent = self._exp_rows(points, -cos, -sin, ell, start)
        return gamma, -tangent, self.pole_speeds(points, velocities, u1, u2)

    def edge_length(self, a, b):
        return self.distance(a, b)

    def discrete_acceleration(self, prev, x, nxt, h_prev, h_next):
        v_out, _ = self.log_map(x, nxt)
        v_in, _ = self.log_map(x, prev)
        return (v_out + v_in) / (0.5 * (h_prev + h_next))


class FlatModel(SpaceFormModel):
    """Euclidean plane or 3-space; optional periodic identifications in 2D.

    Geodesics are chart lines, so the pole is a straight segment and
    transport is the identity. The pole direction moves by a Moebius map
    (`generator_rows`, `spinor`, `pole_rows`), and the polyline measures
    (`edge_lengths`, `acceleration_norms`) are one NumPy pass over the
    rows, bit for bit the per-edge and per-vertex loops.
    """

    def __init__(self, dim=2, periods=None):
        if dim not in (2, 3):
            raise ConfigError("flat model supports dimension 2 or 3")
        if periods is not None:
            if dim != 2:
                raise ConfigError("periodic identifications need dimension 2")
            if len(periods) != dim:
                raise ConfigError(f"periods: expected {dim} entries, one "
                                  f"per axis, got {len(periods)}")
            periods = tuple(None if x is None else float(x) for x in periods)
            if not all(x is None or (math.isfinite(x) and x > 0)
                       for x in periods):
                raise ConfigError(f"periods: each entry must be None or a "
                                  f"finite positive number, got {periods!r}")
        super().__init__(0.0, dim, periods)

    def metric_at(self, p):
        return np.eye(self.dim)

    def christoffel_at(self, p):
        return np.zeros((self.dim,) * 3)

    def inner(self, p, a, b):
        # identical to a @ I @ b, without building I
        return float(np.dot(a, b))

    def _exp(self, p, v, length, pole_step=None):
        p = np.asarray(p, dtype=float)
        v = np.asarray(v, dtype=float)
        q = p + length * v
        return q, v.copy()

    def log_map(self, p, q):
        d = np.asarray(q, dtype=float) - np.asarray(p, dtype=float)
        # the same sqrt(d . d) that np.linalg.norm computes, without its
        # dispatch
        L = math.sqrt(float(d @ d))
        if L < 1e-300:
            raise ValueError("log map undefined for coincident points")
        return d / L, L

    def distance(self, p, q, **_):
        # the sqrt(d . d) of log_map, equal to np.linalg.norm
        d = np.asarray(q, dtype=float) - np.asarray(p, dtype=float)
        return math.sqrt(float(d @ d))

    def distance_rows(self, a, b):
        return np.linalg.norm(b - a, axis=1)

    def generator_rows(self, points, velocities, ell):
        """(a, b, c), complex arrays: the generator A = [[a, b], [c, -a]] of
        the pole direction at (n, dim) rows of tractor velocities v (the
        points do not enter).

        The unit pole direction X = (eta - gamma) / ell moves by
        X' = (v - <v, X> X) / ell. Written as the spinor u = (u1, u2),
        X = u* sigma u / u* u (sigma the Pauli matrices, so u1 / u2 =
        (x1 + i x2) / (1 - x3) is X's stereographic coordinate), this
        boost of the sphere of directions is linear: u' = A u with
        A = (1 / 2 ell) [[v3, v1 + i v2], [v1 - i v2, -v3]], and v3 = 0 in
        the plane. Over a step u moves by a Moebius map, the bicycle
        monodromy.
        """
        v = np.zeros((len(velocities), 3))
        v[:, :self.dim] = velocities
        v *= 0.5 / ell
        w = v[:, 0] + 1j * v[:, 1]
        return v[:, 2] + 0j, w, w.conj()

    def spinor(self, point, x):
        """(u1, u2): a unit spinor of the unit vector x (`generator_rows`),
        taken from the chart of the hemisphere that holds x."""
        x1, x2, x3 = (*(float(c) for c in x), 0.0)[:3]
        u = ((x1 + 1j * x2, 1.0 - x3) if x3 < 0.0
             else (1.0 + x3, x1 - 1j * x2))
        size = math.sqrt(abs(u[0]) ** 2 + abs(u[1]) ** 2)
        return u[0] / size, u[1] / size

    def _directions(self, u1, u2):
        """The unit pole directions X of the spinors (u1, u2), as rows."""
        n1, n2 = u1.real ** 2 + u1.imag ** 2, u2.real ** 2 + u2.imag ** 2
        m = 2.0 * u1 * u2.conj() / (n1 + n2)
        return np.stack([m.real, m.imag, (n1 - n2) / (n1 + n2)],
                        axis=1)[:, :self.dim]

    def pole_speeds(self, points, velocities, u1, u2):
        return np.vecdot(velocities, self._directions(u1, u2))

    def pole_rows(self, points, velocities, u1, u2, ell, start):
        """(gamma, X, <v, X>) at (n, dim) rows of tractor points and
        velocities v, X the pole direction of the spinors (u1, u2)
        (`generator_rows`) and gamma = eta - ell X; start does not enter."""
        X = self._directions(u1, u2)
        return points - ell * X, X, np.vecdot(velocities, X)

    def edge_lengths(self, points):
        # one vecdot over the edges: the dot kernel of distance's d @ d
        d = np.diff(points, axis=0)
        return np.sqrt(np.vecdot(d, d))

    def acceleration_norms(self, points, h):
        # SpaceFormModel.discrete_acceleration on rows: the log map's unit
        # vectors are the edges over their lengths, and the one into a
        # vertex is minus its edge's
        d = np.diff(points, axis=0)
        acc = ((d[1:] / h[1:, None] - d[:-1] / h[:-1, None])
               / (0.5 * (h[:-1] + h[1:]))[:, None])
        return np.sqrt(np.vecdot(acc, acc))

    def norm_rows(self, points, vectors):
        return np.linalg.norm(vectors, axis=1)

    def parallel_transport(self, a, b, w):
        # straight chart lines: transport is the identity, rows included
        return w

    def distance_to_geodesic(self, a, v, points):
        # the part of points - a perpendicular to the line's direction
        v = np.asarray(v, dtype=float)
        v = v / math.sqrt(float(v @ v))
        rel = np.asarray(points, dtype=float) - np.asarray(a, dtype=float)
        return np.linalg.norm(rel - np.outer(rel @ v, v), axis=1)


class SphereModel(SpaceFormModel):
    """Round sphere of curvature K = k^2 in (colatitude, longitude)."""

    def __init__(self, K):
        if K <= 0:
            raise ConfigError("SphereModel needs K > 0")
        super().__init__(K, 2)
        self.k = math.sqrt(K)
        self.radius = 1.0 / self.k
        self.conjugate_scale = math.pi / self.k

    def row_faults(self, points):
        th = np.asarray(points, dtype=float)[..., 0]
        return (~((th > 0.0) & (th < math.pi))
                | (np.sin(th) ** 2 * self.radius ** 4 < DET_EPS))

    def check_point(self, p):
        """A colatitude near a pole of the chart, on either side, is
        singular; one beyond that, or NaN, is outside (0, pi)."""
        th = float(p[0])
        if math.sin(th) ** 2 * self.radius ** 4 < DET_EPS:
            raise SingularChartError(
                f"chart singular near the poles (theta={th!r})")
        if not 0.0 < th < math.pi:
            raise OutOfDomainError(f"colatitude {th!r} outside (0, pi)")

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

    def _exp(self, p, v, length, pole_step=None):
        X = self._embed(p)
        W = self._tangent3(p, np.asarray(v, dtype=float))
        psi = self.k * length
        Y = X * math.cos(psi) + W * math.sin(psi)
        T3 = -X * math.sin(psi) + W * math.cos(psi)
        return self._tangent_chart(Y, T3, ref_phi=float(p[1]))

    def log_map(self, p, q):
        # the angle from both of its legs, not by acos, which loses half
        # the digits of a short one: W = Y - (X.Y) X is sin(psi) times the
        # unit direction, whose norm is 1 to rounding at any separation
        X, Y = self._embed(p), self._embed(q)
        c = float(X @ Y)
        W = Y - X * c
        w = float(np.linalg.norm(W))
        psi = math.atan2(w, c)
        if psi < 1e-14:
            raise ValueError("log map undefined for coincident points")
        if math.pi - psi < 1e-12:
            raise ValueError("log map undefined for antipodal points")
        _, v = self._tangent_chart(X, W / w, ref_phi=float(p[1]))
        # _tangent_chart normalizes against radius; W is unit in R^3 here
        return v, psi * self.radius

    def distance(self, p, q, **_):
        c = min(1.0, max(-1.0, float(self._embed(p) @ self._embed(q))))
        return math.acos(c) * self.radius

    def distance_rows(self, a, b):
        A, B = self._embed_rows(a), self._embed_rows(b)
        return self.radius * np.arctan2(
            np.linalg.norm(np.cross(A, B), axis=1), np.vecdot(A, B))

    @staticmethod
    def _embed_rows(points):
        st = np.sin(points[:, 0])
        return np.stack([st * np.cos(points[:, 1]), st * np.sin(points[:, 1]),
                         np.cos(points[:, 0])], axis=1)

    def _frame_rows(self, points, vectors):
        """(p, q, omega) of (n, 2) rows of chart vectors: their components
        in the frame (d_theta / R, d_phi / (R sin theta)) and the frame's
        connection form phi' cos theta."""
        th, dth, dph = points[:, 0], vectors[:, 0], vectors[:, 1]
        return (self.radius * dth, self.radius * np.sin(th) * dph,
                dph * np.cos(th))

    def _exp_rows(self, points, d1, d2, length, start):
        """(ends, end tangents) of the geodesics of `length` from (n, 2) rows
        of points along the unit frame vectors (d1, d2) (`_frame_rows`).

        On the unit sphere in R^3 the start P and the direction W give the
        end Y = P cos(k length) + W sin(k length) and the tangent there
        T = W cos(k length) - P sin(k length), read back in Y's chart. Each
        end's coordinates continue from the row before, the first from
        start's. Its longitude is unwrapped (`np.unwrap`), so a tractrix
        more than pi of longitude from its tractor stays on its own sheet.
        An end whose chart step from the row before is shorter through a
        pole than around it has crossed that pole, and reads as the chart
        continues there: (-theta, phi -+ pi) at the north pole, (2 pi -
        theta, phi -+ pi) at the south pole, outside (0, pi), where
        `row_faults` refuses it.
        """
        th, ph = points[:, 0], points[:, 1]
        st, ct, sp, cp = np.sin(th), np.cos(th), np.sin(ph), np.cos(ph)
        P = (st * cp, st * sp, ct)
        W = (d1 * ct * cp - d2 * sp, d1 * ct * sp + d2 * cp, -d1 * st)
        c, s = math.cos(self.k * length), math.sin(self.k * length)
        Y = [c * x + s * w for x, w in zip(P, W)]
        T = [c * w - s * x for x, w in zip(P, W)]
        rho = np.hypot(Y[0], Y[1])
        th = np.arctan2(rho, Y[2])
        ph = np.unwrap(np.append(start[1], np.arctan2(Y[1], Y[0])))
        before, turn = np.append(start[0], th[:-1]), np.diff(ph)
        north = th + before < math.pi
        across = np.where(north, th + before, math.tau - th - before)
        crossed = (across ** 2 + (math.pi - np.abs(turn)) ** 2
                   < (th - before) ** 2 + turn ** 2)
        ends = np.stack([np.where(crossed, np.where(north, -th,
                                                    math.tau - th), th),
                         ph[1:] - np.where(crossed, math.pi * np.sign(turn),
                                           0.0)], axis=1)
        radial = (Y[0] * T[0] + Y[1] * T[1]) / rho
        # the continued chart's d_theta is minus the standard one there
        return ends, np.stack([np.where(crossed, -1.0, 1.0)
                               * (Y[2] * radial - rho * T[2]),
                               (Y[0] * T[1] - Y[1] * T[0]) / (rho * rho)],
                              axis=1) / self.radius

    def norm_rows(self, points, vectors):
        return self.radius * np.hypot(
            vectors[:, 0], np.sin(points[:, 0]) * vectors[:, 1])

    def parallel_transport(self, a, b, w):
        """Exact transport of w along the chart segment from a to b.

        In the orthonormal frame (d_theta, d_phi / sin theta) a parallel
        vector turns at the rate -cos(theta) phi'. Over the segment that is
        the angle -dphi cos(theta_a + dtheta/2) sinc(dtheta/2). a, b and w
        may be (n, 2) rows; the expression is one array operation over
        them.
        """
        a, b, w = (np.asarray(x, dtype=float) for x in (a, b, w))
        self.check_rows(a)
        self.check_rows(b)
        th_a, th_b = a[..., 0], b[..., 0]
        half = 0.5 * (th_b - th_a)
        angle = (-(b[..., 1] - a[..., 1]) * np.cos(th_a + half)
                 * np.sinc(half / math.pi))
        c, s = np.cos(angle), np.sin(angle)
        x, y = w[..., 0], np.sin(th_a) * w[..., 1]
        return np.stack([c * x - s * y, (s * x + c * y) / np.sin(th_b)],
                        axis=-1)

    def distance_to_geodesic(self, a, v, points):
        # the great circle through a along v is the unit normal n's equator
        n = np.cross(self._embed(a), self._tangent3(a, v))
        n = n / np.linalg.norm(n)
        th, ph = points[:, 0], points[:, 1]
        st = np.sin(th)
        X = np.stack([st * np.cos(ph), st * np.sin(ph), np.cos(th)], axis=1)
        h = X @ n
        return (np.arctan2(np.abs(h), np.linalg.norm(X - np.outer(h, n),
                                                      axis=1)) / self.k)


class HyperbolicModel(SpaceFormModel):
    """Hyperbolic plane of curvature K = -k^2 in the Poincare disk."""

    def __init__(self, K):
        if K >= 0:
            raise ConfigError("HyperbolicModel needs K < 0")
        super().__init__(K, 2)
        self.k = math.sqrt(-K)

    def row_faults(self, points):
        points = np.asarray(points, dtype=float)
        return ~(points[..., 0] ** 2 + points[..., 1] ** 2 < 1.0)

    def check_point(self, p):
        x, y = float(p[0]), float(p[1])
        r2 = x * x + y * y
        if not r2 < 1.0:
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

    def _exp(self, p, v, length, pole_step=None):
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

    def distance_rows(self, a, b):
        z, w = a[:, 0] + 1j * a[:, 1], b[:, 0] + 1j * b[:, 1]
        return (2.0 / self.k) * np.arctanh(np.abs((w - z)
                                                  / (1.0 - z.conj() * w)))

    def _frame_rows(self, points, vectors):
        """(p, q, omega) of (n, 2) rows of chart vectors: their components
        in the frame (d_x / lambda, d_y / lambda) and the frame's connection
        form 2 (x y' - y x') / (1 - |z|^2)."""
        x, y, dx, dy = points[:, 0], points[:, 1], vectors[:, 0], vectors[:, 1]
        f = 1.0 - x * x - y * y
        lam = (2.0 / self.k) / f
        return lam * dx, lam * dy, 2.0 * (x * dy - y * dx) / f

    def _exp_rows(self, points, d1, d2, length, start):
        """(ends, end tangents) of the geodesics of `length` from (n, 2) rows
        of points along the unit frame vectors (d1, d2) (`_frame_rows`).

        The frame is conformal, so the chart direction is u = d1 + i d2.
        The Moebius map that sends 0 to z sends the diameter point
        u tanh(k length / 2) to the end w, and turns the direction there
        to u conj(den)^2 / |den|^2, den = 1 + conj(z) u tanh(k length / 2);
        its unit tangent is that over lambda(w). start does not enter.
        """
        z = points[:, 0] + 1j * points[:, 1]
        u = d1 + 1j * d2
        zeta = math.tanh(0.5 * self.k * length) * u
        den = 1.0 + z.conj() * zeta
        w = (zeta + z) / den
        turned = den.conj() / np.abs(den)
        t = u * turned * turned * (0.5 * self.k) * (1.0 - np.abs(w) ** 2)
        return (np.stack([w.real, w.imag], axis=1),
                np.stack([t.real, t.imag], axis=1))

    def norm_rows(self, points, vectors):
        f = 1.0 - points[:, 0] ** 2 - points[:, 1] ** 2
        return (2.0 / self.k) / f * np.hypot(vectors[:, 0], vectors[:, 1])

    def parallel_transport(self, a, b, w):
        """Exact transport of w along the chart segment z(t) = a + t s.

        The metric is conformal, lambda = 2 / (k f) with f = 1 - |z|^2, so
        w scales by f(b) / f(a) and turns by -2 (a x s) I, where
        I = int_0^1 dt / f(z(t)) = atanh(r) / (r (c - beta)) with c = f(a),
        beta = a . s, q = |s|^2 and r = sqrt(beta^2 + q c) / (c - beta).
        a, b and w may be (n, 2) rows; the expression is one array
        operation over them.
        """
        a, b, w = (np.asarray(x, dtype=float) for x in (a, b, w))
        self.check_rows(a)
        self.check_rows(b)
        ax, ay = a[..., 0], a[..., 1]
        bx, by = b[..., 0], b[..., 1]
        sx, sy = bx - ax, by - ay
        c = 1.0 - ax * ax - ay * ay
        beta = ax * sx + ay * sy
        den = c - beta
        r = np.sqrt(beta * beta + (sx * sx + sy * sy) * c) / den
        # atanh(r) / r -> 1 as r -> 0
        safe = np.where(r > 0.0, r, 1.0)
        integral = np.where(r > 0.0, np.arctanh(safe) / safe, 1.0) / den
        angle = -2.0 * (ax * sy - ay * sx) * integral
        scale = (1.0 - bx * bx - by * by) / c
        cs, sn = scale * np.cos(angle), scale * np.sin(angle)
        x, y = w[..., 0], w[..., 1]
        return np.stack([cs * x - sn * y, sn * x + cs * y], axis=-1)

    def distance_to_geodesic(self, a, v, points):
        # the Moebius map m = (z - a) / (1 - conj(a) z) sends a to 0 and
        # keeps the direction u of v there; the geodesic is then the
        # diameter along u, at distance asinh(2 |Im(m conj u)| / (1 - |m|^2))
        a = complex(a[0], a[1])
        u = complex(v[0], v[1])
        u = u / abs(u)
        z = points[:, 0] + 1j * points[:, 1]
        m = (z - a) / (1.0 - a.conjugate() * z)
        return np.arcsinh(2.0 * np.abs((m * u.conjugate()).imag)
                          / (1.0 - np.abs(m) ** 2)) / self.k


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


def _first_form(jet):
    """E, F, G and det = E G - F^2 from a chart jet, on floats or rows."""
    fu, fv = jet[0], jet[1]
    E = fu[0] * fu[0] + fu[1] * fu[1] + fu[2] * fu[2]
    F = fu[0] * fv[0] + fu[1] * fv[1] + fu[2] * fv[2]
    G = fv[0] * fv[0] + fv[1] * fv[1] + fv[2] * fv[2]
    return E, F, G, E * G - F * F


def _christoffel(jet, E, F, G, det):
    """(Gamma^u_ij, Gamma^v_ij) for ij = uu, uv, vv, on floats or rows."""
    fu, fv = jet[0], jet[1]
    iuu, iuv, ivv = G / det, -F / det, E / det
    out = []
    for second in jet[2:]:
        c1 = second[0] * fu[0] + second[1] * fu[1] + second[2] * fu[2]
        c2 = second[0] * fv[0] + second[1] * fv[1] + second[2] * fv[2]
        out.append((iuu * c1 + iuv * c2, iuv * c1 + ivv * c2))
    return out


class SurfaceModel(ManifoldModel):
    """Embedded surface F(u, v) in R^3; geometry from the chart derivatives.

    `tractrix_stage` and `tractrix_step` are the functions that
    `_tractrix` compiles for the chart, bound to the model.
    """

    def __init__(self, chart: SurfaceChart):
        self.chart = chart
        # the spray evaluations of the model's shots so far (`_rk4_geodesic`)
        self.sprays = 0
        # the float shot kernel, with the chart's spray text written in
        self._float_shot = _kernel(chart.spray_text)
        # the tractrix's stage and RK4 sub-step, with the chart's jet and
        # spray texts written in (`_tractrix`)
        self.tractrix_stage, self.tractrix_step = _tractrix(
            chart.spray_text, chart.jet_text)(self, chart)

    def check_point(self, p):
        self.chart.check_domain(float(p[0]), float(p[1]))

    def _forms(self, u, v):
        """Chart jet, E, F, G and det at (u, v); raises if singular."""
        jet = self.chart.jet(u, v)
        E, F, G, det = _first_form(jet)
        if det < DET_EPS:
            raise singular_metric(self.chart, u, v)
        return jet, E, F, G, det

    def _outside(self, u, v):
        """The mask of the points of arrays u, v outside the domain,
        non-finite ones included."""
        ulo, uhi, vlo, vhi = self.chart.box
        return ~((ulo <= u) & (u <= uhi) & (vlo <= v) & (v <= vhi))

    def _check_rows(self, u, v, det):
        """Raise for the first row (last axis) of the points u, v with a
        point outside the domain, else for the first at a singular metric
        (det below DET_EPS, or not finite), naming it. On rows a profile
        or height that overflows a float gives inf, not an error, and so a
        singular metric: the float jet (`jet`) at the row's first such
        point raises the overflow error of the float path, which then
        names the row."""
        for bad, error, what in (
                (self._outside(u, v), DomainExitError,
                 "left the chart domain"),
                (~(np.isfinite(det) & (det >= DET_EPS)),
                 SingularChartError, "metric singular")):
            if np.any(bad):
                u, v, bad = np.broadcast_arrays(*np.atleast_2d(u, v, bad))
                row = int(np.argmax(bad.any(axis=0)))
                if error is SingularChartError:
                    k = np.argmax(bad[:, row])
                    try:
                        self.chart.jet(float(u[k, row]), float(v[k, row]))
                    except SingularChartError as exc:
                        raise SingularChartError(f"{exc} in row {row}") \
                            from None
                raise error(f"{self.chart.name}: {what} in row {row}")

    def _checked_rows(self, u, v):
        """`_forms` on arrays u, v of one shape: the jet, E, F, G and det
        (floats where constant). Raises for the first row with a point
        outside the domain or at a singular metric (`_check_rows`)."""
        # the points outside may give invalid values, and a chart's
        # overflow infinite ones: they raise below
        with np.errstate(invalid="ignore", over="ignore"):
            jet = self.chart.jet(u, v, np)
            out = (jet, *_first_form(jet))
        self._check_rows(u, v, out[4])
        return out

    def _check_drift(self, pts, tans):
        """Raise StepTooLargeError when the unit speed |T|_g, from the
        chart's E, F, G, drifts at evenly spaced samples of n shots in rows,
        (m, 2, n), the end point included; the first bad row is named. The
        samples are every `_drift_stride`-th row and the last, which are
        all the rows of a shot that kept only its drift samples."""
        stride = _drift_stride(len(pts) - 1)
        idx = [*range(0, len(pts) - 1, stride), len(pts) - 1]
        (u, v), (p, q) = pts[idx].swapaxes(0, 1), tans[idx].swapaxes(0, 1)
        _, E, F, G, _ = self._checked_rows(u, v)
        drift = np.abs(np.sqrt(E * p * p + 2.0 * F * p * q + G * q * q) - 1.0)
        if np.any(drift > _DRIFT_TOL):
            raise StepTooLargeError(
                f"unit-speed drift {np.max(drift):.3e} exceeds {_DRIFT_TOL} "
                f"in row {np.argmax((drift > _DRIFT_TOL).any(axis=0))}; "
                "reduce the pole step")

    def metric_at(self, p):
        u, v = float(p[0]), float(p[1])
        self.check_point(p)
        _, E, F, G, _ = self._forms(u, v)
        return np.array([[E, F], [F, G]])

    def metric_rows(self, points):
        u, v = np.transpose(points)
        return np.broadcast_arrays(*self._checked_rows(u, v)[1:4], u)[:3]

    def christoffel_at(self, p):
        self.check_point(p)
        (g1uu, g2uu), (g1uv, g2uv), (g1vv, g2vv) = _christoffel(
            *self._forms(float(p[0]), float(p[1])))
        return np.array([g1uu, g1uv, g1uv, g1vv,
                         g2uu, g2uv, g2uv, g2vv]).reshape(2, 2, 2)

    def christoffel_rows(self, points):
        u, v = np.transpose(points)
        (g1uu, g2uu), (g1uv, g2uv), (g1vv, g2vv) = _christoffel(
            *self._checked_rows(u, v))
        *gam, _ = np.broadcast_arrays(g1uu, g1uv, g1uv, g1vv,
                                      g2uu, g2uv, g2uv, g2vv, u)
        return np.stack(gam, axis=-1).reshape(-1, 2, 2, 2)

    def shoot_rows(self, p, v, length, pole_step=POLE_STEP):
        """`shoot` of (n, 2) rows, one float shot a row, each of the steps
        of the longest: a row that leaves the domain or meets a singular
        metric raises its shot's error, naming the row, and one drift check
        reads the samples of every row."""
        if not len(length):
            return (np.empty((0, 2)),) * 2 + (np.empty(0),) * 2
        n_steps = shot_steps(np.max(length), pole_step)
        stride = _drift_stride(n_steps)
        shots = []
        for row, (x0, v0, L) in enumerate(zip(
                np.asarray(p, dtype=float).tolist(),
                np.asarray(v, dtype=float).tolist(),
                np.asarray(length, dtype=float).tolist())):
            try:
                shots.append(self._rk4_geodesic(x0, v0, L, n_steps, stride))
            except (DomainExitError, SingularChartError) as exc:
                exc.args = (f"{exc} in row {row}",)
                raise
        pts, tans, c, s = (np.stack(x, axis=-1) for x in zip(*shots))
        self._check_drift(pts, tans)
        return pts[-1].T, tans[-1].T, c, s

    def _rk4_geodesic(self, x0, v0, length, n_steps, collect):
        """The entry of every shot on the surface but a tractrix stage's,
        which runs its shot inline (`_tractrix`): `_kernel`, with the
        chart's spray written in. Adds the shot's spray evaluations, 4 per
        step, to `sprays`; a shot that raises counts whole."""
        self.sprays += 4 * n_steps
        return self._float_shot(self.chart, x0, v0, length, n_steps,
                                collect)

    # -- tractrix propagation ---------------------------------------------

    def tractrix_start(self, eta, gamma, ell, pole_step):
        """(state, L): the propagated state of a tractrix at gamma, and L,
        the distance from eta to gamma that it was solved at.

        The state is the unit pole direction X at the tractor point eta,
        as a list of floats, from one `connect` started at length ell.
        """
        X, L, _ = self.connect(eta, gamma, L_guess=ell, pole_step=pole_step)
        return X.tolist(), L

    @staticmethod
    def _conjugate_point(eta, ell, s):
        """The error of a tractrix stage whose pole of length ell from eta
        has s(ell) = s at most _CONJ_TOL."""
        return NoConvergenceError(
            f"the pole of length {ell!r} from {list(eta)} reaches a "
            f"conjugate point (s(ell) = {s:.3e})")


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


# One RK4 step of (x, v, c, c', s, s') with the spray of each stage written
# in at {stage1} .. {stage4}: the body of every shot loop, in `_KERNEL` and
# in the tractrix's `_SHOT`
_STEP = """\
{stage1}
x2 = x + hh * p
y2 = y + hh * q
p2 = p + hh * a1
q2 = q + hh * b1
{stage2}
x3 = x + hh * p2
y3 = y + hh * q2
p3 = p + hh * a2
q3 = q + hh * b2
{stage3}
x4 = x + h * p3
y4 = y + h * q3
p4 = p + h * a3
q4 = q + h * b3
{stage4}
# x and y read the old p and q, so they are stepped first
x = x + h6 * (p + 2.0 * p2 + 2.0 * p3 + p4)
y = y + h6 * (q + 2.0 * q2 + 2.0 * q3 + q4)
p = p + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
q = q + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
# j'' = -K j for j = c and j = s, with the same stage values
c1p = -K1 * c
s1p = -K1 * s
c2 = cp + hh * c1p
c2p = -K2 * (c + hh * cp)
s2 = sp + hh * s1p
s2p = -K2 * (s + hh * sp)
c3 = cp + hh * c2p
c3p = -K3 * (c + hh * c2)
s3 = sp + hh * s2p
s3p = -K3 * (s + hh * s2)
c4 = cp + h * c3p
c4p = -K4 * (c + h * c3)
s4 = sp + h * s3p
s4p = -K4 * (s + h * s3)
c = c + h6 * (cp + 2.0 * c2 + 2.0 * c3 + c4)
cp = cp + h6 * (c1p + 2.0 * c2p + 2.0 * c3p + c4p)
s = s + h6 * (sp + 2.0 * s2 + 2.0 * s3 + s4)
sp = sp + h6 * (s1p + 2.0 * s2p + 2.0 * s3p + s4p)"""
# the names of each stage's point, velocity and spray outputs in _STEP
_STAGES = tuple(dict(zip("uvabABK", names)) for names in (
    ("x", "y", "p", "q", "a1", "b1", "K1"),
    ("x2", "y2", "p2", "q2", "a2", "b2", "K2"),
    ("x3", "y3", "p3", "q3", "a3", "b3", "K3"),
    ("x4", "y4", "p4", "q4", "a4", "b4", "K4")))


def _lines(text, depth, **names):
    """text with `names` written in, indented by `depth` levels."""
    return "\n".join(" " * (4 * depth) + line
                     for line in text.format(**names).splitlines())


def _step(stage, depth):
    """_STEP with the spray text `stage` at each of its stages."""
    return _lines(_STEP, depth, **{
        f"stage{n}": _lines(stage, 0, **names)
        for n, names in enumerate(_STAGES, 1)})


# One RK4 shot: _STEP in a loop, and the drift samples; see `_kernel`
_KERNEL = """\
def _rk4_geodesic(self, x0, v0, length, n_steps, collect):
    xp = math
{setup}
    h = length / n_steps if n_steps else 0.0
    # 0.5 * h * k parses as (0.5 * h) * k: hoisting hh and h6 keeps every bit
    hh, h6 = 0.5 * h, h / 6.0
    x, y = x0
    p, q = v0
    c, cp, s, sp = 1.0, 0.0, 0.0, 1.0
    if collect:
        xs, vs = [], []
    for k in range(n_steps):
        if collect and not k % collect:
            xs.append((x, y))
            vs.append((p, q))
{step}
    if collect:
        xs.append((x, y))
        vs.append((p, q))
        return np.array(xs), np.array(vs), c, s
    return (x, y), (p, q), c, s
"""


def _kernel(spray_text):
    """The RK4 shot kernel with `spray_text` (`SurfaceChart.spray_text`)
    written in at every stage: `kernel(self, x0, v0, length, n_steps,
    collect)`, self being what the text reads, compiled once per text
    (`compiled`).

    The state is two-dimensional and held in locals, floats: (x, y) for
    the point, (p, q) for the velocity. Each RK4 stage sets (a_x, a_y, K)
    from (x, y, p, q) inline, from the chart's spray text, so that a shot
    makes no call per stage. Only surfaces reach this integrator, because
    the space forms, the only models that can be three-dimensional,
    override each of its callers with closed forms. The cosine and sine
    solutions of j'' + K j = 0 ride along, c(0) = 1, c'(0) = 0 and s(0) =
    0, s'(0) = 1, their RK4 steps written out with K from the same stages
    as the acceleration.

    The step loop gives every value its own name, with no tuple built per
    stage, and makes every literal operand a float (2.0, not 2), because
    tuple packing and int-times-float arithmetic take CPython's slow path.
    The floating-point operations are the same, in the same order, as in a
    kernel with one tuple per stage and int weights that calls the spray,
    so the bits are its bits (a test checks this against such a kernel).

    The result is (x, v, c, s), the final point and velocity and the
    final c and s. With collect False, x and v are 2-tuples. With collect a
    stride k (True is 1), they are the drift samples that `_check_drift`
    reads, as (m, 2) arrays: the state before every k-th step and the end.
    """
    setup, stage = spray_text
    return compiled(_KERNEL.format(setup=_lines(setup, 1),
                                   step=_step(stage, 2)))["_rk4_geodesic"]


def _drift_stride(n_steps):
    """The stride of an n_steps shot's drift samples (`_check_drift`):
    every step of a shot of under 32 steps, and about 16 samples of a
    longer one."""
    return max(1, n_steps // 16)


# The tractrix stage and RK4 sub-step on a surface, one pole shot per stage
# inline: see `_tractrix`. Each function is compiled on its own, inside
# _BIND, so that the compiler holds only one at a time. What outlives a
# shot is the parameters, eta, the record's lists and K window, and names
# that end in _, which no chart text sets
_BIND = """\
def _bind(model, self):
    # 4 sprays per step, one per RK4 stage: the int stays out of the
    # function below, whose arithmetic is all on floats
    stages = 4

{function}
    return {name}
"""
_STAGE = """\
def tractrix_stage(eta, eta_prime, X, ell, n_pole, record=False):
{head}
    u_, w_ = eta
    a_, b_ = eta_prime
    X0_, X1_ = X
{geometry}
    if record:
        cs, ss = [], []
        K_lo, K_hi = math.inf, -math.inf
{shot}
    if not record:
        return (r0_, r1_), abs(along_), None
    if not (ulo <= x <= uhi and vlo <= y <= vhi):
        self.check_domain(float(x), float(y))
{end_form}
    speed_ = sqrt(max((p * Eg_ + q * Fg_) * p + (p * Fg_ + q * Gg_) * q, 0.0))
    eta_speed_ = sqrt(max((a_ * E_ + b_ * F_) * a_ + (a_ * F_ + b_ * G_) * b_,
                          0.0))
    # the samples of J after the one at gamma, s c - c s; the comprehension
    # reads c_ and s_, so that c and s stay plain locals
    c_, s_ = c, s
    tail = [s_ * cu - c_ * su for cu, su in zip(reversed(cs), reversed(ss))]
    return (r0_, r1_), abs(along_), (
        [x, y], [-p / speed_, -q / speed_], -along_, s,
        [s * c - c * s, *tail], any(j <= {conj} for j in tail),
        abs(speed_ - 1.0), eta_speed_, K_lo, K_hi)
"""
_SUBSTEP = """\
def tractrix_step(state, k1, q1, mid, end, dt, half, dt6, ell, n_pole):
{head}
    y0_, y1_ = state
    r0_, r1_ = k1
    # the RK4 sums, k1 + 2 k2 + 2 k3 + k4 and its speeds', left to right;
    # k3 reuses the midpoint's geometry
    sum0_, sum1_, sumq_ = r0_, r1_, q1
    for at_, scale_, weight_ in ((mid, half, 2.0), (None, half, 2.0),
                                 (end, dt, 1.0)):
        if at_ is not None:
            eta, eta_prime = at_
            u_, w_ = eta
            a_, b_ = eta_prime
{geometry}
        X0_ = y0_ + scale_ * r0_
        X1_ = y1_ + scale_ * r1_
{shot}
        sum0_ = sum0_ + weight_ * r0_
        sum1_ = sum1_ + weight_ * r1_
        sumq_ = sumq_ + weight_ * abs(along_)
    return (y0_ + dt6 * sum0_, y1_ + dt6 * sum1_), dt6 * sumq_
"""
# the set-up of both functions, after the chart's
_HEAD = """\
sqrt = math.sqrt
h = ell / n_pole if n_pole else 0.0
hh, h6 = 0.5 * h, h / 6.0"""
# one pole shot from (u_, w_) along X_ / |X_|, of n_pole steps of _STEP,
# and the rate (r0_, r1_) of the stage: {top} and {bottom} run in each
# step
_SHOT = """\
size_ = sqrt((X0_ * E_ + X1_ * F_) * X0_ + (X0_ * F_ + X1_ * G_) * X1_)
ux_ = X0_ / size_
uy_ = X1_ / size_
model.sprays += stages * n_pole
x = u_
y = w_
p = ux_
q = uy_
c, cp, s, sp = 1.0, 0.0, 0.0, 1.0
for _ in range(n_pole):
{top}
{step}
{bottom}
if s <= {conj}:
    raise model._conjugate_point(eta, ell, s)
along_ = (a_ * E_ + b_ * F_) * ux_ + (a_ * F_ + b_ * G_) * uy_
ratio_ = c / s
r0_ = (ratio_ * (along_ * X0_ - size_ * a_)
       - ((g1uu_ * X0_ + g1uv_ * X1_) * a_
          + (g1uv_ * X0_ + g1vv_ * X1_) * b_))
r1_ = (ratio_ * (along_ * X1_ - size_ * b_)
       - ((g2uu_ * X0_ + g2uv_ * X1_) * a_
          + (g2uv_ * X0_ + g2vv_ * X1_) * b_))"""
# the geometry at the tractor point (u_, w_): the domain test, the jet, and
# {forms}, E_, F_, G_, det_ and the Christoffel symbols
_GEOMETRY = """\
if not (ulo <= u_ <= uhi and vlo <= w_ <= vhi):
    self.check_domain(float(u_), float(w_))
{jet}
{forms}"""
# what the record stage's shot keeps: c and s before every step, and the
# least and greatest K of its stages, by comparisons that keep what
# min(K_lo, K1, ..., K4) and max(...) keep, ties and NaN included
_RECORD_TOP = """\
if record:
    cs.append(c)
    ss.append(s)"""
_RECORD_BOTTOM = """\
if record:
    if K1 < K_lo: K_lo = K1
    if K2 < K_lo: K_lo = K2
    if K3 < K_lo: K_lo = K3
    if K4 < K_lo: K_lo = K4
    if K1 > K_hi: K_hi = K1
    if K2 > K_hi: K_hi = K2
    if K3 > K_hi: K_hi = K3
    if K4 > K_hi: K_hi = K4"""


def _tractrix(spray_text, jet_text):
    """`bind(model, chart)` -> (tractrix_stage, tractrix_step), the
    functions of a model's tractrix on the chart, compiled once per text
    (`compiled`) from `_STAGE` and `_SUBSTEP`.

    A stage is tractrix_stage(eta, eta_prime, X, ell, n_pole, record=False)
    -> (rate of the state, tractrix speed |ds/dt|, record or None). The
    tractrix is gamma = exp_eta(ell X). Its velocity is the Jacobi field J
    along the pole with J(0) = eta' and J'(0) = D_t X, taken at gamma. J
    has no normal part there, so gamma moves along the pole with speed
    <eta', X>, and

        D_t X = -(c(ell) / s(ell)) (eta' - <eta', X> X),

    with c and s the cosine and sine solutions of j'' + K j = 0 along the
    pole. One RK4 shot of n_pole steps from eta along X carries them. The
    chart rate is D_t X - Gamma(eta', X), extended to |X| != 1
    homogeneously, so |X| is a first integral and the direction needs no
    renormalizing. A sub-step is tractrix_step(state, k1, q1, mid, end, dt,
    half, dt6, ell, n_pole) -> (state, ds): k1 and q1 are the first stage's
    rate and tractrix speed, mid and end the (eta, eta') of the sub-step's
    midpoint and end, dt its length and half and dt6 its half and sixth.
    It runs stages 2 to 4, k2 and k3 on the midpoint's one geometry, and
    moves the state and the arclength ds by the classical RK4 combination.

    Everything runs on Python floats, with no call per stage. At eta a
    stage tests the domain (OutOfDomainError, as `check_point`), runs the
    chart's jet lines (`jet_text`) and writes out `_first_form`'s and
    `_christoffel`'s arithmetic on the entries, in their order, with the
    singular-metric test of `_forms` (`charts._first_form_lines` and
    `charts._christoffel_lines`); a jet's constant entries are literals,
    whose products CPython folds with the same IEEE arithmetic. From E, F,
    G and Gamma it forms |X|_g, <eta', X>_g, |eta'|_g and Gamma(eta', X).
    Its shot is _STEP with the chart's spray text written in, and it adds
    4 sprays a step to the model's `sprays`. A shot whose s(ell) is at most
    _CONJ_TOL raises NoConvergenceError (`_conjugate_point`).

    The record is (gamma, pole_dir at gamma, signed speed, J(ell), the
    samples of J, conjugate flag, drift, |eta'|_g, K_lo, K_hi), its vectors
    and the samples as lists. [K_lo, K_hi] is the least and greatest K
    that the shot's RK4 stages evaluated, the curvature window of the
    pole. J is the Jacobi field from gamma along the pole, j(u) = s(ell)
    c(ell - u) - c(ell) s(ell - u) by the Wronskian, so J(ell) = s(ell);
    it is sampled at the n_pole + 1 points of the shot, which `simulate`
    integrates for every record in one Simpson pass (`simpson`). The flag
    says whether a sample after the first is at most _CONJ_TOL. The drift
    is the shot's unit-speed error |T(ell)|_g - 1 at gamma, with the
    domain tested and the metric formed there as at eta.
    """
    setup, stage = spray_text
    jet_lines, jet = jet_text
    conj = repr(_CONJ_TOL)
    step = _step(stage, 1)

    def geometry(depth):
        return _lines(_GEOMETRY, depth, jet=jet_lines.format(u="u_", v="w_"),
                      forms="\n".join([
                          *_first_form_lines(jet, "_", "u_, w_"),
                          *_christoffel_lines(jet, "_")]))

    def shot(depth, top="", bottom=""):
        return _lines(_SHOT, depth, top=top, bottom=bottom, step=step,
                      conj=conj)

    def bind(template, name, **parts):
        return compiled(_BIND.format(name=name, function=_lines(
            template, 1, head=head, conj=conj, **parts)))["_bind"]

    head = _lines("\n".join(["xp = math", setup, _HEAD]), 1)
    stage = bind(_STAGE, "tractrix_stage", geometry=geometry(1),
                 shot=shot(1, _lines(_RECORD_TOP, 1),
                           _lines(_RECORD_BOTTOM, 1)),
                 end_form=_lines("\n".join([
                     jet_lines.format(u="x", v="y"),
                     *_first_form_lines(jet, "g_", "x, y")]), 1))
    substep = bind(_SUBSTEP, "tractrix_step", geometry=geometry(3),
                   shot=shot(2))
    return lambda model, chart: (stage(model, chart), substep(model, chart))
