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
lengths and discrete geodesic accelerations (`edge_lengths`,
`acceleration_norms`). The `*_rows` methods, transport and the polyline
measures take (n, dim) rows, so a post-pass is one call; each polyline
measure is one NumPy pass over the rows, with no Python loop per edge or
vertex.

The defaults on ManifoldModel are numerical, and embedded surfaces F(u, v)
in R^3 (SurfaceModel) use them. A shot integrates x'' + Gamma(x', x') = 0
by classical RK4 with the cosine and sine solutions c, s of j'' + K j = 0
riding along. The chart supplies that right-hand side, the acceleration and
K, as text (`SurfaceChart.spray_text`: closed forms on graph charts and
surfaces of revolution, the generic formulas on the jet of the others). RK4
is written once, as its Butcher tableau (`_RK4_A`), and every RK4 step is
emitted from it: the shot step (`_step`), with the spray written in at each
stage, is the body of every shot loop. The shot kernel, `_KERNEL`, is that
loop: `_kernel` writes a chart's spray text into every RK4 stage and
compiles the result once per text, so a shot makes no call per stage. A row
shot is one such shot per row. A shot whose unit speed is checked keeps
only the samples that the check reads (`_drift_stride`). Every surface shot
but a tractrix stage's enters through `SurfaceModel._rk4_geodesic`, which
adds the shot's spray evaluations, one per stage, to the model's `sprays`
counter. The tractrix stage and RK4 sub-step are compiled per chart from
templates around the same step, `_STAGE` and `_SUBSTEP` (`_tractrix`): each
writes the chart's jet text and its first form and Christoffel arithmetic
at the tractor point, and its pole shots, inline, and counts their sprays
the same way. A tractrix record's shot also keeps the least and greatest K
of its stages: the curvature window of its pole, which the comparison
checks certify. The metric and Christoffel symbols at given points are
derived here from the chart jet. Every Newton solve is a call of
`damped_newton`, which steps rows in lockstep by Cramer's rule and holds
the damping, the iteration cap and the failure messages. A solve gets its
Jacobian from the shots it makes: `connect` is one row, one shot per
evaluation, the direction column being s(L) times the end tangent turned by
+pi/2 (`quarter_turn`); the attachment
(`tractrix_sim.orthogonal_attachment`) is one row, an offset shot and a
pole shot per evaluation with both columns Jacobi fields of theirs; the
foot solve (`tractrix_sim._foot_newton`) is a row per record. The
attachment and the foot solve start from the geodesic right triangle of
constant curvature K at their vertex, K the model's or the chart's
(`curvature_rows`), which is their solution on a space form
(`triangle_at_leg`, `triangle_legs`); a run's first pole `connect`
(`tractrix_start`) starts along the attachment's pole. Transport
integrates dw/dt = -Gamma(b - a, w) in two RK4 substeps over all rows in
lockstep, with the Christoffel symbols once at each of the five points
where its stages meet. A surface's tractrix state is the pole direction at
the tractor, so a stage is one shot. The space forms, in standard charts
(colatitude/longitude for K > 0, Cartesian for K = 0, Poincare disk for K <
0), override all of this with closed forms: their shot ignores its step
count, and transport and the distance to a geodesic are one array
expression over all rows. Each quantity has one closed form, written on
rows: the log map and the distance (`log_rows`, `distance_rows`), of which
`log_map`, `distance` and `connect` take one row and the polyline measures
one pass, and the exp (`_exp_rows`). Only the exp has a float twin, `_exp`,
the same arithmetic on Python floats, because the attachment's Newton solve
calls it and a one-row NumPy call costs several times as much. Each model
gives the pole direction's generator on rows, a traceless 2x2 matrix linear
in the tractor velocity, so that `tractrix_sim.simulate` multiplies the
tractrix out as a product of Moebius maps, the bicycle monodromy, and reads
gamma off the pole direction by its closed-form exp on rows (`pole_rows`).

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
# the default step length of a shot, and of a run's pole shots
POLE_STEP = 0.05
# the most RK4 steps one shot may take
_MAX_SHOT_STEPS = 10 ** 6
# E with E @ g @ w normal to w, turned by +pi/2 (chart orientation)
_QUARTER_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])


def cramer_step(J, F):
    """The solution of J step = -F on (n, k) rows F and (n, k, k) rows J,
    k = 1 or 2, by Cramer's rule, and the mask of the singular rows: a
    determinant or a step that is not finite (a zero determinant gives
    such a step)."""
    with np.errstate(all="ignore"):
        if F.shape[1] == 1:
            det, num = J[:, 0, 0], -F
        else:
            (a, b), (c, d) = J[:, 0].T, J[:, 1].T
            f, g = F.T
            det = a * d - b * c
            num = np.stack([b * g - d * f, c * f - a * g], axis=1)
        step = num / det[:, None]
    return step, ~np.isfinite(det) | ~np.isfinite(step).all(axis=1)


def damped_newton(start, evaluate, tol, name, project=None):
    """Damped Newton for F(x) = 0, every row of x in lockstep; returns the
    final (x, F, J, *extra).

    `start` is the evaluated (x, F, J, *extra): (n, k) rows x and F,
    k = 1 or 2, (n, k, k) Jacobians J and rows of whatever else the
    caller keeps. `evaluate(x, rows)` gives (F, J, *extra) at the rows x
    of the indices `rows`. Each of at most _SHOOT_MAX_ITER passes steps
    the rows whose |F| is not below `tol` by J step = -F (`cramer_step`);
    `project(new, old)` moves a proposed row before it is evaluated. A
    row whose |F| grows halves its own step and is evaluated again, until
    |F| does not grow or the damping falls below 1e-6 (Deuflhard, Newton
    Methods for Nonlinear Problems, ch. 3). A singular Jacobian, or a row
    still at `tol` or above after the last pass, raises NoConvergenceError
    naming the row by `name(i)`.
    """
    state = [np.array(a, dtype=float) for a in start]
    x, F, J = state[:3]
    rn = np.sqrt((F * F).sum(axis=1))
    live = np.flatnonzero(~(rn < tol))
    for _ in range(_SHOOT_MAX_ITER):
        if live.size == 0:
            break
        step, singular = cramer_step(J[live], F[live])
        if singular.any():
            raise NoConvergenceError(
                f"{name(live[singular.argmax()])}: singular Jacobian")
        base, base_rn = x[live], rn[live]
        damp = np.ones(live.size)
        todo = np.arange(live.size)
        while todo.size:
            rows = live[todo]
            new = base[todo] + damp[todo, None] * step[todo]
            x[rows] = new if project is None else project(new, base[todo])
            for out, value in zip(state[1:], evaluate(x[rows], rows)):
                out[rows] = value
            rn[rows] = np.sqrt((F[rows] * F[rows]).sum(axis=1))
            todo = todo[~((rn[rows] <= base_rn[todo]) | (damp[todo] < 1e-6))]
            damp[todo] *= 0.5
        live = np.flatnonzero(~(rn < tol))
    if live.size:
        raise NoConvergenceError(f"{name(live[0])}: did not converge "
                                 f"(residual {rn[live[0]]:.3e})")
    return state


def jacobi_reference(K, u):
    """Normalized Jacobi solution J^K(u) of j'' + K j = 0, j(0)=0, j'(0)=1:
    sn(u) of `_jacobi_pair`, through numpy."""
    out = _jacobi_pair(K, np.asarray(u, dtype=float))[1]
    return out if out.ndim else float(out)


def jacobi_reference_integral(K, ell):
    """Integral of J^K over [0, ell], 2 sn(ell / 2)^2: the half-angle form
    of (1 - cn(ell)) / K, which keeps its digits where K ell^2 is small."""
    return 2.0 * _jacobi_pair(K, 0.5 * ell)[1] ** 2


def _jacobi_pair(K, u):
    """(cn, sn) at u: the cosine and sine solutions of j'' + K j = 0. With
    k = sqrt(|K|) they are cos(k u) and sin(k u) / k for K > 0, cosh(k u)
    and sinh(k u) / k for K < 0, 1 and u for K = 0. A float goes through
    math, which raises OverflowError past a float, and an array through
    numpy. This pair and its inverse `_asn` are the one place that
    chooses a formula by the sign of K: every constant-curvature closed
    form is written in them."""
    xp = np if isinstance(u, np.ndarray) else math
    if K > 0:
        k = math.sqrt(K)
        return xp.cos(k * u), xp.sin(k * u) / k
    if K < 0:
        k = math.sqrt(-K)
        return xp.cosh(k * u), xp.sinh(k * u) / k
    if xp is math:
        return 1.0, float(u)
    return np.ones_like(u), u.copy()


def _asn(K, sn, cn):
    """The inverse of the pair (`_jacobi_pair`): the u >= 0, below pi / k
    for K > 0, at which it is (cn, sn), on floats or arrays. arctan2(k sn,
    cn) / k for K > 0, which keeps its digits next to sn's maximum,
    arcsinh(k sn) / k for K < 0, sn for K = 0."""
    if K > 0:
        k = math.sqrt(K)
        return np.arctan2(k * sn, cn) / k
    if K < 0:
        k = math.sqrt(-K)
        return np.arcsinh(k * sn) / k
    return sn


def triangle_legs(K, hyp, cos_phi, sin_phi):
    """(a, b): the legs of the geodesic right triangle of constant
    curvature K with hypotenuse `hyp` and angle phi at one of its ends, a
    the leg at phi and b the leg across from it, signed as cos phi and
    sin phi, on floats: sn(b) = sn(hyp) sin phi, cn(a) = cn(hyp) / cn(b)
    and sn(a) = sn(hyp) cos phi / cn(b), in the pair of `_jacobi_pair` and
    back through `_asn`. Where that triangle is undefined (sn(hyp) <= 0,
    cn(b)^2 = 1 - K sn(b)^2 <= 0, or a value that is not finite or does
    not fit a float) they are the K = 0 triangle's, (hyp cos phi,
    hyp sin phi)."""
    try:
        cn, sn = _jacobi_pair(K, hyp)
        sn_b = sn * sin_phi
        cn_b = math.sqrt(1.0 - K * sn_b * sn_b)
        if sn > 0.0 and cn_b > 0.0:
            a = float(_asn(K, sn * cos_phi / cn_b, cn / cn_b))
            b = float(_asn(K, sn_b, cn_b))
            if math.isfinite(a) and math.isfinite(b):
                return a, b
    except (ArithmeticError, ValueError):
        pass
    return hyp * cos_phi, hyp * sin_phi


def triangle_at_leg(K, hyp, b):
    """(a, cos phi, sin phi) of the geodesic right triangle of constant
    curvature K with hypotenuse `hyp` and the leg b, 0 <= b <= hyp, across
    from its angle phi: sin phi = sn(b) / sn(hyp), and a the other leg,
    cn(a) = cn(hyp) / cn(b) (`triangle_legs`). Where that triangle is
    undefined (cn(b) <= 0, sn(b) > sn(hyp), or a value that is not finite
    or does not fit a float) they are the K = 0 triangle's."""
    try:
        (cn_b, sn_b), sn = _jacobi_pair(K, b), _jacobi_pair(K, hyp)[1]
    except (ArithmeticError, ValueError):
        cn_b = sn_b = sn = math.nan
    # written so that a NaN fails it
    if not (cn_b > 0.0 and sn > 0.0 and 0.0 <= sn_b <= sn):
        K, sn_b, sn = 0.0, b, hyp
    sin_phi = sn_b / sn
    cos_phi = math.sqrt(1.0 - sin_phi * sin_phi)
    return triangle_legs(K, hyp, cos_phi, sin_phi)[0], cos_phi, sin_phi


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
        `shot_steps(length, pole_step)` RK4 steps (each model's `_shot`)."""
        return self._shot(p, v, length, shot_steps(length, pole_step))

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

        Solves for the row (direction angle, length) by `damped_newton` on
        the fixed-step endpoint map, one shot (`_shot`) per evaluation, each
        of the steps that the starting length takes at `pole_step`. The
        Jacobian comes with the shot: the length column is the end tangent
        T(L), and the angle column is the Jacobi field with J(0) = 0 and
        J'(0) the start direction turned by +pi/2, which ends at s(L) times
        T(L) turned by +pi/2 (`quarter_turn`). The start is v_guess, else
        the chart chord, and L_guess, else the chord's length; a step keeps
        L >= 1e-12. The solve stops once the end misses q by less than
        1e-11 max(1, |q - p|) in the chart.
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

        def evaluate(x, rows):
            a, ell = map(float, x[0])
            end, t_end, _, s = self._shot(
                p, self.tangent_from_angle(p, a, frame), ell, n_steps)
            return ((end - q)[None], np.column_stack(
                [s * self.quarter_turn(end, t_end), t_end])[None], t_end[None])

        x = np.array([[alpha, L]])
        (alpha, L), _, _, t_end = (row[0] for row in damped_newton(
            (x, *evaluate(x, None)), evaluate,
            1e-11 * max(1.0, float(np.linalg.norm(d))),
            lambda _: f"connect from {p.tolist()} to {q.tolist()}",
            lambda new, _: np.maximum(new, [-np.inf, 1e-12])))
        v = self.tangent_from_angle(p, alpha, frame)
        t_end = t_end / max(self.norm(q, t_end), 1e-300)
        return v, float(L), t_end

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
        the (n, dim) rows a, b and w in lockstep. The stages meet at five
        points of the segment, t = 0, 1/4, 1/2, 3/4 and 1: k2 and k3 share
        theirs, and so do the first substep's k4 and the second's k1. Each
        point's Christoffel symbols come from one `christoffel_rows` call.
        A single point is one row.
        """
        a, b, w = (np.asarray(x, dtype=float) for x in (a, b, w))
        single = a.ndim == 1
        a, b, w = np.atleast_2d(a, b, w)
        seg = b - a
        gam = [self.christoffel_rows(a + t * seg)
               for t in (0.0, 0.25, 0.5, 0.75, 1.0)]

        def rhs(at, wv):
            return -np.einsum("nkij,ni,nj->nk", at, seg, wv)

        h = 0.5
        for i in (0, 2):
            k = total = rhs(gam[i], w)
            for c, f, weight in _RK4_STAGES:
                k = rhs(gam[i + 2 * c // _RK4_DENOM],
                        w + f / _RK4_DENOM * h * k)
                total = total + weight * k
            w = w + h / _RK4_DENOM * total
        return w[0] if single else w

    def edge_lengths(self, points):
        """The length of each edge of (m, dim) rows, as one array: the
        metric chord at the edge's midpoint (`norm_rows`)."""
        return self.norm_rows(0.5 * (points[:-1] + points[1:]),
                              np.diff(points, axis=0))

    def acceleration_norms(self, points, h):
        """|a|_g at each interior vertex x of (m, dim) rows, h the m - 1
        edge lengths, as one array: a is the covariant acceleration of the
        polyline taken at unit speed, (v+ - v-) / mean(h) + Gamma(w, w),
        v- and v+ the chart edges into and out of x over their lengths and
        w their mean."""
        unit = np.diff(points, axis=0) / h[:, None]
        mean = 0.5 * (unit[:-1] + unit[1:])
        x = points[1:-1]
        acc = ((unit[1:] - unit[:-1]) / (0.5 * (h[:-1] + h[1:]))[:, None]
               + np.einsum("nkij,ni,nj->nk", self.christoffel_rows(x), mean,
                           mean))
        return self.norm_rows(x, acc)


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
    (p, q, omega) (`_frame_rows`); its exp on rows from a frame direction
    (`_exp_rows`) and the same arithmetic on floats from a chart vector
    (`_exp`); its log map and distance on rows (`log_rows`,
    `distance_rows`); its norm on rows (`norm_rows`); and its domain check
    on rows (`row_faults`, whose refused rows `check_point` names).
    """

    def __init__(self, K, dim=2, periods=None):
        self.K = float(K)
        self.dim = int(dim)
        self.periods = periods

    def curvature_rows(self, points):
        """The Gauss curvature at (n, dim) rows of points, as one array:
        the constant K."""
        return np.full(len(points), self.K)

    def log_rows(self, a, b):
        """(unit v at a, length) of the minimizing geodesics from (n, dim)
        rows a to rows b, as an (n, dim) and an (n,) array. A row whose
        direction is undefined, coincident or antipodal points, has a NaN
        direction."""
        raise NotImplementedError

    def log_map(self, p, q):
        """(unit v at p, length) of the minimizing geodesic from p to q,
        one row of `log_rows`; ValueError where the direction is
        undefined."""
        v, L = self.log_rows(np.array([p], dtype=float),
                             np.array([q], dtype=float))
        if np.isnan(v).any():
            far = (self.conjugate_scale is not None
                   and L[0] > 0.5 * self.conjugate_scale)
            raise ValueError("log map undefined for "
                             f"{'antipodal' if far else 'coincident'} points")
        return v[0], float(L[0])

    def distance(self, p, q, **_):
        """One row of `distance_rows`; the Newton hints and settings do not
        apply."""
        return float(self.distance_rows(np.array([p], dtype=float),
                                        np.array([q], dtype=float))[0])

    def edge_lengths(self, points):
        """The distance along each edge of (m, dim) rows, as one array."""
        return self.distance_rows(points[:-1], points[1:])

    def acceleration_norms(self, points, h):
        """|a|_g at each interior vertex x of (m, dim) rows, h the m - 1
        edge lengths, as one array: a is the sum of the log map's unit
        vectors from x to its two neighbours over the mean of h, the
        covariant acceleration of the polyline taken at unit speed."""
        x = points[1:-1]
        turn = self.log_rows(x, points[2:])[0] + self.log_rows(
            x, points[:-2])[0]
        return self.norm_rows(x, turn / (0.5 * (h[:-1] + h[1:]))[:, None])

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


class FlatModel(SpaceFormModel):
    """Euclidean plane or 3-space; optional periodic identifications in 2D.

    Geodesics are chart lines, so the pole is a straight segment and
    transport is the identity. The pole direction moves by a Moebius map
    (`generator_rows`, `spinor`, `pole_rows`). A distance is the square
    root of `np.vecdot`, the dot kernel of d @ d.
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

    def log_rows(self, a, b):
        d = b - a
        L = self.distance_rows(a, b)
        # dividing by NaN raises no warning
        return d / np.where(L < 1e-300, np.nan, L)[:, None], L

    def distance_rows(self, a, b):
        with np.errstate(over="ignore"):  # past 1e154 the distance is inf
            d = b - a
            return np.sqrt(np.vecdot(d, d))

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

    def _exp(self, p, v, length, pole_step=None):
        """`_exp_rows` on floats, from p along the chart vector v: the end's
        theta by atan2, its phi continued from p's. An end at a chart pole
        is SingularChartError."""
        th, ph = float(p[0]), float(p[1])
        st, ct, sp, cp = (math.sin(th), math.cos(th), math.sin(ph),
                          math.cos(ph))
        # the frame components of `_frame_rows`
        d1, d2 = self.radius * float(v[0]), self.radius * st * float(v[1])
        P = (st * cp, st * sp, ct)
        W = (d1 * ct * cp - d2 * sp, d1 * ct * sp + d2 * cp, -d1 * st)
        c, s = math.cos(self.k * length), math.sin(self.k * length)
        Y = [c * x + s * w for x, w in zip(P, W)]
        T = [c * w - s * x for x, w in zip(P, W)]
        rho = math.hypot(Y[0], Y[1])
        if rho < 1e-12:
            raise SingularChartError("endpoint at chart pole")
        radial = (Y[0] * T[0] + Y[1] * T[1]) / rho
        return (np.array([math.atan2(rho, Y[2]), ph + math.remainder(
                    math.atan2(Y[1], Y[0]) - ph, math.tau)]),
                np.array([Y[2] * radial - rho * T[2],
                          (Y[0] * T[1] - Y[1] * T[0]) / (rho * rho)])
                / self.radius)

    def log_rows(self, a, b):
        """The angle psi from both of its legs, not by acos, which loses
        half the digits of a short one: W = Y - (X.Y) X is sin(psi) times
        the unit direction at X, whose norm is 1 to rounding at any
        separation; below 1e-14 of arc, or within 1e-12 of the antipode,
        the direction is undefined."""
        X, Y = self._embed_rows(a), self._embed_rows(b)
        c = np.vecdot(X, Y)
        W = Y - X * c[:, None]
        w = np.linalg.norm(W, axis=1)
        psi = np.arctan2(w, c)
        # dividing by NaN raises no warning
        w = self.radius * np.where((psi < 1e-14) | (math.pi - psi < 1e-12),
                                   np.nan, w)
        e_th, e_ph = self._frame3_rows(a)
        return (np.stack([np.vecdot(W, e_th) / w, np.vecdot(W, e_ph)
                          / (np.sin(a[:, 0]) * w)], axis=1),
                psi * self.radius)

    def distance_rows(self, a, b):
        A, B = self._embed_rows(a), self._embed_rows(b)
        return self.radius * np.arctan2(
            np.linalg.norm(np.cross(A, B), axis=1), np.vecdot(A, B))

    # chart <-> R^3 embedding on the unit sphere (lengths scaled by radius)

    @staticmethod
    def _embed_rows(points):
        st = np.sin(points[:, 0])
        return np.stack([st * np.cos(points[:, 1]), st * np.sin(points[:, 1]),
                         np.cos(points[:, 0])], axis=1)

    @staticmethod
    def _frame3_rows(points):
        """(e_theta, e_phi), the unit frame of the unit sphere at (n, 2)
        rows of points, as (n, 3) arrays."""
        th, ph = points[:, 0], points[:, 1]
        ct, sp, cp = np.cos(th), np.sin(ph), np.cos(ph)
        return (np.stack([ct * cp, ct * sp, -np.sin(th)], axis=1),
                np.stack([-sp, cp, np.zeros_like(sp)], axis=1))

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
        # the great circle through a along v is the equator of the unit
        # normal n = A x W, W = p e_theta + q e_phi in the frame components
        # (p, q) of v (`_frame_rows`): n = p e_phi - q e_theta
        a = np.array([a], dtype=float)
        (p,), (q,), _ = self._frame_rows(a, np.array([v], dtype=float))
        (e_th,), (e_ph,) = self._frame3_rows(a)
        n = p * e_ph - q * e_th
        n = n / np.linalg.norm(n)
        X = self._embed_rows(points)
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
        """`_exp_rows` on floats, from p along the chart vector v. An end
        on or past the rim, where tanh has rounded to 1, is
        OutOfDomainError."""
        z = complex(p[0], p[1])
        # the frame is conformal: its unit direction is v's in the chart
        u = complex(v[0], v[1])
        u = u / abs(u)
        zeta = math.tanh(0.5 * self.k * length) * u
        den = 1.0 + z.conjugate() * zeta
        w = (zeta + z) / den
        self.check_point((w.real, w.imag))
        turned = den.conjugate() / abs(den)
        t = u * turned * turned * (0.5 * self.k) * (1.0 - abs(w) ** 2)
        return np.array([w.real, w.imag]), np.array([t.real, t.imag])

    def log_rows(self, a, b):
        """The Moebius map that sends a to 0 sends b to zeta, a point of the
        diameter along the direction at a; zeta = 0 has none."""
        z, w = a[:, 0] + 1j * a[:, 1], b[:, 0] + 1j * b[:, 1]
        zeta = (w - z) / (1.0 - z.conj() * w)
        az = np.abs(zeta)
        # a quotient per part, where a complex one would multiply by the
        # reciprocal; dividing by NaN raises no warning
        v = (np.stack([zeta.real, zeta.imag], axis=1)
             / np.where(az < 1e-300, np.nan, az)[:, None]
             * (1.0 - np.abs(z) ** 2)[:, None] * (0.5 * self.k))
        return v, (2.0 / self.k) * np.arctanh(az)

    def distance_rows(self, a, b):
        return self.log_rows(a, b)[1]

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

    def curvature_rows(self, points):
        """K at (n, 2) rows of points, from the chart's spray, the one
        source of K, at a point each."""
        spray = self.chart.spray
        return np.array([spray(u, v, 0.0, 0.0)[2] for u, v in
                         np.asarray(points, dtype=float).tolist()])

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
        chart's spray written in. Adds the shot's spray evaluations, one per
        RK4 stage, to `sprays`; a shot that raises counts whole."""
        self.sprays += len(_RK4_B) * n_steps
        return self._float_shot(self.chart, x0, v0, length, n_steps,
                                collect)

    # -- tractrix propagation ---------------------------------------------

    def tractrix_start(self, eta, gamma, ell, pole_step, pole=None):
        """(state, L): the propagated state of a tractrix at gamma, and L,
        the distance from eta to gamma that it was solved at.

        The state is the unit pole direction X at the tractor point eta,
        as a list of floats, from one `connect` started at length ell and
        along `pole`, a direction at eta towards gamma (the one that the
        attachment solved for), else along the chart chord.
        """
        X, L, _ = self.connect(eta, gamma, v_guess=pole, L_guess=ell,
                               pole_step=pole_step)
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
    """Build a model from a config mapping, after the pass a scenario's
    model takes at load (`config.normalize_model`)."""
    from .config import normalize_model

    spec = normalize_model(spec)
    if spec["kind"] == "surface":
        return surface_model(spec["chart"])
    periods = spec.get("periods")
    return space_form(spec["K"], dim=spec["dim"],
                      periods=None if periods is None else tuple(periods))


# ---------------------------------------------------------------------------
# Geodesic integration


# Classical RK4 (Hairer, Norsett and Wanner, Solving ODEs I, II.1), the
# package's one RK4, as its Butcher tableau: the rows of A and the weights
# b, integer numerators over _RK4_DENOM
_RK4_A = ((), (3,), (0, 3), (0, 0, 6))
_RK4_B = (1, 2, 2, 1)
_RK4_DENOM = 6
# the locals of n / _RK4_DENOM times the step in a shot and in the
# sub-step, and the sub-step's tractor point at that node
_RK4_NAMES = {3: ("hh", "half", "mid"), 6: ("h", "dt", "end")}
# the stages after the first, (node, fraction along the rate of the one
# before, weight): a row of A has one entry but zeros, its last
_RK4_STAGES = [(sum(row), row[-1], b)
               for row, b in zip(_RK4_A[1:], _RK4_B[1:])]
_RK4_NODES = sorted({c for c, _, _ in _RK4_STAGES})
_RK4_FRACTIONS = sorted({a for _, a, _ in _RK4_STAGES}, reverse=True)


def rk4_substep(h):
    """(nodes, sizes) for tractrix sub-steps of lengths h: the later
    stages' nodes, where `tractrix_step` reads the tractor, and the sizes
    it takes, h times each step fraction, the whole first, then h / 6."""
    return ([c / _RK4_DENOM for c in _RK4_NODES],
            [a / _RK4_DENOM * h for a in _RK4_FRACTIONS] + [h / _RK4_DENOM])


def _lines(text, depth, **names):
    """text with `names` written in, indented by `depth` levels."""
    return "\n".join(" " * (4 * depth) + line
                     for line in text.format(**names).splitlines())


def _step(stage, depth):
    """(hoist, step) from the tableau: one RK4 step of (x, v, c, c', s, s')
    with the spray text `stage` at each stage, indented by `depth` levels,
    and the line that sets its fractions of h, hh = 0.5 * h and h6 = h /
    6.0, before the loop. The geodesic (x, y; p, q) and the Jacobi pairs
    (c, c'; s, s') of j'' = -K j take the same stages. As f * h * k parses
    as (f * h) * k, the bits are those of RK4 with int weights."""
    n = len(_RK4_B)
    at = ["", *map(str, range(2, n + 1))]

    def ahead(i, base, rates):
        return " + ".join([base, *(f"{_RK4_NAMES[m][0]} * {k}"
                                   for m, k in zip(_RK4_A[i], rates) if m)])

    def total(base, rates):
        terms = (k if w == 1 else f"{float(w)!r} * {k}"
                 for w, k in zip(_RK4_B, rates))
        return f"{base} = {base} + h{_RK4_DENOM} * ({' + '.join(terms)})"

    x, y, p, q = ([v + i for i in at] for v in "xypq")
    a, b, K = ([f"{v}{i}" for i in range(1, n + 1)] for v in "abK")
    # x and y read the old p and q, so they are stepped first
    pairs = ((x, p), (y, q), (p, a), (q, b))
    lines = []
    for i in range(n):
        lines += [f"{z[i]} = {ahead(i, z[0], r)}" for z, r in pairs if i]
        lines.append(_lines(stage, 0, u=x[i], v=y[i], a=p[i], b=q[i],
                            A=a[i], B=b[i], K=K[i]))
    lines += [total(z[0], r) for z, r in pairs]
    jacobi = [(j, [j + (i or "p") for i in at],
               [f"{j}{i}p" for i in range(1, n + 1)]) for j in "cs"]
    for i in range(n):
        for j, rates, forces in jacobi:
            if i:
                lines.append(f"{rates[i]} = {ahead(i, rates[0], forces)}")
            value = ahead(i, j, rates)
            lines.append(f"{forces[i]} = -{K[i]} * "
                         + (f"({value})" if i else value))
    lines += [total(z, r) for j, rates, forces in jacobi
              for z, r in ((j, rates), (rates[0], forces))]
    hoist = {_RK4_NAMES[m][0]: f"{m / _RK4_DENOM!r} * h"
             for m in _RK4_FRACTIONS if m != _RK4_DENOM}
    hoist[f"h{_RK4_DENOM}"] = f"h / {float(_RK4_DENOM)!r}"
    return (f"{', '.join(hoist)} = {', '.join(hoist.values())}",
            _lines("{step}", depth, step="\n".join(lines)))


# One RK4 shot: `_step` in a loop, and the drift samples; see `_kernel`
_KERNEL = """\
def _rk4_geodesic(self, x0, v0, length, n_steps, collect):
    xp = math
{setup}
    h = length / n_steps if n_steps else 0.0
    {hoist}
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


@lru_cache(maxsize=128)
def _kernel(spray_text):
    """The RK4 shot kernel with `spray_text` (`SurfaceChart.spray_text`)
    written in at every stage: `kernel(self, x0, v0, length, n_steps,
    collect)`, self being what the text reads, generated and compiled
    once per text in a process.

    The state is two-dimensional and held in locals, floats: (x, y) for
    the point, (p, q) for the velocity. Each RK4 stage sets (a_x, a_y, K)
    from (x, y, p, q) inline, from the chart's spray text, so that a shot
    makes no call per stage. Only surfaces reach this integrator, because
    the space forms, the only models that can be three-dimensional,
    override each of its callers with closed forms. The cosine and sine
    solutions of j'' + K j = 0 ride along, c(0) = 1, c'(0) = 0 and s(0) =
    0, s'(0) = 1, with K from the same stages as the acceleration. The
    loop's body is `_step`, written from the RK4 tableau: no tuple per
    stage and no int operand, whose CPython paths are slow, and the bits
    of a kernel with both that calls the spray (a test checks this).

    The result is (x, v, c, s), the final point and velocity and the
    final c and s. With collect False, x and v are 2-tuples. With collect a
    stride k (True is 1), they are the drift samples that `_check_drift`
    reads, as (m, 2) arrays: the state before every k-th step and the end.
    """
    setup, stage = spray_text
    hoist, step = _step(stage, 2)
    return compiled(_KERNEL.format(setup=_lines(setup, 1), hoist=hoist,
                                   step=step))["_rk4_geodesic"]


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
    # a spray per RK4 stage: the int stays out of the function below,
    # whose arithmetic is all on floats
    stages = {n_stages}

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
        abs(speed_ - 1.0), eta_speed_, K_lo, K_hi, size_)
"""
_SUBSTEP = """\
def tractrix_step(state, k1, q1, {points}, {fractions}, ell, n_pole):
{head}
    y0_, y1_ = state
    r0_, r1_ = k1
    # the RK4 sums, k1 + b2 k2 + b3 k3 + b4 k4 and its speeds', left to
    # right; a stage with no point reuses the geometry of the one before
    sum0_, sum1_, sumq_ = r0_, r1_, q1
    for at_, scale_, weight_ in {stages}:
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
    return (y0_ + {factor} * sum0_, y1_ + {factor} * sum1_), {factor} * sumq_
"""
# the set-up of both functions, after the chart's
_HEAD = """\
sqrt = math.sqrt
h = ell / n_pole if n_pole else 0.0"""
# one pole shot from (u_, w_) along X_ / |X_|, of n_pole steps of `_step`,
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
_RECORD_BOTTOM = "\n".join(["if record:"] + [
    f"    if K{i} {op} K_{end}: K_{end} = K{i}" for op, end in (
        ("<", "lo"), (">", "hi")) for i in range(1, len(_RK4_B) + 1)])


@lru_cache(maxsize=128)
def _tractrix(spray_text, jet_text):
    """`bind(model, chart)` -> (tractrix_stage, tractrix_step), the
    functions of a model's tractrix on the chart, generated from `_STAGE`
    and `_SUBSTEP` and compiled once per pair of texts in a process.

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
    These and its stages 2 to 4, k3 on k2's geometry, are written from the
    RK4 tableau; it moves the state and the arclength ds by the RK4 sums.

    Everything runs on Python floats, with no call per stage. At eta a
    stage tests the domain (OutOfDomainError, as `check_point`), runs the
    chart's jet lines (`jet_text`) and writes out `_first_form`'s and
    `_christoffel`'s arithmetic on the entries, in their order, with the
    singular-metric test of `_forms` (`charts._first_form_lines` and
    `charts._christoffel_lines`); a jet's constant entries are literals,
    whose products CPython folds with the same IEEE arithmetic. From E, F,
    G and Gamma it forms |X|_g, <eta', X>_g, |eta'|_g and Gamma(eta', X).
    Its shot is `_step` with the chart's spray text written in, and it adds
    4 sprays a step to the model's `sprays`. A shot whose s(ell) is at most
    _CONJ_TOL raises NoConvergenceError (`_conjugate_point`).

    The record is (gamma, pole_dir at gamma, signed speed, J(ell), the
    samples of J, conjugate flag, drift, |eta'|_g, K_lo, K_hi, |X|_g), its
    vectors and the samples as lists; |X|_g, the first integral, is 1 up to
    the sub-steps' error. [K_lo, K_hi] is the least and greatest K
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
    hoist, step = _step(stage, 1)

    def geometry(depth):
        return _lines(_GEOMETRY, depth, jet=jet_lines.format(u="u_", v="w_"),
                      forms="\n".join([
                          *_first_form_lines(jet, "_", "u_, w_"),
                          *_christoffel_lines(jet, "_")]))

    def shot(depth, top="", bottom=""):
        return _lines(_SHOT, depth, top=top, bottom=bottom, step=step,
                      conj=conj)

    def bind(template, name, **parts):
        return compiled(_BIND.format(
            name=name, n_stages=len(_RK4_B), function=_lines(
                template, 1, head=head, conj=conj, **parts)))["_bind"]

    head = _lines("\n".join(["xp = math", setup, _HEAD, hoist]), 1)
    stage = bind(_STAGE, "tractrix_stage", geometry=geometry(1),
                 shot=shot(1, _lines(_RECORD_TOP, 1),
                           _lines(_RECORD_BOTTOM, 1)),
                 end_form=_lines("\n".join([
                     jet_lines.format(u="x", v="y"),
                     *_first_form_lines(jet, "g_", "x, y")]), 1))
    factor = f"dt{_RK4_DENOM}"
    stages = ", ".join(
        f"({_RK4_NAMES[c][2] if c != before else None}, {_RK4_NAMES[a][1]}, "
        f"{float(b)!r})" for before, (c, a, b) in zip(
            [0] + [c for c, _, _ in _RK4_STAGES], _RK4_STAGES))
    substep = bind(
        _SUBSTEP, "tractrix_step", geometry=geometry(3), shot=shot(2),
        points=", ".join(_RK4_NAMES[c][2] for c in _RK4_NODES),
        fractions=", ".join([*(_RK4_NAMES[n][1] for n in _RK4_FRACTIONS),
                             factor]),
        stages=f"({stages})", factor=factor)
    return lambda model, chart: (stage(model, chart), substep(model, chart))
