"""Tractor/tractrix propagation.

The tractor curve eta(t) drives the system; the tractrix gamma trails (or
leads) it at the far end of a geodesic pole of fixed length ell:
gamma = exp_eta(ell X) with X the unit pole direction at eta.  The velocity
of gamma is the projection of eta's velocity onto the pole, carried along
the pole to gamma:

    dgamma/dt = <eta'(t), X>_g * T(ell),      ds/dt = |<eta'(t), X>_g|

with T(ell) the pole tangent at gamma.  The projected speed changes sign at
cusps (pull <-> push); the ODE itself stays smooth in the tractor
parameter, so cusps need no restart.

`simulate` runs one RK4 loop over a state that the model chooses (see
`ManifoldModel.tractrix_stage`).  On surfaces the state is X, which moves
by an explicit Jacobi-field ODE: each stage is one geodesic shot from eta,
with no two-point solve.  On space forms the state is gamma, and each
stage re-solves the pole in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

from .errors import (
    ConfigError,
    NoConvergenceError,
    NotClosedError,
    PoleLengthDriftError,
    RecordOverflowError,
)
from .manifold import (
    _SHOOT_FD_H,
    _SHOOT_MAX_ITER,
    FlatModel,
    HyperbolicModel,
    SphereModel,
)

_POLE_DRIFT_LIMIT = 1e-6
# kappa is masked where the pole comes this close to lying along a geodesic
# tractor (d -> ell means the projected speed vanishes).
_CUSP_DIST_BAND = 1e-4


# ---------------------------------------------------------------------------
# Tractor curves


@dataclass(frozen=True)
class TractorCurve:
    """Parametric driver curve with a chart-coordinate evaluator.

    `point`/`velocity` must accept parameters outside [t0, t1] as well
    (the simulation only drives over the range, but the foot of gamma
    on a geodesic tractor may lie up to a pole length outside it).
    """

    point: Callable[[float], np.ndarray]
    velocity: Callable[[float], np.ndarray]
    t0: float
    t1: float
    closed: bool = False
    is_geodesic: bool = False
    label: str = ""
    # parameters where the velocity jumps; integration steps split there
    breaks: tuple = ()

    @property
    def span(self):
        return self.t1 - self.t0


def analytic_tractor(point, velocity, t0, t1, *, is_geodesic=False,
                     closed=False, label="analytic"):
    if closed:
        gap = np.linalg.norm(np.asarray(point(t1)) - np.asarray(point(t0)))
        if gap > 1e-8:
            raise NotClosedError(
                f"closed tractor has endpoint gap {gap:.3e}")
    return TractorCurve(point=point, velocity=velocity,
                        t0=float(t0), t1=float(t1), closed=closed,
                        is_geodesic=is_geodesic, label=label)


def polyline_tractor(points, closed=False, *, is_geodesic=False,
                     label="polyline"):
    """Piecewise-linear tractor over the cumulative chart-chord parameter."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or len(pts) < 2:
        raise ConfigError("polyline needs at least two points")
    if closed and np.linalg.norm(pts[-1] - pts[0]) > 1e-8:
        raise NotClosedError("closed polyline endpoints do not match")
    seg = np.diff(pts, axis=0)
    lens = np.linalg.norm(seg, axis=1)
    keep = lens > 1e-14
    if not np.all(keep):
        pts = np.vstack([pts[0], pts[1:][keep]])
        seg = np.diff(pts, axis=0)
        lens = np.linalg.norm(seg, axis=1)
    if len(pts) < 2:
        raise ConfigError("polyline is degenerate")
    knots = np.concatenate([[0.0], np.cumsum(lens)])
    total = knots[-1]
    dirs = seg / lens[:, None]

    def locate(t):
        if closed:
            t = t % total
        i = int(np.searchsorted(knots, t, side="right") - 1)
        i = min(max(i, 0), len(lens) - 1)
        return i, t

    def point(t):
        i, t = locate(float(t))
        return pts[i] + (t - knots[i]) * dirs[i]

    def velocity(t):
        i, _ = locate(float(t))
        return dirs[i].copy()

    return TractorCurve(point=point, velocity=velocity, t0=0.0,
                        t1=float(total), closed=closed,
                        is_geodesic=is_geodesic, label=label,
                        breaks=tuple(knots[1:-1]))


def reversed_tractor(curve):
    """Same path traversed the other way (push <-> pull)."""
    t0, t1 = curve.t0, curve.t1

    def point(t):
        return curve.point(t0 + t1 - t)

    def velocity(t):
        return -curve.velocity(t0 + t1 - t)

    return TractorCurve(point=point, velocity=velocity, t0=t0, t1=t1,
                        closed=curve.closed, is_geodesic=curve.is_geodesic,
                        label=curve.label + ":reversed",
                        breaks=tuple(sorted(t0 + t1 - b for b in curve.breaks)))


def tractor_from_tractrix(model, gamma, ell, sign=1):
    """Endpoint curve of the poles issuing tangentially from gamma.

    eta(t) = exp(gamma(t), sign * unit gamma'(t), ell); by construction
    (eta, gamma) then satisfies the tractor/tractrix conditions with the
    projected speed identically +1 when gamma is unit-speed.
    """
    if sign not in (1, -1):
        raise ConfigError("sign must be +1 or -1")

    def point(t):
        p = np.asarray(gamma.point(t), dtype=float)
        v = model.unit(p, gamma.velocity(t))
        return model.exp_point(p, sign * v, ell)[0]

    h = 1e-6

    def velocity(t):
        return (point(t + h) - point(t - h)) / (2.0 * h)

    # exp along the base's own tangent keeps geodesic bases on themselves
    # (parameter-shifted), so the flag carries over.
    return TractorCurve(point=point, velocity=velocity,
                        t0=gamma.t0, t1=gamma.t1, closed=gamma.closed,
                        is_geodesic=gamma.is_geodesic,
                        label=f"tractrix_of:{gamma.label}",
                        breaks=gamma.breaks)


# ---------------------------------------------------------------------------
# Simulation parameters and trace


@dataclass(frozen=True)
class SimParams:
    dt: float = 0.01
    pole_step: float = 0.05
    cusp_speed_eps: float = 0.05
    max_records: int = 200_000

    def __post_init__(self):
        if self.dt <= 0 or self.pole_step <= 0:
            raise ConfigError("dt and pole_step must be positive")
        if not 0 < self.cusp_speed_eps < 1:
            raise ConfigError("cusp_speed_eps must lie in (0, 1)")
        if self.max_records < 2:
            raise ConfigError("max_records must be at least 2")


@dataclass(frozen=True)
class CuspRecord:
    t: float
    s: float
    turning_angle: float
    sign_flip: bool


@dataclass
class TractrixTrace:
    """Column-wise record arrays of one simulation run."""

    model: object
    tractor: TractorCurve
    ell: float
    t: np.ndarray
    s: np.ndarray
    gamma: np.ndarray
    eta: np.ndarray
    pole_dir: np.ndarray
    pole_end: np.ndarray
    speed: np.ndarray  # signed projected speed <eta', pole_end>
    eta_speed: np.ndarray  # metric speed |eta'| of the tractor
    sigma: np.ndarray  # +1 pull / -1 push
    d: np.ndarray  # orthogonal distance to geodesic tractors, else NaN
    kappa: np.ndarray  # covariant finite-difference curvature, NaN masked
    kappa_speed: np.ndarray  # speed-identity curvature, NaN at cusp records
    jacobi_ell: np.ndarray
    pole_u: np.ndarray
    jacobi: np.ndarray  # (n, len(pole_u)) profiles J_s(u)
    pole_conjugate: np.ndarray
    max_drift: float  # largest record drift of `tractrix_stage`
    cusps: list[CuspRecord] = field(default_factory=list)
    stall_windows: list[tuple[int, int, float, bool]] = field(
        default_factory=list)

    def check_invariants(self):
        """Raise if a trace invariant is violated (used by the test suite)."""
        for i in range(len(self.t)):
            L = self.model.distance(self.gamma[i], self.eta[i],
                                    v_guess=self.pole_dir[i],
                                    L_guess=self.ell)
            if abs(L - self.ell) > _POLE_DRIFT_LIMIT:
                raise PoleLengthDriftError(
                    f"record {i}: pole length {L!r} vs {self.ell!r}")
        if np.any(np.diff(self.s) < -1e-12):
            raise AssertionError("arclength decreased between records")
        flips = np.nonzero(self.sigma[1:] != self.sigma[:-1])[0]
        covered = set()
        for a, b, _, _ in self.stall_windows:
            covered.update(range(max(a - 1, 0), b + 1))
        for i in flips:
            if int(i) not in covered:
                raise AssertionError(
                    f"sigma changed without a cusp marker at record {i}")


# ---------------------------------------------------------------------------
# The simulation proper


def _require_pole(model, ell):
    """Reject a pole length the propagation cannot use."""
    if ell <= 0:
        raise ConfigError("pole length must be positive")
    if model.conjugate_scale is not None and ell >= model.conjugate_scale:
        raise ConfigError(f"pole length ell = {ell!r} reaches the conjugate "
                          f"scale {model.conjugate_scale!r}")


def simulate(model, tractor, gamma0, ell, params=None):
    """Propagate the tractrix for `tractor` with a pole of length `ell`.

    The model supplies the state and its rate (`tractrix_start`,
    `tractrix_stage`): on surfaces the unit pole direction at the tractor,
    moved by its Jacobi-field ODE with one geodesic shot per stage; on
    space forms gamma itself, with the pole re-solved in closed form at
    every stage.  Each record is read off its own stage.  The pull or push
    character is emergent from the attachment geometry and recorded per
    record as sigma.
    """
    if params is None:
        params = SimParams()
    _require_pole(model, ell)
    gamma0 = np.asarray(gamma0, dtype=float)
    if gamma0.shape != (model.dim,):
        raise ConfigError(f"gamma0: expected {model.dim} coordinates, got "
                          f"{gamma0.size}")
    model.check_point(gamma0)

    n_steps = int(math.ceil(tractor.span / params.dt))
    if n_steps + 1 > params.max_records:
        raise RecordOverflowError(
            f"{n_steps + 1} records exceed max_records {params.max_records}")
    t_grid = np.linspace(tractor.t0, tractor.t1, n_steps + 1)
    n_pole = max(8, int(math.ceil(ell / params.pole_step)))

    eta0 = np.asarray(tractor.point(tractor.t0), dtype=float)
    state, L0 = model.tractrix_start(eta0, gamma0, ell, n_pole)
    if abs(L0 - ell) > _POLE_DRIFT_LIMIT:
        raise PoleLengthDriftError(
            f"initial attachment distance {L0!r} does not match ell {ell!r}")

    def rhs(t, y):
        eta = np.asarray(tractor.point(t), dtype=float)
        etap = np.asarray(tractor.velocity(t), dtype=float)
        return model.tractrix_stage(eta, etap, y, ell, n_pole)[:2]

    dim = model.dim
    n = len(t_grid)
    gam = np.empty((n, dim))
    eta_pts = np.empty((n, dim))
    pole_dir = np.empty((n, dim))
    pole_end = np.empty((n, dim))
    speeds = np.empty(n)
    eta_speeds = np.empty(n)
    s_arr = np.empty(n)
    jac_prof = np.empty((n, n_pole + 1))
    conj = np.zeros(n, dtype=bool)
    pole_u = np.linspace(0.0, ell, n_pole + 1)

    s = 0.0
    max_drift = 0.0
    br = np.asarray(tractor.breaks, dtype=float)
    br = br[(br > t_grid[0]) & (br < t_grid[-1])]

    for i, t in enumerate(t_grid):
        eta = np.asarray(tractor.point(t), dtype=float)
        etap = np.asarray(tractor.velocity(t), dtype=float)
        rate, sdot, (gam[i], pole_dir[i], pole_end[i], speeds[i],
                     jac_prof[i], conj[i], drift) = model.tractrix_stage(
            eta, etap, state, ell, n_pole, record=True)
        if drift > _POLE_DRIFT_LIMIT:
            raise PoleLengthDriftError(
                f"pole drift {drift:.3e} exceeds {_POLE_DRIFT_LIMIT} at "
                f"t={t!r}")
        max_drift = max(max_drift, drift)
        eta_pts[i] = eta
        eta_speeds[i] = model.norm(eta, etap)
        s_arr[i] = s

        if i == n - 1:
            break
        # split at velocity breaks so no RK4 step straddles a kink
        t_next = t_grid[i + 1]
        lo, hi = np.searchsorted(br, [t + 1e-12, t_next - 1e-12])
        knots = [t, *br[lo:hi], t_next]
        for ta, tb in zip(knots[:-1], knots[1:]):
            hh = tb - ta
            # the record's own stage is the first piece's first stage
            k1, q1 = (rate, sdot) if ta == t else rhs(ta, state)
            k2, q2 = rhs(ta + hh / 2, state + (hh / 2) * k1)
            k3, q3 = rhs(ta + hh / 2, state + (hh / 2) * k2)
            # evaluate just inside the piece so a kink at tb contributes
            # its left limit
            k4, q4 = rhs(tb - 1e-9 * hh, state + hh * k3)
            state = state + (hh / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            s = s + (hh / 6.0) * (q1 + 2 * q2 + 2 * q3 + q4)

    sigma = _fill_signs(speeds, params.cusp_speed_eps)
    trace = TractrixTrace(
        model=model, tractor=tractor, ell=float(ell), t=t_grid, s=s_arr,
        gamma=gam, eta=eta_pts, pole_dir=pole_dir, pole_end=pole_end,
        speed=speeds, eta_speed=eta_speeds, sigma=sigma, d=np.full(n, np.nan),
        kappa=np.full(n, np.nan), kappa_speed=np.full(n, np.nan),
        jacobi_ell=jac_prof[:, -1].copy(), pole_u=pole_u, jacobi=jac_prof,
        pole_conjugate=conj, max_drift=max_drift)

    _detect_cusps(trace, params)
    if tractor.is_geodesic:
        _fill_orthogonal_distance(trace)
    _fill_curvature(trace, params)
    return trace


def _fill_signs(speeds, eps):
    sigma = np.sign(speeds).astype(np.int8)
    # carry the sign through near-cusp records; default to pull if all stall
    last = 0
    for i in range(len(sigma)):
        if abs(speeds[i]) >= eps and sigma[i] != 0:
            last = sigma[i]
        elif last != 0:
            sigma[i] = last
    nz = np.nonzero(sigma)[0]
    if len(nz) == 0:
        sigma[:] = 1
    else:
        first = sigma[nz[0]]
        sigma[:nz[0]] = first
        for i in range(len(sigma)):
            if sigma[i] == 0:
                sigma[i] = sigma[i - 1]
    return sigma


# ---------------------------------------------------------------------------
# Cusps


def _angle_between(model, p, a, b):
    c = model.inner(p, a, b) / max(
        model.norm(p, a) * model.norm(p, b), 1e-300)
    return math.acos(min(1.0, max(-1.0, c)))


def _pole_swing(trace, a, b):
    """Accumulated rotation of the pole direction over records [a, b]."""
    model = trace.model
    total = 0.0
    for i in range(a, b):
        w = model.parallel_transport(trace.gamma[i], trace.gamma[i + 1],
                                     trace.pole_dir[i])
        total += _angle_between(model, trace.gamma[i + 1], w,
                                trace.pole_dir[i + 1])
    return total


def _detect_cusps(trace, params):
    eps = params.cusp_speed_eps
    n = len(trace.t)
    sp = trace.speed
    stalled = np.abs(sp) < eps
    # widen to cover sign changes between adjacent fast records
    windows = []
    i = 0
    while i < n:
        if stalled[i]:
            j = i
            while j + 1 < n and stalled[j + 1]:
                j += 1
            windows.append([i, j])
            i = j + 1
        else:
            if i + 1 < n and not stalled[i + 1] and sp[i] * sp[i + 1] < 0:
                windows.append([i, i + 1])
            i += 1
    for a, b in windows:
        lo, hi = max(a - 1, 0), min(b + 1, n - 1)
        flip = sp[lo] * sp[hi] < 0
        swing = _pole_swing(trace, lo, hi)
        turning = swing + (math.pi if flip else 0.0)
        trace.stall_windows.append((a, b, turning, flip))
        if not flip and swing < 0.01:
            # boundary grazing (e.g. a run starting exactly at a cusp):
            # the tiny swing is still accounted for via stall_windows
            continue
        t_c = 0.5 * (trace.t[a] + trace.t[b])
        for i in range(lo, hi):
            if sp[i] * sp[i + 1] < 0:
                t_c = trace.t[i] + (trace.t[i + 1] - trace.t[i]) * \
                    sp[i] / (sp[i] - sp[i + 1])
                break
        trace.cusps.append(CuspRecord(t=float(t_c), s=float(trace.s[b]),
                                      turning_angle=float(turning),
                                      sign_flip=bool(flip)))


# ---------------------------------------------------------------------------
# Derived per-record quantities


def _fill_curvature(trace, params):
    """Covariant finite-difference curvature plus the speed-identity value."""
    model = trace.model
    n = len(trace.t)
    masked = np.zeros(n, dtype=bool)
    for a, b, _, _ in trace.stall_windows:
        masked[max(a - 1, 0):min(b + 2, n)] = True
    masked |= np.abs(trace.speed) < params.cusp_speed_eps
    if trace.tractor.is_geodesic:
        masked |= np.abs(trace.d - trace.ell) < _CUSP_DIST_BAND

    tangents = trace.sigma[:, None] * trace.pole_dir
    for i in range(1, n - 1):
        if masked[i]:
            continue
        ds = trace.s[i + 1] - trace.s[i - 1]
        if ds < 1e-10:
            continue
        w_plus = model.parallel_transport(trace.gamma[i + 1], trace.gamma[i],
                                          tangents[i + 1])
        w_minus = model.parallel_transport(trace.gamma[i - 1], trace.gamma[i],
                                           tangents[i - 1])
        dv = (w_plus - w_minus) / ds
        trace.kappa[i] = model.norm(trace.gamma[i], dv)

    with np.errstate(invalid="ignore", divide="ignore"):
        excess = np.maximum(trace.eta_speed ** 2 - trace.speed ** 2, 0.0)
        ks = np.sqrt(excess) / (np.abs(trace.speed) * trace.jacobi_ell)
    ks[masked] = np.nan
    trace.kappa_speed = ks


def _quarter_turn(trace):
    """Matrix E such that E @ g @ w is normal to w, turned by +pi/2.

    On a surface E is [[0, -1], [1, 0]] (chart orientation).  Models of
    higher dimension are flat, and the tractrix of a straight line stays
    in the plane through the line and gamma0, so E turns in that plane.
    """
    if trace.model.dim == 2:
        return np.array([[0.0, -1.0], [1.0, 0.0]])
    a = trace.model.unit(trace.eta[0], trace.tractor.velocity(trace.t[0]))
    b = trace.gamma[0] - trace.eta[0]
    b = b - (b @ a) * a
    if np.linalg.norm(b) < 1e-12 * trace.ell:
        # gamma0 on the line: every plane through it will do
        b = np.eye(len(a))[np.argmin(np.abs(a))]
        b = b - (b @ a) * a
    b = b / np.linalg.norm(b)
    return np.outer(b, a) - np.outer(a, b)


def _fill_orthogonal_distance(trace):
    """Distance d from gamma to its projection foot on a geodesic tractor.

    (tau, d) are the Fermi coordinates of gamma relative to the tractor
    eta: gamma = F(tau, d) = exp_{eta(tau)}(d N(tau)), with N the unit
    normal to eta'(tau).  Damped Newton solves F(tau, d) = gamma for each
    record; the d column of the Jacobian is the end tangent of the shot
    and the tau column a forward difference.  Record 0 starts from d = 0
    at the chord projection of the pole (exact in the plane), every later
    record from the previous record's (tau, d).  F is regular at d = 0,
    where the shot has length 0 and end tangent N, so a tractrix lying on
    its tractor needs no special case and reads d = 0 exactly.  Shots
    with d < 0 run along -N; the trace stores |d|.
    """
    model = trace.model
    tractor = trace.tractor
    turn = _quarter_turn(trace)
    tol = 1e-11 * max(1.0, trace.ell)

    def shoot(tau, d):
        """F(tau, d) and its derivative in d."""
        foot = np.asarray(tractor.point(tau), dtype=float)
        g = model.metric_at(foot)
        n = turn @ g @ np.asarray(tractor.velocity(tau), dtype=float)
        n = n / math.sqrt(float(n @ g @ n))
        sign = -1.0 if d < 0.0 else 1.0
        end, tangent = model.exp_point(foot, sign * n, abs(d), steps=48)
        return end, sign * tangent

    tau = float(trace.t[0] - trace.speed[0] * trace.ell
                / trace.eta_speed[0] ** 2)
    d = 0.0
    for i, gamma in enumerate(trace.gamma):
        end, d_col = shoot(tau, d)
        rn = float(np.linalg.norm(end - gamma))
        for _ in range(_SHOOT_MAX_ITER):
            if rn < tol:
                break
            tau_col = (shoot(tau + _SHOOT_FD_H, d)[0] - end) / _SHOOT_FD_H
            J = np.column_stack([tau_col, d_col])
            # normal equations: the same step as solve(J, r) when J is
            # square, and the in-plane step in higher dimension
            try:
                step = np.linalg.solve(J.T @ J, J.T @ (gamma - end))
            except np.linalg.LinAlgError as exc:
                raise NoConvergenceError(
                    f"foot solve at record {i}: singular Jacobian") from exc
            damp = 1.0
            while True:
                tau_new, d_new = tau + damp * step[0], d + damp * step[1]
                end_new, col_new = shoot(tau_new, d_new)
                rn_new = float(np.linalg.norm(end_new - gamma))
                if rn_new <= rn or damp < 1e-6:
                    break
                damp *= 0.5
            tau, d, end, d_col, rn = tau_new, d_new, end_new, col_new, rn_new
        if not rn < tol:
            raise NoConvergenceError(
                f"foot solve at record {i} stalled at residual {rn:.3e}")
        trace.d[i] = abs(d)


# ---------------------------------------------------------------------------
# Attachment helper


def orthogonal_attachment(model, tractor, ell, d0, side=1, mode="behind"):
    """Place gamma0 at orthogonal offset d0 from the tractor so that
    dist(gamma0, eta(t0)) = ell.

    Returns (gamma0, foot_parameter).  `side` picks the normal direction
    (+1 is the tangent rotated by +pi/2), `mode` decides whether the foot
    lies behind or ahead of the tractor start (pull or push attachment).
    """
    _require_pole(model, ell)
    if not 0.0 <= d0 < ell:
        raise ConfigError("need 0 <= d0 < ell for an orthogonal attachment")
    if mode not in ("behind", "ahead"):
        raise ConfigError("mode must be 'behind' or 'ahead'")
    eta0 = np.asarray(tractor.point(tractor.t0), dtype=float)

    def gamma_at(tau):
        f = np.asarray(tractor.point(tau), dtype=float)
        if d0 == 0.0:
            return f
        tang = model.unit(f, tractor.velocity(tau))
        normal = model.rotate(f, tang, side * 0.5 * math.pi)
        return model.exp_point(f, normal, d0)[0]

    def gap(tau):
        return model.distance(gamma_at(tau), eta0, L_guess=ell) - ell

    reach = math.sqrt(max(ell * ell - d0 * d0, 0.0)) + d0
    speed0 = model.norm(eta0, tractor.velocity(tractor.t0))
    span = 1.3 * reach / max(speed0, 1e-6)
    hi = tractor.t0
    lo = tractor.t0 - span if mode == "behind" else tractor.t0 + span
    if mode == "ahead":
        lo, hi = hi, lo
    for _ in range(4):
        if gap(lo if mode == "behind" else hi) > 0.0:
            break
        if mode == "behind":
            lo -= span
        else:
            hi += span
    else:
        raise NoConvergenceError(
            "could not bracket the attachment foot parameter")
    t_star = brentq(gap, lo, hi, xtol=1e-13, maxiter=200)
    return gamma_at(t_star), float(t_star)


# ---------------------------------------------------------------------------
# Named tractor catalog (used by scenario configs)


def _req(spec, key, kind):
    try:
        return spec[key]
    except KeyError:
        raise ConfigError(f"tractor.{key}: required for kind {kind!r}")


def _num(spec, key, kind, default=None):
    """A finite number field; required unless a default is given."""
    value = _req(spec, key, kind) if default is None else spec.get(key,
                                                                   default)
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"tractor.{key}: expected a number, got {value!r}")
    if not math.isfinite(out):
        raise ConfigError(f"tractor.{key}: expected a finite number, got "
                          f"{value!r}")
    return out


def _req_points(spec, key, kind, dim, single=True):
    """Coordinates of a required field: one point, or a list of points."""
    try:
        pts = np.asarray(_req(spec, key, kind), dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"tractor.{key}: expected numeric coordinates")
    if not np.all(np.isfinite(pts)):
        raise ConfigError(f"tractor.{key}: expected finite coordinates")
    if pts.ndim != (1 if single else 2) or pts.shape[-1] != dim:
        raise ConfigError(f"tractor.{key}: expected points with {dim} "
                          f"coordinates for this model")
    return pts


def tractor_from_config(model, spec):
    """Build a TractorCurve from a scenario mapping."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("tractor: mapping with a 'kind' field expected")
    kind = spec["kind"]
    t0 = _num(spec, "t0", kind, 0.0)
    t1 = _num(spec, "t1", kind, 1.0)
    if kind != "polyline" and t1 <= t0:
        raise ConfigError("tractor.t1: must exceed t0")

    if kind in ("line", "chart_line"):
        start = _req_points(spec, "start", kind, model.dim)
        direction = _req_points(spec, "direction", kind, model.dim)
        nn = float(np.linalg.norm(direction))
        if nn < 1e-14:
            raise ConfigError("tractor.direction: must be nonzero")
        direction = direction / nn
        if kind == "line" and not isinstance(model, FlatModel):
            raise ConfigError("tractor.kind: 'line' needs a flat model; "
                              "use 'chart_line' on surfaces")
        geo = bool(spec.get("geodesic", kind == "line"))
        curve = analytic_tractor(
            lambda t: start + t * direction,
            lambda t: direction.copy(),
            t0, t1, is_geodesic=geo, label=kind)
    elif kind in ("circle", "chart_circle"):
        if model.dim != 2:
            raise ConfigError(f"tractor.kind: {kind!r} needs a 2-D model")
        center = _req_points(spec, "center", kind, 2)
        radius = _num(spec, "radius", kind)
        if radius <= 0:
            raise ConfigError("tractor.radius: must be positive")
        if kind == "circle":
            if not isinstance(model, FlatModel):
                raise ConfigError("tractor.kind: 'circle' needs a flat "
                                  "model; use 'chart_circle' on surfaces")
            rate = 1.0 / radius  # arclength parameter
        else:
            rate = _num(spec, "rate", kind, 1.0)
        closed = bool(spec.get("closed", False))
        if closed and abs(math.remainder((t1 - t0) * rate, math.tau)) > 1e-9:
            raise NotClosedError("circle span is not a whole number of turns")

        def cpoint(t, c=center, R=radius, w=rate):
            return c + R * np.array([math.cos(w * t), math.sin(w * t)])

        def cvel(t, R=radius, w=rate):
            return R * w * np.array([-math.sin(w * t), math.cos(w * t)])

        curve = analytic_tractor(cpoint, cvel, t0, t1, closed=closed,
                                 is_geodesic=bool(spec.get("geodesic",
                                                           False)),
                                 label=kind)
    elif kind == "latitude":
        if not isinstance(model, SphereModel):
            raise ConfigError("tractor.kind: 'latitude' needs a sphere model")
        th = _num(spec, "colatitude", kind)
        if not 0.0 < th < math.pi:
            raise ConfigError("tractor.colatitude: must lie in (0, pi)")
        phi0 = _num(spec, "phi0", kind, 0.0)
        rate = 1.0 / (model.radius * math.sin(th))  # arclength parameter
        geo = bool(spec.get("geodesic", abs(th - math.pi / 2) < 1e-12))

        def lpoint(t, th=th, phi0=phi0, w=rate):
            return np.array([th, phi0 + w * t])

        def lvel(t, w=rate):
            return np.array([0.0, w])

        curve = analytic_tractor(lpoint, lvel, t0, t1, is_geodesic=geo,
                                 label=kind)
    elif kind == "disk_ray":
        if not isinstance(model, HyperbolicModel):
            raise ConfigError(
                "tractor.kind: 'disk_ray' needs a hyperbolic model")
        ang = _num(spec, "angle", kind, 0.0)
        u = np.array([math.cos(ang), math.sin(ang)])
        k = model.k

        def rpoint(t, u=u, k=k):
            return math.tanh(0.5 * k * t) * u

        def rvel(t, u=u, k=k):
            return (0.5 * k / math.cosh(0.5 * k * t) ** 2) * u

        curve = analytic_tractor(rpoint, rvel, t0, t1, is_geodesic=True,
                                 label=kind)
    elif kind == "helix":
        if not (isinstance(model, FlatModel) and model.dim == 3):
            raise ConfigError("tractor.kind: 'helix' needs flat dimension 3")
        radius = _num(spec, "radius", kind)
        pitch = _num(spec, "pitch", kind)
        w = 1.0 / math.hypot(radius, pitch)  # arclength parameter

        def hpoint(t, R=radius, p=pitch, w=w):
            return np.array([R * math.cos(w * t), R * math.sin(w * t),
                             p * w * t])

        def hvel(t, R=radius, p=pitch, w=w):
            return np.array([-R * w * math.sin(w * t),
                             R * w * math.cos(w * t), p * w])

        curve = analytic_tractor(hpoint, hvel, t0, t1, is_geodesic=False,
                                 label=kind)
    elif kind == "circle3d":
        if not (isinstance(model, FlatModel) and model.dim == 3):
            raise ConfigError(
                "tractor.kind: 'circle3d' needs flat dimension 3")
        radius = _num(spec, "radius", kind)
        t0, t1 = 0.0, math.tau * radius

        def c3point(t, R=radius):
            return np.array([R * math.cos(t / R), R * math.sin(t / R), 0.0])

        def c3vel(t, R=radius):
            return np.array([-math.sin(t / R), math.cos(t / R), 0.0])

        curve = analytic_tractor(c3point, c3vel, t0, t1, closed=True,
                                 is_geodesic=False, label=kind)
    elif kind == "wiggly_circle":
        if not (isinstance(model, FlatModel) and model.dim == 3):
            raise ConfigError(
                "tractor.kind: 'wiggly_circle' needs flat dimension 3")
        radius = _num(spec, "radius", kind)
        amp = _num(spec, "amplitude", kind)
        lobes = int(_num(spec, "lobes", kind))
        t0, t1 = 0.0, math.tau

        def wpoint(t, R=radius, A=amp, m=lobes):
            return np.array([R * math.cos(t), R * math.sin(t),
                             A * math.sin(m * t)])

        def wvel(t, R=radius, A=amp, m=lobes):
            return np.array([-R * math.sin(t), R * math.cos(t),
                             A * m * math.cos(m * t)])

        curve = analytic_tractor(wpoint, wvel, t0, t1, closed=True,
                                 is_geodesic=False, label=kind)
    elif kind == "polyline":
        pts = _req_points(spec, "points", kind, model.dim, single=False)
        curve = polyline_tractor(pts, closed=bool(spec.get("closed", False)),
                                 is_geodesic=bool(spec.get("geodesic",
                                                           False)),
                                 label=kind)
    elif kind == "tractrix_of":
        base = tractor_from_config(model, _req(spec, "curve", kind))
        curve = tractor_from_tractrix(model, base,
                                      _num(spec, "ell", kind),
                                      int(_num(spec, "sign", kind, 1)))
    else:
        raise ConfigError(f"tractor.kind: unknown kind {kind!r}")
    return curve
