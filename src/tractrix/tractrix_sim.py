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

`simulate` splits the run into the sub-steps of one schedule, built in
NumPy (`_schedule`): the dt steps between records, split at the tractor's
velocity breaks. Space forms use the bicycle monodromy: at constant
curvature the pole direction X moves by a Moebius map, linear on its
spinor, so each sub-step is one 2x2 map from a sixth-order Magnus step,
NumPy multiplies them out by a log-depth prefix product, and each record
reads gamma off X in closed form (`_propagate_monodromy`). Surfaces use
an RK4 loop on X, which moves by an explicit Jacobi-field ODE, each stage
one geodesic shot from eta (`_propagate_rk4`). The loop takes each
record's stage and each sub-step from the model (`tractrix_stage`,
`tractrix_step`, which `manifold` compiles per chart with the chart's
jet, spray and pole shots written in), on tuples of Python floats, and
the tractor's row evaluator, `rows`, samples its stage times in blocks of
NumPy rows. The post-passes (signs, cusps,
foot distance, curvature) work on the record arrays, with one parallel
transport call per side over all records.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .config import (_SIM_FIELDS, _as_float, normalize_attachment,
                     normalize_sim, normalize_tractor)
from .errors import (
    ConfigError,
    NotClosedError,
    PoleLengthDriftError,
    RecordOverflowError,
)
from .manifold import (
    POLE_STEP,
    FlatModel,
    HyperbolicModel,
    SphereModel,
    _reference_pole,
    cramer_step,
    damped_newton,
    rk4_substep,
    shot_steps,
    triangle_at_leg,
    triangle_legs,
)
from .quadrature import simpson

_POLE_DRIFT_LIMIT = 1e-6
# a surface record's |X|_g - 1: O(dt^4) (2.5e-6 at dt 0.1), where a step
# far longer than its pole gives 3e-4, then grows it without bound
_POLE_NORM_LIMIT = 1e-4
# kappa is masked where the pole comes this close to lying along a geodesic
# tractor (d -> ell means the projected speed vanishes).
_CUSP_DIST_BAND = 1e-4
# stage times per tractor `rows` call; `simulate` samples only this far
# ahead of its loop, not the whole run at once
_ROW_BLOCK = 256
# sub-steps per block of `_propagate_monodromy`: a block's maps, products
# and tractor samples are the temporaries of one NumPy pass
_MONODROMY_BLOCK = 1024
# the Gauss-Legendre nodes of a sixth-order Magnus step, as parts of it
_GAUSS3 = (0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0)
# the step length of the shots that build a scenario's inputs (an attached
# gamma0, a derived tractor): they define the problem, so their accuracy
# does not depend on a run's pole_step
_INPUT_STEP = 0.01


# ---------------------------------------------------------------------------
# Tractor curves


@dataclass(frozen=True)
class TractorCurve:
    """Parametric driver curve with a chart-coordinate row evaluator.

    `rows(ts)` maps a 1-D parameter array to the (n, dim) points and
    velocities there, each row independent of the others, so `point` and
    `velocity`, its one-row calls, agree with it bit for bit. It must take
    parameters outside [t0, t1] too: the foot of gamma on a geodesic
    tractor may lie up to a pole length outside the driven range.
    """

    rows: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    t0: float
    t1: float
    closed: bool = False
    is_geodesic: bool = False
    # parameters where the velocity jumps; integration steps split there
    breaks: tuple = ()

    @property
    def span(self):
        return self.t1 - self.t0

    def point(self, t):
        return self.rows(np.array([float(t)]))[0][0]

    def velocity(self, t):
        return self.rows(np.array([float(t)]))[1][0]

    def __post_init__(self):
        if self.closed:
            ends = self.rows(np.array([self.t1, self.t0]))[0]
            gap = math.hypot(*(ends[0] - ends[1]))  # overflows no square
            if gap > 1e-8:
                raise NotClosedError(
                    f"closed tractor has endpoint gap {gap:.3e}")


def _edges(pts):
    """The edges of the (m, dim) points and their lengths: the norm, or
    hypot where the norm's sum of squares overflows a float."""
    with np.errstate(over="ignore"):
        seg = np.diff(pts, axis=0)
        lens = np.linalg.norm(seg, axis=1)
        return seg, np.where(np.isinf(lens), np.hypot.reduce(seg, 1), lens)


def polyline_tractor(points, closed=False, *, is_geodesic=False):
    """Piecewise-linear tractor over the cumulative chart-chord parameter."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or len(pts) < 2:
        raise ConfigError("polyline needs at least two points")
    if closed and _edges(pts[[0, -1]])[1][0] > 1e-8:
        raise NotClosedError("closed polyline endpoints do not match")
    pts = np.vstack([pts[0], pts[1:][_edges(pts)[1] > 1e-14]])
    seg, lens = _edges(pts)
    if len(pts) < 2:
        raise ConfigError("polyline is degenerate")
    with np.errstate(over="ignore"):
        knots = np.concatenate([[0.0], np.cumsum(lens)])
    total = float(knots[-1])
    if not math.isfinite(total):
        raise ConfigError("polyline is longer than a float holds")
    dirs = seg / lens[:, None]

    def rows(ts):
        if closed:
            ts = np.remainder(ts, total)
        i = np.clip(np.searchsorted(knots, ts, side="right") - 1, 0,
                    len(lens) - 1)
        return pts[i] + (ts - knots[i])[:, None] * dirs[i], dirs[i]

    return TractorCurve(rows=rows, t0=0.0, t1=total, closed=closed,
                        is_geodesic=is_geodesic, breaks=tuple(knots[1:-1]))


def tractor_from_tractrix(model, gamma, ell, sign=1):
    """Endpoint curve of the poles issuing tangentially from gamma.

    eta(t) = exp(gamma(t), sign * unit gamma'(t), ell); by construction
    (eta, gamma) then satisfies the tractor/tractrix conditions with the
    projected speed identically +1 when gamma is unit-speed. The poles
    take _INPUT_STEP, not a run's pole_step.
    """
    if sign not in (1, -1):
        raise ConfigError("sign must be +1 or -1")
    h = 1e-6

    def rows(ts):
        n = len(ts)
        pts, vel = gamma.rows(np.concatenate([ts, ts + h, ts - h]))
        ends = np.array([model.exp_point(p, sign * model.unit(p, v), ell,
                                         _INPUT_STEP)[0]
                         for p, v in zip(pts, vel)])
        return ends[:n], (ends[n:2 * n] - ends[2 * n:]) / (2.0 * h)

    # exp along the base's own tangent keeps geodesic bases on themselves
    # (parameter-shifted), so the flag carries over.
    return TractorCurve(rows=rows, t0=gamma.t0, t1=gamma.t1,
                        closed=gamma.closed, is_geodesic=gamma.is_geodesic,
                        breaks=gamma.breaks)


# ---------------------------------------------------------------------------
# Simulation parameters and trace


@dataclass(frozen=True)
class SimParams:
    """Settings of one run: dt, the step of the tractor parameter;
    pole_step, the step length of every geodesic shot of the run (a shot
    of length L takes `shot_steps(L, pole_step)` RK4 steps; the pole shots'
    O(pole_step^4) error sets the outputs' error, and the foot solve and
    the shortening rounds shoot alike, while the inputs' shots take
    _INPUT_STEP); cusp_speed_eps, the speed below which a record stalls;
    max_records, an integer cap. Defaults and checks are a config's sim
    section's (`config._SIM_FIELDS`), with the same ConfigError."""

    dt: float = _SIM_FIELDS["dt"][1]
    pole_step: float = _SIM_FIELDS["pole_step"][1]
    cusp_speed_eps: float = _SIM_FIELDS["cusp_speed_eps"][1]
    max_records: int = _SIM_FIELDS["max_records"][1]

    def __post_init__(self):
        normalize_sim(vars(self))


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
    pole_dir: np.ndarray  # unit pole direction at gamma, towards eta
    speed: np.ndarray  # signed projected speed <eta', T(ell)>_g at eta
    eta_speed: np.ndarray  # metric speed |eta'| of the tractor
    sigma: np.ndarray  # +1 pull / -1 push
    d: np.ndarray  # orthogonal distance to geodesic tractors, else NaN
    kappa: np.ndarray  # covariant finite-difference curvature, NaN masked
    # the Jacobi field J along the pole from gamma, J(0) = 0, J'(0) = 1
    jacobi_ell: np.ndarray  # J(ell), the length formula's factor
    jacobi_int: np.ndarray  # integral of J over [0, ell], the area's factor
    pole_conjugate: np.ndarray  # J vanishes on (0, ell]
    # the least and greatest K each pole's shot evaluated (K on space forms)
    pole_K_lo: np.ndarray
    pole_K_hi: np.ndarray
    max_drift: float  # largest record drift |pole length - ell|
    cusps: list[CuspRecord] = field(default_factory=list)
    stall_windows: list[tuple[int, int, float, bool]] = field(
        default_factory=list)
    pole_step: float = POLE_STEP  # the run's, which sizes every shot
    # the RK4 loop's state at each record, the pole direction X at eta
    # towards gamma, not normalized (surfaces; None on space forms)
    pole_state: np.ndarray | None = None

    def check_invariants(self):
        """Raise if a trace invariant is violated (the tests and the bench
        call it); the pole lengths are measured at the run's pole_step."""
        for i in range(len(self.t)):
            L = self.model.distance(self.gamma[i], self.eta[i],
                                    v_guess=self.pole_dir[i],
                                    L_guess=self.ell,
                                    pole_step=self.pole_step)
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


class Schedule(NamedTuple):
    """The sub-steps of a run (`_schedule`), as arrays over them: start ta,
    end tb, whether it opens a record, whether it takes its own k1, the
    time its k1 reads the tractor at, and whether its end is a kink."""

    ta: np.ndarray
    tb: np.ndarray
    opens: np.ndarray
    own_k1: np.ndarray
    k1_at: np.ndarray
    kinked: np.ndarray


def _require_pole(model, ell):
    """Reject a pole length the propagation cannot use: one that a config
    refuses, or one that reaches the model's conjugate scale."""
    _as_float(ell, "ell", positive=True)
    if model.conjugate_scale is not None and ell >= model.conjugate_scale:
        raise ConfigError(f"pole length ell = {ell!r} reaches the conjugate "
                          f"scale {model.conjugate_scale!r}")


def _require_geodesic(model, tractor, ell):
    """Reject a tractor flagged geodesic that leaves its initial geodesic.

    The closed-form foot distance trusts the flag, so on models that have
    one, the midpoint and the end of the tractor must lie on the geodesic
    through eta(t0) along eta'(t0). The three points must first pass the
    model's domain check (`check_rows`): off the chart the distance is not
    defined.
    """
    t0, t1 = tractor.t0, tractor.t1
    pts, vel = tractor.rows(np.array([t0, 0.5 * (t0 + t1), t1]))
    model.check_rows(pts)
    off = model.distance_to_geodesic(pts[0], vel[0], pts[1:])
    if off is not None and np.max(off) > 1e-9 * max(1.0, ell):
        raise ConfigError(
            f"tractor.geodesic: the tractor is flagged geodesic but lies "
            f"{np.max(off):.3e} off the geodesic through its start")


def simulate(model, tractor, gamma0, ell, params=None, pole=None):
    """Propagate the tractrix for `tractor` with a pole of length `ell`.

    The records sit at dt steps over the tractor's span, and the sub-steps
    of `_schedule` split the steps at the tractor's velocity breaks. On a
    space form the pole direction moves by one Moebius map per sub-step,
    and NumPy multiplies them out (`_propagate_monodromy`); its start is
    minus the direction of the log map from eta(t0) to gamma0, and
    coincident (or antipodal) points there are a PoleLengthDriftError
    naming t0. On a surface an RK4 loop steps the unit pole direction at
    the tractor by its Jacobi-field ODE, one geodesic shot per stage
    (`_propagate_rk4`), from the `connect` of `tractrix_start`, which
    starts along `pole` where it is given: the direction at eta(t0)
    towards gamma0 that `orthogonal_attachment` returns with it. A run
    whose pole shots together would take more RK4 steps than one shot may
    (`shot_steps`) is a ConfigError before the first stage. Either way a
    distance from eta(t0) to gamma0 more than _POLE_DRIFT_LIMIT off ell,
    or a record's, is a PoleLengthDriftError, and both paths fill the
    record columns of `TractrixTrace` before the post-passes (signs,
    cusps, foot distance, curvature). The pull or push character is
    emergent from the attachment geometry and recorded per record as
    sigma.
    """
    if params is None:
        params = SimParams()
    _require_pole(model, ell)
    if tractor.is_geodesic:
        _require_geodesic(model, tractor, ell)
    gamma0 = np.asarray(gamma0, dtype=float)
    if gamma0.shape != (model.dim,):
        raise ConfigError(f"gamma0: expected {model.dim} coordinates, got "
                          f"{gamma0.size}")
    model.check_point(gamma0)

    # a quotient within 1e-9 of a whole number is that number, so a span
    # cut into `steps` equal parts gives steps + 1 records whatever its
    # last bit
    quotient = tractor.span / params.dt
    n_steps = round(quotient)
    if abs(quotient - n_steps) > 1e-9 * quotient:
        n_steps = math.ceil(quotient)
    if n_steps + 1 > params.max_records:
        raise RecordOverflowError(
            f"{n_steps + 1} records exceed max_records {params.max_records}")
    t_grid = np.linspace(tractor.t0, tractor.t1, n_steps + 1)
    n_pole = shot_steps(ell, params.pole_step)
    sched = _schedule(t_grid, tractor.breaks)
    eta0 = tractor.point(tractor.t0)
    if model.K is None:
        # each of a sub-step's four stages shoots the pole
        shot_steps(4 * len(sched.ta) * ell, params.pole_step)
        propagate = _propagate_rk4
        state, L0 = model.tractrix_start(eta0, gamma0, ell, params.pole_step,
                                         pole)
    else:
        propagate = _propagate_monodromy
        model.check_point(eta0)
        try:
            v, L0 = model.log_map(eta0, gamma0)
        except ValueError as err:
            raise _pole_failure(t_grid, 0, err) from err
        state = (*model.spinor(eta0, -v), gamma0)
    if abs(L0 - ell) > _POLE_DRIFT_LIMIT:
        raise PoleLengthDriftError(
            f"initial attachment distance {L0!r} does not match ell {ell!r}")
    (eta_pts, gam, pole_dir, speeds, jac_ell, jac_int, conj, drifts,
     eta_speeds, K_lo, K_hi, states), s = propagate(
         model, tractor, sched, t_grid, state, ell, n_pole)
    n = len(t_grid)
    sigma = _fill_signs(speeds, params.cusp_speed_eps)
    trace = TractrixTrace(
        model=model, tractor=tractor, ell=float(ell), t=t_grid, s=s,
        gamma=gam, eta=eta_pts, pole_dir=pole_dir, speed=speeds,
        eta_speed=eta_speeds, sigma=sigma, d=np.full(n, np.nan),
        kappa=np.full(n, np.nan), jacobi_ell=jac_ell, jacobi_int=jac_int,
        pole_conjugate=conj, pole_K_lo=K_lo, pole_K_hi=K_hi,
        max_drift=max(0.0, *drifts.tolist()), pole_step=params.pole_step,
        pole_state=states)

    _detect_cusps(trace, params)
    if tractor.is_geodesic:
        _fill_orthogonal_distance(trace, params)
    _fill_curvature(trace, params)
    return trace


def _pole_failure(t_grid, record, err):
    """The PoleLengthDriftError of a pole solve that failed in the step
    from record `record`."""
    t = float(t_grid[record])
    return PoleLengthDriftError(
        f"the pole solve failed in the step from t={t!r}: {err}")


def _propagate_rk4(model, tractor, sched, t_grid, state, ell, n_pole):
    """(record columns, s) of a run on a surface by the RK4 loop over
    `state`, the unit pole direction at the tractor.

    The model supplies the rate (`tractrix_stage`). The loop walks the
    sub-steps flat, on Python floats: the tractor samples their stage
    times a block ahead, one `rows` call per _ROW_BLOCK times, and the
    points and velocities go to the model as lists, the rates and states
    coming back as tuples. Per sub-step it makes one `tractrix_step`
    call, which takes the first stage's rate and returns the next state
    and the arclength gained: the later RK4 stages and their sums. The
    stage times are, per sub-step, its start where it opens a record, its
    k1 time where it takes its own k1, and the nodes of the RK4 tableau
    (`rk4_substep`), the end just inside (a kink there gives its left
    limit), then the last record's. Each record is read off its own stage,
    which also gives the tractor speed |eta'|_g, |X|_g, a first integral,
    and J's samples along the pole, and keeps its state X; one Simpson
    pass (`simpson`) over the (records, n_pole + 1) array of J's samples
    gives every integral of J.
    """
    h = sched.tb - sched.ta
    nodes, sizes = rk4_substep(h)
    every = np.ones((len(nodes), len(h)), bool)
    stage_times = np.append(np.stack(
        [sched.ta, sched.k1_at, *(sched.ta + c * h if c < 1
                                  else sched.tb - 1e-9 * h for c in nodes)],
        axis=1)[np.stack([sched.opens, sched.own_k1, *every], axis=1)],
        t_grid[-1])
    steps = zip(*(x.tolist() for x in sizes), sched.opens.tolist(),
                sched.own_k1.tolist())
    blocks = (tractor.rows(stage_times[i:i + _ROW_BLOCK])
              for i in range(0, len(stage_times), _ROW_BLOCK))
    samples = itertools.chain.from_iterable(
        zip(pts.tolist(), vel.tolist()) for pts, vel in blocks)

    stage, step = model.tractrix_stage, model.tractrix_step
    records, s_list, s = [], [], 0.0

    def take_record(state, s):
        eta, etap = next(samples)
        rate, sdot, (*rec, size) = stage(eta, etap, state, ell, n_pole,
                                         record=True)
        for what, drift, limit in (
                ("pole direction drift", abs(size - 1.0), _POLE_NORM_LIMIT),
                ("pole drift", rec[6], _POLE_DRIFT_LIMIT)):
            if not drift <= limit:  # a NaN fails
                raise PoleLengthDriftError(
                    f"{what} {drift:.3e} exceeds {limit} at "
                    f"t={float(t_grid[len(records)])!r}")
        records.append((eta, *rec, state))
        s_list.append(s)
        return rate, sdot

    try:
        for *sizes, opens, own_k1 in steps:
            if opens:
                k1, q1 = take_record(state, s)
            if own_k1:
                k1, q1, _ = stage(*next(samples), state, ell, n_pole)
            state, ds = step(state, k1, q1, *[next(samples) for _ in nodes],
                             *sizes, ell, n_pole)
            s = s + ds
        take_record(state, s)
    except (ArithmeticError, ValueError) as err:
        # a stage's float arithmetic failed in the step from the last
        # record, or at the first record: a domain error, or a division by
        # a zero speed at gamma once the state's norm has overflowed
        raise _pole_failure(t_grid, max(len(records) - 1, 0), err) from err

    columns = [np.array(column) for column in zip(*records)]
    columns[5] = simpson(columns[5], np.linspace(0.0, ell, n_pole + 1))
    columns[6] = columns[6].astype(bool)
    return columns, np.array(s_list)


def _propagate_monodromy(model, tractor, sched, t_grid, state, ell,
                         n_pole):
    """(record columns, s) of a run on a space form.

    The pole direction X at the tractor is a spinor u (`generator_rows`)
    that moves by u' = A u, A traceless and linear in eta'; state is the
    unit spinor at eta(t0) and gamma0. Each sub-step of `_schedule` gets
    one map, exp of its sixth-order Magnus exponent from A at three Gauss
    nodes (`_magnus_map`), and a log-depth prefix product
    (`_prefix_products`) of the maps of up to _MONODROMY_BLOCK sub-steps
    applies them to the unit spinor that the block starts from, which the
    last one carries to the next block. Each record of the block reads
    gamma = exp_eta(-ell X), the pole direction at gamma and the signed
    speed <eta', X> at its time (`pole_rows`), its chart coordinates
    continuing from the record before, the first from gamma0's; a step
    split into more sub-steps than a block holds leaves blocks with no
    record, which pass the last gamma on. The arclength is Simpson's rule
    on |<eta', X>| over each sub-step: the start reads eta' where the
    sub-step takes its k1, the midpoint X comes from a half-step map, and
    the end reads eta' at the end itself, or just inside it where it is a
    break, which gives the left limit of a kink.

    Every map and product is computed with NumPy's floating-point warnings
    off, and the block is then checked (`_block_fault`): every tractor row
    and every gamma must pass the model's domain check (`row_faults`; on
    the sphere a gamma that crossed a chart pole since the record before
    fails it, `SphereModel._exp_rows`), a map must be finite and each
    record's drift |dist(eta, gamma) - ell|, which is rounding by
    construction, must stay within _POLE_DRIFT_LIMIT. The earliest
    failure in time is raised, the records before it having passed. The
    records keep no state column (None): the foot distance on a space form
    is in closed form.
    """
    u1, u2, start = state
    ta, opens = sched.ta, sched.opens
    h = sched.tb - ta
    end_at = np.where(sched.kinked, sched.tb - 1e-9 * h, sched.tb)
    n = len(ta)
    # the sub-step each record opens, the last record's being n
    at = np.append(np.flatnonzero(opens), n)
    ds, columns = np.empty(n), []
    for i in range(0, n, _MONODROMY_BLOCK):
        j = min(i + _MONODROMY_BLOCK, n)
        m, a, hb = j - i, ta[i:j], h[i:j]
        # the records of the block, the last one's with the last block
        r0, r1 = np.searchsorted(at, [i, j if j < n else n + 1])
        rec = at[r0:r1]
        # the Gauss nodes of each step and of its first half, node by node,
        # then where Simpson reads eta' (the start, the midpoint and the
        # end) and the records
        hh = np.append(hb, 0.5 * hb)
        times = np.concatenate([np.append(a, a) + c * hh for c in _GAUSS3]
                               + [sched.k1_at[i:j], a + 0.5 * hb,
                                  end_at[i:j], t_grid[r0:r1]])
        pts, vel = tractor.rows(times)
        with np.errstate(all="ignore"):
            A = model.generator_rows(pts[:6 * m], vel[:6 * m], ell)
            maps = _magnus_map(*([x[k:k + 2 * m] for x in A]
                                 for k in range(0, 6 * m, 2 * m)), hh)
            full = _prefix_products([x[:m] for x in maps])
            half = [x[m:] for x in maps]
            e1 = full[0] * u1 + full[1] * u2
            e2 = full[2] * u1 + full[3] * u2
            size = np.sqrt(e1.real ** 2 + e1.imag ** 2 + e2.real ** 2
                           + e2.imag ** 2)
            e1, e2 = e1 / size, e2 / size
            s1, s2 = np.append(u1, e1), np.append(u2, e2)
            q = np.abs(model.pole_speeds(
                pts[6 * m:9 * m], vel[6 * m:9 * m],
                np.concatenate([s1[:-1], half[0] * s1[:-1]
                                + half[1] * s2[:-1], e1]),
                np.concatenate([s2[:-1], half[2] * s1[:-1]
                                + half[3] * s2[:-1], e2]))).reshape(3, m)
            ds[i:j] = hb / 6.0 * (q[0] + 4.0 * q[1] + q[2])
            # a copy: a view would keep all of the block's rows alive
            eta = pts[9 * m:].copy()
            gamma, X, speed = model.pole_rows(eta, vel[9 * m:], s1[rec - i],
                                              s2[rec - i], ell, start)
            drift = np.abs(model.distance_rows(eta, gamma) - ell)
        _block_fault(model, t_grid, at, i, pts, rec, gamma, drift,
                     ~(np.isfinite(e1) & np.isfinite(e2)
                       & np.isfinite(ds[i:j])))
        columns.append((eta, gamma, X, speed, drift,
                        model.norm_rows(eta, vel[9 * m:])))
        u1, u2 = e1[-1], e2[-1]
        if len(rec):
            start = gamma[-1]
    eta, gamma, X, speed, drift, eta_speed = (np.concatenate(c)
                                              for c in zip(*columns))
    m = len(t_grid)
    J_ell, J_int, conj = _reference_pole(model.K, ell, n_pole)
    return ([eta, gamma, X, speed, np.full(m, J_ell), np.full(m, J_int),
             np.full(m, conj), drift, eta_speed, np.full(m, model.K),
             np.full(m, model.K), None],
            np.append(0.0, np.cumsum(ds))[at])


def _block_fault(model, t_grid, at, i, pts, rec, gamma, drift, broken):
    """Raise the earliest failure of a `_propagate_monodromy` block.

    Failures are ordered by the sub-step k they occur in, a record's (at
    the sub-steps `rec`: its tractor row or its gamma outside the domain,
    then a drift above _POLE_DRIFT_LIMIT) before one inside the step it
    opens (one of the step's tractor rows outside the domain, then a map
    that is not finite, `broken`). The tractor rows are the block's nine
    node groups of its m sub-steps, then the records.
    """
    m = len(broken)
    steps = pts[:9 * m].reshape(9, m, -1)
    # record k's faults at 2 (k - i), sub-step k's at 2 (k - i) + 1
    bad = np.zeros(2 * m + 2, dtype=bool)
    bad[1:2 * m:2] = model.row_faults(steps).any(axis=0) | broken
    bad[2 * (rec - i)] = (model.row_faults(pts[9 * m:])
                          | model.row_faults(gamma)
                          | ~(drift <= _POLE_DRIFT_LIMIT))
    if not bad.any():
        return
    k, inside = divmod(int(np.argmax(bad)), 2)
    t = float(t_grid[np.searchsorted(at, i + k, side="right") - 1])
    if inside:
        model.check_rows(steps[:, k])
        raise PoleLengthDriftError(
            f"the pole monodromy is not finite in the step from t={t!r}")
    r = int(np.searchsorted(rec, i + k))
    model.check_rows(pts[9 * m + r])
    model.check_rows(gamma[r])
    raise PoleLengthDriftError(f"pole drift {float(drift[r]):.3e} exceeds "
                               f"{_POLE_DRIFT_LIMIT} at t={t!r}")


def _bracket(x, y):
    """[x, y] of traceless 2x2 matrices [[a, b], [c, -a]], held as (a, b,
    c)."""
    (a, b, c), (p, q, r) = x, y
    return b * r - q * c, 2.0 * (a * q - p * b), 2.0 * (c * p - r * a)


def _magnus_map(A1, A2, A3, h):
    """(m11, m12, m21, m22): a multiple of exp(Omega) over steps h, Omega
    the sixth-order Magnus exponent of u' = A u from A at the steps' three
    Gauss nodes (`_GAUSS3`).

    A and Omega are traceless and held as (a, b, c) (`_bracket`). With
    a1 = h A(1/2), a2 = (sqrt(15) h / 3)(A3 - A1) and a3 = (10 h / 3)(A3 -
    2 A2 + A1), c1 = [a1, a2] and c2 = -[a1, 2 a3 + c1] / 60, Omega = a1 +
    a3 / 12 + [-20 a1 - a3 + c1, a2 + c2] / 240 (Blanes, Casas, Oteo and
    Ros, Phys. Rep. 470 (2009)). Omega^2 = mu^2 I with mu^2 = -det Omega,
    so exp(Omega) = cosh(mu) (I + (tanh(mu) / mu) Omega); the map is the
    bracket, whose entries stay bounded however large Omega is, and NaN
    where mu^2 overflows.
    """
    r15 = math.sqrt(15.0)
    a1 = [h * x for x in A2]
    a2 = [(r15 / 3.0) * h * (z - x) for x, z in zip(A1, A3)]
    a3 = [(10.0 / 3.0) * h * (z - 2.0 * y + x)
          for x, y, z in zip(A1, A2, A3)]
    c1 = _bracket(a1, a2)
    c2 = [x / -60.0 for x in _bracket(a1, [2.0 * x + y
                                           for x, y in zip(a3, c1)])]
    tail = _bracket([-20.0 * x - y + z for x, y, z in zip(a1, a3, c1)],
                    [x + y for x, y in zip(a2, c2)])
    a, b, c = (x + y / 12.0 + z / 240.0 for x, y, z in zip(a1, a3, tail))
    mu2 = a * a + b * c
    mu = np.sqrt(mu2)
    # where mu^2 overflows the map is undefined: NaN, not the identity
    tau = np.where(mu == 0.0, 1.0,
                   np.where(np.isinf(mu2), np.nan, np.tanh(mu) / mu))
    return 1.0 + tau * a, tau * b, tau * c, 1.0 - tau * a


def _prefix_products(maps):
    """The products M_k ... M_0 of 2x2 maps (m11, m12, m21, m22), k = 0, 1,
    ..., in log2(n) rounds of doubling spans, each product rescaled to a
    largest entry of 1."""
    P = np.stack(maps)
    span = 1
    while span < P.shape[1]:
        (a, b, c, d), (p, q, r, s) = P[:, span:], P[:, :-span]
        later = np.stack([a * p + b * r, a * q + b * s, c * p + d * r,
                          c * q + d * s])
        P[:, span:] = later / np.abs(later).max(axis=0)
        span *= 2
    return P


def _schedule(t_grid, breaks):
    """The sub-steps of a run (`Schedule`), built in NumPy.

    The records sit at t_grid. A break b splits the step from t to t_next
    where t + 1e-12 <= b < t_next - 1e-12; the others are dropped. A
    sub-step after the first of its step takes its own k1 at its start.
    So does a step whose record time t lies less than 1e-12 before a
    dropped break, at the break: the record there reads the segment that
    ends at the break, and the step integrates the one it opens. A
    sub-step ends at a kink where a break lies at its end or less than
    1e-12 before it.
    """
    breaks = np.asarray(breaks, dtype=float)
    breaks = breaks[(t_grid[0] < breaks) & (breaks < t_grid[-1])]
    after = np.searchsorted(t_grid, breaks, side="right") - 1
    late = (t_grid[after] < breaks) & (breaks < t_grid[after] + 1e-12)
    step = np.searchsorted(t_grid[:-1] + 1e-12, breaks, side="right") - 1
    kept = breaks < t_grid[step + 1] - 1e-12
    knots = np.insert(t_grid, step[kept] + 1, breaks[kept])
    opens = np.insert(np.ones(len(t_grid), bool), step[kept] + 1,
                      False)[:-1]
    ta, tb = knots[:-1], knots[1:]
    own_k1 = ta != t_grid[np.cumsum(opens) - 1]
    k1_at = ta.copy()
    first = np.flatnonzero(opens)[after[late]]
    own_k1[first], k1_at[first] = True, breaks[late]
    # the last break at or before each end
    last = np.append(-np.inf, breaks)[np.searchsorted(breaks, tb, "right")]
    return Schedule(ta, tb, opens, own_k1, k1_at, tb - last < 1e-12)


def _carry(values, keep):
    """values with each entry outside the mask `keep` replaced by the last
    kept entry before it; entries before the first kept one stay."""
    last = np.maximum.accumulate(np.where(keep, np.arange(len(values)), -1))
    return np.where(last >= 0, values[last], values)


def _fill_signs(speeds, eps):
    """sigma per record, +1 pull / -1 push: the sign of the speed, carried
    through the records slower than eps from the last faster one and
    through zeros from the last sign; the records before the first sign
    take it, and all pull if none has one."""
    sigma = _carry(np.sign(speeds).astype(np.int8), np.abs(speeds) >= eps)
    sigma = _carry(sigma, sigma != 0)
    signed = np.flatnonzero(sigma)
    if not signed.size:
        return np.ones(len(sigma), dtype=np.int8)
    sigma[:signed[0]] = sigma[signed[0]]
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
    gamma, pole_dir = trace.gamma, trace.pole_dir
    moved = model.parallel_transport(gamma[a:b], gamma[a + 1:b + 1],
                                     pole_dir[a:b])
    total = 0.0
    for p, w, x in zip(gamma[a + 1:b + 1], moved, pole_dir[a + 1:b + 1]):
        total += _angle_between(model, p, w, x)
    return total


def _stall_windows(speed, eps):
    """The [a, b] record windows of `_detect_cusps`, by their first record:
    each maximal run of records slower than eps, and each pair of adjacent
    faster records whose speeds change sign."""
    stalled = np.abs(speed) < eps
    edges = np.diff(stalled.astype(np.int8), prepend=0, append=0)
    fast = ~stalled
    flips = np.flatnonzero(fast[:-1] & fast[1:]
                           & (speed[:-1] * speed[1:] < 0))
    # the last record of the window each record starts, or -1
    last = np.full(len(speed), -1)
    last[edges[:-1] > 0] = np.flatnonzero(edges < 0) - 1
    last[flips] = flips + 1
    first = np.flatnonzero(last >= 0)
    return np.stack([first, last[first]], axis=1).tolist()


def _detect_cusps(trace, params):
    n = len(trace.t)
    # on Python lists: indexing NumPy scalars in the loop costs more
    sp, ts = trace.speed.tolist(), trace.t.tolist()
    for a, b in _stall_windows(trace.speed, params.cusp_speed_eps):
        lo, hi = max(a - 1, 0), min(b + 1, n - 1)
        flip = sp[lo] * sp[hi] < 0
        swing = _pole_swing(trace, lo, hi)
        turning = swing + (math.pi if flip else 0.0)
        trace.stall_windows.append((a, b, turning, flip))
        if not flip and swing < 0.01:
            # boundary grazing (e.g. a run starting exactly at a cusp):
            # the tiny swing is still accounted for via stall_windows
            continue
        t_c = 0.5 * (ts[a] + ts[b])
        for i in range(lo, hi):
            if sp[i] * sp[i + 1] < 0:
                t_c = ts[i] + (ts[i + 1] - ts[i]) * sp[i] / (
                    sp[i] - sp[i + 1])
                break
        s_c = np.interp(t_c, trace.t, trace.s)
        trace.cusps.append(CuspRecord(t=float(t_c), s=float(s_c),
                                      turning_angle=float(turning),
                                      sign_flip=bool(flip)))


# ---------------------------------------------------------------------------
# Derived per-record quantities


def _fill_curvature(trace, params):
    """Covariant finite-difference curvature, masked near stalls."""
    model = trace.model
    n = len(trace.t)
    masked = np.zeros(n, dtype=bool)
    for a, b, _, _ in trace.stall_windows:
        masked[max(a - 1, 0):min(b + 2, n)] = True
    masked |= np.abs(trace.speed) < params.cusp_speed_eps
    if trace.tractor.is_geodesic:
        masked |= np.abs(trace.d - trace.ell) < _CUSP_DIST_BAND

    # central differences at the unmasked interior records whose
    # neighbours are apart in s, both neighbours transported in one call
    # on stacked rows
    tangents = trace.sigma[:, None] * trace.pole_dir
    gamma, s = trace.gamma, trace.s
    i = np.flatnonzero(~masked[1:-1] & (s[2:] - s[:-2] >= 1e-10)) + 1
    sides = np.concatenate([i + 1, i - 1])
    w_plus, w_minus = np.split(model.parallel_transport(
        gamma[sides], gamma[np.tile(i, 2)], tangents[sides]), 2)
    dv = (w_plus - w_minus) / (s[i + 1] - s[i - 1])[:, None]
    trace.kappa[i] = model.norm_rows(gamma[i], dv)


def _fill_orthogonal_distance(trace, params):
    """Distance d from gamma to its projection foot on a geodesic tractor.

    Space forms measure it in closed form for all records at once, as the
    distance to the geodesic through eta(t0) along eta'(t0)
    (`distance_to_geodesic`); `simulate` has checked that the tractor
    stays on that geodesic.  Surfaces solve for the foot (`_foot_newton`)
    with shots at the run's pole_step.
    """
    pts, vel = trace.tractor.rows(np.array([trace.tractor.t0]))
    d = trace.model.distance_to_geodesic(pts[0], vel[0], trace.gamma)
    trace.d[:] = _foot_newton(trace, params.pole_step) if d is None else d


def _turn(model, points, w):
    """|w|_g and w turned by +pi/2 in the metric, J g w / sqrt(det g) with
    J the chart's +pi/2 turn (`quarter_turn`), at (n, 2) rows."""
    E, F, G = model.metric_rows(points)
    gw = np.stack([E * w[:, 0] + F * w[:, 1], F * w[:, 0] + G * w[:, 1]], 1)
    return (np.sqrt((w * gw).sum(axis=1)), np.stack([-gw[:, 1], gw[:, 0]], 1)
            / np.sqrt(E * G - F * F)[:, None])


def _fermi_shot(model, tractor, tau, d, pole_step):
    """F(tau, d) = exp_{eta(tau)}(d N(tau)) and its two Jacobian columns,
    for arrays tau and d, in one row shot (`shoot_rows`) at pole_step.

    N is the unit normal to eta'(tau), eta' turned by +pi/2. The d column
    is the end tangent of the shot. On a geodesic tractor N is parallel,
    so the tau column is the Jacobi field with J(0) = eta'(tau) and
    J'(0) = 0: |eta'(tau)| c(|d|) times the end normal, which stands to
    the d column as eta' stands to N, turned by -pi/2. Shots with d < 0
    run along -N. Returns (F, tau column, d column) as (n, 2) rows.
    """
    foot, vel = tractor.rows(tau)
    speed, normal = _turn(model, foot, vel)
    sign = np.where(d < 0.0, -1.0, 1.0)
    end, tangent, c, _ = model.shoot_rows(
        foot, (sign / speed)[:, None] * normal, np.abs(d), pole_step)
    d_col = sign[:, None] * tangent
    return end, (-speed * c)[:, None] * _turn(model, end, d_col)[1], d_col


def _foot_newton(trace, pole_step):
    """Foot distances |d| of every record on a 2-D model, by Newton, with
    shots at pole_step.

    (tau, d) are the Fermi coordinates of gamma relative to the tractor
    eta: gamma = F(tau, d) = exp_{eta(tau)}(d N(tau)), with N the unit
    normal to eta'(tau).  `damped_newton` solves F(tau, d) = gamma to
    1e-11 max(1, ell), a row per record, each evaluation one row shot
    (`_fermi_shot`) that gives both Jacobian columns.  A record at t
    starts from the right triangle of constant curvature K(eta(t)) with
    the pole as its hypotenuse (`triangle_legs`): phi is the angle from
    eta'(t) to the pole direction X at eta(t), the run's state, or on a
    space form the log map's, and the legs a along the tractor and d
    across give tau = t + a / |eta'|; exact on a space form, the K = 0
    triangle where the triangle is undefined.  F is regular at d = 0,
    where the shot has length 0 and end tangent N, so a tractrix lying on
    its tractor needs no special case and reads d = 0 exactly.
    """
    model, tractor, gamma = trace.model, trace.tractor, trace.gamma
    vel = tractor.rows(trace.t)[1]
    speed, normal = _turn(model, trace.eta, vel)
    X = trace.pole_state
    if X is None:  # a space form's run keeps no state: its log map's X
        X = model.log_rows(trace.eta, gamma)[0]
    # X = |X|_g (cos phi T + sin phi N) in the g-orthonormal T, N at eta
    along, across = cramer_step(np.stack([vel, normal], axis=2)
                                / speed[:, None, None], -X)[0].T
    size = np.hypot(along, across)
    a, d = np.array([triangle_legs(K, trace.ell, p / r, q / r) for K, p, q, r
                     in zip(model.curvature_rows(trace.eta).tolist(),
                            along.tolist(), across.tolist(),
                            size.tolist())]).T

    def evaluate(x, rows):
        end, tau_col, d_col = _fermi_shot(model, tractor, x[:, 0], x[:, 1],
                                          pole_step)
        return end - gamma[rows], np.stack([tau_col, d_col], axis=2)

    x = np.stack([trace.t + a / speed, d], axis=1)
    x = damped_newton((x, *evaluate(x, slice(None))), evaluate,
                      1e-11 * max(1.0, trace.ell),
                      lambda i: f"foot solve at record {i}")[0]
    return np.abs(x[:, 1])


# ---------------------------------------------------------------------------
# Attachment


def _attachment_map(model, tractor, ell, d0, side, mode):
    """(start, evaluate) of the residual F of `orthogonal_attachment`.

    gamma0(tau) = exp_{eta(tau)}(d0 N), N = side times the unit eta'(tau)
    turned by +pi/2. On a 2-D model x = (tau, theta) and F(x) = gamma0(tau)
    - exp_{eta(t0)}(ell u(theta)), u(theta) at angle theta in
    `frame_at(eta(t0))`. Its two shots (_INPUT_STEP) carry the columns as
    Jacobi fields: one with J(0) = a E, J'(0) = b E, E the shot's tangent
    turned by +pi/2, ends at (a c + b s) E.

    - theta: J(0) = 0 and J'(0) = du/dtheta = E(0) along the pole, so
      dF/dtheta = -s(ell) E(ell).
    - tau: J(0) = eta' and J'(0) = D_tau N along the offset shot. There
      E(0) = -side eta' / |eta'|, so a = -side |eta'|; D_tau N =
      kappa_g |eta'| E(0), so b = kappa_g |eta'| = <D eta', eta'
      turned> / |eta'|^2, with D eta' = eta'' + Gamma(eta', eta') and eta''
      a central difference over tau -+ h. The column only steers Newton,
      so that O(h^2) error costs no accuracy.

    The 3-D flat model offsets in closed form, gamma0 = eta + d0 N with N
    normal to eta' in the chart's (x, y) plane, that of `frame_at`; x =
    (tau,), F = |gamma0(tau) - eta(t0)| - ell, and dgamma0/dtau is a
    central difference.

    evaluate(x) returns (F, Jacobian, gamma0), and start() returns (x, F,
    Jacobian, gamma0) at the right triangle of constant curvature K at
    eta(t0), the model's K or the chart's there, with hypotenuse ell and
    the leg d0 across from its angle phi at eta(t0) (`triangle_at_leg`):
    sin phi = sn(d0) / sn(ell), and the other leg a, cn(a) = cn(ell) /
    cn(d0), lies along the tractor, behind or ahead as `mode` says. So tau
    = t0 -+ a / |eta'(t0)|, and the pole leaves eta(t0) at phi from
    -+eta'(t0), turned towards `side`. On a space form that is the
    solution; at K = 0, and where the triangle is undefined, tau is t0 -+
    sqrt(ell^2 - d0^2) / |eta'(t0)|.
    """
    t0 = tractor.t0
    eta0, vel0 = (x[0] for x in tractor.rows(np.array([float(t0)])))
    ahead = 1.0 if mode == "ahead" else -1.0
    a, cos_phi, sin_phi = triangle_at_leg(
        float(model.curvature_rows(eta0[None])[0]), ell, d0)
    tau = float(t0 + ahead * a / max(model.norm(eta0, vel0), 1e-6))
    h = 1e-6

    def offset(tau):
        """gamma0(tau) and dgamma0/dtau."""
        pts, vel = tractor.rows(np.array([tau, tau + h, tau - h]))
        if model.dim == 3:
            a = np.arctan2(vel[:, 1], vel[:, 0])
            ends = pts + (side * d0) * np.stack(
                [-np.sin(a), np.cos(a), np.zeros(3)], axis=1)
            return ends[0], (ends[1] - ends[2]) / (2.0 * h)
        foot, v = pts[0], vel[0]
        speed = model.norm(foot, v)
        turned = model.quarter_turn(foot, v)
        # Gamma^k_ij v^i v^j, written out
        gam = model.christoffel_at(foot)
        acc = (vel[1] - vel[2]) / (2.0 * h) + (
            (gam[:, :, 0] * v[0] + gam[:, :, 1] * v[1]) * v).sum(axis=1)
        bend = model.inner(foot, acc, turned) / (speed * speed)
        end, tangent, c, s = model.shoot(foot, (side / speed) * turned, d0,
                                         _INPUT_STEP)
        return end, ((bend * s - side * speed * c)
                     * model.quarter_turn(end, tangent))

    if model.dim == 3:
        def assemble(x, gamma0, column):
            r = gamma0 - eta0
            dist = math.sqrt(float(r @ r))
            return (np.array([dist - ell]),
                    np.array([[float(r @ column) / dist]]), gamma0)

        x0 = np.array([tau])
    else:
        frame = model.frame_at(eta0)
        x0 = np.array([tau, model.angle_of(eta0, vel0, frame) + math.atan2(
            side * sin_phi, ahead * cos_phi)])

        def assemble(x, gamma0, column):
            end, tangent, _, s = model.shoot(
                eta0, model.tangent_from_angle(eta0, x[1], frame), ell,
                _INPUT_STEP)
            return (gamma0 - end, np.column_stack(
                [column, -s * model.quarter_turn(end, tangent)]), gamma0)

    def evaluate(x):
        return assemble(x, *offset(x[0]))

    return lambda: (x0, *evaluate(x0)), evaluate


def orthogonal_attachment(model, tractor, ell, d0, side=1, mode="behind"):
    """Place gamma0 at orthogonal offset d0 from the tractor so that
    dist(gamma0, eta(t0)) = ell.

    Returns (gamma0, foot_parameter, pole), pole the unit direction at
    eta(t0) of the pole to gamma0 that the solve ends at, from which
    `simulate` starts its first pole solve on a surface (None on the 3-D
    flat model).  `side` picks the normal direction (+1 is the tangent
    turned by +pi/2, -1 the other way), `mode` decides whether the foot
    lies behind or ahead of the tractor start (pull or push attachment).

    One row of `damped_newton` on `_attachment_map`: on 2-D models for
    the foot parameter tau and the pole angle theta at eta(t0), two shots
    at _INPUT_STEP per evaluation; on the 3-D flat model for tau alone.
    (tau, theta) starts at the right triangle of constant curvature K at
    eta(t0) with hypotenuse ell and legs d0 and the tractor's, exact on a
    space form. A step that leaves the side of t0 that `mode` selects
    puts tau at the midpoint of tau and t0. The solve stops at |F| <
    1e-12 max(1, ell).
    """
    _require_pole(model, ell)
    normalize_attachment({"d0": d0, "side": side, "mode": mode}, ell)
    t0 = tractor.t0
    ahead = 1.0 if mode == "ahead" else -1.0
    start, evaluate = _attachment_map(model, tractor, ell, d0, side, mode)
    first = [row[None] for row in start()]
    tau = float(first[0][0, 0])

    def project(new, old):
        new[:, 0] = np.where(ahead * (new[:, 0] - t0) <= 0.0,
                             0.5 * (old[:, 0] + t0), new[:, 0])
        return new

    x, _, _, gamma0 = damped_newton(
        first, lambda x, _: [row[None] for row in evaluate(x[0])],
        1e-12 * max(1.0, ell),
        lambda _: f"attachment at d0 = {float(d0)!r} from tau = {tau!r}",
        project)
    pole = (model.tangent_from_angle(tractor.point(t0), x[0, 1])
            if model.dim == 2 else None)
    return gamma0[0], float(x[0, 0]), pole


# ---------------------------------------------------------------------------
# Named tractor catalog (used by scenario configs)


# the model a tractor kind needs, where it needs one: (model class, its
# dimension or None for any, what to say)
_MODEL_NEEDS = {
    "line": (FlatModel, None, "a flat model; use 'chart_line' on surfaces"),
    "circle": (FlatModel, None,
               "a flat model; use 'chart_circle' on surfaces"),
    "latitude": (SphereModel, None, "a sphere model"),
    "disk_ray": (HyperbolicModel, None, "a hyperbolic model"),
    **dict.fromkeys(("helix", "circle3d", "wiggly_circle"),
                    (FlatModel, 3, "flat dimension 3")),
}


def tractor_from_config(model, spec):
    """Build a TractorCurve from a scenario's tractor mapping.

    `config.normalize_tractor`, the tractor's pass at load, checks every
    field first (a no-op on its own output); this function then only
    builds, with the checks that need the model object: `_MODEL_NEEDS`,
    and a closed circle's whole number of turns."""
    spec = normalize_tractor(spec, model.dim)
    kind = spec["kind"]
    if kind == "polyline":
        return polyline_tractor(spec["points"], closed=spec["closed"],
                                is_geodesic=spec["geodesic"])
    if kind == "tractrix_of":
        base = tractor_from_config(model, spec["curve"])
        return tractor_from_tractrix(model, base, spec["ell"],
                                     int(spec["sign"]))
    t0, t1 = spec.get("t0"), spec.get("t1")
    closed = spec.get("closed", False)
    geodesic = spec.get("geodesic", kind == "disk_ray")
    cls, dim, need = _MODEL_NEEDS.get(kind, (object, None, ""))
    if not isinstance(model, cls) or dim not in (None, model.dim):
        raise ConfigError(f"tractor.kind: {kind!r} needs {need}")
    if kind in ("line", "chart_line"):
        start = np.array(spec["start"])
        direction = np.array(spec["direction"])
        direction = direction / float(np.linalg.norm(direction))

        def rows(ts):
            return (start + ts[:, None] * direction,
                    np.tile(direction, (len(ts), 1)))

    elif kind in ("circle", "chart_circle"):
        center, radius = np.array(spec["center"]), spec["radius"]
        # a flat circle takes the arclength parameter
        rate = 1.0 / radius if kind == "circle" else spec["rate"]
        if closed and abs(math.remainder((t1 - t0) * rate, math.tau)) > 1e-9:
            raise NotClosedError("circle span is not a whole number of turns")

        def rows(ts, c=center, R=radius, w=rate):
            cos, sin = np.cos(w * ts), np.sin(w * ts)
            return (c + R * np.stack([cos, sin], axis=1),
                    R * w * np.stack([-sin, cos], axis=1))

    elif kind == "latitude":
        th, phi0 = spec["colatitude"], spec["phi0"]
        rate = 1.0 / (model.radius * math.sin(th))  # arclength parameter

        def rows(ts, th=th, phi0=phi0, w=rate):
            return (np.stack([np.full_like(ts, th), phi0 + w * ts], axis=1),
                    np.tile((0.0, w), (len(ts), 1)))

    elif kind == "disk_ray":
        ang = spec["angle"]
        u = np.array([math.cos(ang), math.sin(ang)])

        def rows(ts, u=u, k=model.k):
            # far out cosh overflows, and the speed reads 0 at the rim
            # tanh has reached, where the domain check refuses the point
            with np.errstate(over="ignore"):
                c = np.cosh(0.5 * k * ts)
                return (np.tanh(0.5 * k * ts)[:, None] * u,
                        (0.5 * k / (c * c))[:, None] * u)

    elif kind == "helix":
        R, p = spec["radius"], spec["pitch"]
        w = 1.0 / math.hypot(R, p)  # arclength parameter

        def rows(ts, R=R, p=p, w=w):
            cos, sin = np.cos(w * ts), np.sin(w * ts)
            return (np.stack([R * cos, R * sin, p * w * ts], axis=1),
                    np.stack([-R * w * sin, R * w * cos,
                              np.full_like(ts, p * w)], axis=1))

    elif kind == "circle3d":
        R = spec["radius"]
        t0, t1, closed = 0.0, math.tau * R, True

        def rows(ts, R=R):
            cos, sin, zero = np.cos(ts / R), np.sin(ts / R), np.zeros_like(ts)
            return (np.stack([R * cos, R * sin, zero], axis=1),
                    np.stack([-sin, cos, zero], axis=1))

    else:  # wiggly_circle
        R, A, m = spec["radius"], spec["amplitude"], spec["lobes"]
        t0, t1, closed = 0.0, math.tau, True

        def rows(ts, R=R, A=A, m=m):
            cos, sin = np.cos(ts), np.sin(ts)
            return (np.stack([R * cos, R * sin, A * np.sin(m * ts)], axis=1),
                    np.stack([-R * sin, R * cos, A * m * np.cos(m * ts)],
                             axis=1))

    return TractorCurve(rows=rows, t0=t0, t1=t1, closed=closed,
                        is_geodesic=geodesic)
