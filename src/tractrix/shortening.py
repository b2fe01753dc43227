"""Repeated tractor/tractrix processes that shorten curves to geodesics.

Each round replaces the current curve by a pole geodesic spliced onto the
tractrix that the curve drags behind it; the recorded iterate is the
spliced curve, whose length drops by the tractor/tractrix length gap until
the curve is a geodesic. Both processes run the same rounds (`_shorten`)
and differ only in how a round's tractrix becomes the next drag curve and
wagon. Fixed-endpoint runs reverse it and pull from the tractor's far end,
so the pulled end alternates between the two endpoints; free-loop runs
keep orientation and track the homotopy class as a constant winding
vector on an unfolded periodic chart.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import _KNOB_FIELDS
from .errors import (
    ConfigError,
    NotClosedError,
    OutOfDomainError,
    PoleTooLongError,
    SingularChartError,
)
from .functionals import polyline_length
from .manifold import POLE_STEP, FlatModel, space_form
from .tractrix_sim import SimParams, polyline_tractor, simulate

_TARGET_KNOTS = 200
# the defaults of the shorten section's knobs
_TOL, _MAX_ITER, _STEPS = (_KNOB_FIELDS["shorten"][key][1]
                           for key in ("tol", "max_iter", "steps_per_round"))
_POLE_SAMPLES = 16
_ENDPOINT_TOL = 1e-6


@dataclass(frozen=True)
class Iterate:
    """One spliced curve of the process: pole geodesic plus tractor."""

    points: np.ndarray
    length: float
    residual: float


@dataclass(frozen=True)
class ShorteningRun:
    mode: str
    ell: float
    initial_curve: np.ndarray
    iterates: tuple
    stop_reason: str
    P: np.ndarray | None = None
    Q: np.ndarray | None = None
    winding: np.ndarray | None = None

    @property
    def lengths(self):
        return np.array([it.length for it in self.iterates])

    @property
    def residuals(self):
        return np.array([it.residual for it in self.iterates])

    @property
    def final(self):
        return self.iterates[-1]


# ---------------------------------------------------------------------------
# Discrete geodesic residual


def geodesic_residual(model, points, closed=False):
    """Max discrete covariant acceleration over interior vertices.

    The polyline is treated as unit-speed, so the residual is in curvature
    units and vanishes on sampled geodesics. Consecutive vertices less
    than 1e-12 apart are first collapsed into one (`_collapse`), so a
    repeated vertex neither hides the corner behind it nor divides by a
    zero edge. `closed` prepends the neighbor before the seam, shifted by
    the winding displacement D = end - start, so a lifted periodic loop
    measures each of its vertices once, the seam included. The model
    measures every edge and every vertex in one NumPy pass each
    (`edge_lengths`, `acceleration_norms`): on a space form from the
    closed-form distances and log maps, which keep their digits at any
    separation, on a surface from midpoint chords and the Christoffel
    symbols at the vertices.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or len(pts) < 3:
        raise ValueError("need a (m >= 3, dim) polyline")
    pts = _collapse(pts)
    if closed and len(pts) >= 2:
        D = pts[-1] - pts[0]
        pts = np.vstack([pts[-2] - D, pts])
    if len(pts) < 3:
        return 0.0
    norms = model.acceleration_norms(pts, model.edge_lengths(pts))
    return max([0.0] + norms.tolist())


# ---------------------------------------------------------------------------
# Round plumbing


def _downsample(pts, target=_TARGET_KNOTS):
    m = len(pts)
    if m > target:
        # the grid's spacing (m - 1)/(target - 1) exceeds 1, so the
        # rounded indices already increase strictly
        pts = pts[np.round(np.linspace(0, m - 1, target)).astype(int)]
    return _collapse(pts)


def _collapse(pts):
    """pts with consecutive vertices less than 1e-12 apart (chart norm)
    merged into one; the first and the last vertex stay."""
    gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    keep = np.concatenate([[True], gaps > 1e-12])
    keep[-1] = True
    out = pts[keep]
    if len(out) >= 2 and np.linalg.norm(out[-1] - out[-2]) <= 1e-12:
        out = np.vstack([out[:-2], out[-1:]])
    return out


def _geodesic_points(model, a, b, pole_step, samples=_POLE_SAMPLES):
    v, L, _ = model.connect(a, b, pole_step=pole_step)
    return np.array([model.exp_point(a, v, u, pole_step)[0]
                     for u in np.linspace(0.0, L, samples + 1)])


def _arclength_point(model, pts, target):
    """Chart point at metric arclength `target`, with its vertex cut."""
    h = model.edge_lengths(pts)
    # the arclength at each edge's end, summed left to right
    ends = np.cumsum(h)
    i = int(np.searchsorted(ends, target - 1e-12))
    if i == len(h):
        return pts[-1].copy(), len(pts) - 2
    before = ends[i - 1] if i else 0.0
    f = 0.0 if h[i] < 1e-12 else (target - before) / h[i]
    return pts[i] + min(max(f, 0.0), 1.0) * (pts[i + 1] - pts[i]), i


def _splice_head(model, wagon, pts, ell, pole_step, reach=None):
    """Replace the head arc of `pts` by a pole-aligned endpoint.

    The pole is shot from the wagon toward the curve point x at arclength
    `reach` (default ell), so the tractor [p1, x, tail] starts at distance
    ell from the wagon exactly and stays near the prior curve. Applied
    every round: replacing the head absorbs the backtracking that push
    phases leave near the pulled end, which would otherwise persist under
    reversal. The replaced arc is at least as long as the new chord, so
    iterate lengths stay monotone for any reach.
    """
    x, cut = _arclength_point(model, pts, ell if reach is None else reach)
    v, _, _ = model.connect(wagon, x, pole_step=pole_step)
    p1 = model.exp_point(wagon, v, ell, pole_step)[0]
    eta = _downsample(np.vstack([p1[None, :], x[None, :], pts[cut + 1:]]))
    if len(eta) < 2:
        raise PoleTooLongError(
            "pole consumes the whole curve; nothing left to pull")
    return eta


def _run_round(model, eta_pts, wagon, ell, steps, pole_step):
    tractor = polyline_tractor(eta_pts)
    params = SimParams(dt=tractor.span / steps, pole_step=pole_step)
    return simulate(model, tractor, wagon, ell, params)


def _record(model, wagon, eta_pts, ell, pole_step, closed):
    pole = _geodesic_points(model, wagon, eta_pts[0], pole_step)
    curve = np.vstack([pole[:-1], eta_pts])
    length = ell + polyline_length(model, eta_pts)
    return Iterate(points=curve, length=float(length),
                   residual=geodesic_residual(model, curve, closed=closed))


def _shorten(model, pts, wagon, ell, tol, max_iter, steps, pole_step, closed,
             advance):
    """(iterates, stop reason) of the rounds that shorten the curve pts.

    A curve whose residual is already below tol is its own single iterate.
    Otherwise each round splices the pole from the wagon onto the drag
    curve, records the spliced curve, and stops on a small residual, a
    length plateau or a pole that consumes the curve. Then the spliced
    curve is pulled for one round, and advance(tractrix points, tractor
    points) gives the next drag curve and wagon.
    """
    if len(pts) >= 3:
        res0 = geodesic_residual(model, pts, closed=closed)
        if res0 < tol:
            return (Iterate(points=pts, length=polyline_length(model, pts),
                            residual=res0),), "residual"
    drag = pts
    reach = ell
    iterates = []
    prev_len = math.inf
    for _ in range(max_iter):
        try:
            eta_pts = _splice_head(model, wagon, drag, ell, pole_step,
                                   reach=reach)
        except PoleTooLongError:
            return tuple(iterates), "pole_exhausted"
        it = _record(model, wagon, eta_pts, ell, pole_step, closed=closed)
        iterates.append(it)
        if it.residual < tol:
            return tuple(iterates), "residual"
        if prev_len - it.length < tol:
            return tuple(iterates), "length_plateau"
        prev_len = it.length
        trace = _run_round(model, eta_pts, wagon, ell, steps, pole_step)
        drag, wagon = advance(trace.gamma, eta_pts)
        reach = 2.0 * ell
    return tuple(iterates), "max_iterations"


# ---------------------------------------------------------------------------
# Fixed-endpoint process


def self_repeated(model, P, Q, initial, ell, tol=_TOL, max_iter=_MAX_ITER,
                  steps_per_round=_STEPS, pole_step=POLE_STEP):
    """Shorten a curve between fixed P and Q toward a geodesic.

    Each round pulls the wagon from one endpoint while the current curve,
    reversed, acts as tractor; the produced tractrix (reversed again)
    becomes the next tractor and the pulled end alternates. Stops when the
    residual or the per-round length decrease falls below tol. pole_step
    sizes every geodesic shot, as `SimParams.pole_step` does in a run.
    """
    if isinstance(model, FlatModel) and model.periods is not None:
        raise ConfigError(
            "fixed-endpoint shortening on periodic identifications is not "
            "supported; use loop_repeated for free classes")
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    for key, end in (("P", P), ("Q", Q)):
        if end.shape != (model.dim,):
            raise ConfigError(f"shorten.{key}: expected {model.dim} "
                              f"coordinates, got {end.size}")
    pts = np.asarray(initial, dtype=float)
    if pts.ndim != 2 or len(pts) < 2 or pts.shape[1] != model.dim:
        raise ConfigError("initial curve must be a (m >= 2, dim) polyline")
    for field, points in (("P", P), ("Q", Q), ("initial", pts)):
        try:
            model.check_rows(points)
        except (OutOfDomainError, SingularChartError) as err:
            raise ConfigError(f"shorten.{field}: {err}") from None
    if (np.linalg.norm(pts[0] - P) > _ENDPOINT_TOL
            or np.linalg.norm(pts[-1] - Q) > _ENDPOINT_TOL):
        raise ConfigError("initial curve must connect P to Q")
    pts = np.vstack([P[None, :], pts[1:-1], Q[None, :]])
    dPQ = model.distance(P, Q)
    if dPQ < ell:
        raise PoleTooLongError(
            f"dist(P, Q) = {dPQ!r} is below the pole length {ell!r}")

    # the tractrix, reversed, is the next drag curve, and the far end of
    # the tractor the next wagon: the pulled end alternates
    iterates, stop = _shorten(
        model, pts, P, ell, tol, max_iter, steps_per_round, pole_step, False,
        lambda gamma, eta_pts: (_downsample(gamma)[::-1], eta_pts[-1]))
    return ShorteningRun(mode="self_repeated", ell=float(ell),
                         initial_curve=pts, iterates=iterates,
                         stop_reason=stop, P=P, Q=Q)


# ---------------------------------------------------------------------------
# Free-loop process


def loop_repeated(model, loop, ell, tol=_TOL, max_iter=_MAX_ITER,
                  steps_per_round=_STEPS):
    """Shorten a closed loop toward the geodesic of its free class.

    Supported on flat models with periodic identifications: the loop is
    given as a lift whose endpoint difference is the winding vector, the
    whole process runs in the universal cover, and the winding stays
    constant by construction. Orientation is kept round to round.
    """
    if not isinstance(model, FlatModel) or model.periods is None:
        raise ConfigError(
            "loop shortening needs a flat model with periodic "
            "identifications")
    periods = model.periods
    pts = np.asarray(loop, dtype=float)
    if pts.ndim != 2 or len(pts) < 2 or pts.shape[1] != 2:
        raise ConfigError("loop must be a (m >= 2, 2) polyline lift")
    W = np.empty(2)
    for axis, p in enumerate(periods):
        w = pts[-1, axis] - pts[0, axis]
        if p is None:
            if abs(w) > _ENDPOINT_TOL:
                raise NotClosedError(
                    f"lift endpoint offset {w!r} on a non-periodic axis")
            W[axis] = 0.0
        else:
            k = round(w / p)
            if abs(w - k * p) > _ENDPOINT_TOL:
                raise NotClosedError(
                    f"lift endpoint offset {w!r} is not a multiple of the "
                    f"period {p!r}")
            W[axis] = k * p
    if not np.any(W):
        raise ConfigError(
            "loop is contractible; free-class shortening needs nonzero "
            "winding")
    inj = min(p for p in periods if p is not None) / 2.0
    if ell >= inj:
        raise PoleTooLongError(
            f"pole length {ell!r} reaches the injectivity bound {inj!r}")
    pts = pts.copy()
    pts[-1] = pts[0] + W

    def advance(gamma, _):
        # orientation is kept; the wagon is the end minus the winding
        drag = _downsample(gamma)
        return drag, drag[-1] - W

    iterates, stop = _shorten(space_form(0.0, dim=2), pts, pts[0].copy(),
                              ell, tol, max_iter, steps_per_round, POLE_STEP,
                              True, advance)
    return ShorteningRun(mode="loop_repeated", ell=float(ell),
                         initial_curve=pts, iterates=iterates,
                         stop_reason=stop, winding=W)
