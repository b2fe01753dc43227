"""Integral functionals over a simulated trace.

Length of the driving curve, swept pole area, total turning of the
tractrix, the Jensen lower bound on the length gap, and log-linear
leading-exponent fits of decaying series.

All quadratures run in the tractor parameter on the uniform record grid.
Where the measured curvature is masked (cusp windows, trace endpoints,
pole-aligned records) the integrands fall back to the projected-speed
identity, which stays exact through stalls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingJacobiError, NonPositiveSampleError
from .quadrature import simpson

_R2_GATE = 0.999
_FIT_MIN_SAMPLES = 20


def _require_jacobi(trace):
    if trace.jacobi_ell is None or np.any(np.isnan(trace.jacobi_ell)):
        raise MissingJacobiError("trace lacks Jacobi values at the pole end")


def polyline_length(model, points, closed=False):
    """Metric length of a sampled curve.

    Sums the model's edge lengths, from one `edge_lengths` call, left to
    right: the exact pairwise distance on space forms, midpoint metric
    chords on surfaces (second-order in the sample spacing).
    """
    pts = np.asarray(points, dtype=float)
    if closed:
        pts = np.vstack([pts, pts[0]])
    return float(sum(model.edge_lengths(pts).tolist()))


def tractor_length(trace):
    """Length of the driving curve from tractrix data.

    Integrates sqrt(1 + kappa^2 J_s(ell)^2) ds using the measured
    curvature on regular records; on masked records the projected-speed
    identity reduces the integrand to the tractor speed itself.
    """
    _require_jacobi(trace)
    if len(trace.t) < 2:
        raise MissingJacobiError("trace needs at least two records")
    sdot = np.abs(trace.speed)
    integrand = np.where(
        np.isnan(trace.kappa),
        trace.eta_speed,
        sdot * np.sqrt(1.0 + np.nan_to_num(trace.kappa) ** 2
                       * trace.jacobi_ell ** 2))
    return simpson(integrand, trace.t)


def sweep_area(trace):
    """Area swept by the pole, multiple coverings counted.

    The (s, u) sweep Jacobian integrates to kappa(s) ∫ J_s(u) du per unit
    tractrix arclength; kappa * ds is taken from the speed identity on
    masked records, which keeps stalled arcs (pure pole rotation) exact.
    """
    _require_jacobi(trace)
    swing_rate = np.sqrt(np.maximum(trace.eta_speed ** 2 - trace.speed ** 2,
                                    0.0))
    kappa_ds = np.where(np.isnan(trace.kappa),
                        swing_rate / trace.jacobi_ell,
                        np.nan_to_num(trace.kappa) * np.abs(trace.speed))
    return simpson(kappa_ds * trace.jacobi_int, trace.t)


def total_curvature(trace):
    """Total turning: ∫ kappa ds over regular runs plus cusp angles.

    Runs adjacent to a masked record get an open end panel (rectangle at
    the first regular record) so the masked seam is still covered; the
    pole swing inside every stall window enters through the recorded
    window turnings.
    """
    kappa = trace.kappa
    sdot = np.abs(trace.speed)
    t = trace.t
    valid = ~np.isnan(kappa)
    total = 0.0
    i = 0
    n = len(t)
    while i < n:
        if not valid[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and valid[j + 1]:
            j += 1
        if j > i:
            total += simpson(kappa[i:j + 1] * sdot[i:j + 1], t[i:j + 1])
        if i > 0:
            total += kappa[i] * sdot[i] * (t[i] - t[i - 1])
        if j < n - 1:
            total += kappa[j] * sdot[j] * (t[j + 1] - t[j])
        i = j + 1
    for _, _, turning, _ in trace.stall_windows:
        total += turning
    return float(total)


def length_gap_bound(L_gamma, kappa_samples, jacobi_at_ell, s=None):
    """Jensen lower bound L_gamma * (sqrt(1 + mean(kappa J)^2) - 1).

    The mean is ds-weighted when `s` is given, plain otherwise; masked
    samples are dropped, which can only lower the bound.
    """
    kappa = np.asarray(kappa_samples, dtype=float)
    jac = np.broadcast_to(np.asarray(jacobi_at_ell, dtype=float),
                          kappa.shape)
    g = kappa * jac
    keep = ~np.isnan(g)
    if not np.any(keep) or L_gamma <= 0.0:
        return 0.0
    if s is None:
        mean = float(np.mean(g[keep]))
    else:
        s = np.asarray(s, dtype=float)[keep]
        if s[-1] <= s[0]:
            return 0.0
        mean = float(np.trapezoid(g[keep], s) / (s[-1] - s[0]))
    return float(L_gamma * (math.sqrt(1.0 + mean * mean) - 1.0))


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares slope of ln f versus s over the tail window."""

    slope: float
    intercept: float
    r2: float
    window: tuple
    n_samples: int

    @property
    def low_confidence(self):
        return self.r2 < _R2_GATE

    def __float__(self):
        return self.slope


def leading_exponent_estimate(s, values):
    """Fit the decay exponent of a positive series over its tail.

    The window is the last half of the s-range, widened to the last 20
    samples when the half-range holds fewer.
    """
    s = np.asarray(s, dtype=float)
    values = np.asarray(values, dtype=float)
    if s.shape != values.shape or s.ndim != 1 or len(s) < 2:
        raise NonPositiveSampleError("series needs matching 1-d s, f arrays")
    cut = s[0] + 0.5 * (s[-1] - s[0])
    idx = np.nonzero(s >= cut)[0]
    if len(idx) < _FIT_MIN_SAMPLES:
        idx = np.arange(max(0, len(s) - _FIT_MIN_SAMPLES), len(s))
    sw, fw = s[idx], values[idx]
    if np.any(fw <= 0.0) or np.any(~np.isfinite(fw)):
        raise NonPositiveSampleError(
            "fit window contains non-positive or non-finite samples")
    logf = np.log(fw)
    slope, intercept = np.polyfit(sw, logf, 1)
    fit = slope * sw + intercept
    ss_res = float(np.sum((logf - fit) ** 2))
    ss_tot = float(np.sum((logf - np.mean(logf)) ** 2))
    if ss_tot < 1e-28:
        # constant series: a zero slope is a perfect fit
        r2 = 1.0 if ss_res < 1e-20 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return ExponentFit(slope=float(slope), intercept=float(intercept),
                       r2=r2, window=(float(sw[0]), float(sw[-1])),
                       n_samples=len(sw))


@dataclass(frozen=True)
class SweepResult:
    """Functional summary of one trace."""

    L_gamma: float
    L_eta: float
    K_total: float
    area: float
    ell: float
    jacobi_at_ell: np.ndarray
    gap_bound: float


def sweep_result(trace):
    """Evaluate all trace functionals at once."""
    L_gamma = float(trace.s[-1] - trace.s[0])
    L_eta = tractor_length(trace)
    K_total = total_curvature(trace)
    area = sweep_area(trace)
    bound = length_gap_bound(L_gamma, trace.kappa, trace.jacobi_ell,
                             s=trace.s)
    return SweepResult(L_gamma=L_gamma, L_eta=L_eta, K_total=K_total,
                       area=area, ell=trace.ell,
                       jacobi_at_ell=trace.jacobi_ell.copy(),
                       gap_bound=bound)
