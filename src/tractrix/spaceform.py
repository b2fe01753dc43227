"""Closed-form tractrix solutions on constant-curvature space forms.

For a geodesic tractor with pole length ell on the space form of curvature
K, the orthogonal distance d(s) and the tractrix geodesic curvature
kappa(s) have explicit exponential profiles. Every one is written once,
for every K, in the generalized cosine and sine cn, sn of K and their
inverse asn (`manifold._jacobi_pair`, `manifold._asn`). The rate
is E = cn(ell) / sn(ell) and the leading exponent of every decaying
quantity is -E. With C = sn(d0) / sn(ell) and x(s) = C e^(-E s),

    d(s) = asn(sn(ell) x(s)),    kappa(s) = x / (sn(ell) sqrt(1 - x^2)),

and kappa from a distance d is the same with x = sn(d) / sn(ell). The sign
of cn(ell) sets the mode: cn(ell) < 0 is the long pole, whose d grows to
the cusp x = 1 ahead, at s_hi = log(C) / E; 0 <= cn(ell) <= _PARALLEL_EPS
is the parallel circle, E = 0 and x = C, so d and kappa stay constant;
any other value decays, from the cusp d = ell behind, at s_lo = log(C) / E.

All evaluators accept scalars or numpy arrays for s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolationError
from .manifold import _asn, _jacobi_pair

__all__ = [
    "SpaceFormSolution",
    "solve_from_d0",
    "dist_at",
    "kappa_at",
    "kappa_from_dist",
    "leading_exponent",
]

_PARALLEL_EPS = 1e-12
# how far a value may pass its bound, as a share of the bound's size: the
# rounding of the two, the same at every scale
_PAST_TOL = 1e-12


@dataclass
class SpaceFormSolution:
    """Closed-form pulled-tractrix profile for one (K, ell, d0)."""

    K: float
    ell: float
    d0: float
    rate: float          # E = cn(ell) / sn(ell), 0 on the parallel circle
    C_kappa: float       # C = sn(d0) / sn(ell), x(0) of both profiles
    kappa0: float        # kappa(0); inf marks the classical (d0 = ell) limit
    s_lo: float          # cusp behind the start (d -> ell), -inf if none
    s_hi: float          # cusp ahead (long-pole mode), +inf if none
    long_pole: bool = False
    parallel_circle: bool = False


def _pole(K, ell):
    """(cn(ell), sn(ell)) of a pole the profiles accept: ell positive,
    k*ell below pi, and sn(ell) and the rate cn(ell) / sn(ell) floats."""
    if not ell > 0:
        raise DomainViolationError("pole length must be positive")
    if K > 0 and math.sqrt(K) * ell >= math.pi:
        raise DomainViolationError(
            f"k*ell = {math.sqrt(K) * ell!r} must stay below pi")
    try:
        cn, sn = _jacobi_pair(K, ell)
    except OverflowError:
        cn, sn = 1.0, math.inf
    if not (0.0 < sn < math.inf and math.isfinite(cn / sn)):
        raise DomainViolationError(
            f"sn(ell) of K = {K!r} and ell = {ell!r} leaves the float range")
    return cn, sn


def _past(x, bound):
    """Whether x is above bound by more than _PAST_TOL of |bound|, on
    scalars or arrays; an infinite bound is never passed."""
    return x > bound + _PAST_TOL * abs(bound)


def _kappa(sn_ell, x):
    """kappa = x / (sn(ell) sqrt(1 - x^2)); inf at and past the cusp
    x = 1."""
    rad = 1.0 - x * x
    with np.errstate(divide="ignore", invalid="ignore"):
        out = x / (sn_ell * np.sqrt(np.maximum(rad, 0.0)))
    return np.where(rad <= 0, np.inf, out)


def _cusp_distance(K, ell, cn):
    """The d of the cusp, where sn(d) = sn(ell) on sn's rising branch:
    ell, or on a long pole (cn(ell) < 0) its mirror image in sn's first
    maximum, where cn = 0."""
    return 2.0 * float(_asn(K, 1.0, 0.0)) - ell if cn < 0 else ell


def leading_exponent(K, ell):
    """Le = lim (1/s) ln f(s) for the decaying profiles; monotone in K."""
    cn, sn = _pole(K, ell)
    return -cn / sn


def kappa_from_dist(K, ell, d):
    """Tractrix curvature from its tractor distance (same K and ell)."""
    cn, S = _pole(K, ell)
    d = np.asarray(d, dtype=float)
    scalar = d.ndim == 0
    d = np.atleast_1d(d)
    if np.any(d < 0):
        raise DomainViolationError("distance must be nonnegative")
    lim = _cusp_distance(K, ell, cn)
    if np.any(_past(d, lim)):
        raise DomainViolationError(f"distance beyond the cusp bound {lim!r}")
    out = _kappa(S, _jacobi_pair(K, d)[1] / S)
    return float(out[0]) if scalar else out


def solve_from_d0(K, ell, d0):
    """Fix integration constants from d(0) = d0; returns SpaceFormSolution.

    The mode follows from K and ell. For K > 0 with k*ell > pi/2 the pole
    is long: the profile grows toward a cusp at d = pi/k - ell, reached at
    s_hi, and d0 must stay below that distance; k*ell must stay below pi.
    Otherwise d0 <= ell, the profile decays, and k*ell = pi/2 gives the
    parallel circle, d and kappa constant. d0 = ell is the classical limit
    and sets kappa(0) = inf. `long_pole` on the result records the mode.
    """
    cn, S = _pole(K, ell)
    if not d0 > 0:
        raise DomainViolationError("initial distance must be positive")
    long_pole = cn < 0
    d_cusp = _cusp_distance(K, ell, cn)
    if long_pole and d0 >= d_cusp:
        raise DomainViolationError(
            f"d0 = {d0!r} must stay below the cusp distance {d_cusp!r}")
    if _past(d0, ell):
        raise DomainViolationError("d0 exceeds the pole length")
    # a d0 past ell within the tolerance starts on the cusp, x = 1
    C = min(_jacobi_pair(K, d0)[1] / S, 1.0)
    if not C >= np.finfo(float).tiny:
        raise DomainViolationError(
            f"sn(d0) / sn(ell) of d0 = {d0!r} underflows a float")
    parallel = not long_pole and cn <= _PARALLEL_EPS
    E = 0.0 if parallel else cn / S
    cusp = math.log(C) / E if E else -math.inf
    return SpaceFormSolution(
        K=float(K), ell=float(ell), d0=float(d0), rate=E, C_kappa=C,
        kappa0=float(_kappa(S, C)),
        s_lo=-math.inf if long_pole else cusp,
        s_hi=cusp if long_pole else math.inf,
        long_pole=bool(long_pole), parallel_circle=bool(parallel))


def _profile_x(sol, s):
    """(x(s), scalar flag) on the validity window: x = C e^(-E s)."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    if np.any(_past(-s, -sol.s_lo)) or np.any(_past(s, sol.s_hi)):
        raise DomainViolationError(
            f"s outside validity interval [{sol.s_lo!r}, {sol.s_hi!r}]")
    # an exponent past a float is a decay to x = 0
    with np.errstate(over="ignore"):
        return sol.C_kappa * np.exp(-sol.rate * s), scalar


def dist_at(sol, s):
    """Orthogonal tractor distance d(s) of the closed-form solution, read
    off sn(d) = sn(ell) x and cn(d) = sqrt(cn(ell)^2 x^2 + (1 - x)(1 + x))
    (a hypot), so that it keeps its digits at the cusp x = 1 of a
    near-parallel long pole, next to sn's maximum."""
    x, scalar = _profile_x(sol, s)
    x = np.minimum(x, 1.0)
    cn, sn = _jacobi_pair(sol.K, sol.ell)
    out = _asn(sol.K, sn * x,
               np.hypot(cn * x, np.sqrt((1.0 - x) * (1.0 + x))))
    return float(out[0]) if scalar else out


def kappa_at(sol, s):
    """Tractrix geodesic curvature kappa(s); inf at a cusp boundary."""
    x, scalar = _profile_x(sol, s)
    out = _kappa(_jacobi_pair(sol.K, sol.ell)[1], x)
    return float(out[0]) if scalar else out
