"""Closed-form tractrix solutions on constant-curvature space forms.

For a geodesic tractor with pole length ell on the space form of curvature
K, the orthogonal distance d(s) and the tractrix geodesic curvature
kappa(s) have explicit exponential profiles. Conventions: k = sqrt(|K|),
E = k*cot(k*ell) (K > 0), 1/ell (K = 0), k*coth(k*ell) (K < 0); the
leading exponent of every decaying quantity is -E.

All evaluators accept scalars or numpy arrays for s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolationError

__all__ = [
    "SpaceFormSolution",
    "solve_from_d0",
    "dist_at",
    "kappa_at",
    "kappa_from_dist",
    "leading_exponent",
]

_PARALLEL_EPS = 1e-12


@dataclass
class SpaceFormSolution:
    """Closed-form pulled-tractrix profile for one (K, ell, d0)."""

    K: float
    ell: float
    d0: float
    rate: float          # E in the exponential profiles; Le = -E
    C_d: float           # d-profile constant (log form), nan for parallel mode
    C_kappa: float       # sin/sinh ratio constant in the kappa profile
    kappa0: float        # kappa(0); inf marks the classical (d0 = ell) limit
    s_lo: float          # cusp behind the start (d -> ell), -inf if none
    s_hi: float          # cusp ahead (long-pole mode), +inf if none
    long_pole: bool = False
    parallel_circle: bool = False

    @property
    def k(self):
        return math.sqrt(abs(self.K))


def leading_exponent(K, ell):
    """Le = lim (1/s) ln f(s) for the decaying profiles; monotone in K."""
    if ell <= 0:
        raise DomainViolationError("pole length must be positive")
    if K > 0:
        k = math.sqrt(K)
        if k * ell >= math.pi:
            raise DomainViolationError(
                f"k*ell = {k * ell!r} leaves the validity range (0, pi)")
        return -k / math.tan(k * ell)
    if K < 0:
        k = math.sqrt(-K)
        return -k / math.tanh(k * ell)
    return -1.0 / ell


def kappa_from_dist(K, ell, d):
    """Tractrix curvature from its tractor distance (same K and ell)."""
    d = np.asarray(d, dtype=float)
    scalar = d.ndim == 0
    d = np.atleast_1d(d)
    if np.any(d < 0):
        raise DomainViolationError("distance must be nonnegative")
    if K > 0:
        k = math.sqrt(K)
        lim = min(ell, math.pi / k - ell)
        if np.any(d > lim + 1e-12):
            raise DomainViolationError(
                f"distance beyond the cusp bound {lim!r}")
        rad = np.cos(k * d) ** 2 - math.cos(k * ell) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            out = k * np.sin(k * d) / (math.sin(k * ell)
                                       * np.sqrt(np.maximum(rad, 0.0)))
        out = np.where(rad <= 0, np.inf, out)
    elif K < 0:
        k = math.sqrt(-K)
        if np.any(d > ell + 1e-12):
            raise DomainViolationError("distance exceeds the pole length")
        rad = math.cosh(k * ell) ** 2 - np.cosh(k * d) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            out = k * np.sinh(k * d) / (math.sinh(k * ell)
                                        * np.sqrt(np.maximum(rad, 0.0)))
        out = np.where(rad <= 0, np.inf, out)
    else:
        if np.any(d > ell + 1e-12):
            raise DomainViolationError("distance exceeds the pole length")
        rad = ell ** 2 - d ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            out = d / (ell * np.sqrt(np.maximum(rad, 0.0)))
        out = np.where(rad <= 0, np.inf, out)
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
    if ell <= 0:
        raise DomainViolationError("pole length must be positive")
    if d0 <= 0:
        raise DomainViolationError("initial distance must be positive")
    k = math.sqrt(abs(K))
    long_pole = K > 0 and k * ell > math.pi / 2
    if long_pole:
        if k * ell >= math.pi:
            raise DomainViolationError(
                f"k*ell = {k * ell!r} must stay below pi")
        d_cusp = math.pi / k - ell
        if d0 >= d_cusp:
            raise DomainViolationError(
                f"d0 = {d0!r} must stay below the cusp distance {d_cusp!r}")
    elif d0 > ell + 1e-12:
        raise DomainViolationError("d0 exceeds the pole length")
    if K > 0:
        kl = k * ell
        if not long_pole and math.pi / 2 - kl <= _PARALLEL_EPS:
            # cot vanishes: parallel-circle solution, d and kappa constant
            kap = k * math.tan(k * min(d0, ell))
            return SpaceFormSolution(
                K=float(K), ell=float(ell), d0=float(d0), rate=0.0,
                C_d=math.nan, C_kappa=math.sin(k * d0),
                kappa0=kap, s_lo=-math.inf, s_hi=math.inf,
                parallel_circle=True)
        E = k / math.tan(kl)
        C_d = -math.log(math.sin(k * d0)) / E
        C_k = math.sin(k * d0) / math.sin(kl)
        if long_pole:
            s_hi = math.log(math.sin(kl) / math.sin(k * d0)) / (-E)
            s_lo = -math.inf
        else:
            s_hi = math.inf
            s_lo = -math.log(math.sin(kl) / math.sin(k * d0)) / E
    elif K < 0:
        E = k / math.tanh(k * ell)
        C_d = -math.log(math.sinh(k * d0)) / E
        C_k = math.sinh(k * d0) / math.sinh(k * ell)
        s_hi = math.inf
        s_lo = -math.log(math.sinh(k * ell) / math.sinh(k * d0)) / E
    else:
        E = 1.0 / ell
        C_d = -math.log(d0) / E
        C_k = d0 / ell
        s_hi = math.inf
        s_lo = -ell * math.log(ell / d0)
    kap0 = kappa_from_dist(K, ell, min(d0, ell))
    return SpaceFormSolution(
        K=float(K), ell=float(ell), d0=float(d0), rate=E, C_d=C_d,
        C_kappa=C_k, kappa0=float(kap0), s_lo=s_lo, s_hi=s_hi,
        long_pole=bool(long_pole))


def _check_window(sol, s):
    if np.any(s < sol.s_lo - 1e-12) or np.any(s > sol.s_hi + 1e-12):
        raise DomainViolationError(
            f"s outside validity interval [{sol.s_lo!r}, {sol.s_hi!r}]")


def dist_at(sol, s):
    """Orthogonal tractor distance d(s) of the closed-form solution."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    _check_window(sol, s)
    if sol.parallel_circle:
        out = np.full(s.shape, sol.d0)
    elif sol.K > 0:
        # rate = k*cot(k*ell); the arcsin argument is sin(k d0) e^{-rate s}
        k = sol.k
        arg = np.minimum(np.exp(-sol.rate * (sol.C_d + s)), 1.0)
        out = np.arcsin(arg) / k
    elif sol.K < 0:
        k = sol.k
        out = np.arcsinh(np.exp(-sol.rate * (sol.C_d + s))) / k
    else:
        out = sol.d0 * np.exp(-s / sol.ell)
    return float(out[0]) if scalar else out


def kappa_at(sol, s):
    """Tractrix geodesic curvature kappa(s); inf at a cusp boundary."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    _check_window(sol, s)
    if sol.parallel_circle:
        out = np.full(s.shape, sol.kappa0)
    else:
        X = np.exp(-sol.rate * s)
        CX = sol.C_kappa * X
        k = sol.k
        if sol.K > 0:
            S = math.sin(k * sol.ell)
            num = k * CX
        elif sol.K < 0:
            S = math.sinh(k * sol.ell)
            num = k * CX
        else:
            S = sol.ell
            num = CX
        rad = 1.0 - CX * CX
        with np.errstate(divide="ignore", invalid="ignore"):
            out = num / (S * np.sqrt(np.maximum(rad, 0.0)))
        out = np.where(rad <= 0, np.inf, out)
    return float(out[0]) if scalar else out
