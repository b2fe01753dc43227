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
    "ClassicalTractrix",
    "classical_tractrix",
    "LongPoleTrace",
    "long_pole_sphere",
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
    def Le(self):
        return -self.rate

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


def solve_from_d0(K, ell, d0, long_pole=False):
    """Fix integration constants from d(0) = d0; returns SpaceFormSolution.

    Standard mode needs k*ell <= pi/2 for K > 0; long_pole relaxes that to
    k*ell < pi (the profile then grows toward a cusp at d = pi/k - ell).
    d0 = ell is the classical limit and sets kappa(0) = inf.
    """
    if ell <= 0:
        raise DomainViolationError("pole length must be positive")
    if d0 <= 0:
        raise DomainViolationError("initial distance must be positive")
    if K > 0:
        k = math.sqrt(K)
        kl = k * ell
        if kl >= math.pi:
            raise DomainViolationError(f"k*ell = {kl!r} must stay below pi")
        if long_pole:
            if kl <= math.pi / 2:
                raise DomainViolationError(
                    "long-pole mode needs k*ell > pi/2")
            d_cusp = math.pi / k - ell
            if d0 >= d_cusp:
                raise DomainViolationError(
                    f"d0 = {d0!r} must stay below the cusp distance {d_cusp!r}")
        else:
            if kl > math.pi / 2 + _PARALLEL_EPS:
                raise DomainViolationError(
                    f"k*ell = {kl!r} exceeds pi/2; pass long_pole=True")
            if d0 > ell + 1e-12:
                raise DomainViolationError("d0 exceeds the pole length")
        if abs(kl - math.pi / 2) <= _PARALLEL_EPS and not long_pole:
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
        k = math.sqrt(-K)
        if long_pole:
            raise DomainViolationError("long-pole mode needs K > 0")
        if d0 > ell + 1e-12:
            raise DomainViolationError("d0 exceeds the pole length")
        E = k / math.tanh(k * ell)
        C_d = -math.log(math.sinh(k * d0)) / E
        C_k = math.sinh(k * d0) / math.sinh(k * ell)
        s_hi = math.inf
        s_lo = -math.log(math.sinh(k * ell) / math.sinh(k * d0)) / E
    else:
        if long_pole:
            raise DomainViolationError("long-pole mode needs K > 0")
        if d0 > ell + 1e-12:
            raise DomainViolationError("d0 exceeds the pole length")
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


# ---------------------------------------------------------------------------
# Classical planar tractrix


@dataclass
class ClassicalTractrix:
    """Closed forms for the planar tractrix pulled along the x-axis.

    Parametrized by tractor time t (tractor at (t, 0)), cusp at t = 0 where
    the pole is orthogonal to the track.
    """

    ell: float

    def gamma(self, t):
        t = np.asarray(t, dtype=float)
        ell = self.ell
        return np.stack([t - ell * np.tanh(t / ell),
                         ell / np.cosh(t / ell)], axis=-1)

    def eta(self, t):
        t = np.asarray(t, dtype=float)
        return np.stack([t, np.zeros_like(t)], axis=-1)

    def arclength(self, t):
        t = np.asarray(t, dtype=float)
        return np.sign(t) * self.ell * np.log(np.cosh(t / self.ell))

    def t_of_s(self, s):
        s = np.asarray(s, dtype=float)
        return np.sign(s) * self.ell * np.arccosh(np.exp(np.abs(s) / self.ell))

    def dist(self, s):
        return self.ell * np.exp(-np.asarray(s, dtype=float) / self.ell)

    def kappa(self, s):
        s = np.asarray(s, dtype=float)
        x = np.exp(-2.0 * s / self.ell)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.exp(-s / self.ell) / (self.ell * np.sqrt(1.0 - x))
        return np.where(x >= 1.0, np.inf, out)

    def total_curvature(self, L):
        """Turning of one pull branch from the cusp out to arclength L."""
        return math.atan(math.sqrt(math.expm1(2.0 * L / self.ell)))

    def swept_area(self, L):
        return 0.5 * self.ell ** 2 * self.total_curvature(L)


def classical_tractrix(ell):
    if ell <= 0:
        raise DomainViolationError("pole length must be positive")
    return ClassicalTractrix(float(ell))


# ---------------------------------------------------------------------------
# Long poles on the unit sphere


@dataclass
class LongPoleTrace:
    """Analytic pull trace on the unit sphere with an equatorial tractor.

    Triangle vertices per arclength sample: gamma (tractrix point A), eta
    (tractor point B on the equator), foot (orthogonal projection C). The
    dual push system has pole length pi - ell and tractor antipodal to eta.
    """

    ell: float
    d0: float
    s: np.ndarray
    d: np.ndarray
    a: np.ndarray        # tractor-side leg dist(C, B)
    t: np.ndarray        # tractor arclength (equator longitude of B)
    gamma: np.ndarray    # (m, 2) colatitude/longitude
    eta: np.ndarray
    foot: np.ndarray
    kappa: np.ndarray
    s_cusp: float


def _adaptive_simpson(f, a, b, tol, fa=None, fm=None, fb=None, depth=24):
    if fa is None:
        fa = f(a)
    if fb is None:
        fb = f(b)
    m = 0.5 * (a + b)
    if fm is None:
        fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) < 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return (_adaptive_simpson(f, a, m, tol / 2, fa, flm, fm, depth - 1)
            + _adaptive_simpson(f, m, b, tol / 2, fm, frm, fb, depth - 1))


def long_pole_sphere(ell, d0, s_max, samples=400):
    """Analytic long-pole construction on the unit sphere (K = 1).

    Needs pi/2 < ell < pi and 0 < d0 < pi - ell; the trace runs toward the
    cusp at d = pi - ell and s_max must stay strictly below it.
    """
    if not math.pi / 2 < ell < math.pi:
        raise DomainViolationError("long-pole construction needs ell in (pi/2, pi)")
    if not 0.0 < d0 < math.pi - ell:
        raise DomainViolationError(
            f"d0 must lie in (0, {math.pi - ell!r}) below the cusp distance")
    sol = solve_from_d0(1.0, ell, d0, long_pole=True)
    s_cusp = sol.s_hi
    if s_max >= s_cusp:
        raise DomainViolationError(
            f"s_max = {s_max!r} reaches the cusp at s = {s_cusp!r}")
    s = np.linspace(0.0, s_max, int(samples))
    d = dist_at(sol, s)
    a = np.arccos(np.clip(math.cos(ell) / np.cos(d), -1.0, 1.0))

    def t_rate(u):
        # dt/ds = sin(ell) / (sin(a) cos(d)); follows from the tangency
        # condition plus the right-triangle relation cos(a) = cos(ell)/cos(d)
        du = dist_at(sol, u)
        au = math.acos(max(-1.0, min(1.0, math.cos(ell) / math.cos(du))))
        return math.sin(ell) / (math.sin(au) * math.cos(du))

    t = np.empty_like(s)
    t[0] = a[0]
    for i in range(1, len(s)):
        t[i] = t[i - 1] + _adaptive_simpson(t_rate, s[i - 1], s[i], 1e-12)
    foot = np.stack([np.full_like(s, math.pi / 2), t - a], axis=-1)
    gamma = np.stack([math.pi / 2 - d, t - a], axis=-1)
    eta = np.stack([np.full_like(s, math.pi / 2), t], axis=-1)
    kap = kappa_from_dist(1.0, ell, d)
    return LongPoleTrace(ell=float(ell), d0=float(d0), s=s, d=d, a=a, t=t,
                         gamma=gamma, eta=eta, foot=foot, kappa=kap,
                         s_cusp=s_cusp)
