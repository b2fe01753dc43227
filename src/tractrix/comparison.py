"""Inequality harness for curvature-bounded comparison checks.

Certifies a Gauss-curvature window (K_lo, K_hi) along the poles of a
simulation, from the K values that each record's pole shot evaluated,
then re-evaluates each comparison inequality from the raw trace data:
length/area bounds under one-sided curvature bounds, the distance/curvature
sandwich against constant-curvature closed forms for geodesic tractors,
and the leading-exponent sandwich. Every check takes the trace and its
certified window, `check(trace, bounds)` (Rauch also takes the sweep), and
builds its space-form references of curvature K_lo and K_hi itself.
Hypothesis failures (conjugate-point flags, invalid reference profiles)
demote checks to "skipped"; only a genuine inequality violation fails.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import spaceform
from .config import _KNOB_FIELDS
from .errors import (DomainViolationError, HypothesisViolatedError,
                     LowConfidenceFitError, UncertifiedBoundsError)
from .functionals import leading_exponent_estimate
from .manifold import jacobi_reference, jacobi_reference_integral

_PASS_TOL = 1e-6
# the pole window's widening, as a share of its spread: the shots sample K
# at their RK4 stages only, so an extremum between stages can be missed
_POLE_MARGIN = 0.05
_METHODS = ("constant", "poles")


@dataclass(frozen=True)
class CurvatureBounds:
    """Certified open window (K_lo, K_hi) for the Gauss curvature."""

    K_lo: float
    K_hi: float
    certified: str

    def __post_init__(self):
        if self.certified not in _METHODS:
            raise UncertifiedBoundsError(
                f"bounds lack a certification method: {self.certified!r}")
        if not self.K_lo < self.K_hi:
            raise UncertifiedBoundsError(
                f"empty curvature window [{self.K_lo!r}, {self.K_hi!r}]")


@dataclass(frozen=True)
class Check:
    """One re-evaluated inequality, stated as lhs <= rhs."""

    name: str
    inequality: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    skipped: bool = False
    reason: str = ""

    def line(self):
        if self.skipped:
            return f"[SKIP] {self.name}: {self.reason}"
        tag = "PASS" if self.passed else "FAIL"
        return (f"[{tag}] {self.name}: {self.inequality}  "
                f"lhs={self.lhs!r} rhs={self.rhs!r} margin={self.margin!r}")


@dataclass(frozen=True)
class ComparisonReport:
    checks: tuple
    scenario: str = ""

    @property
    def passed(self):
        return all(c.passed for c in self.checks if not c.skipped)

    def text(self):
        head = f"comparison report: {self.scenario or 'unnamed'}"
        return "\n".join([head] + [c.line() for c in self.checks])


def merge_reports(reports, scenario):
    """One report of every check of `reports`, labelled `scenario`."""
    return ComparisonReport(tuple(c for r in reports for c in r.checks),
                            scenario)


def _check(name, inequality, lhs, rhs):
    margin = rhs - lhs
    return Check(name=name, inequality=inequality, lhs=float(lhs),
                 rhs=float(rhs), margin=float(margin),
                 passed=bool(margin >= -_PASS_TOL))


def _skip(name, inequality, reason):
    return Check(name=name, inequality=inequality, lhs=math.nan,
                 rhs=math.nan, margin=math.nan, passed=True,
                 skipped=True, reason=reason)


# ---------------------------------------------------------------------------
# Bound certification


def certify_bounds(trace, widen=_KNOB_FIELDS["comparison"]["widen"][1]):
    """Certified Gauss-curvature window along the poles of a run.

    A run on a space form (`trace.model`) gives a constant window widened
    by `widen`, which must also absorb the quadrature error of the
    functionals evaluated against the window. On other models the window
    spans the least and greatest K that the records' pole shots evaluated
    at their RK4 stages, widened by 5% of its spread and by at least
    `widen`.
    """
    K = trace.model.K  # None unless the curvature is constant
    if K is not None:
        w = max(widen, abs(K) * widen)
        return CurvatureBounds(K - w, K + w, "constant")
    lo, hi = float(np.min(trace.pole_K_lo)), float(np.max(trace.pole_K_hi))
    m = max(widen, _POLE_MARGIN * (hi - lo))
    return CurvatureBounds(lo - m, hi + m, "poles")


# ---------------------------------------------------------------------------
# Length/area inequalities under one-sided curvature bounds


def rauch_length_area_check(trace, sweep, bounds):
    """Four length/area inequalities against the certified window.

    An upper curvature bound forces the tractor track to be long and the
    swept area large; a lower bound caps both. All four sides re-evaluate
    from the sweep functionals; a reference profile that closes up before
    the pole end (sqrt(K)*ell >= pi), or that overflows a float there
    (K_lo << 0, `_reference_pair`), demotes that side to skipped.
    """
    L_g, L_e = sweep.L_gamma, sweep.L_eta
    A, ell = sweep.area, sweep.ell
    # A cusp's turning angle is pi for the reversal of the tractrix tangent
    # plus the pole swing across the stall window. The reversal is an atom:
    # the tangent flips in place, so it moves no tractor and sweeps no area,
    # and it drops out of both sides here. The swing is a real rotation of
    # the pole: it sweeps the area K_swing * int_0^ell J and moves the
    # tractor end by J(ell) * K_swing, exactly as regular turning does, so
    # it stays in K_total. Hence pi is subtracted once per sign-flipping
    # cusp, and nothing for a cusp without a flip.
    atoms = math.pi * sum(1 for c in trace.cusps if c.sign_flip)
    KT = max(sweep.K_total - atoms, 0.0)
    conj = bool(np.any(trace.pole_conjugate))
    checks = []

    up_len = ("length_floor_upper_K",
              "L_eta >= sqrt(L_gamma^2 + (J_hi(ell)*K_total)^2)")
    up_area = ("area_floor_upper_K", "area >= K_total * int_0^ell J_hi")
    lo_len = ("length_cap_lower_K", "L_eta <= L_gamma + J_lo(ell)*K_total")
    lo_area = ("area_cap_lower_K", "area <= K_total * int_0^ell J_lo")

    if conj:
        reason = "conjugate point flagged along a pole"
        return ComparisonReport(tuple(
            _skip(n, q, reason)
            for n, q in (up_len, up_area, lo_len, lo_area)))

    upper = _reference_pair(bounds.K_hi, ell, "hi")
    if isinstance(upper, str):
        checks += [_skip(*up_len, upper), _skip(*up_area, upper)]
    else:
        J_hi, I_hi = upper
        floor = math.sqrt(L_g ** 2 + (J_hi * KT) ** 2)
        checks.append(_check(*up_len, lhs=floor, rhs=L_e))
        checks.append(_check(*up_area, lhs=KT * I_hi, rhs=A))

    lower = _reference_pair(bounds.K_lo, ell, "lo")
    if isinstance(lower, str):
        checks += [_skip(*lo_len, lower), _skip(*lo_area, lower)]
    else:
        J_lo, I_lo = lower
        checks.append(_check(*lo_len, lhs=L_e, rhs=L_g + J_lo * KT))
        checks.append(_check(*lo_area, lhs=A, rhs=KT * I_lo))

    return ComparisonReport(tuple(checks))


def _reference_pair(K, ell, side):
    """J^K(ell) and its integral over [0, ell], the references of the Rauch
    side `side` ("hi" or "lo"), or the reason to skip that side: J^K
    closes up before ell (sqrt(K)*ell >= pi), or either value overflows a
    float (sinh of sqrt(-K)*ell past about 710, or its quotient by a small
    sqrt(-K) a little short of that)."""
    root = math.sqrt(abs(K)) * ell
    if K > 0 and root >= math.pi:
        return (f"sqrt(K_{side})*ell = {root:.6g} >= pi: J_{side} closes up "
                f"before ell")
    try:
        with np.errstate(over="ignore"):
            pair = (jacobi_reference(K, ell),
                    jacobi_reference_integral(K, ell))
    except OverflowError:
        pair = (math.inf,)
    if all(math.isfinite(x) for x in pair):
        return pair
    return (f"sqrt(|K_{side}|)*ell = {root:.6g}: J_{side}(ell) or its "
            f"integral overflows a float")


# ---------------------------------------------------------------------------
# Distance/curvature sandwich for geodesic tractors


def toponogov_sandwich_check(trace, bounds):
    """Strict sandwich of measured d(s), kappa(s) between closed forms.

    The references are the space forms of curvature K_hi and K_lo, solved
    (`spaceform.solve_from_d0`) for the trace's pole and starting distance
    d(0), each in the mode that its K and ell give. Requires a geodesic
    tractor, a hypothesis error when violated. Conjugate-point flags
    demote all four checks to skipped. Reported lhs/rhs belong to the
    worst sample.
    """
    if not trace.tractor.is_geodesic:
        raise HypothesisViolatedError(
            "sandwich needs a geodesic tractor on the base model")
    d0 = float(trace.d[0])
    sol_hi = spaceform.solve_from_d0(bounds.K_hi, trace.ell, d0)
    sol_lo = spaceform.solve_from_d0(bounds.K_lo, trace.ell, d0)

    names = (("dist_below_upper_form", "d_M(s) < d_hi(s)"),
             ("dist_above_lower_form", "d_lo(s) < d_M(s)"),
             ("kappa_below_upper_form", "kappa_M(s) < kappa_hi(s)"),
             ("kappa_above_lower_form", "kappa_lo(s) < kappa_M(s)"))
    if bool(np.any(trace.pole_conjugate)):
        reason = "conjugate point flagged along a pole"
        return ComparisonReport(
            tuple(_skip(n, q, reason) for n, q in names))

    keep = (trace.s > 0) & (trace.s <= min(sol_hi.s_hi, sol_lo.s_hi))
    s = trace.s[keep]
    if s.size == 0:
        raise HypothesisViolatedError(
            "no positive-arclength samples inside both reference windows")
    d_m = trace.d[keep]
    d_hi = spaceform.dist_at(sol_hi, s)
    d_lo = spaceform.dist_at(sol_lo, s)
    k_hi = spaceform.kappa_at(sol_hi, s)
    k_lo = spaceform.kappa_at(sol_lo, s)
    k_m = trace.kappa[keep]
    ok = np.isfinite(k_m)

    def worst(name, inequality, lhs, rhs):
        i = int(np.argmin(rhs - lhs))
        return _check(name, inequality, lhs=lhs[i], rhs=rhs[i])

    checks = [worst(*names[0], lhs=d_m, rhs=d_hi),
              worst(*names[1], lhs=d_lo, rhs=d_m)]
    if np.any(ok):
        checks.append(worst(*names[2], lhs=k_m[ok], rhs=k_hi[ok]))
        checks.append(worst(*names[3], lhs=k_lo[ok], rhs=k_m[ok]))
    else:
        reason = "no finite curvature samples in the window"
        checks += [_skip(*names[2], reason), _skip(*names[3], reason)]
    return ComparisonReport(tuple(checks))


# ---------------------------------------------------------------------------
# Leading-exponent sandwich


def le_sandwich_check(trace, bounds):
    """Fitted decay exponents of d(s), kappa(s) between the closed forms.

    The constant-curvature exponent is monotone in K, so the certified
    window brackets both fits. K_hi must keep sqrt(K_hi)*ell below pi/2
    for the decaying regime to exist; a low-confidence fit is an error
    rather than a verdict.
    """
    ell = trace.ell
    if bounds.K_hi > 0 and math.sqrt(bounds.K_hi) * ell >= math.pi / 2:
        raise DomainViolationError(
            f"sqrt(K_hi)*ell = {math.sqrt(bounds.K_hi) * ell:.6g} must "
            f"stay below pi/2 for a decaying profile")
    le_lo = spaceform.leading_exponent(bounds.K_lo, ell)
    le_hi = spaceform.leading_exponent(bounds.K_hi, ell)

    def fit_checks(label, values):
        lo_name = (f"{label}_le_above_lower",
                   f"Le(K_lo, ell) <= Le({label}_M)")
        hi_name = (f"{label}_le_below_upper",
                   f"Le({label}_M) <= Le(K_hi, ell)")
        keep = np.isfinite(values)
        if not np.any(keep):
            reason = f"no finite {label} samples to fit"
            return [_skip(*lo_name, reason), _skip(*hi_name, reason)]
        fit = leading_exponent_estimate(trace.s[keep], values[keep])
        if fit.low_confidence:
            raise LowConfidenceFitError(
                f"{label} fit R^2 = {fit.r2:.6f} below the gate")
        return [_check(*lo_name, lhs=le_lo, rhs=fit.slope),
                _check(*hi_name, lhs=fit.slope, rhs=le_hi)]

    checks = fit_checks("dist", trace.d) + fit_checks("kappa", trace.kappa)
    return ComparisonReport(tuple(checks))
