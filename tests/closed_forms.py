"""Closed-form oracles that only the tests use.

The planar tractrix pulled along a line, the flat tractrix behind a
polyline, the pole angle behind a geodesic at constant curvature, the
long-pole tractrix on the unit sphere with an equatorial
tractor, whose tractor time comes from an adaptive Simpson quadrature of
dt/ds, and the exact range of the Gauss curvature over a chart rectangle
on the charts that have one.
"""

import math
from dataclasses import dataclass

import numpy as np

from tractrix.charts import (
    EllipsoidChart,
    ParaboloidChart,
    PlaneChart,
    PseudosphereChart,
    SphereChart,
)
from tractrix.errors import DomainViolationError
from tractrix.spaceform import dist_at, kappa_from_dist, solve_from_d0


# ---------------------------------------------------------------------------
# Gauss curvature ranges


def gauss_range(chart, rect):
    """(min, max) of K over rect = ((u0, u1), (v0, v1)), or None for a
    chart without a closed form here: only the sphere, the spheroid with
    unit equator (a = b = 1), the pseudosphere, the plane and the
    paraboloid have one. A point is the rectangle ((u, u), (v, v))."""
    if isinstance(chart, SphereChart):
        k = 1.0 / chart.radius ** 2
        return (k, k)
    if isinstance(chart, EllipsoidChart):
        return _spheroid_range(chart, rect)
    if isinstance(chart, PseudosphereChart):
        k = -1.0 / chart.a ** 2
        return (k, k)
    if isinstance(chart, PlaneChart):
        return (0.0, 0.0)
    if isinstance(chart, ParaboloidChart):
        return _paraboloid_range(rect)
    return None


def _spheroid_range(chart, rect):
    # K = c^2 / (cos^2 u + c^2 sin^2 u)^2 on the unit-equator spheroid,
    # monotone in sin^2 u
    if not (chart.a == chart.b == 1.0):
        return None
    (u0, u1), _ = rect
    c2 = chart.c ** 2

    def kval(u):
        e = math.cos(u) ** 2 + c2 * math.sin(u) ** 2
        return c2 / e ** 2

    s0, s1 = math.sin(u0) ** 2, math.sin(u1) ** 2
    smax = max(s0, s1)
    smin = min(s0, s1)
    if (u0 - math.pi / 2) * (u1 - math.pi / 2) <= 0:
        smax = 1.0  # rect straddles the equator
    vals = (kval(math.asin(math.sqrt(smin))),
            kval(math.asin(math.sqrt(smax))))
    return (min(vals), max(vals))


def _paraboloid_range(rect):
    # K = 4 / (1 + 4 r^2)^2, monotone decreasing in r^2 = u^2 + v^2
    (u0, u1), (v0, v1) = rect

    def nearest(lo, hi):
        if lo <= 0.0 <= hi:
            return 0.0
        return lo if abs(lo) < abs(hi) else hi

    r2min = nearest(u0, u1) ** 2 + nearest(v0, v1) ** 2
    r2max = max(u0 ** 2, u1 ** 2) + max(v0 ** 2, v1 ** 2)
    return (4.0 / (1.0 + 4.0 * r2max) ** 2, 4.0 / (1.0 + 4.0 * r2min) ** 2)


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
# Flat tractrix behind a polyline


def polyline_tractrix(points, gamma0, ell, t):
    """gamma at the parameters t, arclength along the polyline from its
    first point, of the flat tractrix that the polyline tractor through
    `points` drags from gamma0, at distance ell from points[0] (K = 0).

    On a segment with unit direction u the pole direction X = (eta -
    gamma) / ell stays in the plane of u and the part e of X normal to u,
    at the angle theta from u, and X' = (eta' - <eta', X> X) / ell is
    theta' = -sin(theta) / ell: tan(theta / 2) = tan(theta0 / 2) exp(-tau
    / ell) a time tau into the segment. X is continuous, so in the plane
    theta jumps by minus the turning angle at each vertex.
    """
    pts = np.asarray(points, dtype=float)
    seg = np.diff(pts, axis=0)
    lens = np.linalg.norm(seg, axis=1)
    knots = np.concatenate([[0.0], np.cumsum(lens)])
    dirs = seg / lens[:, None]
    X = (pts[0] - np.asarray(gamma0, dtype=float)) / ell
    # per segment: tan(theta0 / 2) and the unit normal e
    halves, normals = [], []
    for u, L in zip(dirs, lens):
        along = float(X @ u)
        normal = X - along * u
        size = math.sqrt(float(normal @ normal))
        e = normal / size if size > 0.0 else np.zeros_like(u)
        half = math.tan(0.5 * math.atan2(size, along))
        halves.append(half)
        normals.append(e)
        theta = 2.0 * math.atan(half * math.exp(-L / ell))
        X = math.cos(theta) * u + math.sin(theta) * e
    t = np.asarray(t, dtype=float)
    i = np.clip(np.searchsorted(knots, t, side="right") - 1, 0,
                len(lens) - 1)
    tau = t - knots[i]
    theta = 2.0 * np.arctan(np.array(halves)[i] * np.exp(-tau / ell))
    X = (np.cos(theta)[:, None] * dirs[i]
         + np.sin(theta)[:, None] * np.array(normals)[i])
    return pts[i] + tau[:, None] * dirs[i] - ell * X


# ---------------------------------------------------------------------------
# The pole angle behind a geodesic at constant curvature


def geodesic_pole_angle(K, ell, theta0, t):
    """The angle theta from eta' to the pole direction X at eta (pointing
    away from gamma) a time t after theta0, behind a unit-speed geodesic
    tractor at constant curvature K.

    In the frame parallel along the geodesic the pole rule X' = E (eta' -
    <eta', X> X), E = c(ell) / s(ell), is theta' = -E sin(theta):
    tan(theta / 2) = tan(theta0 / 2) exp(-E t), with E = k cot(k ell),
    1 / ell and k coth(k ell) for K = k^2, 0 and -k^2.
    """
    k = math.sqrt(abs(K))
    if K > 0:
        E = k / math.tan(k * ell)
    elif K < 0:
        E = k / math.tanh(k * ell)
    else:
        E = 1.0 / ell
    return 2.0 * np.arctan(math.tan(0.5 * theta0)
                           * np.exp(-E * np.asarray(t, dtype=float)))


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
    sol = solve_from_d0(1.0, ell, d0)
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
