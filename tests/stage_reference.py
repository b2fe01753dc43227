"""The surface tractrix stage and RK4 sub-step as they were written by hand
in Python, kept as the reference for the ones that `manifold._tractrix`
compiles per chart.

The compiled functions write the chart's jet and spray in and run the
three shots of a sub-step in one function, but every floating-point
operation is the one below, in the same order, so they must agree with
this reference bit for bit, and raise the same errors. The pole shot is
the reference kernel (`rk4_reference`) on the chart's spray.
"""

import math

from rk4_reference import _rk4_geodesic

from tractrix.errors import NoConvergenceError
from tractrix.manifold import _CONJ_TOL, _christoffel


def tractrix_stage(model, eta, eta_prime, X, ell, n_pole, record=False):
    """One stage: (rate of the state, tractrix speed |ds/dt|, record), the
    record None unless asked for (`manifold._tractrix`)."""
    u, w = eta
    a, b = eta_prime
    x, y = X
    model.check_point(eta)
    forms = model._forms(u, w)
    _, E, F, G, _ = forms
    (g1uu, g2uu), (g1uv, g2uv), (g1vv, g2vv) = _christoffel(*forms)
    # the products in the order of the row-vector forms X g X, eta' g X
    size = math.sqrt((x * E + y * F) * x + (x * F + y * G) * y)
    ux, uy = x / size, y / size
    if record:
        end, tangent, c, s, K_lo, K_hi = _rk4_geodesic(
            model.chart.spray, (u, w), (ux, uy), ell, n_pole,
            collect="jacobi")
        c_ell, s_ell = c[-1], s[-1]
    else:
        end, tangent, c_ell, s_ell = _rk4_geodesic(
            model.chart.spray, (u, w), (ux, uy), ell, n_pole, collect=False)
    if s_ell <= _CONJ_TOL:
        raise NoConvergenceError(
            f"the pole of length {ell!r} from {list(eta)} reaches a "
            f"conjugate point (s(ell) = {s_ell:.3e})")
    along = (a * E + b * F) * ux + (a * F + b * G) * uy
    ratio = c_ell / s_ell
    rate = (ratio * (along * x - size * a)
            - ((g1uu * x + g1uv * y) * a + (g1uv * x + g1vv * y) * b),
            ratio * (along * y - size * b)
            - ((g2uu * x + g2uv * y) * a + (g2uv * x + g2vv * y) * b))
    if not record:
        return rate, abs(along), None
    (gu, gv), (p, q) = end, tangent
    model.check_point(end)
    _, Eg, Fg, Gg, _ = model._forms(gu, gv)
    speed = math.sqrt(max((p * Eg + q * Fg) * p + (p * Fg + q * Gg) * q,
                          0.0))
    eta_speed = math.sqrt(max((a * E + b * F) * a + (a * F + b * G) * b,
                              0.0))
    jac = [s_ell * cu - c_ell * su for cu, su in zip(c[::-1], s[::-1])]
    return rate, abs(along), (
        [gu, gv], [-p / speed, -q / speed], -along, s_ell, jac,
        any(j <= _CONJ_TOL for j in jac[1:]), abs(speed - 1.0),
        eta_speed, K_lo, K_hi, size)


def tractrix_step(model, state, k1, q1, mid, end, hh, half, h6, ell,
                  n_pole):
    """(state, ds): one classical RK4 sub-step, stages 2 to 4 being
    `tractrix_stage` calls."""
    y0, y1 = state
    k2, q2, _ = tractrix_stage(model, *mid, (y0 + half * k1[0],
                                             y1 + half * k1[1]), ell, n_pole)
    k3, q3, _ = tractrix_stage(model, *mid, (y0 + half * k2[0],
                                             y1 + half * k2[1]), ell, n_pole)
    k4, q4, _ = tractrix_stage(model, *end, (y0 + hh * k3[0],
                                             y1 + hh * k3[1]), ell, n_pole)
    return ((y0 + h6 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
             y1 + h6 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])),
            h6 * (q1 + 2.0 * q2 + 2.0 * q3 + q4))
