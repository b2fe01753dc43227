"""The classical RK4 geodesic kernel as it was written with 4-tuples per
stage and int weights, calling its right-hand side at every stage, kept
as the reference for the shot kernels that `manifold._kernel` compiles.

Those kernels give every value its own name and every literal operand a
float, and most write the chart's spray in instead of calling it. None of
this touches a floating-point operation, so a kernel and this reference on
the chart's spray must agree bit for bit on floats and on rows, in every
`collect` mode.
"""

import math

import numpy as np


def _rk4_geodesic(rhs, x0, v0, length, n_steps, collect):
    """Fixed-step RK4 on (x, v, c, c', s, s'); final state or samples.

    The state is two-dimensional and held in locals: (x, y) for the point,
    (p, q) for the velocity, floats for rhs `chart.spray` and arrays of
    shots in lockstep for `SurfaceModel._geo_rows` (the same spray on
    rows). Each RK4 stage is one call rhs(x, y, p, q) -> (a_x, a_y, K).
    Only surfaces reach this integrator, because the space forms, the only
    models that can be three-dimensional, override each of its callers
    with closed forms. The cosine and sine solutions of j'' + K j = 0 ride
    along, c(0) = 1, c'(0) = 0 and s(0) = 0, s'(0) = 1, their RK4 steps
    written out with K from the same calls as the acceleration.

    The result is (x, v, c, s). With collect True, every step's sample:
    the points and velocities as (n_steps + 1, 2[, n]) arrays, and c and s
    as lists. With collect "jacobi", for a tractrix record, the final point
    and velocity as 2-tuples, every step's c and s as lists, and then the
    least and greatest K of all the stages, floats. With collect False, the
    final point and velocity as 2-tuples and the final c and s.
    """
    h = length / n_steps if n_steps else 0.0
    # 0.5 * h * k parses as (0.5 * h) * k: hoisting hh and h6 keeps every bit
    hh, h6 = 0.5 * h, h / 6.0
    x, y = x0
    p, q = v0
    c, cp, s, sp = 1.0, 0.0, 0.0, 1.0
    sampled = collect is True
    if collect:
        xs, vs, cs, ss = [(x, y)], [(p, q)], [c], [s]
        K_lo, K_hi = math.inf, -math.inf
    for _ in range(n_steps):
        a1, b1, K1 = rhs(x, y, p, q)
        x2, y2, p2, q2 = x + hh * p, y + hh * q, p + hh * a1, q + hh * b1
        a2, b2, K2 = rhs(x2, y2, p2, q2)
        x3, y3, p3, q3 = x + hh * p2, y + hh * q2, p + hh * a2, q + hh * b2
        a3, b3, K3 = rhs(x3, y3, p3, q3)
        x4, y4, p4, q4 = x + h * p3, y + h * q3, p + h * a3, q + h * b3
        a4, b4, K4 = rhs(x4, y4, p4, q4)
        x, y, p, q = (x + h6 * (p + 2 * p2 + 2 * p3 + p4),
                      y + h6 * (q + 2 * q2 + 2 * q3 + q4),
                      p + h6 * (a1 + 2 * a2 + 2 * a3 + a4),
                      q + h6 * (b1 + 2 * b2 + 2 * b3 + b4))
        # j'' = -K j for j = c and j = s, with the same stage values
        c1p, s1p = -K1 * c, -K1 * s
        c2, c2p, s2, s2p = (cp + hh * c1p, -K2 * (c + hh * cp),
                            sp + hh * s1p, -K2 * (s + hh * sp))
        c3, c3p, s3, s3p = (cp + hh * c2p, -K3 * (c + hh * c2),
                            sp + hh * s2p, -K3 * (s + hh * s2))
        c4, c4p, s4, s4p = (cp + h * c3p, -K4 * (c + h * c3),
                            sp + h * s3p, -K4 * (s + h * s3))
        c, cp, s, sp = (c + h6 * (cp + 2 * c2 + 2 * c3 + c4),
                        cp + h6 * (c1p + 2 * c2p + 2 * c3p + c4p),
                        s + h6 * (sp + 2 * s2 + 2 * s3 + s4),
                        sp + h6 * (s1p + 2 * s2p + 2 * s3p + s4p))
        if collect:
            cs.append(c)
            ss.append(s)
            if sampled:
                xs.append((x, y))
                vs.append((p, q))
            else:
                K_lo = min(K_lo, K1, K2, K3, K4)
                K_hi = max(K_hi, K1, K2, K3, K4)
    if sampled:
        return np.array(xs), np.array(vs), cs, ss
    if collect:
        return (x, y), (p, q), cs, ss, K_lo, K_hi
    return (x, y), (p, q), c, s
