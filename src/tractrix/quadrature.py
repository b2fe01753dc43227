"""Composite Simpson's rule on sampled data.

The length and area functionals and each record's integral of J along the
pole are Simpson sums over samples. `simpson(y, x)` follows the operation
order of `scipy.integrate.simpson` (scipy 1.17) for 1-D float samples, so
its results agree with scipy's to the last bit: paired panels with the
non-uniform weights, Cartwright's correction of the last interval for an
even sample count, the trapezoid for two samples and 0 for one.
"""

from __future__ import annotations

import numpy as np

__all__ = ["simpson"]


def _divide(a, b):
    """a / b, and 0 where b is 0 (scipy's `where=` guards)."""
    return np.true_divide(a, b, out=np.zeros_like(b), where=b != 0)


def _panels(y, h):
    """Simpson sum over the interval pairs (h[0], h[1]), (h[2], h[3]), ...
    of an even number of spacings h between the samples y."""
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = _divide(h0, h1)
    tmp = hsum / 6.0 * (y[:-1:2] * (2.0 - _divide(1.0, h0divh1))
                        + y[1::2] * (hsum * _divide(hsum, hprod))
                        + y[2::2] * (2.0 - h0divh1))
    return np.sum(tmp)


def simpson(y, x):
    """Integral of the samples y at the points x (1-D, the same length)."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n = len(y)
    if n != len(x):
        raise ValueError("y and x need the same number of samples")
    if n == 2:
        return float(0.0 + 0.5 * (x[1] - x[0]) * (y[1] + y[0]))
    h = np.diff(x)
    if n % 2:
        return float(_panels(y, h))
    # Cartwright's last interval, on 0-d arrays: a numpy scalar rounds
    # h ** 3 differently
    a, b = h[-2, ...], h[-1, ...]
    alpha = _divide(2 * b ** 2 + 3 * a * b, np.asarray(6 * (b + a)))
    beta = _divide(b ** 2 + 3.0 * a * b, np.asarray(6 * a))
    eta = _divide(b ** 3, np.asarray(6 * a * (a + b)))
    last = alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return float(_panels(y[:-1], h[:-1]) + last + 0.0)
