"""Composite Simpson's rule on sampled data.

The length and area functionals and each record's integral of J along the
pole are Simpson sums over samples. `simpson(y, x)` follows the operation
order of `scipy.integrate.simpson` (scipy 1.17) for 1-D float samples, so
its results agree with scipy's to the last bit: paired panels with the
non-uniform weights, Cartwright's correction of the last interval for an
even sample count, the trapezoid for two samples and 0 for one. It also
takes sample sets that share a grid as rows (a run's profiles of J, one
per record along the same pole grid), y of shape (m, n) along the last
axis, and gives each row's integral bit for bit as on that row alone.
"""

from __future__ import annotations

import numpy as np

__all__ = ["simpson"]


def _divide(a, b):
    """a / b, and 0 where b is 0 (scipy's `where=` guards)."""
    return np.true_divide(a, b, out=np.zeros_like(b), where=b != 0)


def _panel_weights(h):
    """hsum / 6 and the three sample weights of the Simpson panels over the
    interval pairs (h[0], h[1]), (h[2], h[3]), ... of an even number of
    spacings h."""
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = _divide(h0, h1)
    return (hsum / 6.0, 2.0 - _divide(1.0, h0divh1),
            hsum * _divide(hsum, hprod), 2.0 - h0divh1)


def _panels(y, weights):
    """Simpson sum of the samples y (along the last axis) over the panels
    of `_panel_weights`."""
    sixth, w0, w1, w2 = weights
    return np.sum(sixth * (y[..., :-1:2] * w0 + y[..., 1::2] * w1
                           + y[..., 2::2] * w2), axis=-1)


def simpson(y, x):
    """Integral of the samples y at the points x (1-D, the same length).

    For rows y of shape (m, len(x)) it returns the m integrals as an array,
    each bit for bit as on its row alone.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if y.shape[-1:] != (n,):
        raise ValueError("y and x need the same number of samples")
    h = np.diff(x)
    if n == 2:
        out = 0.0 + 0.5 * h[0] * (y[..., 1] + y[..., 0])
    elif n % 2:
        out = _panels(y, _panel_weights(h))
    else:
        # Cartwright's last interval, on 0-d arrays: a numpy scalar rounds
        # h ** 3 differently
        a, b = h[-2, ...], h[-1, ...]
        alpha = _divide(2 * b ** 2 + 3 * a * b, np.asarray(6 * (b + a)))
        beta = _divide(b ** 2 + 3.0 * a * b, np.asarray(6 * a))
        eta = _divide(b ** 3, np.asarray(6 * a * (a + b)))
        last = alpha * y[..., -1] + beta * y[..., -2] - eta * y[..., -3]
        out = _panels(y[..., :-1], _panel_weights(h[:-1])) + last + 0.0
    return float(out) if y.ndim == 1 else out
