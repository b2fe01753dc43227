"""The loop evaluator of graph charts z = f(u, v), kept as the reference
for the compiled height of `GraphChart`, and the handwritten graph spray,
kept as the reference for the compiled one.

Both tables are expanded into the coefficients of every derivative order
in `_ORDERS`, and each order's sum is accumulated from 0.0 by one loop,
poly terms first, sinsin terms after, in table order. The compiled height
must agree with it bit for bit, signed zeros included.
"""

import math

from tractrix.charts import _ORDERS, _poly_term, _sinsin_term


def graph_spray(chart, u, v, a, b, xp=math):
    """`GraphChart.spray` as it was written by hand, on the chart's
    compiled height: the compiled spray must agree with it bit for bit."""
    # with W = 1 + f_u^2 + f_v^2, the metric's det: Gamma^k_ij =
    # f_k f_ij / W and K = (f_uu f_vv - f_uv^2) / W^2. W >= 1, so the
    # metric is never singular
    if xp is math and not chart.contains(u, v):
        raise chart._exit(u, v)
    _, fu, fv, fuu, fuv, fvv = chart._height(u, v, xp)
    w = 1.0 + fu * fu + fv * fv
    hess = (fuu * a * a + 2.0 * fuv * a * b + fvv * b * b) / w
    K = (fuu * fvv - fuv * fuv) / (w * w)
    return (-fu * hess, -fv * hess, K) if xp is math else (
        -fu * hess, -fv * hess, K, w)


class LoopGraph:
    """f and its slopes from coefficient tables, one loop per order."""

    def __init__(self, poly=(), sinsin=()):
        poly = [_poly_term(t) for t in poly]
        # per order: (c times falling factorials of i and j, i - du, j - dv)
        self.poly = []
        for du, dv in _ORDERS:
            terms = []
            for i, j, c in poly:
                if du > i or dv > j:
                    continue
                cu = cv = 1.0
                for k in range(du):
                    cu *= i - k
                for k in range(dv):
                    cv *= j - k
                terms.append((c * cu * cv, i - du, j - dv))
            self.poly.append(terms)
        # per sinsin term: (wu, pu, wv, pv, coefficient of each order); a
        # derivative turns sin into cos and cos into -sin
        self.sinsin = [
            (wu, pu, wv, pv, tuple(
                amp * ((-1.0) ** (du // 2) * (-1.0) ** (dv // 2))
                * (wu ** du) * (wv ** dv) for du, dv in _ORDERS))
            for amp, wu, pu, wv, pv in map(_sinsin_term, sinsin)]

    def height(self, u, v, xp=math):
        """(f, f_u, f_v, f_uu, f_uv, f_vv) at (u, v)."""
        sums = [0.0] * len(_ORDERS)
        for k, terms in enumerate(self.poly):
            for c, i, j in terms:
                sums[k] += c * u ** i * v ** j
        for wu, pu, wv, pv, coef in self.sinsin:
            su, cu = xp.sin(wu * u + pu), xp.cos(wu * u + pu)
            sv, cv = xp.sin(wv * v + pv), xp.cos(wv * v + pv)
            for k, (du, dv) in enumerate(_ORDERS):
                sums[k] += (coef[k] * (cu if du % 2 else su)
                            * (cv if dv % 2 else sv))
        return tuple(sums)
