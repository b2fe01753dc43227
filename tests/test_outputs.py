import math
from types import SimpleNamespace

import numpy as np
import pytest

from tractrix import cli, outputs
from tractrix.config import bundled_scenario


def _fmt(x):
    x = float(x)
    return repr(x) if math.isfinite(x) else ""


def reference_trace_csv(trace):
    """The trace file as the per-element writer formatted it, row by row."""
    dim = trace.gamma.shape[1]
    cols = (["t", "s"]
            + [f"gamma_{i + 1}" for i in range(dim)]
            + [f"eta_{i + 1}" for i in range(dim)]
            + ["d", "kappa", "sigma"])
    lines = [",".join(cols)]
    for k in range(trace.t.size):
        row = [_fmt(trace.t[k]), _fmt(trace.s[k])]
        row += [_fmt(c) for c in trace.gamma[k]]
        row += [_fmt(c) for c in trace.eta[k]]
        row += [_fmt(trace.d[k]), _fmt(trace.kappa[k]),
                _fmt(trace.sigma[k])]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def random_trace(n=300, dim=3, seed=7):
    rng = np.random.default_rng(seed)

    def column(*shape):
        # spread over many decades, with signed zeros and tiny values
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300,
                                                               shape)
        x.flat[::17] = -0.0
        return x

    d, kappa = column(n), column(n)
    d[::3] = np.nan
    kappa[1::4] = np.nan
    kappa[2::11] = np.inf
    d[5::13] = -np.inf
    return SimpleNamespace(t=np.linspace(0.0, 1.0, n), s=column(n),
                           gamma=column(n, dim), eta=column(n, dim), d=d,
                           kappa=kappa,
                           sigma=np.where(rng.random(n) < 0.5, 1,
                                          -1).astype(np.int8))


def geodesic_cusp_trace():
    # a flat geodesic pull: d is filled, and kappa is masked (NaN) near
    # the cusp records
    trace = cli._simulate(bundled_scenario("flat_half_tractrix"))
    assert np.isnan(trace.kappa).any() and np.isfinite(trace.d).any()
    return trace


@pytest.mark.parametrize("make", [random_trace, geodesic_cusp_trace],
                         ids=["random", "flat_half_tractrix"])
def test_trace_csv_matches_the_per_element_format(tmp_path, make):
    trace = make()
    path = tmp_path / "trace.csv"
    outputs.write_trace_csv(path, trace)
    with open(path, newline="") as fh:
        assert fh.read() == reference_trace_csv(trace)
