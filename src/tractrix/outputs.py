"""Writers for run artifacts: trace/analytic/history CSVs and text sidecars.

Floats are written with repr, the shortest decimal form that parses back
to the same value, so reruns with identical inputs produce byte-identical
files. Masked samples (non-finite d or kappa near cusps) become empty
cells rather than literal NaN tokens.
"""

import math
import os

import numpy as np


def _fmt(x):
    x = float(x)
    return repr(x) if math.isfinite(x) else ""


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


def write_trace_csv(path, trace):
    """One row per sample: t,s,gamma_*,eta_*,d,kappa,sigma."""
    dim = trace.gamma.shape[1]
    cols = (["t", "s"]
            + [f"gamma_{i + 1}" for i in range(dim)]
            + [f"eta_{i + 1}" for i in range(dim)]
            + ["d", "kappa", "sigma"])
    _write_table(path, cols, [trace.t, trace.s, trace.gamma, trace.eta,
                              trace.d, trace.kappa, trace.sigma])


def _write_table(path, cols, columns):
    """A CSV with header `cols` and the columns side by side, cells as
    `_fmt` writes them."""
    # one float64 table and one tolist: the rows are Python floats, which
    # repr exactly as the float() of each NumPy entry does
    table = np.column_stack(columns).astype(float, copy=False).tolist()
    isfinite = math.isfinite
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        fh.writelines(",".join([repr(x) if isfinite(x) else "" for x in row])
                      + "\n" for row in table)


def write_sweep_txt(path, sweep):
    j = np.asarray(sweep.jacobi_at_ell, dtype=float)
    j = j[np.isfinite(j)]
    rows = [("L_gamma", sweep.L_gamma), ("L_eta", sweep.L_eta),
            ("K_total", sweep.K_total), ("area", sweep.area),
            ("ell", sweep.ell),
            ("jacobi_at_ell_min", j.min() if j.size else math.nan),
            ("jacobi_at_ell_max", j.max() if j.size else math.nan),
            ("gap_bound", sweep.gap_bound)]
    with open(path, "w") as fh:
        for name, value in rows:
            fh.write(f"{name}: {_fmt(value) or 'nan'}\n")


def write_cusps_txt(path, cusps):
    with open(path, "w") as fh:
        for c in cusps:
            fh.write("{t: %s, s: %s, turning_angle: %s}\n"
                     % (_fmt(c.t), _fmt(c.s), _fmt(c.turning_angle)))


def write_analytic_csv(path, s, d, kappa):
    _write_table(path, ["s", "d", "kappa"], [s, d, kappa])


def write_le_txt(path, rows):
    """rows: iterable of (K, ell, Le) triples."""
    with open(path, "w") as fh:
        for K, ell, le in rows:
            fh.write("{K: %s, ell: %s, Le: %s}\n"
                     % (_fmt(K), _fmt(ell), _fmt(le)))


def write_history_csv(path, run):
    with open(path, "w", newline="") as fh:
        fh.write("iter,length,residual\n")
        for i, it in enumerate(run.iterates):
            fh.write(",".join([str(i), _fmt(it.length),
                               _fmt(it.residual)]) + "\n")


def write_iterate_csv(path, points):
    points = np.asarray(points, dtype=float)
    _write_table(path, [f"x_{i + 1}" for i in range(points.shape[1])],
                 [points])


def write_report_txt(path, report):
    with open(path, "w") as fh:
        fh.write(report.text() + "\n")
