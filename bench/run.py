#!/usr/bin/env python3
"""Benchmark of the tractrix package on three workloads.

Run from the repository root:

    python3 bench/run.py --workload spaceform_suite --seed 0 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics: one untimed check pass, whose
only hook captures what `simulate` returns for the invariant check, then
timed passes with no hooks over the workload's operations until --seconds
is used up. --trace 1 is the separate traced run: it alternates
traced and untraced passes and reports the per-layer metrics and the
tracing overhead. Every operation's outputs are checked against
bench/reference.json; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import compileall
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 3
# A fresh interpreter that imports tractrix.cli and loads the workload's
# configs. It samples its own speed like `timed` does, with a pure-Python
# kernel so that numpy is not imported before the measured imports, and
# prints the seconds its samples took and their mean.
SETUP_CODE = """
import math, signal, sys, time
def kernel():
    t0 = time.perf_counter()
    x, y = 0.1, 0.2
    for _ in range(4000):
        x, y = (x * 1.0000001 + math.sin(y)) % 3.0, (y - 0.5 * x * y) % 2.0
    return time.perf_counter() - t0
samples = [kernel() for _ in range(5)]
signal.signal(signal.SIGALRM, lambda *_: samples.append(kernel()))
signal.setitimer(signal.ITIMER_REAL, 0.05, 0.05)
import tractrix.cli
from tractrix.config import bundled_scenario
for name in sys.argv[1:]:
    bundled_scenario(name)
signal.setitimer(signal.ITIMER_REAL, 0)
samples += [kernel() for _ in range(5)]
print(sum(samples), sum(samples) / len(samples))
"""
MIN_PASSES = 3
# Seconds the speed kernel takes at the reference speed, and how often it
# samples the machine while an operation runs.
KERNEL_REF_S = 0.001
SAMPLE_EVERY_S = 0.1
BRACKET = 5


def kernel():
    """Seconds one run of a fixed ~1 ms kernel takes on this machine now.

    The kernel mixes Python float arithmetic with small numpy calls, the
    work of the program's per-record loops.
    """
    import numpy  # after main() has pinned the BLAS threads

    t0 = time.perf_counter()
    x, y = 0.1, 0.2
    for _ in range(600):
        x, y = (x * 1.0000001 + math.sin(y)) % 3.0, (y - 0.5 * x * y) % 2.0
    v = numpy.zeros(3)
    for _ in range(150):
        v = v + numpy.array([x, y, 1.0]) * 0.5
        x = float(v @ v) % 1.0
    return time.perf_counter() - t0


def timed(fn):
    """(wall seconds, reference-speed seconds, result) of fn().

    On a shared machine the speed of Python code swings by 2x within
    seconds, and an operation's time follows it. So the kernel runs
    BRACKET times before and after fn, and every SAMPLE_EVERY_S during it
    from a timer signal. The wall time excludes the samples taken during
    fn. It is scaled by KERNEL_REF_S / (mean kernel time) to give
    reference-speed seconds, which repeat from run to run.
    """
    samples = [kernel() for _ in range(BRACKET)]
    inside = []
    previous = signal.signal(signal.SIGALRM,
                             lambda *_: inside.append(kernel()))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    t0 = time.perf_counter()
    try:
        out = fn()
    finally:
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall -= sum(inside)
    samples += inside + [kernel() for _ in range(BRACKET)]
    speed = KERNEL_REF_S * len(samples) / sum(samples)
    return wall, wall * speed, out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Run:
    """One benchmark process: the package copy, its inputs and tallies."""

    def __init__(self, args, work, reference):
        self.work = work
        self.reference = reference["operations"]
        self.names = workloads.WORKLOADS[args.workload]
        self.inputs = workloads.prepare_package(
            os.path.join(ROOT, "src", "tractrix"), os.path.join(work, "pkg"),
            self.names, args.seed)
        compileall.compile_dir(os.path.join(work, "pkg"), quiet=1)
        self.attempted = 0
        self.failed = 0
        self.wrong = []  # (scenario, reason) for results off the reference
        self.failures = {}  # scenario -> reasons, from the last pass
        self.records = {}
        self.cli = None

    def import_package(self):
        pkg_root = os.path.join(self.work, "pkg")
        sys.path.insert(0, pkg_root)
        import tractrix.cli

        if not tractrix.__file__.startswith(pkg_root):
            raise RuntimeError(f"imported {tractrix.__file__}, "
                               f"not the copy under {pkg_root}")
        self.cli = tractrix.cli

    def measure_setup(self):
        """(wall, reference-speed) seconds of each fresh interpreter.

        The wall time excludes the interpreter's own speed samples.
        """
        env = dict(os.environ, PYTHONPATH=os.path.join(self.work, "pkg"))
        samples = []
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            out = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, *self.names], env=env,
                cwd=self.work, check=True, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            spent, mean = (float(x) for x in out.stdout.split())
            wall -= spent
            samples.append((wall, wall * KERNEL_REF_S / mean))
        return samples

    def run_pass(self, index, capture=None):
        """All operations once.

        Returns ({scenario: (wall, reference-speed seconds)}, output bytes).
        Only the CLI call is timed. With `capture`, an installed Tracer,
        each operation's `simulate` results are also checked against the
        trace invariants, outside the timed region.
        """
        out_root = os.path.join(self.work, f"out{index}")
        times = {}
        self.failures = {}
        for name in self.names:
            wall, scaled, (code, error) = timed(
                lambda: self._operation(name, out_root))
            times[name] = (wall, scaled)
            self._check(name, out_root, code, error, capture)
        size = sum(os.path.getsize(os.path.join(d, f))
                   for d, _, files in os.walk(out_root) for f in files)
        shutil.rmtree(out_root, ignore_errors=True)
        return times, size

    def _operation(self, name, out_root):
        """(exit code, error) of one gallery entry through the CLI."""
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                return self.cli.main(["gallery", "--only", name,
                                      "--out", out_root]), None
        except Exception as exc:  # an uncaught exception fails the op
            return None, f"{type(exc).__name__}: {exc}"

    def _check(self, name, out_root, code, error, capture):
        wrong = [error] if error else []  # results off the reference
        if capture is not None:
            traces = list(capture.results)
            capture.results.clear()
            self.records[name] = sum(len(tr.t) for tr in traces)
            with capture.paused():
                for tr in traces:
                    try:
                        tr.check_invariants()
                    except Exception as exc:  # any raise breaks the invariant
                        wrong.append(
                            f"invariant: {type(exc).__name__}: {exc}")
                        break
        try:
            got = workloads.read_outputs(os.path.join(out_root, name))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            wrong.append(f"outputs unreadable: {type(exc).__name__}: {exc}")
        else:
            wrong += workloads.mismatches(got, self.reference[name],
                                          self.inputs[name][0])
        reasons = ([f"exit {code}"] if error is None and code != 0 else [])
        reasons += wrong
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.failures[name] = reasons
        self.wrong += [(name, r) for r in wrong]

    @property
    def total_records(self):
        """Records per pass, as captured; the reference count where the
        `simulate` hook found nothing to capture."""
        return sum(self.records.get(n) or self.reference[n]["records"]
                   for n in self.names)


def pass_time(passes, which=1):
    """Time of one pass: per-operation medians, summed.

    `which` picks wall (0) or reference-speed (1) seconds. A burst of load
    slows a few operations of one pass; each operation's median keeps it
    out of the figure.
    """
    return sum(median(p[name][which] for p in passes) for name in passes[0])


def end_to_end(run, seconds):
    setup = run.measure_setup()
    run.import_package()
    with Tracer(span_hooks=[("simulate", "simulate")],
                count_hooks=[]) as capture:
        run.run_pass(0, capture=capture)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run.run_pass(len(passes) + 1)[0])
        used = time.perf_counter() - start
        if (len(passes) >= MIN_PASSES
                and used + pass_time(passes, 0) > seconds):
            break
    wall = pass_time(passes)
    records = run.total_records
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_wall = [w for w, _ in setup]
    notes = {
        "wall_s": f"reference-speed s; sum of per-operation medians over "
                  f"{len(passes)} timed passes; wall clock "
                  f"{pass_time(passes, 0):.3f} s",
        "records_per_s": f"{records} records per pass / wall_s",
        "setup_s": f"reference-speed s; median of {len(setup)} fresh "
                   f"interpreters; wall clock {median(setup_wall):.3f} s",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    metrics = {
        "wall_s": (wall, "s"),
        "records_per_s": (records / wall, "1/s"),
        "setup_s": (median(s for _, s in setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, notes


def traced_pass(run, index):
    with Tracer() as t:
        ops, size = run.run_pass(index, capture=t)
    # every time of the pass in reference-speed seconds
    scale = (sum(s for _, s in ops.values())
             / max(sum(w for w, _ in ops.values()), 1e-12))
    records = run.total_records
    counts = {
        "records": records,
        "charts.evals": t.count("chart_eval"),
        "manifold.geo_rhs": t.count("geo_rhs"),
        "manifold.rk4": t.count("rk4"),
        "manifold.connect": t.count("connect"),
        "manifold.connect.integrations": t.count("rk4", inside="connect"),
        "manifold.connect.failed": t.failures["connect"],
        "manifold.exp_map": t.count("exp_map"),
        "manifold.parallel_transport": t.count("parallel_transport"),
        "tractrix_sim.fill_d.connect": t.count("connect", inside="fill_d"),
        "comparison.certify.gauss_evals": t.count("gauss", inside="certify"),
        "shortening.rounds": t.count("round"),
        "outputs.bytes": size,
    }
    times = {
        "wall": sum(w for w, _ in ops.values()),
        "manifold.connect.self_s": t.self_s("connect"),
        "manifold.exp_map.self_s": t.self_s("exp_map"),
        "manifold.parallel_transport.self_s": t.self_s("parallel_transport"),
        "tractrix_sim.attach_s": t.inclusive_s("attach"),
        "tractrix_sim.propagate_s": t.self_s("simulate"),
        "tractrix_sim.fill_d_s": t.inclusive_s("fill_d"),
        "tractrix_sim.fill_curvature_s": t.inclusive_s("fill_curvature"),
        "tractrix_sim.cusps_s": t.inclusive_s("cusps"),
        "functionals.sweep_s": t.inclusive_s("sweep"),
        "comparison.certify_s": t.inclusive_s("certify"),
        "comparison.checks_s": t.inclusive_s("checks"),
        "shortening.round_s": t.inclusive_s("round"),
        "outputs.write_s": t.inclusive_s("write"),
        "config.load_s": t.inclusive_s("config_load"),
    }
    return counts, {k: v * scale for k, v in times.items()}, t.missing


def per_layer(run, seconds):
    run.import_package()
    traced, untraced = [], []
    start = time.perf_counter()
    while True:
        traced.append(traced_pass(run, len(traced) + len(untraced)))
        if len(traced) >= 2 and len(untraced) >= 1:
            used = time.perf_counter() - start
            if used + 2 * (used / (len(traced) + len(untraced))) > seconds:
                break
        ops, _ = run.run_pass(len(traced) + len(untraced))
        untraced.append(sum(s for _, s in ops.values()))

    # every count must repeat exactly between traced passes
    counts, _, missing = traced[0]
    for other, _, _ in traced[1:]:
        for key in counts:
            if other[key] != counts[key]:
                run.wrong.append(("trace", f"count {key} changed between "
                                  f"traced passes: {counts[key]} vs "
                                  f"{other[key]}"))
    for name in missing:
        print(f"missing hook: {name}", file=sys.stderr)

    def med(key):
        return median(t[key] for _, t, _ in traced)

    records = max(counts["records"], 1)
    connects = counts["manifold.connect"]
    metrics = {
        "records": (counts["records"], "count"),
        "charts.evals_per_record": (counts["charts.evals"] / records,
                                    "1/record"),
        "manifold.geo_rhs.per_record": (counts["manifold.geo_rhs"] / records,
                                        "1/record"),
        "manifold.rk4.per_record": (counts["manifold.rk4"] / records,
                                    "1/record"),
        "manifold.connect.calls_per_record": (connects / records, "1/record"),
        "manifold.connect.integrations_per_call": (
            counts["manifold.connect.integrations"] / connects
            if connects else 0.0, "1/call"),
        "manifold.connect.failed": (counts["manifold.connect.failed"],
                                    "count"),
        "manifold.exp_map.calls_per_record": (
            counts["manifold.exp_map"] / records, "1/record"),
        "manifold.parallel_transport.calls_per_record": (
            counts["manifold.parallel_transport"] / records, "1/record"),
        "tractrix_sim.fill_d.connect_per_record": (
            counts["tractrix_sim.fill_d.connect"] / records, "1/record"),
        "tractrix_sim.fill_d_share": (med("tractrix_sim.fill_d_s")
                                      / med("wall"), "ratio"),
        "comparison.certify.gauss_evals": (
            counts["comparison.certify.gauss_evals"], "count"),
        "shortening.rounds": (counts["shortening.rounds"], "count"),
        "outputs.bytes": (counts["outputs.bytes"], "B"),
    }
    for key in traced[0][1]:
        if key != "wall":
            metrics[key] = (med(key), "s")
    metrics["trace.traced_wall_s"] = (med("wall"), "s")
    metrics["trace.untraced_wall_s"] = (median(untraced), "s")
    metrics["trace.overhead_s"] = (med("wall") - median(untraced), "s")
    metrics["trace.hooks_missing"] = (len(missing), "count")
    metrics["failed_frac"] = (run.failed / run.attempted, "ratio")
    notes = {"trace.traced_wall_s": f"median of {len(traced)} traced passes",
             "trace.untraced_wall_s": f"median of {len(untraced)} passes",
             "trace.hooks_missing": ", ".join(missing) or "none"}
    return metrics, notes


def source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "tractrix")
    for d, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        for f in sorted(files):
            if f.endswith((".py", ".yaml")):
                with open(os.path.join(d, f), "rb") as fh:
                    h.update(f.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metadata(args):
    import numpy
    import scipy

    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": commit(), "source_sha256": source_digest(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def main(argv=None):
    args = parse_args(argv)
    # SIGTERM raises KeyboardInterrupt, which neither the CLI nor the
    # operation guard catches, so the `finally` below removes the work folder
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(ROOT, "src", "tractrix",
                                       "__init__.py")):
        print(f"error: no tractrix package under {ROOT}/src",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        run = Run(args, work, reference)
        measure = per_layer if args.trace else end_to_end
        metrics, notes = measure(run, args.seconds)
        meta = metadata(args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)

    for name, (_, note) in run.inputs.items():
        print(f"input {name}: {note}")
    for name, reasons in run.failures.items():
        print(f"failed {name}: {'; '.join(reasons)}")
    for name, reason in dict.fromkeys(run.wrong):
        print(f"WRONG {name}: {reason}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{name} = {value:.6g} {unit}" + (f"  [{note}]" if note else ""))
    print("meta: " + json.dumps(meta))
    print(json.dumps({
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
