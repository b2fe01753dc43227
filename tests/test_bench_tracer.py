"""The benchmark's tracer on the package as it stands.

bench/tracer.py, imported and used unchanged, rebinds package functions
by their bare names. A name it finds nowhere is reported as missing, and
the per-layer metrics hooked on it read 0. The set of missing names is
pinned here, so a rename or a deletion in the package cannot add to it
unnoticed.
"""

import importlib
import importlib.util
import os
import pkgutil

import tractrix
from tractrix import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")
# the surface chart derivatives are evaluated as one jet, exp_map is gone,
# K comes only from the chart's spray, so gauss_at is gone too, and the
# space forms' geodesic right-hand sides (_geo_rhs) are gone, as they shoot
# in closed form; the hooks still name them
MISSING = {"du", "dv", "duu", "duv", "dvv", "exp_map", "gauss_at",
           "_geo_rhs"}


def _tracer_module():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", os.path.join(BENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_hook_but_the_known_missing():
    for info in pkgutil.iter_modules(tractrix.__path__):
        importlib.import_module(f"tractrix.{info.name}")
    tracer = _tracer_module().Tracer()
    with tracer:
        missing = set(tracer.missing)
    assert missing == MISSING


def test_simulate_hook_captures_every_shortening_round(tmp_path):
    # records_per_s and the invariant checks read the traces this hook
    # captures; shorten_flat records 16 iterates, one round between each
    tracer = _tracer_module().Tracer(span_hooks=[("simulate", "simulate")],
                                     count_hooks=[])
    with tracer:
        assert cli.main(["gallery", "--only", "shorten_flat",
                         "--out", str(tmp_path)]) == 0
    assert len(tracer.results) == 15
    assert all(len(tr.t) == 401 for tr in tracer.results)
