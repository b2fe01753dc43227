"""The benchmark's output check, run on the bundled inputs.

Every gallery entry whose benchmark input is the bundled scenario runs
through the CLI, and its outputs are compared against
bench/reference.json with the benchmark's own reader and tolerances
(bench/workloads.py, imported and used unchanged). An entry whose span
the benchmark cuts (SPAN_OVERRIDES) runs at that span instead.
"""

import copy
import dataclasses
import importlib.util
import json
import os

import pytest

from tractrix import cli
from tractrix.config import bundled_scenario

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(BENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()
with open(os.path.join(BENCH, "reference.json")) as fh:
    REFERENCE = json.load(fh)["operations"]
NAMES = [name for name in REFERENCE if name not in workloads.SPAN_OVERRIDES]


@pytest.mark.parametrize("name", NAMES)
def test_gallery_entry_matches_bench_reference(tmp_path, capsys, name):
    ref = REFERENCE[name]
    # like the benchmark, require exit 0; the reference's own exit codes
    # date from a commit at which three scenarios failed verification
    assert cli.main(["gallery", "--only", name, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"{name}: ok"]
    got = workloads.read_outputs(str(tmp_path / name))
    assert workloads.mismatches(got, ref, None) == []


@pytest.mark.parametrize("name", sorted(workloads.SPAN_OVERRIDES))
def test_cut_span_matches_bench_reference(tmp_path, name):
    # the benchmark's input: the bundled config with t1 = t0 + the span
    cfg = bundled_scenario(name)
    data = copy.deepcopy(cfg.data)
    tractor = data["tractor"]
    tractor["t1"] = tractor.get("t0", 0.0) + workloads.SPAN_OVERRIDES[name]
    code, summary = cli.run_scenario(dataclasses.replace(cfg, data=data),
                                     tmp_path, check=True)
    assert code == 0, summary
    got = workloads.read_outputs(str(tmp_path))
    assert workloads.mismatches(got, REFERENCE[name], None) == []
