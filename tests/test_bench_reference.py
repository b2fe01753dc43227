"""The benchmark's output check, run on the bundled inputs.

Every gallery entry whose benchmark input is the bundled scenario runs
through the CLI, and its outputs are compared against
bench/reference.json with the benchmark's own reader and tolerances
(bench/workloads.py, imported and used unchanged).
"""

import importlib.util
import json
import os

import pytest

from tractrix import cli

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
# The benchmark cuts the span of ellipsoid_equator (SPAN_OVERRIDES), so
# its reference does not describe the bundled scenario: skipped.
NAMES = [pytest.param(name, marks=pytest.mark.skip(
    reason="the benchmark runs a shorter span than the bundled scenario"))
    if name in workloads.SPAN_OVERRIDES else name for name in REFERENCE]


@pytest.mark.parametrize("name", NAMES)
def test_gallery_entry_matches_bench_reference(tmp_path, capsys, name):
    ref = REFERENCE[name]
    # like the benchmark, require exit 0; the reference's own exit codes
    # date from a commit at which three scenarios failed verification
    assert cli.main(["gallery", "--only", name, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"{name}: ok"]
    got = workloads.read_outputs(str(tmp_path / name))
    assert workloads.mismatches(got, ref, None) == []
