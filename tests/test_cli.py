import filecmp
import os

import yaml

from tractrix import cli
from tractrix.comparison import Check, ComparisonReport
from tractrix.config import bundled_dir

FLAT_GEODESIC = os.path.join(bundled_dir(), "flat_geodesic.yaml")


def write_config(tmp_path, raw, name="scenario"):
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    return str(path)


def flat_line(**overrides):
    raw = {"model": {"kind": "spaceform", "K": 0.0, "dim": 2},
           "tractor": {"kind": "line", "start": [0.0, 0.0],
                       "direction": [1.0, 0.0], "t1": 1.0},
           "gamma0": [0.0, 1.0], "ell": 1.0,
           "sim": {"dt": 0.05, "pole_step": 0.05}}
    raw.update(overrides)
    return raw


def test_simulate_bundled_scenario_exits_zero(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", FLAT_GEODESIC,
                     "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["cusps.txt", "sweep.txt", "trace.csv"]


def test_gamma0_of_wrong_dimension_exits_one(tmp_path, capsys):
    config = write_config(tmp_path, flat_line(gamma0=[0.0, 1.0, 0.0]))
    assert cli.main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 1
    assert "gamma0" in capsys.readouterr().err


def test_tractor_points_of_wrong_dimension_exit_one(tmp_path, capsys):
    raw = flat_line()
    raw["tractor"].update(start=[0.0, 0.0, 0.0], direction=[1.0, 0.0, 0.0])
    config = write_config(tmp_path, raw)
    assert cli.main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 1
    assert "tractor.start" in capsys.readouterr().err


def test_shorten_endpoint_of_wrong_dimension_exits_one(tmp_path, capsys):
    raw = {"model": {"kind": "spaceform", "K": 0.0, "dim": 2}, "ell": 1.0,
           "shorten": {"mode": "self", "P": [0.0, 0.0, 0.0], "Q": [5.0, 0.0],
                       "initial": {"points": [[0.0, 0.0], [2.5, 1.0],
                                              [5.0, 0.0]]}}}
    config = write_config(tmp_path, raw)
    assert cli.main(["shorten", "--config", config,
                     "--out", str(tmp_path / "out")]) == 1
    assert "shorten.P" in capsys.readouterr().err


def test_unknown_field_exits_one(tmp_path, capsys):
    config = write_config(tmp_path, flat_line(colour="red"))
    assert cli.main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 1
    assert "colour" in capsys.readouterr().err


def test_numeric_failure_exits_two(tmp_path, capsys):
    raw = {"model": {"kind": "spaceform", "K": -1.0},
           "tractor": {"kind": "disk_ray", "t1": 1.0},
           "gamma0": [0.8, 0.8], "ell": 1.0}
    config = write_config(tmp_path, raw)
    assert cli.main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
    assert "numeric error" in capsys.readouterr().err


def test_failed_check_exits_three(tmp_path, monkeypatch):
    failing = Check(name="rauch", inequality="lhs <= rhs", lhs=1.0, rhs=0.0,
                    margin=-1.0, passed=False)
    monkeypatch.setattr(cli, "rauch_length_area_check",
                        lambda *a, **kw: ComparisonReport((failing,)))
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", FLAT_GEODESIC,
                     "--out", str(out)]) == 3
    assert "[FAIL] rauch" in (out / "report.txt").read_text()


def test_simulate_reruns_are_byte_identical(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        assert cli.main(["simulate", "--config", FLAT_GEODESIC,
                         "--out", str(out)]) == 0
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second))
    match, mismatch, errors = filecmp.cmpfiles(first, second, names,
                                               shallow=False)
    assert match == names and not mismatch and not errors

