import filecmp
import math
import os

import pytest
import yaml

from tractrix import cli
from tractrix.comparison import Check, ComparisonReport
from tractrix.config import bundled_dir

FLAT_GEODESIC = os.path.join(bundled_dir(), "flat_geodesic.yaml")
SHORTEN_SPHERE = os.path.join(bundled_dir(), "shorten_sphere.yaml")


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


@pytest.mark.parametrize("keys, value, field", [
    (("sim", "dt"), math.nan, "sim.dt"),
    (("gamma0",), [math.nan, 1.0], "gamma0[0]"),
    (("tractor", "start"), [math.nan, 0.0], "tractor.start"),
    (("ell",), math.inf, "ell"),
    (("model", "K"), math.nan, "model.K"),
], ids=["dt", "gamma0", "tractor.start", "ell", "K"])
def test_non_finite_number_exits_one(tmp_path, capsys, keys, value, field):
    raw = flat_line()
    section = raw
    for key in keys[:-1]:
        section = section[key]
    section[keys[-1]] = value
    config = write_config(tmp_path, raw)
    assert cli.main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"{field}: expected" in err and "finite" in err


@pytest.mark.parametrize("flag", ["--K", "--ell", "--d0", "--s-max"])
def test_analytic_non_finite_flag_exits_one(tmp_path, capsys, flag):
    values = {"--K": "1", "--ell": "1", "--d0": "0.5", "--s-max": "3"}
    values[flag] = "nan"
    out = tmp_path / "out"
    argv = ["analytic", "--out", str(out)]
    for key, value in values.items():
        argv += [key, value]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert f"{flag[2:]}: expected a finite number" in err
    assert not out.exists()


def test_ragged_polyline_file_exits_one(tmp_path, capsys):
    (tmp_path / "ragged.txt").write_text("0 0\n1 0 5\n2 1\n")
    config = write_config(tmp_path, flat_line(
        tractor={"kind": "polyline", "file": "ragged.txt"}))
    assert cli.main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "ragged.txt: line 2 has 3 coordinates" in err


def test_pole_at_conjugate_scale_exits_one(tmp_path, capsys):
    raw = {"model": {"kind": "spaceform", "K": 1.0},
           "tractor": {"kind": "latitude", "colatitude": math.pi / 2,
                       "t1": 1.0},
           "gamma0": [math.pi / 2, math.pi], "ell": math.pi}
    config = write_config(tmp_path, raw)
    assert cli.main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "ell" in err and "conjugate scale" in err


def test_attached_pole_at_conjugate_scale_exits_one(tmp_path, capsys):
    # the attachment meets the pole length before the simulation does
    raw = {"model": {"kind": "spaceform", "K": 1.0},
           "tractor": {"kind": "latitude", "colatitude": math.pi / 2,
                       "t1": 1.0},
           "gamma0": {"d0": 0.5, "side": 1, "mode": "behind"},
           "ell": math.pi}
    config = write_config(tmp_path, raw)
    assert cli.main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 1
    assert "conjugate scale" in capsys.readouterr().err


@pytest.mark.parametrize("chart, named", [
    ({"name": "graph", "poly": [[-1, 0, 1.0]]}, "[-1, 0, 1.0]"),
    ({"name": "graph", "poly": [[1.5, 0, 1.0]]}, "[1.5, 0, 1.0]"),
    ({"name": "graph", "poly": [[2, 0, math.nan], [0, 2, 1.0]]},
     "[2, 0, nan]"),
    ({"name": "graph", "poly": [[2, 0]]}, "[2, 0]"),
    ({"name": "graph", "sinsin": [[0.1, 1.0, 0.0, math.inf, 0.0]]},
     "[0.1, 1.0, 0.0, inf, 0.0]"),
    ({"name": "hilly", "amplitude": "abc"}, "'hilly'"),
], ids=["negative-exponent", "fractional-exponent", "nan-coefficient",
        "short-poly-term", "infinite-sinsin", "non-numeric-parameter"])
def test_bad_chart_parameters_exit_one(tmp_path, capsys, chart, named):
    raw = {"model": {"kind": "surface", "chart": chart},
           "tractor": {"kind": "chart_line", "start": [0.6, 0.0],
                       "direction": [0.0, 1.0], "t1": 0.2},
           "gamma0": {"d0": 0.3, "side": 1, "mode": "behind"}, "ell": 0.5,
           "sim": {"dt": 0.05, "pole_step": 0.05}}
    config = write_config(tmp_path, raw)
    assert cli.main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 1
    assert named in capsys.readouterr().err


def test_removed_options_exit_one(tmp_path):
    out = str(tmp_path / "out")
    assert cli.main(["gallery", "--only", "flat_geodesic", "--jobs", "2",
                     "--out", out]) == 1
    for extra in ({"functionals": {"sweep": True}},
                  {"comparison": {"method": "auto", "checks": ["rauch"]}}):
        config = write_config(tmp_path, flat_line(**extra))
        assert cli.main(["simulate", "--config", config, "--out", out]) == 1
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, config", [
    ("simulate", SHORTEN_SPHERE),
    ("verify", SHORTEN_SPHERE),
    ("shorten", FLAT_GEODESIC),
])
def test_scenario_of_the_wrong_kind_exits_one(tmp_path, command, config):
    assert cli.main([command, "--config", config,
                     "--out", str(tmp_path / "out")]) == 1


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



def assert_same_files(left, right):
    names = sorted(os.listdir(left))
    assert names == sorted(os.listdir(right))
    match, mismatch, errors = filecmp.cmpfiles(left, right, names,
                                               shallow=False)
    assert match == names and not mismatch and not errors


def test_gallery_matches_verify_and_shorten(tmp_path, capsys):
    gallery = tmp_path / "gallery"
    assert cli.main(["gallery", "--only", "flat_geodesic,shorten_sphere",
                     "--out", str(gallery)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "flat_geodesic: ok", "shorten_sphere: ok"]
    assert cli.main(["verify", "--config", FLAT_GEODESIC,
                     "--out", str(tmp_path / "verify")]) == 0
    assert cli.main(["shorten", "--config", SHORTEN_SPHERE,
                     "--out", str(tmp_path / "shorten")]) == 0
    assert sorted(os.listdir(tmp_path / "verify")) == [
        "cusps.txt", "report.txt", "sweep.txt", "trace.csv"]
    assert_same_files(gallery / "flat_geodesic", tmp_path / "verify")
    assert_same_files(gallery / "shorten_sphere", tmp_path / "shorten")
