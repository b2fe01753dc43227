import copy
import filecmp
import functools
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from tractrix import cli
from tractrix.comparison import Check, ComparisonReport
from tractrix.config import bundled_dir, bundled_names, load_scenario
from tractrix.errors import ConfigError

FLAT_GEODESIC = os.path.join(bundled_dir(), "flat_geodesic.yaml")
SHORTEN_SPHERE = os.path.join(bundled_dir(), "shorten_sphere.yaml")
SHORTEN_TORUS = os.path.join(bundled_dir(), "shorten_torus.yaml")


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
    (("tractor", "start"), [math.nan, 0.0], "tractor.start[0]"),
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


def test_analytic_long_pole_follows_from_K_and_ell(tmp_path):
    # sqrt(K)*ell = 2 > pi/2: the profile grows from d0 toward the cusp at
    # d = pi - ell, where the grid ends
    out = tmp_path / "out"
    assert cli.main(["analytic", "--K", "1", "--ell", "2.0", "--d0", "0.3",
                     "--out", str(out)]) == 0
    rows = (out / "analytic.csv").read_text().splitlines()
    assert rows[0] == "s,d,kappa"
    s, d, kappa = zip(*(map(float, row.split(",")) for row in rows[1:]))
    assert len(s) == 241 and s[0] == 0.0
    assert d[0] == pytest.approx(0.3, rel=1e-14)
    assert all(b > a for a, b in zip(d, d[1:]))
    assert d[-1] == pytest.approx(math.pi - 2.0, rel=1e-9)
    # the values that the long-pole profile had when it needed a flag
    assert (s[1], d[1], kappa[1]) == pytest.approx(
        (0.010232678491563237, 0.3014523651269371, 0.3799185165988552),
        rel=1e-12)
    assert s[-1] == pytest.approx(2.455842837975177, rel=1e-12)
    assert (out / "le.txt").read_text() == (
        "{K: 1.0, ell: 2.0, Le: 0.45765755436028577}\n")


def test_analytic_long_pole_flag_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["analytic", "--K", "1", "--ell", "2.0", "--d0", "0.3",
                     "--long-pole", "--out", str(out)]) == 1
    assert "unrecognized arguments: --long-pole" in capsys.readouterr().err
    assert not out.exists()


def test_analytic_K_minus_1_ell_800_exits_one(tmp_path, capsys):
    # sinh(800) is past a float: a typed error, where an OverflowError
    # escaped solve_from_d0
    out = tmp_path / "out"
    assert cli.main(["analytic", "--K=-1", "--ell=800", "--d0=0.5",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: sn(ell) of K = -1.0 and ell = 800.0 leaves the float "
        "range\n")
    assert not out.exists()


def test_analytic_K_minus_1_ell_700_runs(tmp_path):
    # sinh(700) is a float and its square is not, which raised an
    # OverflowError from kappa_from_dist: E = coth(700) = 1, and kappa,
    # below sinh(0.5) / sinh(700)^2 ~ 1e-608, rounds to 0
    out = tmp_path / "out"
    assert cli.main(["analytic", "--K=-1", "--ell=700", "--d0=0.5",
                     "--out", str(out)]) == 0
    rows = (out / "analytic.csv").read_text().splitlines()[1:]
    s, d, kappa = np.array([row.split(",") for row in rows], dtype=float).T
    assert np.allclose(d, np.arcsinh(math.sinh(0.5) * np.exp(-s)),
                       rtol=1e-14, atol=0.0)
    assert not kappa.any()
    assert (out / "le.txt").read_text() == (
        "{K: -1.0, ell: 700.0, Le: -1.0}\n")


def test_analytic_K_minus_1_ell_600_at_the_cusp_runs(tmp_path):
    # d0 = ell starts on the cusp: sinh(600.4893)^2 - sinh(d)^2 is past a
    # float, which raised an OverflowError, and on the grid's rows a
    # RuntimeWarning; the profile is written in x = sinh(d) / sinh(ell)
    # instead. kappa(0) is inf, an empty cell, and by the next row, at
    # s = 4167, d and kappa have decayed below a float
    out = tmp_path / "out"
    assert cli.main(["analytic", "--K=-1", "--ell=600.4893",
                     "--d0=600.4893", "--s-max=1e6", "--out", str(out)]) == 0
    rows = (out / "analytic.csv").read_text().splitlines()
    assert rows[1] == "0.0,600.4893,"
    assert all(row.endswith(",0.0,0.0") for row in rows[2:])


def test_ragged_polyline_file_exits_one(tmp_path, capsys):
    (tmp_path / "ragged.txt").write_text("0 0\n1 0 5\n2 1\n")
    config = write_config(tmp_path, flat_line(
        tractor={"kind": "polyline", "file": "ragged.txt"}))
    assert cli.main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "ragged.txt: line 2 has 3 coordinates" in err


@pytest.mark.parametrize("mode, field", [("self", "initial"),
                                         ("loop", "loop")])
def test_ragged_shorten_points_exit_one(tmp_path, capsys, mode, field):
    # a point of three coordinates among points of two used to pass the
    # load and end in a ValueError traceback
    curve = {"points": [[0.0, 0.0], [2.5, 1.0, 3.0], [5.0, 0.0]]}
    shorten = ({"mode": "self", "P": [0.0, 0.0], "Q": [5.0, 0.0],
                "initial": curve} if mode == "self"
               else {"mode": "loop", "loop": curve})
    config = write_config(tmp_path, {
        "model": {"kind": "spaceform", "K": 0.0, "dim": 2}, "ell": 1.0,
        "shorten": shorten})
    assert cli.main(["shorten", "--config", config,
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: {config}: shorten.{field}.points[1]: expected 2 "
        f"coordinates, got 3\n")


SELF = "not read by shorten mode 'self'"
LOOP = "not read by shorten mode 'loop'"
# (bundled shortening, section, its value, the field refused and why)
UNREAD = [
    ("shorten_flat", "sim", {"dt": 0.9}, "sim.dt", SELF),
    ("shorten_flat", "sim", {"cusp_speed_eps": 0.9}, "sim.cusp_speed_eps",
     SELF),
    ("shorten_flat", "sim", {"max_records": 2}, "sim.max_records", SELF),
    ("shorten_torus", "sim", {"pole_step": 0.001}, "sim.pole_step", LOOP),
    ("shorten_torus", "sim", {"dt": 0.9}, "sim.dt", LOOP),
    ("shorten_torus", "comparison", {"checks": ["toponogov"], "widen": 5.0},
     "comparison", "not read by a shortening scenario"),
    ("shorten_flat", "gamma0", {"d0": 0.5}, "gamma0",
     "not read by a shortening scenario"),
]


@pytest.mark.parametrize("name, section, value, field, reason", UNREAD,
                         ids=[f"{n}-{f}" for n, _, _, f, _ in UNREAD])
def test_a_key_a_shortening_never_reads_exits_one(tmp_path, capsys, name,
                                                  section, value, field,
                                                  reason):
    # each of these used to load, and the run's outputs were the bundled
    # run's
    raw = bundled(name)
    raw[section] = value
    config = write_config(tmp_path, raw)
    assert cli.main(["shorten", "--config", config,
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {config}: {field}: {reason}\n"
    assert not (tmp_path / "out").exists()


def test_a_self_shortening_reads_its_pole_step(tmp_path, monkeypatch):
    raw = bundled("shorten_flat")
    raw["sim"] = {"pole_step": 0.125}
    cfg = load_scenario(write_config(tmp_path, raw))
    assert cfg.sim == {"pole_step": 0.125}
    monkeypatch.setattr(cli, "self_repeated", lambda *args, **kw: kw)
    assert cli._shorten(cfg)["pole_step"] == 0.125


@pytest.mark.parametrize("section", ["tractor", "shorten.initial",
                                     "shorten.loop"])
def test_a_polyline_file_of_the_wrong_width_exits_one_at_load(
        tmp_path, capsys, section):
    # a file of 3-D points for a 2-D model passed the load and stopped
    # the run with one of three messages, none naming the config
    (tmp_path / "wide.txt").write_text("x y z\n0 0 0\n1 0 0\n2 1 0\n")
    model = {"kind": "spaceform", "K": 0.0, "dim": 2}
    curve = {"file": "wide.txt"}
    if section == "tractor":
        raw, command = flat_line(tractor={"kind": "polyline", **curve}), \
            "simulate"
    elif section == "shorten.initial":
        raw = {"model": model, "ell": 1.0,
               "shorten": {"mode": "self", "P": [0.0, 0.0], "Q": [2.0, 1.0],
                           "initial": curve}}
        command = "shorten"
    else:
        raw = {"model": model, "ell": 0.2,
               "shorten": {"mode": "loop", "loop": curve}}
        command = "shorten"
    config = write_config(tmp_path, raw)
    with pytest.raises(ConfigError):
        load_scenario(config)
    assert cli.main([command, "--config", config,
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: {config}: {section}.file: wide.txt: line 2: expected 2 "
        f"coordinates, got 3\n")


def test_a_file_polyline_tractor_runs_as_its_points_inline(tmp_path):
    points = [[0.0, 0.0], [1.0, 0.25], [2.0, 0.0], [3.0, 0.5]]
    (tmp_path / "eta.txt").write_text(
        "".join(f"{x!r}, {y!r}\n" for x, y in points))
    for name, curve in (("inline", {"points": points}),
                        ("file", {"file": "eta.txt"})):
        config = write_config(tmp_path, flat_line(
            tractor={"kind": "polyline", **curve}, gamma0=[0.0, 1.0]), name)
        assert cli.main(["simulate", "--config", config,
                         "--out", str(tmp_path / name)]) == 0
    assert_same_files(tmp_path / "inline", tmp_path / "file")


def test_circle3d_of_radius_1e170_is_not_closed(tmp_path, capsys):
    # the end gap, 2.4e154, squared past a float in a norm, and with
    # warnings as errors its overflow warning escaped main
    raw = bundled("circle3d")
    raw["tractor"]["radius"] = 1.0e170
    config = write_config(tmp_path, raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["simulate", "--config", config,
                         "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: closed tractor has endpoint gap ")


def test_circle3d_with_gamma0_at_1e160_is_a_pole_length_drift(tmp_path,
                                                              capsys):
    # the log map's distance squared past a float, and with warnings as
    # errors its overflow warning escaped main
    raw = bundled("circle3d")
    raw["gamma0"][0] = 1.0e160
    config = write_config(tmp_path, raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["simulate", "--config", config,
                         "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (
        "numeric error: initial attachment distance inf does not match "
        "ell 0.5\n")


@pytest.mark.parametrize("periods", [[1.0], [1.0, 1.0, 1.0]],
                         ids=["one", "three"])
def test_periods_of_wrong_length_exit_one(tmp_path, capsys, periods):
    # one period used to leave the second winding number to uninitialised
    # memory, three ended in an IndexError traceback
    with open(SHORTEN_TORUS) as fh:
        raw = yaml.safe_load(fh)
    raw["model"]["periods"] = periods
    config = write_config(tmp_path, raw)
    assert cli.main(["shorten", "--config", config,
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "periods" in err


@pytest.mark.parametrize("text", ["- 1\n", "just a string\n"],
                         ids=["list", "scalar"])
def test_config_top_level_not_a_mapping_exits_one(tmp_path, capsys, text):
    config = tmp_path / "scenario.yaml"
    config.write_text(text)
    assert cli.main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "mapping" in err
    assert "Traceback" not in err


def test_malformed_yaml_exits_one(tmp_path, capsys):
    config = tmp_path / "scenario.yaml"
    config.write_text("a: [1, 2\n")
    assert cli.main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "invalid YAML" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("model, tractor, gamma0", [
    ({"kind": "spaceform", "K": 1.0},
     {"kind": "latitude", "colatitude": 1.0, "t1": 1.0}, [1.5, 0.0]),
    ({"kind": "spaceform", "K": 0.0},
     {"kind": "circle", "center": [0.0, 0.0], "radius": 2.0, "t1": 1.0},
     [2.0, -1.0]),
    ({"kind": "spaceform", "K": 0.0},
     {"kind": "polyline", "points": [[0.0, 0.0], [1.0, 0.0], [2.0, 1e-6]]},
     [-1.0, 0.0]),
], ids=["latitude", "circle", "polyline"])
def test_false_geodesic_flag_exits_one(tmp_path, capsys, model, tractor,
                                       gamma0):
    # the closed-form foot distance trusts the flag, so a curve that
    # leaves its initial geodesic is refused before propagation, even by
    # the polyline's 1e-6
    raw = {"model": model, "tractor": dict(tractor, geodesic=True),
           "gamma0": gamma0, "ell": 0.5, "sim": {"dt": 0.05}}
    config = write_config(tmp_path, raw)
    assert cli.main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 1
    assert "tractor.geodesic" in capsys.readouterr().err


@pytest.mark.parametrize("model, tractor, gamma0, field", [
    ({"kind": "spaceform", "K": 0.0, "dim": 3},
     {"kind": "helix", "radius": 0.0, "pitch": 0.0, "t1": 1.0},
     [1.0, 0.0, 0.0], "tractor.radius"),
    ({"kind": "spaceform", "K": 0.0, "dim": 3},
     {"kind": "circle3d", "radius": 0.0}, [1.0, 0.0, 0.0], "tractor.radius"),
    ({"kind": "spaceform", "K": 1.0},
     {"kind": "chart_circle", "center": [1.2, 0.0], "radius": 0.3,
      "rate": 0.0, "t1": 1.0},
     {"d0": 0.2, "side": 1, "mode": "behind"}, "tractor.rate"),
    ({"kind": "spaceform", "K": 0.0, "dim": 3},
     {"kind": "wiggly_circle", "radius": 1.0, "amplitude": 0.2,
      "lobes": 2.5}, [0.75, -0.4, 0.0], "tractor.lobes"),
], ids=["helix", "circle3d", "chart_circle", "wiggly_circle"])
def test_degenerate_tractor_size_exits_one(tmp_path, capsys, model, tractor,
                                           gamma0, field):
    # each of these used to end in a ZeroDivisionError or ValueError
    # traceback, or (the lobes) in a silently truncated value
    raw = {"model": model, "tractor": tractor, "gamma0": gamma0, "ell": 0.5,
           "sim": {"dt": 0.05}}
    config = write_config(tmp_path, raw)
    assert cli.main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("model, tractor, gamma0, field", [
    ({"kind": "spaceform", "K": 0.0, "dim": 3},
     {"kind": "circle3d", "radius": 1.0, "t1": 1.0, "closed": False,
      "colour": "red"}, [0.75, -0.4330127018922193, 0.0], "tractor.t1"),
    ({"kind": "spaceform", "K": 0.0, "dim": 3},
     {"kind": "wiggly_circle", "radius": 1.0, "amplitude": 0.2, "lobes": 3,
      "t0": 0.5}, [0.75, -0.4330127018922193, 0.0], "tractor.t0"),
    ({"kind": "spaceform", "K": 0.0},
     {"kind": "polyline", "points": [[0.0, 0.0], [2.0, 0.0]], "t1": 1.0},
     [-1.0, 0.0], "tractor.t1"),
    ({"kind": "spaceform", "K": -1.0},
     {"kind": "disk_ray", "t1": 1.0, "geodesic": False},
     {"d0": 0.2, "side": 1, "mode": "behind"}, "tractor.geodesic"),
    ({"kind": "spaceform", "K": 0.0},
     {"kind": "line", "start": [0.0, 0.0], "direction": [1.0, 0.0],
      "t1": 1.0, "colour": "red"}, [0.0, 1.0], "tractor.colour"),
    ({"kind": "spaceform", "K": 0.0},
     {"kind": "tractrix_of", "ell": 0.5, "t1": 2.0,
      "curve": {"kind": "line", "start": [0.0, 0.0],
                "direction": [1.0, 0.0], "t1": 1.0}},
     [0.0, 0.0], "tractor.t1"),
], ids=["circle3d", "wiggly_circle", "polyline", "disk_ray", "line",
        "tractrix_of"])
def test_tractor_key_the_kind_does_not_read_exits_one(tmp_path, capsys, model,
                                                      tractor, gamma0, field):
    # these used to run, the key silently ignored or overwritten
    raw = {"model": model, "tractor": tractor, "gamma0": gamma0, "ell": 0.5,
           "sim": {"dt": 0.05}}
    config = write_config(tmp_path, raw)
    assert cli.main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: {config}: {field}: not read by kind {tractor['kind']!r}\n")


@pytest.mark.parametrize("chart, named", [
    ({"name": "graph", "poly": [[-1, 0, 1.0]]}, "[-1, 0, 1.0]"),
    ({"name": "graph", "poly": [[1.5, 0, 1.0]]}, "[1.5, 0, 1.0]"),
    ({"name": "graph", "poly": [[2, 0, math.nan], [0, 2, 1.0]]},
     "[2, 0, nan]"),
    ({"name": "graph", "poly": [[2, 0]]}, "[2, 0]"),
    ({"name": "graph", "sinsin": [[0.1, 1.0, 0.0, math.inf, 0.0]]},
     "[0.1, 1.0, 0.0, inf, 0.0]"),
    ({"name": "hilly", "amplitude": "abc"}, "'hilly'"),
    ({"name": []}, "model.chart: expected a chart name or mapping"),
], ids=["negative-exponent", "fractional-exponent", "nan-coefficient",
        "short-poly-term", "infinite-sinsin", "non-numeric-parameter",
        "list-name"])
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


@pytest.mark.parametrize("only", ["", ","], ids=["empty", "comma"])
def test_gallery_only_naming_no_scenario_exits_one(tmp_path, capsys, only):
    # an --only list with no name in it is an error, not "run all" or
    # "run none"
    out = str(tmp_path / "out")
    assert cli.main(["gallery", "--only", only, "--out", out]) == 1
    captured = capsys.readouterr()
    assert "--only" in captured.err and captured.out == ""
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, config", [
    ("simulate", SHORTEN_SPHERE),
    ("verify", SHORTEN_SPHERE),
    ("shorten", FLAT_GEODESIC),
])
def test_scenario_of_the_wrong_kind_exits_one(tmp_path, command, config):
    assert cli.main([command, "--config", config,
                     "--out", str(tmp_path / "out")]) == 1


def test_float_without_a_dot_exits_one_with_a_hint(tmp_path, capsys):
    # YAML 1.1 reads 1e-3 as text; the error says how to write the number
    config = tmp_path / "scenario.yaml"
    config.write_text(yaml.safe_dump(flat_line(), sort_keys=False).replace(
        "dt: 0.05", "dt: 1e-3"))
    assert cli.main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "sim.dt" in err and "'1e-3'" in err and "1.0e-3" in err


def test_pole_step_past_the_shot_cap_exits_one(tmp_path, capsys):
    # 5e-324 makes the pole shot's step count infinite: a bad pole_step,
    # not an OverflowError traceback
    with open(os.path.join(bundled_dir(), "hilly_pull.yaml")) as f:
        raw = yaml.safe_load(f)
    raw["sim"]["pole_step"] = 5e-324
    config = write_config(tmp_path, raw)
    assert cli.main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "pole_step" in err and "Traceback" not in err


def test_pole_step_past_the_run_cap_exits_one_at_once(tmp_path, capsys):
    # each of hilly_pull's shots at 1e-6 stays under the one shot's cap,
    # but its 600 stage shots together would take 3e8 RK4 steps: refused
    # before the first stage, not run for minutes
    with open(os.path.join(bundled_dir(), "hilly_pull.yaml")) as f:
        raw = yaml.safe_load(f)
    raw["sim"]["pole_step"] = 1.0e-6
    config = write_config(tmp_path, raw)
    start = time.perf_counter()
    assert cli.main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "pole_step" in err and "Traceback" not in err


def test_numeric_failure_exits_two(tmp_path, capsys):
    raw = {"model": {"kind": "spaceform", "K": -1.0},
           "tractor": {"kind": "disk_ray", "t1": 1.0},
           "gamma0": [0.8, 0.8], "ell": 1.0}
    config = write_config(tmp_path, raw)
    assert cli.main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
    assert "numeric error" in capsys.readouterr().err


def test_far_geodesic_disk_tractor_exits_two(tmp_path, capsys):
    # tanh(20) rounds to 1: the tractor ends on |z| = 1, which the geodesic
    # check refuses before it measures from there, where it warned and let
    # a NaN distance pass
    raw = {"model": {"kind": "spaceform", "K": -1.0},
           "tractor": {"kind": "disk_ray", "t1": 40.0},
           "gamma0": {"d0": 0.5}, "ell": 1.0}
    config = write_config(tmp_path, raw)
    assert cli.main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "numeric error: point |z|^2=1.0 outside the unit disk\n")


def test_collapsed_pole_exits_two(tmp_path, capsys):
    # a pole of 1e-100 on the sphere: the log map that gives the run its
    # first pole direction finds gamma and eta coincident
    config = write_config(tmp_path, flat_line(
        model={"kind": "spaceform", "K": 1.0},
        tractor={"kind": "latitude", "colatitude": 1.0, "t1": 1.0},
        gamma0=[1.0, 1.0e-100], ell=1.0e-100, sim={"dt": 0.01}))
    assert cli.main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "numeric error: the pole solve failed in the step from t=0.0: log "
        "map undefined for coincident points\n")


def test_shorten_past_a_repeated_vertex(tmp_path, capsys):
    # the corner behind the repeated vertex is measured: the curve is not
    # taken for a geodesic, and the rounds reach sqrt(5)
    raw = {"model": {"kind": "spaceform", "K": 0.0, "dim": 2}, "ell": 0.5,
           "shorten": {"mode": "self", "P": [0.0, 0.0], "Q": [2.0, 1.0],
                       "initial": {"points": [[0.0, 0.0], [1.0, 0.0],
                                              [1.0, 0.0], [2.0, 1.0]]}}}
    config = write_config(tmp_path, raw)
    assert cli.main(["shorten", "--config", config,
                     "--out", str(tmp_path / "out")]) == 0
    assert ("11 iterates, stop=length_plateau, length=2.2360682890497654"
            in capsys.readouterr().out)


def test_graph_height_overflow_exits_two(tmp_path, capsys):
    # u ** 200 overflows a float at u = 40: a typed error, not a traceback
    raw = {"model": {"kind": "surface",
                     "chart": {"name": "graph", "poly": [[200, 0, 1.0]]}},
           "tractor": {"kind": "chart_line", "start": [40.0, 0.0],
                       "direction": [1.0, 0.0], "t1": 1.0},
           "gamma0": {"d0": 0.25}, "ell": 0.5}
    config = write_config(tmp_path, raw)
    assert cli.main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "numeric error: graph: the height overflows a float at (40.0, 0.0)\n")


def test_far_pseudosphere_point_exits_two(tmp_path, capsys):
    # cosh 800 overflows a float, though u = 800 is inside the domain
    # u > 0: a typed error naming the chart and the point, not a traceback
    raw = {"model": {"kind": "surface", "chart": "pseudosphere"},
           "tractor": {"kind": "chart_line", "start": [800.0, 0.0],
                       "direction": [1.0, 0.0], "t1": 1.0},
           "gamma0": {"d0": 0.25}, "ell": 0.5}
    config = write_config(tmp_path, raw)
    assert cli.main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "numeric error: pseudosphere(a=1): the profile overflows a float at "
        "(800.0, 0.0)\n")


# the repro's polyline, and one whose edges outgrow a float
HUGE = [[0.0, 0.0], [2.0e+154, 0.0], [2.0e+154, 2.0e+154]]
HUGER = [[-1.5e+308, 0.0], [1.5e+308, 0.0], [1.5e+308, 1.5e+308]]


@pytest.mark.parametrize("points, closed, code, err", [
    (HUGE, False, 2,
     "numeric error: pole drift 1.000e+00 exceeds 1e-06 at t=1e+153"),
    (HUGER, False, 1, "error: polyline is longer than a float holds"),
    (HUGER, True, 1, "error: closed polyline endpoints do not match")],
    ids=["segment", "total", "closed"])
def test_huge_polyline_tractor_ends_in_a_typed_error(tmp_path, capsys,
                                                     points, closed, code,
                                                     err):
    # a segment of 2e154 squares past a float, so its length is taken by
    # hypot, with no warning; the pole then drifts off its length at the
    # first step of 1e153. Edges and a total length past a float are
    # refused
    config = write_config(tmp_path, flat_line(
        tractor={"kind": "polyline", "closed": closed, "points": points},
        sim={"dt": 1.0e+153}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["simulate", "--config", config,
                         "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == err + "\n"


def bundled(name):
    """The bundled scenario `name` as a mapping."""
    with open(os.path.join(bundled_dir(), f"{name}.yaml")) as f:
        return yaml.safe_load(f)


def test_ellipsoid_equator_with_a_tiny_pole_exits_two(tmp_path, capsys):
    # a pole of 5e-7 from gamma0 on the tractor, where dt / ell is 10^4:
    # the first step moves |X|_g, a first integral, off 1 by 2e-3, and the
    # record after it is a typed pole failure, long before the state
    # overflows. The drift is the start's rounding-level offset from -eta'
    # amplified by RK4 at h E |eta'| ~ 10^4: a start pole 1.3e-16 off
    # gives 2.243e-3 (from the attachment's pole), one 5.1e-17 off
    # 3.255e-4 (from the chart chord)
    raw = bundled("ellipsoid_equator")
    raw["ell"], raw["gamma0"]["d0"] = 5e-7, 0.0
    config = write_config(tmp_path, raw)
    assert cli.main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "numeric error: pole direction drift 2.243e-03 exceeds 0.0001 at "
        "t=0.005\n")


def test_shorten_sphere_with_a_tiny_pole_exits_zero(tmp_path):
    # at a pole of 7e-7 the log map that starts each spliced head gives a
    # unit direction to rounding, which exp_point accepts; by acos it was
    # 2.8e-4 from unit, and the ValueError escaped
    raw = bundled("shorten_sphere")
    raw["ell"] = 7e-7
    config = write_config(tmp_path, raw)
    assert cli.main(["shorten", "--config", config,
                     "--out", str(tmp_path / "out")]) == 0


def test_halfk_pull_with_a_huge_widen_exits_one(tmp_path, capsys):
    # a widening of 1e10 puts K_lo at -1e10, whose Rauch references
    # overflow a float: those checks are skipped, where an OverflowError
    # escaped, and the sandwich then refuses K_hi = 1e10 as a config error
    raw = bundled("halfk_pull")
    raw["comparison"]["widen"] = 1e10
    config = write_config(tmp_path, raw)
    assert cli.main(["verify", "--config", config,
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: k*ell = 100000.0000025 must stay below pi\n")


def test_flat_geodesic_with_a_long_pole_skips_the_lower_rauch_side(tmp_path):
    # widen (708 / 9000)^2 puts sqrt(-K_lo)*ell at 708: sinh 708 is finite,
    # but J_lo(ell) = sinh(708) / 0.0787 overflows a float, where a
    # RuntimeWarning escaped; the lower side is skipped
    raw = bundled("flat_geodesic")
    raw["ell"], raw["comparison"]["widen"] = 9000.0, (708 / 9000) ** 2
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", write_config(tmp_path, raw),
                     "--out", str(out)]) == 0
    assert (out / "report.txt").read_text().count(
        "J_lo(ell) or its integral overflows a float") == 2


@pytest.mark.parametrize("field, vertex", [("Q", 40), ("initial", 20)])
def test_shorten_flat_in_the_disk_exits_one(tmp_path, capsys, field,
                                            vertex):
    # shorten_flat's points with K = -1 leave the Poincare disk: a config
    # error naming the first field with a point outside, before any
    # distance is measured. Scaled into the disk, only the middle vertex,
    # moved out, is outside
    raw = bundled("shorten_flat")
    raw["model"]["K"] = -1.0
    if field == "initial":
        points = [[0.05 * x, 0.05 * y]
                  for x, y in raw["shorten"]["initial"]["points"]]
        points[vertex] = [0.25, -1.5]
        raw["shorten"].update(P=points[0], Q=points[-1],
                              initial={"points": points})
    config = write_config(tmp_path, raw)
    assert cli.main(["shorten", "--config", config,
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: shorten.{field}: point |z|^2=")


@pytest.mark.parametrize("key, value", [("ell", 1e6), ("t1", 6e6)])
def test_hyperbolic_pull_far_out_exits_two(tmp_path, capsys, key, value):
    # far out along the disk ray cosh overflows: the tractor has reached
    # the rim, which the domain check refuses, with no RuntimeWarning
    # (warnings are errors here)
    raw = bundled("hyperbolic_pull")
    (raw["tractor"] if key == "t1" else raw)[key] = value
    config = write_config(tmp_path, raw)
    assert cli.main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "numeric error: point |z|^2=1.0 outside the unit disk\n")


def test_surface_pull_gallery_spray_count(tmp_path, monkeypatch):
    # the spray evaluations of the two surface pulls, read off the models
    # their traces carry: 66,800 over 402 records, 166.169 a record. It
    # was 66,960, the right-hand side calls that the benchmark's traced
    # pass counted before the spray was written into the shot kernel,
    # until the first pole's connect started along the attachment's pole:
    # 2 shots of 40 sprays where the chart chord took 5 (paraboloid_pull)
    # and 3 (hilly_pull)
    traces = []
    simulate = cli._simulate
    monkeypatch.setattr(cli, "_simulate", lambda cfg: (
        traces.append(simulate(cfg)), traces[-1])[1])
    assert cli.main(["gallery", "--only", "paraboloid_pull,hilly_pull",
                     "--out", str(tmp_path)]) == 0
    assert sum(len(tr.t) for tr in traces) == 402
    assert sum(tr.model.sprays for tr in traces) == 66800


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


def test_main_builds_one_parser_per_process(tmp_path, monkeypatch):
    # the parser is built at the first call of a process and reused by
    # every later one: a usage error leaves nothing behind, and a valid
    # call after it writes what a fresh process writes
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    monkeypatch.setattr(cli, "build_parser",
                        functools.cache(cli.build_parser.__wrapped__))
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert cli.main(["gallery", "--only", "flat_geodesic", "--jobs", "2",
                     "--out", str(out)]) == 1
    assert cli.main(["simulate", "--out", str(out)]) == 1
    assert cli.main(["gallery", "--only", "flat_geodesic",
                     "--out", str(out)]) == 0
    assert built.count("tractrix") == 1
    root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    subprocess.run([sys.executable, "-m", "tractrix.cli", "gallery",
                    "--only", "flat_geodesic", "--out", str(fresh)],
                   env=dict(os.environ, PYTHONPATH=root), check=True,
                   capture_output=True)
    assert_same_files(out / "flat_geodesic", fresh / "flat_geodesic")


# -- the CLI contract under mutated bundled configs ---------------------------


def number_paths(node, path=()):
    """The key paths of every number in a loaded config, bools aside."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from number_paths(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from number_paths(value, (*path, i))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


FACTORS = st.floats(0.2, 3.0) | st.sampled_from([0.0, -1.0, 1e-6, 1e6])
BUNDLED = {name: bundled(name) for name in bundled_names()}


@st.composite
def mutated_scenarios(draw):
    """A bundled config with one to three of its numbers scaled by a
    factor in FACTORS, each drawn from its parameters or, as often, from
    its polyline vertices; an integer stays an integer. A simulated run
    is capped at 3,000 records."""
    raw = copy.deepcopy(BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))])
    paths = list(number_paths(raw))
    pools = [[p for p in paths if "points" not in p],
             [p for p in paths if "points" in p]]
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(draw(st.sampled_from(
            [pool for pool in pools if pool]))))
        node = raw
        for key in path[:-1]:
            node = node[key]
        value, factor = node[path[-1]], draw(FACTORS)
        node[path[-1]] = (round(value * factor) if isinstance(value, int)
                          else value * factor)
    if "shorten" not in raw:
        raw.setdefault("sim", {})["max_records"] = 3000
    return raw


@settings(max_examples=200, deadline=None)
@given(mutated_scenarios())
def test_mutated_bundled_configs_keep_the_exit_code_contract(raw):
    # every run ends in an exit code of the contract, 0 to 3: no
    # exception escapes main and no warning is raised. The record cap and
    # a shot's own cap on its steps keep the 200 examples to about 5 s of
    # the 10 s this test may take
    command = "shorten" if "shorten" in raw else "verify"
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        config = os.path.join(tmp, "scenario.yaml")
        with open(config, "w") as f:
            yaml.safe_dump(raw, f, sort_keys=False)
        code = cli.main([command, "--config", config,
                         "--out", os.path.join(tmp, "out")])
    assert code in (0, 1, 2, 3)


# (K, ell, d0, s-max) of every bundled space-form pull from a distance d0:
# the closed-form profile that `analytic` writes for its run
ANALYTIC = sorted({(raw["model"]["K"], raw["ell"], raw["gamma0"]["d0"],
                    raw["tractor"]["t1"])
                   for raw in BUNDLED.values()
                   if raw["model"]["kind"] == "spaceform"
                   and isinstance(raw.get("gamma0"), dict)})


@st.composite
def mutated_analytic_flags(draw):
    """The flags of `analytic` for a bundled (K, ell, d0, s-max), each
    scaled by a factor in FACTORS."""
    values = draw(st.sampled_from(ANALYTIC))
    return [f"--{flag}={value * draw(FACTORS)!r}"
            for flag, value in zip(("K", "ell", "d0", "s-max"), values)]


@settings(max_examples=300, deadline=None)
@given(mutated_analytic_flags())
def test_mutated_analytic_flags_keep_the_exit_code_contract(flags):
    # the closed forms either write their profile or refuse the flags
    # with a typed error: exit 0 or 1, no exception escapes main and no
    # warning is raised. The 300 examples take about 1 s of the 3 s this
    # test may take
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["analytic", *flags,
                         "--out", os.path.join(tmp, "out")])
    assert code in (0, 1)
