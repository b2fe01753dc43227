import copy
import filecmp
import math
import os
import tempfile
import time
import warnings

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from tractrix import cli
from tractrix.comparison import Check, ComparisonReport
from tractrix.config import bundled_dir, bundled_names

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


def test_ragged_polyline_file_exits_one(tmp_path, capsys):
    (tmp_path / "ragged.txt").write_text("0 0\n1 0 5\n2 1\n")
    config = write_config(tmp_path, flat_line(
        tractor={"kind": "polyline", "file": "ragged.txt"}))
    assert cli.main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "ragged.txt: line 2 has 3 coordinates" in err


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
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: not read by kind")


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


def bundled(name):
    """The bundled scenario `name` as a mapping."""
    with open(os.path.join(bundled_dir(), f"{name}.yaml")) as f:
        return yaml.safe_load(f)


def test_ellipsoid_equator_with_a_tiny_pole_exits_two(tmp_path, capsys):
    # a pole of 5e-7 from gamma0 on the tractor, where dt / ell is 10^4:
    # the pole direction grows until the record stage divides by a speed
    # of 0, a typed pole failure, not a ZeroDivisionError
    raw = bundled("ellipsoid_equator")
    raw["ell"], raw["gamma0"]["d0"] = 5e-7, 0.0
    config = write_config(tmp_path, raw)
    assert cli.main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "numeric error: the pole solve failed in the step from t=0.065: "
        "float division by zero\n")


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
    # their traces carry: 66,960 over 402 records, 166.567 a record, the
    # right-hand side calls that the benchmark's traced pass counted
    # before the spray was written into the shot kernel
    traces = []
    simulate = cli._simulate
    monkeypatch.setattr(cli, "_simulate", lambda cfg: (
        traces.append(simulate(cfg)), traces[-1])[1])
    assert cli.main(["gallery", "--only", "paraboloid_pull,hilly_pull",
                     "--out", str(tmp_path)]) == 0
    assert sum(len(tr.t) for tr in traces) == 402
    assert sum(tr.model.sprays for tr in traces) == 66960


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
