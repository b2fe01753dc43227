"""Scenario configuration files: parsing, validation, serialization.

A scenario is a single YAML mapping describing either a simulation run
(model + tractor + gamma0 + ell) or a shortening run (model + shorten
section). Validation reports the offending field path so configs can be
fixed without reading tracebacks; parse -> serialize -> parse is the
identity on the normalized mapping.
"""

import math
import os
from dataclasses import dataclass

import numpy as np
import yaml

from .errors import ConfigError

_CHECKS = ("rauch", "toponogov", "le")
_SIM_KEYS = ("dt", "pole_step", "cusp_speed_eps", "max_records")
_TOP_KEYS = ("name", "model", "tractor", "gamma0", "ell", "sim",
             "comparison", "shorten", "out")


def _fail(path, message):
    raise ConfigError(f"{path}: {message}")


def _as_float(value, path, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        _fail(path, f"expected a finite number, got {value!r}")
    if positive and out <= 0:
        _fail(path, "must be positive")
    return out


def _as_int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be at least {minimum}")
    return value


def _as_point(value, path, dim=None):
    if not isinstance(value, (list, tuple)) or not value:
        _fail(path, "expected a list of coordinates")
    out = [_as_float(c, f"{path}[{i}]") for i, c in enumerate(value)]
    if dim is not None and len(out) != dim:
        _fail(path, f"expected {dim} coordinates, got {len(out)}")
    return out


def _check_keys(section, allowed, path):
    for key in section:
        if key not in allowed:
            _fail(f"{path}.{key}", "unknown field")


def _normalize_model(raw):
    if not isinstance(raw, dict) or "kind" not in raw:
        _fail("model", "expected a mapping with a 'kind' field")
    kind = raw["kind"]
    if kind == "spaceform":
        _check_keys(raw, ("kind", "K", "dim", "periods"), "model")
        out = {"kind": "spaceform",
               "K": _as_float(raw.get("K", 0.0), "model.K"),
               "dim": _as_int(raw.get("dim", 2), "model.dim", minimum=2)}
        if out["dim"] > 3:
            _fail("model.dim", "must be 2 or 3")
        if raw.get("periods") is not None:
            periods = raw["periods"]
            if not isinstance(periods, (list, tuple)):
                _fail("model.periods", "expected a list")
            out["periods"] = [
                None if p is None
                else _as_float(p, f"model.periods[{i}]", positive=True)
                for i, p in enumerate(periods)]
        return out
    if kind == "surface":
        _check_keys(raw, ("kind", "chart"), "model")
        chart = raw.get("chart")
        if isinstance(chart, str):
            chart = {"name": chart}
        if not isinstance(chart, dict) or "name" not in chart:
            _fail("model.chart", "expected a chart name or mapping")
        for key, value in chart.items():
            if isinstance(value, float) and not math.isfinite(value):
                _fail(f"model.chart.{key}", "expected a finite number")
        return {"kind": "surface", "chart": dict(chart)}
    _fail("model.kind", f"unknown kind {kind!r}")


def _normalize_polyline(raw, path, base_dir):
    if not isinstance(raw, dict):
        _fail(path, "expected a mapping with 'points' or 'file'")
    if ("points" in raw) == ("file" in raw):
        _fail(path, "give exactly one of 'points' or 'file'")
    if "file" in raw:
        target = os.path.join(base_dir, raw["file"])
        if not os.path.isfile(target):
            _fail(f"{path}.file", f"no such file {raw['file']!r}")
        return {"file": raw["file"]}
    pts = raw["points"]
    if not isinstance(pts, (list, tuple)) or len(pts) < 2:
        _fail(f"{path}.points", "expected at least two points")
    return {"points": [_as_point(p, f"{path}.points[{i}]")
                       for i, p in enumerate(pts)]}


def _normalize_gamma0(raw, path):
    if isinstance(raw, (list, tuple)):
        return _as_point(raw, path)
    if isinstance(raw, dict):
        _check_keys(raw, ("d0", "side", "mode"), path)
        out = {"d0": _as_float(raw.get("d0", 0.0), f"{path}.d0")}
        if out["d0"] < 0:
            _fail(f"{path}.d0", "must be nonnegative")
        side = raw.get("side", 1)
        if side not in (1, -1):
            _fail(f"{path}.side", "must be 1 or -1")
        out["side"] = side
        mode = raw.get("mode", "behind")
        if mode not in ("behind", "ahead"):
            _fail(f"{path}.mode", "must be 'behind' or 'ahead'")
        out["mode"] = mode
        return out
    _fail(path, "expected a point or an attachment mapping")


def _normalize_shorten(raw, base_dir):
    if not isinstance(raw, dict):
        _fail("shorten", "expected a mapping")
    mode = raw.get("mode")
    if mode not in ("self", "loop"):
        _fail("shorten.mode", "must be 'self' or 'loop'")
    out = {"mode": mode,
           "tol": _as_float(raw.get("tol", 1e-6), "shorten.tol",
                            positive=True),
           "max_iter": _as_int(raw.get("max_iter", 500),
                               "shorten.max_iter", minimum=1)}
    if "steps_per_round" in raw:
        out["steps_per_round"] = _as_int(raw["steps_per_round"],
                                         "shorten.steps_per_round",
                                         minimum=8)
    if mode == "self":
        _check_keys(raw, ("mode", "tol", "max_iter", "steps_per_round",
                          "P", "Q", "initial"), "shorten")
        for key in ("P", "Q", "initial"):
            if key not in raw:
                _fail(f"shorten.{key}", "required for mode 'self'")
        out["P"] = _as_point(raw["P"], "shorten.P")
        out["Q"] = _as_point(raw["Q"], "shorten.Q")
        out["initial"] = _normalize_polyline(raw["initial"],
                                             "shorten.initial", base_dir)
    else:
        _check_keys(raw, ("mode", "tol", "max_iter", "steps_per_round",
                          "loop"), "shorten")
        if "loop" not in raw:
            _fail("shorten.loop", "required for mode 'loop'")
        out["loop"] = _normalize_polyline(raw["loop"], "shorten.loop",
                                          base_dir)
    return out


def _normalize(raw, name, base_dir):
    if not isinstance(raw, dict):
        raise ConfigError("scenario: top level must be a mapping")
    _check_keys(raw, _TOP_KEYS, "scenario")
    out = {"name": str(raw.get("name", name))}
    if "model" not in raw:
        _fail("model", "required")
    out["model"] = _normalize_model(raw["model"])
    if "ell" not in raw:
        _fail("ell", "required")
    out["ell"] = _as_float(raw["ell"], "ell", positive=True)

    has_tractor = "tractor" in raw
    has_shorten = "shorten" in raw
    if has_tractor == has_shorten:
        raise ConfigError(
            "scenario: give exactly one of a 'tractor' (simulation) or a "
            "'shorten' section")
    if has_tractor:
        tractor = raw["tractor"]
        if not isinstance(tractor, dict) or "kind" not in tractor:
            _fail("tractor", "expected a mapping with a 'kind' field")
        tractor = dict(tractor)
        if tractor["kind"] == "polyline" and "file" in tractor:
            target = os.path.join(base_dir, tractor["file"])
            if not os.path.isfile(target):
                _fail("tractor.file", f"no such file {tractor['file']!r}")
        out["tractor"] = tractor
        if "gamma0" not in raw:
            _fail("gamma0", "required for simulation scenarios")
        out["gamma0"] = _normalize_gamma0(raw["gamma0"], "gamma0")
        if isinstance(out["gamma0"], dict) and out["gamma0"]["d0"] >= out["ell"]:
            _fail("gamma0.d0", "must stay below ell for an attachment")
    else:
        out["shorten"] = _normalize_shorten(raw["shorten"], base_dir)

    sim = raw.get("sim", {})
    if not isinstance(sim, dict):
        _fail("sim", "expected a mapping")
    _check_keys(sim, _SIM_KEYS, "sim")
    out["sim"] = {
        "dt": _as_float(sim.get("dt", 0.01), "sim.dt", positive=True),
        "pole_step": _as_float(sim.get("pole_step", 0.05), "sim.pole_step",
                               positive=True),
    }
    if "cusp_speed_eps" in sim:
        out["sim"]["cusp_speed_eps"] = _as_float(
            sim["cusp_speed_eps"], "sim.cusp_speed_eps", positive=True)
    if "max_records" in sim:
        out["sim"]["max_records"] = _as_int(sim["max_records"],
                                            "sim.max_records", minimum=2)

    if raw.get("comparison") is not None:
        comp = raw["comparison"]
        if not isinstance(comp, dict):
            _fail("comparison", "expected a mapping")
        _check_keys(comp, ("widen", "checks"), "comparison")
        checks = comp.get("checks", ["rauch"])
        if not isinstance(checks, list) or not checks:
            _fail("comparison.checks", "expected a nonempty list")
        for c in checks:
            if c not in _CHECKS:
                _fail("comparison.checks", f"unknown check {c!r}")
        out["comparison"] = {"checks": list(checks)}
        if "widen" in comp:
            out["comparison"]["widen"] = _as_float(
                comp["widen"], "comparison.widen", positive=True)

    if raw.get("out") is not None:
        if not isinstance(raw["out"], str):
            _fail("out", "expected a directory path string")
        out["out"] = raw["out"]
    return out


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description.

    `data` is the normalized mapping; two configs compare equal exactly
    when their normalized content matches, which is what the round-trip
    guarantee is stated against.
    """

    name: str
    data: dict
    base_dir: str = "."

    @property
    def kind(self):
        return "shorten" if "shorten" in self.data else "simulate"

    @property
    def model(self):
        return self.data["model"]

    @property
    def tractor(self):
        return self.data["tractor"]

    @property
    def gamma0(self):
        return self.data["gamma0"]

    @property
    def ell(self):
        return self.data["ell"]

    @property
    def sim(self):
        return self.data["sim"]

    @property
    def comparison(self):
        return self.data.get("comparison")

    @property
    def shorten(self):
        return self.data["shorten"]

    @property
    def out(self):
        return self.data.get("out")

    def to_yaml(self):
        return yaml.safe_dump(self.data, sort_keys=False,
                              default_flow_style=None)

    def resolve_polyline(self, section):
        """Points array for a {'points': ...} or {'file': ...} mapping."""
        if "points" in section:
            return np.asarray(section["points"], dtype=float)
        path = os.path.join(self.base_dir, section["file"])
        rows = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                cells = line.replace(",", " ").split()
                try:
                    row = [float(c) for c in cells]
                except ValueError:
                    if rows:
                        raise ConfigError(
                            f"{path}: non-numeric row {line!r}")
                    continue
                if rows and len(row) != len(rows[0]):
                    raise ConfigError(
                        f"{path}: line {lineno} has {len(row)} coordinates, "
                        f"the first point has {len(rows[0])}")
                rows.append(row)
        if len(rows) < 2:
            raise ConfigError(f"{path}: expected at least two points")
        pts = np.asarray(rows, dtype=float)
        if not np.all(np.isfinite(pts)):
            raise ConfigError(f"{path}: non-finite coordinate")
        return pts


def scenario_from_dict(raw, name="scenario", base_dir="."):
    return ScenarioConfig(name=str(raw.get("name", name)),
                          data=_normalize(raw, name, base_dir),
                          base_dir=base_dir)


def load_scenario(path):
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such config file")
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})")
    stem = os.path.splitext(os.path.basename(path))[0]
    base = os.path.dirname(os.path.abspath(path))
    try:
        return scenario_from_dict(raw if raw is not None else {},
                                  name=stem, base_dir=base)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}")


def bundled_dir():
    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "scenarios")


def bundled_names():
    root = bundled_dir()
    return sorted(os.path.splitext(f)[0] for f in os.listdir(root)
                  if f.endswith(".yaml"))


def bundled_scenario(name):
    path = os.path.join(bundled_dir(), f"{name}.yaml")
    if not os.path.isfile(path):
        raise ConfigError(
            f"no bundled scenario {name!r}; available: {bundled_names()}")
    return load_scenario(path)
