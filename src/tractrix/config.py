"""Scenario configuration files: parsing, validation, serialization.

A scenario is a single YAML mapping describing either a simulation run
(model + tractor + gamma0 + ell) or a shortening run (model + shorten
section). Validation reports the offending field path so configs can be
fixed without reading tracebacks; parse -> serialize -> parse is the
identity on the normalized mapping.

This module is the one place that checks a scenario field: one pass per
section, against a table of what each kind reads, of which type and with
which default where there is one (`_TRACTOR_FIELDS`, `_SIM_FIELDS`). A key
that a kind never reads is refused, and a polyline `file` is read into its
`points`. The objects built from a scenario run the same passes, so a
fault gives one message there and at load.
"""

import math
import numbers
import os
from dataclasses import dataclass

import yaml

from .errors import ConfigError
from .manifold import POLE_STEP

_CHECKS = ("rauch", "toponogov", "le")
# The sim section: field -> (type, default, the kinds that read it). A
# shortening reads its mode's: 'self' the pole_step of its shots, 'loop'
# none, because its shots take POLE_STEP.
_SIM_FIELDS = {
    "dt": ("positive", 0.01, ("simulate",)),
    "pole_step": ("positive", POLE_STEP, ("simulate", "self")),
    "cusp_speed_eps": ("fraction", 0.05, ("simulate",)),
    "max_records": ("cap", 200_000, ("simulate",)),
}
# The shorten section's knobs and the comparison's widening: section ->
# field -> (type, default). The API defaults read them too
# (`shortening.self_repeated`, `loop_repeated`,
# `comparison.certify_bounds`).
_KNOB_FIELDS = {
    "shorten": {"tol": ("positive", 1e-6), "max_iter": ("iterations", 500),
                "steps_per_round": ("steps", 400)},
    "comparison": {"widen": ("positive", 1e-3)},
}
# the least value of each integer field type
_INT_MINIMA = {"cap": 2, "iterations": 1, "steps": 8}
_TOP_KEYS = ("name", "model", "tractor", "gamma0", "ell", "sim",
             "comparison", "shorten", "out")


def _fail(path, message):
    raise ConfigError(f"{path}: {message}")


def _as_float(value, path, positive=False):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        _fail(path, f"expected a number, got {value!r}" + _float_hint(value))
    out = float(value)
    if not math.isfinite(out):
        _fail(path, f"expected a finite number, got {value!r}")
    if positive and out <= 0:
        _fail(path, "must be positive")
    return out


def _float_hint(value):
    """'; write it as 1.0e-3' for a string such as '1e-3' that spells a
    finite float but that YAML 1.1 reads as text: a YAML float needs a
    digit and a dot in its mantissa and a sign in its exponent."""
    try:
        finite = isinstance(value, str) and math.isfinite(float(value))
    except ValueError:
        finite = False
    if not finite:
        return ""
    mantissa, _, exponent = value.strip().lower().partition("e")
    digits = mantissa.lstrip("+-")
    sign = mantissa[:len(mantissa) - len(digits)]
    if "." not in digits:
        digits += ".0"
    if digits.startswith("."):
        digits = "0" + digits
    if exponent[:1].isdigit():
        exponent = "+" + exponent
    return f"; write it as {sign}{digits}" + (f"e{exponent}" if exponent
                                                else "")


def _as_int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        _fail(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be at least {minimum}")
    return value


def _as_point(value, path, dim):
    if not isinstance(value, (list, tuple)) or not value:
        _fail(path, "expected a list of coordinates")
    out = [_as_float(c, f"{path}[{i}]") for i, c in enumerate(value)]
    if len(out) != dim:
        _fail(path, f"expected {dim} coordinates, got {len(out)}")
    return out


def _check_keys(section, allowed, path, why="unknown field"):
    for key in section:
        if key not in allowed:
            _fail(f"{path}.{key}", why)


def normalize_model(raw):
    """The model mapping `raw`, checked, with its defaults filled in."""
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
        if not (isinstance(chart, dict)
                and isinstance(chart.get("name"), str)):
            _fail("model.chart", "expected a chart name or mapping")
        for key, value in chart.items():
            # a list is a chart's table of terms, which the chart checks
            if key != "name" and not isinstance(value, list):
                try:
                    _as_float(value, f"model.chart.{key}")
                except ConfigError as exc:
                    raise ConfigError(f"{exc} (chart {chart['name']!r})")
        return {"kind": "surface", "chart": dict(chart)}
    _fail("model.kind", f"unknown kind {kind!r}")


def _read_polyline(name, path, base_dir):
    """(label, point) of each line of the polyline file `name`: coordinates
    split by commas or blanks; blank lines, '#' comments and text lines
    before the first point are skipped."""
    full = os.path.join(base_dir, name) if isinstance(name, str) else ""
    if not os.path.isfile(full):
        _fail(path, f"no such file {name!r}")
    rows = []
    with open(full, errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                row = [float(c) for c in line.replace(",", " ").split()]
            except ValueError:
                if rows:
                    _fail(path, f"{name}: non-numeric row {line!r}")
                continue
            if rows and len(row) != len(rows[0][1]):
                _fail(path, f"{name}: line {lineno} has {len(row)} coordinates"
                            f", the first point has {len(rows[0][1])}")
            rows.append((f"{path}: {name}: line {lineno}", row))
    return rows


def _normalize_polyline(raw, path, base_dir, dim):
    """{'points': ...} of a polyline of 'points' or, under `base_dir`, of a
    'file' of them, each point checked at dimension `dim`."""
    if not isinstance(raw, dict):
        _fail(path, "expected a mapping with 'points' or 'file'")
    if ("points" in raw) == ("file" in raw):
        _fail(path, "give exactly one of 'points' or 'file'")
    if "file" in raw:
        where = f"{path}.file"
        rows = _read_polyline(raw["file"], where, base_dir)
    else:
        where, pts = f"{path}.points", raw["points"]
        rows = ([(f"{where}[{i}]", p) for i, p in enumerate(pts)]
                if isinstance(pts, (list, tuple)) else ())
    if len(rows) < 2:
        _fail(where, "expected at least two points")
    return {"points": [_as_point(p, label, dim) for label, p in rows]}


_REQUIRED = object()
_SPAN = {"t0": ("number", 0.0), "t1": ("number", 1.0)}
_LINE = {"start": ("point", _REQUIRED), "direction": ("direction", _REQUIRED)}
_CIRCLE = {"center": ("point", _REQUIRED), "radius": ("positive", _REQUIRED)}
_FLAGS = {"closed": ("flag", False), "geodesic": ("flag", False)}
# What each tractor kind reads besides 'kind': field -> (type, default), a
# field without a default marked _REQUIRED. A callable default is worked
# out from the fields before it. At the top level of a loaded scenario a
# polyline may name a 'file' that holds its 'points'.
_TRACTOR_FIELDS = {
    "line": {**_LINE, "geodesic": ("flag", True), **_SPAN},
    "chart_line": {**_LINE, "geodesic": ("flag", False), **_SPAN},
    "circle": {**_CIRCLE, **_FLAGS, **_SPAN},
    "chart_circle": {**_CIRCLE, "rate": ("nonzero", 1.0), **_FLAGS, **_SPAN},
    "latitude": {"colatitude": ("colatitude", _REQUIRED),
                 "phi0": ("number", 0.0),
                 "geodesic": ("flag", lambda f: abs(
                     f["colatitude"] - math.pi / 2) < 1e-12), **_SPAN},
    "disk_ray": {"angle": ("number", 0.0), **_SPAN},
    "helix": {"radius": ("number", _REQUIRED),
              "pitch": ("number", _REQUIRED), **_SPAN},
    "circle3d": {"radius": ("positive", _REQUIRED)},
    "wiggly_circle": {"radius": ("number", _REQUIRED),
                      "amplitude": ("number", _REQUIRED),
                      "lobes": ("whole", _REQUIRED)},
    "polyline": {"points": ("polyline", _REQUIRED), **_FLAGS},
    "tractrix_of": {"curve": ("curve", _REQUIRED),
                    "ell": ("number", _REQUIRED), "sign": ("sign", 1.0)},
}


def _field(type_, value, path, dim=None):
    """The value of a tractor or sim field of the type `type_`, checked and
    typed."""
    if type_ in _INT_MINIMA:
        return _as_int(value, path, minimum=_INT_MINIMA[type_])
    if type_ == "flag":
        if not isinstance(value, bool):
            _fail(path, f"expected true or false, got {value!r}")
        return value
    if type_ == "curve":
        return normalize_tractor(value, dim, path=path)
    if type_ in ("point", "direction"):
        out = _as_point(value, path, dim)
        if type_ == "direction" and math.hypot(*out) < 1e-14:
            _fail(path, "must be nonzero")
        return out
    out = _as_float(value, path, positive=type_ == "positive")
    if type_ == "nonzero" and out == 0.0:
        _fail(path, "must be nonzero")
    elif type_ == "colatitude" and not 0.0 < out < math.pi:
        _fail(path, "must lie in (0, pi)")
    elif type_ == "sign" and out not in (1.0, -1.0):
        _fail(path, f"expected +1 or -1, got {out!r}")
    elif type_ == "whole" and not out.is_integer():
        _fail(path, f"expected a whole number, got {value!r}")
    elif type_ == "fraction" and not 0.0 < out < 1.0:
        _fail(path, "must lie in (0, 1)")
    return int(out) if type_ == "whole" else out


def normalize_tractor(raw, dim, base_dir=None, path="tractor"):
    """The tractor mapping `raw` for a model of dimension `dim`, each field
    its kind reads typed, and filled in with its default where it is not
    given (`_TRACTOR_FIELDS`). Idempotent on its own output. A polyline may
    give a 'file', read into its points, only where `base_dir` is given."""
    if not isinstance(raw, dict) or "kind" not in raw:
        _fail(path, "expected a mapping with a 'kind' field")
    kind = raw["kind"]
    if not isinstance(kind, str) or kind not in _TRACTOR_FIELDS:
        _fail(f"{path}.kind", f"unknown kind {kind!r}")
    fields = _TRACTOR_FIELDS[kind]
    file_ok = kind == "polyline" and base_dir is not None
    allowed = ("kind", *fields) + (("file",) if file_ok else ())
    _check_keys(raw, allowed, path, f"not read by kind {kind!r}")
    if kind in ("circle", "chart_circle") and dim != 2:
        _fail(f"{path}.kind", f"{kind!r} needs a 2-D model")
    out = {"kind": kind}
    for key, (type_, default) in fields.items():
        if type_ == "polyline":
            out.update(_normalize_polyline(raw, path, base_dir, dim))
        elif key in raw:
            out[key] = _field(type_, raw[key], f"{path}.{key}", dim)
        elif default is _REQUIRED:
            _fail(f"{path}.{key}", f"required for kind {kind!r}")
        else:
            out[key] = default(out) if callable(default) else default
    if "t1" in out and out["t1"] <= out["t0"]:
        _fail(f"{path}.t1", "must exceed t0")
    if kind == "helix" and out["radius"] == 0.0 == out["pitch"]:
        _fail(f"{path}.radius", "radius and pitch must not both be zero")
    return out


def normalize_attachment(raw, ell, path="gamma0"):
    """The attachment mapping `raw` of a pole of length `ell`, checked and
    filled in with its defaults: an offset 0 <= d0 < ell (0), a side +1 or
    -1 (+1) and a mode 'behind' or 'ahead' ('behind')."""
    _check_keys(raw, ("d0", "side", "mode"), path)
    d0 = _as_float(raw.get("d0", 0.0), f"{path}.d0")
    if d0 < 0:
        _fail(f"{path}.d0", "must be nonnegative")
    if d0 >= ell:
        _fail(f"{path}.d0", "must stay below ell for an attachment")
    side = raw.get("side", 1)
    if isinstance(side, bool) or side not in (1, -1):
        _fail(f"{path}.side", "must be 1 or -1")
    mode = raw.get("mode", "behind")
    if mode not in ("behind", "ahead"):
        _fail(f"{path}.mode", "must be 'behind' or 'ahead'")
    return {"d0": d0, "side": side, "mode": mode}


def normalize_sim(raw, reader="simulate"):
    """The sim mapping `raw` of a `reader`, 'simulate' or the shorten mode
    'self' or 'loop': each field it reads checked and typed, or given its
    default, and any other field refused (`_SIM_FIELDS`)."""
    if not isinstance(raw, dict):
        _fail("sim", "expected a mapping")
    _check_keys(raw, _SIM_FIELDS, "sim")
    read = {key: field for key, field in _SIM_FIELDS.items()
            if reader in field[2]}
    _check_keys(raw, read, "sim", f"not read by shorten mode {reader!r}")
    return {key: _field(type_, raw.get(key, default), f"sim.{key}")
            for key, (type_, default, _) in read.items()}


def _normalize_shorten(raw, base_dir, dim):
    if not isinstance(raw, dict):
        _fail("shorten", "expected a mapping")
    mode = raw.get("mode")
    if mode not in ("self", "loop"):
        _fail("shorten.mode", "must be 'self' or 'loop'")
    out = {"mode": mode}
    for key, (type_, default) in _KNOB_FIELDS["shorten"].items():
        out[key] = _field(type_, raw.get(key, default), f"shorten.{key}")
    unread = f"not read by shorten mode {mode!r}"
    if mode == "self":
        _check_keys(raw, ("mode", *_KNOB_FIELDS["shorten"], "P", "Q",
                          "initial"), "shorten", unread)
        for key in ("P", "Q", "initial"):
            if key not in raw:
                _fail(f"shorten.{key}", "required for mode 'self'")
        out["P"] = _as_point(raw["P"], "shorten.P", dim)
        out["Q"] = _as_point(raw["Q"], "shorten.Q", dim)
        out["initial"] = _normalize_polyline(raw["initial"],
                                             "shorten.initial", base_dir, dim)
    else:
        _check_keys(raw, ("mode", *_KNOB_FIELDS["shorten"], "loop"),
                    "shorten", unread)
        if "loop" not in raw:
            _fail("shorten.loop", "required for mode 'loop'")
        out["loop"] = _normalize_polyline(raw["loop"], "shorten.loop",
                                          base_dir, dim)
    return out


def _normalize(raw, name, base_dir):
    if not isinstance(raw, dict):
        raise ConfigError("scenario: top level must be a mapping")
    _check_keys(raw, _TOP_KEYS, "scenario")
    out = {"name": str(raw.get("name", name))}
    if "model" not in raw:
        _fail("model", "required")
    out["model"] = normalize_model(raw["model"])
    if "ell" not in raw:
        _fail("ell", "required")
    out["ell"] = _as_float(raw["ell"], "ell", positive=True)

    has_tractor = "tractor" in raw
    has_shorten = "shorten" in raw
    if has_tractor == has_shorten:
        raise ConfigError(
            "scenario: give exactly one of a 'tractor' (simulation) or a "
            "'shorten' section")
    dim = out["model"].get("dim", 2)
    if has_tractor:
        out["tractor"] = normalize_tractor(raw["tractor"], dim, base_dir)
        if "gamma0" not in raw:
            _fail("gamma0", "required for simulation scenarios")
        gamma0 = raw["gamma0"]
        if isinstance(gamma0, (list, tuple)):
            out["gamma0"] = _as_point(gamma0, "gamma0", dim)
        elif isinstance(gamma0, dict):
            out["gamma0"] = normalize_attachment(gamma0, out["ell"])
        else:
            _fail("gamma0", "expected a point or an attachment mapping")
        reader = "simulate"
    else:
        for key in ("gamma0", "comparison"):
            if key in raw:
                _fail(key, "not read by a shortening scenario")
        out["shorten"] = _normalize_shorten(raw["shorten"], base_dir, dim)
        reader = out["shorten"]["mode"]
    out["sim"] = normalize_sim(raw.get("sim", {}), reader)

    if has_tractor:
        comp = {} if raw.get("comparison") is None else raw["comparison"]
        if not isinstance(comp, dict):
            _fail("comparison", "expected a mapping")
        _check_keys(comp, ("widen", "checks"), "comparison")
        checks = comp.get("checks", ["rauch"])
        if not isinstance(checks, list) or not checks:
            _fail("comparison.checks", "expected a nonempty list")
        for c in checks:
            if c not in _CHECKS:
                _fail("comparison.checks", f"unknown check {c!r}")
        type_, default = _KNOB_FIELDS["comparison"]["widen"]
        out["comparison"] = {"checks": list(checks), "widen": _field(
            type_, comp.get("widen", default), "comparison.widen")}

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


def scenario_from_dict(raw, name="scenario", base_dir="."):
    data = _normalize(raw, name, base_dir)
    return ScenarioConfig(name=data["name"], data=data, base_dir=base_dir)


# libyaml's parser where this PyYAML was built with it, the same safe
# constructors either way
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_scenario(path):
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_LOADER)
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
