import copy
import math
import os
import re
import tempfile

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from tractrix.config import (
    bundled_dir,
    bundled_names,
    bundled_scenario,
    load_scenario,
    scenario_from_dict,
)
from tractrix.errors import ConfigError
from tractrix.manifold import space_form
from tractrix.tractrix_sim import (
    SimParams,
    orthogonal_attachment,
    polyline_tractor,
    simulate,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-6, max_value=1e6)

models = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("spaceform"), "K": finite,
         "dim": st.sampled_from([2, 3])},
        optional={"periods": st.lists(st.one_of(st.none(), positive),
                                      min_size=1, max_size=2)}),
    st.fixed_dictionaries(
        {"kind": st.just("surface"),
         "chart": st.one_of(
             st.sampled_from(["paraboloid", "hilly", "plane"]),
             st.fixed_dictionaries({"name": st.just("ellipsoid")},
                                   optional={"a": positive, "c": positive}))}),
)


def coords(dim):
    return st.lists(finite, min_size=dim, max_size=dim)


# t0 < t1, either one left to its default (0 and 1), or both
spans = st.one_of(
    st.just({}),
    st.tuples(finite, finite).filter(lambda p: p[0] < p[1]).map(
        lambda p: {"t0": p[0], "t1": p[1]}),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(
        lambda t: {"t1": t}),
    st.floats(max_value=1.0, exclude_max=True, allow_infinity=False).map(
        lambda t: {"t0": t}))
# the fields each kind must be given
REQUIRED = {"line": ("start", "direction"),
            "chart_line": ("start", "direction"),
            "circle": ("center", "radius"),
            "chart_circle": ("center", "radius"), "latitude": ("colatitude",),
            "disk_ray": (), "helix": ("radius", "pitch"),
            "circle3d": ("radius",),
            "wiggly_circle": ("radius", "amplitude", "lobes"),
            "polyline": ("points",), "tractrix_of": ("curve", "ell")}
SPAN_KINDS = ("line", "chart_line", "circle", "chart_circle", "latitude",
              "disk_ray", "helix")


def tractor(kind, required, optional=None):
    fields = st.fixed_dictionaries({"kind": st.just(kind), **required},
                                   optional=optional or {})
    if kind not in SPAN_KINDS:
        return fields
    return st.tuples(fields, spans).map(lambda p: {**p[0], **p[1]})


def valid_tractors(dim, nested=False):
    """Tractor sections of every kind that a model of dimension `dim` can
    load; the top level also draws a tractrix_of over one of them."""
    flag = st.booleans()
    direction = coords(dim).filter(lambda v: math.hypot(*v) >= 1e-14)
    kinds = [
        tractor("line", {"start": coords(dim), "direction": direction},
                {"geodesic": flag}),
        tractor("chart_line", {"start": coords(dim), "direction": direction},
                {"geodesic": flag}),
        tractor("latitude",
                {"colatitude": st.floats(0.0, math.pi, exclude_min=True,
                                         exclude_max=True)},
                {"phi0": finite, "geodesic": flag}),
        tractor("disk_ray", {}, {"angle": finite}),
        tractor("helix", {"radius": finite, "pitch": finite}).filter(
            lambda t: t["radius"] != 0.0 or t["pitch"] != 0.0),
        tractor("circle3d", {"radius": positive}),
        tractor("wiggly_circle",
                {"radius": finite, "amplitude": finite,
                 "lobes": st.integers(-50, 50)
                 | st.integers(-50, 50).map(float)}),
        tractor("polyline",
                {"points": st.lists(coords(dim), min_size=2, max_size=5)},
                {"closed": flag, "geodesic": flag}),
    ]
    if dim == 2:
        circle = {"center": coords(2), "radius": positive}
        kinds += [
            tractor("circle", circle, {"closed": flag, "geodesic": flag}),
            tractor("chart_circle", circle,
                    {"rate": finite.filter(bool), "closed": flag,
                     "geodesic": flag})]
    if not nested:
        kinds.append(tractor(
            "tractrix_of",
            {"curve": valid_tractors(dim, nested=True), "ell": finite},
            {"sign": st.sampled_from([1, -1, 1.0, -1.0])}))
    return st.one_of(kinds)


TRACTORS = {dim: valid_tractors(dim) for dim in (2, 3)}

attachments = st.fixed_dictionaries(
    {}, optional={"d0": st.floats(0.0, 0.9),
                  "side": st.sampled_from([1, -1]),
                  "mode": st.sampled_from(["behind", "ahead"])})


def shorten_sections(dim):
    polyline = st.fixed_dictionaries(
        {"points": st.lists(coords(dim), min_size=2, max_size=5)})
    return st.one_of(
        st.fixed_dictionaries(
            {"mode": st.just("self"), "P": coords(dim), "Q": coords(dim),
             "initial": polyline},
            optional={"tol": positive, "max_iter": st.integers(1, 10**6),
                      "steps_per_round": st.integers(8, 10**6)}),
        st.fixed_dictionaries({"mode": st.just("loop"), "loop": polyline},
                              optional={"tol": positive,
                                        "max_iter": st.integers(1, 10**6)}))


SHORTEN_SECTIONS = {dim: shorten_sections(dim) for dim in (2, 3)}

SIM_FIELDS = {"dt": positive, "pole_step": positive,
              "cusp_speed_eps": st.floats(1e-6, 0.999),
              "max_records": st.integers(2, 10**7)}
# the sim fields each scenario kind reads: a simulation all, a shortening
# those of its mode
SIM_READ = {"simulate": tuple(SIM_FIELDS), "self": ("pole_step",),
            "loop": ()}


def sims(reader):
    return st.fixed_dictionaries(
        {}, optional={key: SIM_FIELDS[key] for key in SIM_READ[reader]})


common = {"name": st.text(max_size=12), "out": st.text(max_size=12)}

simulations = models.flatmap(lambda model: st.fixed_dictionaries(
    {"model": st.just(model), "tractor": TRACTORS[model.get("dim", 2)],
     "gamma0": st.one_of(coords(model.get("dim", 2)), attachments),
     "ell": st.floats(1.0, 1e3)},
    optional={**common, "sim": sims("simulate"),
              "comparison": st.fixed_dictionaries(
                  {}, optional={"widen": positive,
                                "checks": st.lists(st.sampled_from(
                                    ["rauch", "toponogov", "le"]),
                                    min_size=1)})}))

shortenings = models.flatmap(
    lambda model: SHORTEN_SECTIONS[model.get("dim", 2)].flatmap(
        lambda section: st.fixed_dictionaries(
            {"model": st.just(model), "shorten": st.just(section),
             "ell": positive},
            optional={**common, "sim": sims(section["mode"])})))

scenarios = st.one_of(simulations, shortenings)


def assert_round_trip(cfg):
    again = scenario_from_dict(yaml.safe_load(cfg.to_yaml()),
                               base_dir=cfg.base_dir)
    assert again.data == cfg.data
    assert again.name == cfg.name


@settings(max_examples=200, deadline=None)
@given(scenarios)
def test_parse_serialize_parse_is_identity(raw):
    assert_round_trip(scenario_from_dict(raw))


@st.composite
def invalid_simulations(draw):
    """A valid simulation whose tractor section is then broken one way:
    an unknown kind, a field no kind reads, a field of no valid type, a
    required field left out, t1 not past t0, or a point of one coordinate
    too many."""
    raw = draw(simulations)
    tr = raw["tractor"]
    kind = tr["kind"]
    ways = ["kind", "unread"]
    given = sorted(key for key in tr if key != "kind")
    if given:
        ways.append("type")
    if REQUIRED[kind]:
        ways.append("missing")
    if kind in SPAN_KINDS:
        ways.append("span")
    if kind in ("line", "chart_line", "circle", "chart_circle", "polyline"):
        ways.append("dim")
    way = draw(st.sampled_from(ways))
    if way == "kind":
        tr["kind"] = "spiral"
    elif way == "unread":
        tr["colour"] = "red"
    elif way == "type":
        tr[draw(st.sampled_from(given))] = draw(
            st.sampled_from([None, "1.0", [], {}]))
    elif way == "missing":
        del tr[draw(st.sampled_from(REQUIRED[kind]))]
    elif way == "span":
        tr["t0"] = draw(finite)
        tr["t1"] = draw(st.floats(max_value=tr["t0"]))
    else:
        key = "points" if kind == "polyline" else (
            "start" if "start" in tr else "center")
        point = tr[key][0] if kind == "polyline" else tr[key]
        point.append(0.0)
    return raw


@settings(max_examples=200, deadline=None)
@given(invalid_simulations())
def test_a_broken_tractor_is_refused_at_load(raw):
    with pytest.raises(ConfigError, match=r"^tractor"):
        scenario_from_dict(raw)


# values of no valid type for a number, an integer or a point
BAD_TYPES = [None, "1.0", [], {}, True]
# values of a valid type outside their bounds, by field
OUT_OF_BOUNDS = {"dt": [0.0, -1.0], "pole_step": [0.0, -0.5],
                 "cusp_speed_eps": [0.0, 1.0, 1.5], "max_records": [1, -3],
                 "tol": [0.0, -1e-6], "max_iter": [0, -1],
                 "steps_per_round": [7, 0], "side": [0, 2, -1.5],
                 "mode": ["sideways"]}


@st.composite
def broken_sections(draw):
    """A valid scenario whose sim, gamma0 or shorten section is then
    broken one way: a key its kind does not read, a value of no valid
    type, a value out of its bounds, or a polyline (the tractor or the
    shorten curve) given as a file one coordinate too wide. Returns the
    mapping, the field path its refusal must name and the file's text."""
    raw = draw(st.one_of(simulations, shortenings))
    dim = raw["model"].get("dim", 2)
    reader = raw["shorten"]["mode"] if "shorten" in raw else "simulate"
    section = draw(st.sampled_from(
        ["sim", "shorten"] if "shorten" in raw else ["sim", "gamma0"]))
    way = draw(st.sampled_from(["unread", "type", "bound", "file"]))
    if way == "file":
        rows = draw(st.lists(coords(dim + 1), min_size=2, max_size=4))
        text = "".join(" ".join(map(repr, row)) + "\n" for row in rows)
        if reader == "simulate":
            raw["tractor"] = {"kind": "polyline", "file": "wide.txt"}
            return raw, "tractor.file", text
        curve = "initial" if reader == "self" else "loop"
        raw["shorten"][curve] = {"file": "wide.txt"}
        return raw, f"shorten.{curve}.file", text
    if section == "sim":
        sim = raw.setdefault("sim", {})
        read = SIM_READ[reader]
        if way == "unread" or not read:
            key = draw(st.sampled_from(
                [k for k in (*SIM_FIELDS, "colour") if k not in read]))
            sim[key] = 1
        else:
            key = draw(st.sampled_from(read))
            sim[key] = draw(st.sampled_from(
                BAD_TYPES if way == "type" else OUT_OF_BOUNDS[key]))
        return raw, f"sim.{key}", None
    if section == "gamma0":
        if way == "type" and isinstance(raw["gamma0"], list):
            i = draw(st.integers(0, dim - 1))
            raw["gamma0"][i] = draw(st.sampled_from(BAD_TYPES))
            return raw, f"gamma0[{i}]", None
        att = raw["gamma0"] = (raw["gamma0"] if isinstance(raw["gamma0"], dict)
                               else {})
        if way == "unread":
            att["colour"] = 1
            return raw, "gamma0.colour", None
        key = draw(st.sampled_from(["d0", "side", "mode"]))
        if way == "type":
            att[key] = draw(st.sampled_from(BAD_TYPES))
        elif key == "d0":
            att[key] = draw(st.sampled_from([-0.1, raw["ell"],
                                             2.0 * raw["ell"]]))
        else:
            att[key] = draw(st.sampled_from(OUT_OF_BOUNDS[key]))
        return raw, f"gamma0.{key}", None
    shorten = raw["shorten"]
    if way == "unread":
        key = draw(st.sampled_from(
            ["colour", "loop"] if reader == "self"
            else ["colour", "P", "Q", "initial"]))
        shorten[key] = 1
    elif way == "type":
        key = draw(st.sampled_from(
            ["tol", "max_iter"] + (["P", "Q"] if reader == "self" else [])))
        shorten[key] = draw(st.sampled_from(BAD_TYPES))
    else:
        key = draw(st.sampled_from(["tol", "max_iter", "steps_per_round",
                                    "mode"]))
        shorten[key] = draw(st.sampled_from(OUT_OF_BOUNDS[key]))
    return raw, f"shorten.{key}", None


@settings(max_examples=200, deadline=None)
@given(broken_sections())
def test_a_broken_section_is_refused_at_load(case):
    raw, path, text = case
    with tempfile.TemporaryDirectory() as tmp:
        if text is not None:
            with open(os.path.join(tmp, "wide.txt"), "w") as fh:
                fh.write(text)
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(raw, base_dir=tmp)
    assert re.match(rf"{re.escape(path)}[:\[]", str(info.value))
    if text is not None:
        dim = raw["model"].get("dim", 2)
        assert (f"{path}: wide.txt: line 1: expected {dim} coordinates, "
                f"got {dim + 1}") == str(info.value)


@pytest.mark.parametrize("name", bundled_names())
def test_bundled_scenarios_round_trip(name):
    cfg = bundled_scenario(name)
    assert cfg.base_dir == bundled_dir()
    assert_round_trip(cfg)


@pytest.mark.parametrize("eps", [1.5, 1.0, 0.0, -0.1])
def test_cusp_speed_eps_outside_the_unit_interval_names_file_and_field(
        tmp_path, eps):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump({
        "model": {"kind": "spaceform", "K": 0.0},
        "tractor": {"kind": "line", "start": [0.0, 0.0],
                    "direction": [1.0, 0.0]},
        "gamma0": [0.0, 1.0], "ell": 1.0, "sim": {"cusp_speed_eps": eps}}))
    with pytest.raises(ConfigError) as info:
        load_scenario(str(path))
    assert str(info.value) == (f"{path}: sim.cusp_speed_eps: must lie in "
                               f"(0, 1)")


def bundled_raw(name):
    with open(os.path.join(bundled_dir(), f"{name}.yaml")) as fh:
        return yaml.safe_load(fh)


def typed_numbers(node, path=()):
    """The key paths of the numbers under tractor, gamma0 and model.chart
    in a loaded config, bools aside."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from typed_numbers(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from typed_numbers(value, (*path, i))
    elif (isinstance(node, (int, float)) and not isinstance(node, bool)
          and (path[0] in ("tractor", "gamma0")
               or path[:2] == ("model", "chart"))):
        yield path


def field_path(path):
    """('tractor', 'start', 0) as 'tractor.start[0]'."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                   for key in path).lstrip(".")


def load_raw(tmp_path, raw):
    config = tmp_path / "scenario.yaml"
    config.write_text(yaml.safe_dump(raw, sort_keys=False))
    return load_scenario(str(config))


@pytest.mark.parametrize("name", [name for name in bundled_names()
                                  if "tractor" in bundled_raw(name)])
def test_a_quoted_or_boolean_number_is_refused_at_load(tmp_path, name):
    # each number under tractor, gamma0 and model.chart, given as its
    # quoted text or as true, is refused by name before a model is built
    raw = bundled_raw(name)
    paths = list(typed_numbers(raw))
    assert paths
    for path in paths:
        node = raw
        for key in path[:-1]:
            node = node[key]
        for bad in (str(node[path[-1]]), True):
            mutated = copy.deepcopy(raw)
            target = mutated
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = bad
            with pytest.raises(ConfigError) as info:
                load_raw(tmp_path, mutated)
            assert f": {field_path(path)}: " in str(info.value)


@pytest.mark.parametrize("tractor, message", [
    ({"kind": "polyline", "points": [[0.0, 0.0], [1.0, 0.0]],
      "file": "eta.txt"}, "tractor: give exactly one of 'points' or 'file'"),
    ({"kind": "polyline", "file": 3}, "tractor.file: no such file 3"),
    ({"kind": "circle", "center": [0.0, 0.0], "radius": 1.0,
      "t1": math.tau, "closed": "false"},
     "tractor.closed: expected true or false, got 'false'"),
    ({"kind": "line", "start": [0.0, 0.0], "direction": [1.0, 0.0],
      "geodesic": 0.3}, "tractor.geodesic: expected true or false, got 0.3"),
    ({"kind": "tractrix_of", "ell": 0.5,
      "curve": {"kind": "polyline", "file": "eta.txt"}},
     "tractor.curve.file: not read by kind 'polyline'"),
], ids=["points-and-file", "file-not-a-name", "quoted-closed",
        "numeric-geodesic", "nested-file"])
def test_a_bad_tractor_is_refused_at_load_by_field(tmp_path, tractor,
                                                   message):
    (tmp_path / "eta.txt").write_text("0 0\n1 0\n")
    raw = {"model": {"kind": "spaceform", "K": 0.0}, "tractor": tractor,
           "gamma0": [0.0, 1.0], "ell": 0.5}
    with pytest.raises(ConfigError) as info:
        load_raw(tmp_path, raw)
    assert str(info.value) == f"{tmp_path / 'scenario.yaml'}: {message}"


@pytest.mark.parametrize("name, keys, message", [
    ("sphere_pull", ("gamma0", "side"), "gamma0.side: must be 1 or -1"),
    ("ellipsoid_equator", ("model", "chart", "c"),
     "model.chart.c: expected a number, got True (chart 'ellipsoid')"),
], ids=["gamma0.side", "model.chart"])
def test_true_for_an_integer_or_chart_parameter_is_refused_at_load(
        tmp_path, name, keys, message):
    # True == 1 once passed the side check, and a chart read it as 1.0
    raw = bundled_raw(name)
    node = raw
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = True
    with pytest.raises(ConfigError) as info:
        load_raw(tmp_path, raw)
    assert str(info.value) == f"{tmp_path / 'scenario.yaml'}: {message}"


# (section, field, value): a fault of the sim section, of ell or of the
# attachment
FAULTS = [
    ("sim", "dt", 0.0), ("sim", "dt", math.nan), ("sim", "dt", "1e-3"),
    ("sim", "pole_step", -0.5), ("sim", "cusp_speed_eps", 1.5),
    ("sim", "cusp_speed_eps", 0.0), ("sim", "max_records", 1),
    ("sim", "max_records", 2.5), ("sim", "max_records", True),
    ("ell", None, math.nan), ("ell", None, 0.0), ("ell", None, "1e-3"),
    ("ell", None, True),
    ("gamma0", "d0", -0.1), ("gamma0", "d0", 1.0), ("gamma0", "d0", "0.5"),
    ("gamma0", "side", 0), ("gamma0", "side", 0.5), ("gamma0", "side", True),
    ("gamma0", "mode", "sideways"), ("gamma0", "mode", None),
]


def api_messages(section, field, value):
    """The ConfigError texts of the API calls that take the fault."""
    flat = space_form(0.0)
    line = polyline_tractor([[0.0, 0.0], [4.0, 0.0]])
    attachment = {"d0": 0.5, "side": 1, "mode": "behind"}
    if section == "sim":
        calls = [lambda: SimParams(**{field: value})]
    elif section == "ell":
        calls = [lambda: simulate(flat, line, [0.0, 1.0], value),
                 lambda: orthogonal_attachment(flat, line, value, 0.5)]
    else:
        calls = [lambda: orthogonal_attachment(
            flat, line, 1.0, **{**attachment, field: value})]
    out = []
    for call in calls:
        with pytest.raises(ConfigError) as info:
            call()
        out.append(str(info.value))
    return out


@pytest.mark.parametrize("section, field, value", FAULTS,
                         ids=[f"{s}.{f}={v!r}" if f else f"{s}={v!r}"
                              for s, f, v in FAULTS])
def test_a_fault_gives_one_message_at_load_and_through_the_api(
        tmp_path, section, field, value):
    raw = {"model": {"kind": "spaceform", "K": 0.0},
           "tractor": {"kind": "polyline", "points": [[0.0, 0.0], [4.0, 0.0]]},
           "gamma0": {"d0": 0.5}, "ell": 1.0}
    if field is None:
        raw[section] = value
    else:
        raw.setdefault(section, {})[field] = value
    with pytest.raises(ConfigError) as info:
        load_raw(tmp_path, raw)
    prefix = f"{tmp_path / 'scenario.yaml'}: "
    loaded = str(info.value)
    assert loaded.startswith(prefix + section)
    for message in api_messages(section, field, value):
        assert prefix + message == loaded
