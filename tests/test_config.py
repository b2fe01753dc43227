import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from tractrix.config import (
    bundled_dir,
    bundled_names,
    bundled_scenario,
    scenario_from_dict,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-6, max_value=1e6)
point = st.lists(finite, min_size=2, max_size=3)
points = st.lists(point, min_size=2, max_size=5)

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

tractors = st.fixed_dictionaries(
    {"kind": st.sampled_from(["line", "chart_line", "circle", "polyline"])},
    optional={"start": point, "direction": point, "points": points,
              "t0": finite, "t1": finite, "geodesic": st.booleans()})

attachments = st.fixed_dictionaries(
    {}, optional={"d0": st.floats(0.0, 0.9),
                  "side": st.sampled_from([1, -1]),
                  "mode": st.sampled_from(["behind", "ahead"])})

polylines = st.fixed_dictionaries({"points": points})

shorten_sections = st.one_of(
    st.fixed_dictionaries({"mode": st.just("self"), "P": point, "Q": point,
                           "initial": polylines},
                          optional={"tol": positive,
                                    "max_iter": st.integers(1, 10**6),
                                    "steps_per_round": st.integers(8, 10**6)}),
    st.fixed_dictionaries({"mode": st.just("loop"), "loop": polylines},
                          optional={"tol": positive,
                                    "max_iter": st.integers(1, 10**6)}),
)

common = {
    "name": st.text(max_size=12),
    "sim": st.fixed_dictionaries(
        {}, optional={"dt": positive, "pole_step": positive,
                      "cusp_speed_eps": st.floats(1e-6, 0.999),
                      "max_records": st.integers(2, 10**7)}),
    "comparison": st.fixed_dictionaries(
        {}, optional={"widen": positive,
                      "checks": st.lists(st.sampled_from(
                          ["rauch", "toponogov", "le"]), min_size=1)}),
    "out": st.text(max_size=12),
}

scenarios = st.one_of(
    st.fixed_dictionaries(
        {"model": models, "tractor": tractors,
         "gamma0": st.one_of(point, attachments),
         "ell": st.floats(1.0, 1e3)},
        optional=common),
    st.fixed_dictionaries(
        {"model": models, "shorten": shorten_sections,
         "ell": positive},
        optional=common),
)


def assert_round_trip(cfg):
    again = scenario_from_dict(yaml.safe_load(cfg.to_yaml()),
                               base_dir=cfg.base_dir)
    assert again.data == cfg.data
    assert again.name == cfg.name


@settings(max_examples=200, deadline=None)
@given(scenarios)
def test_parse_serialize_parse_is_identity(raw):
    assert_round_trip(scenario_from_dict(raw))


@pytest.mark.parametrize("name", bundled_names())
def test_bundled_scenarios_round_trip(name):
    cfg = bundled_scenario(name)
    assert cfg.base_dir == bundled_dir()
    assert_round_trip(cfg)
