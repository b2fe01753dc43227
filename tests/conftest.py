import math

import pytest
from hypothesis import settings

from tractrix.manifold import surface_model
from tractrix.tractrix_sim import (
    SimParams,
    orthogonal_attachment,
    simulate,
    tractor_from_config,
)

# The same examples on every run, and no example database on disk.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def ellipsoid_setup():
    """Pull along the equator of an ellipsoid of revolution (a geodesic)."""
    model = surface_model({"name": "ellipsoid", "a": 1.0, "b": 1.0,
                           "c": 1.2})
    equator = tractor_from_config(model, {"kind": "chart_line",
                                          "start": [math.pi / 2, 0.0],
                                          "direction": [0.0, 1.0],
                                          "geodesic": True,
                                          "t0": 0.0, "t1": 2.5})
    g0, _, _ = orthogonal_attachment(model, equator, 0.5, 0.25, side=-1,
                                     mode="behind")
    trace = simulate(model, equator, g0, 0.5, SimParams(dt=0.005))
    return model, trace
