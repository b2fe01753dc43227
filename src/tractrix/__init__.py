"""Tractor/tractrix systems on Riemannian surfaces.

Simulation of pulled and pushed tractrices on space forms and embedded
surfaces, closed-form space-form solutions, sweep functionals (length,
area, total curvature), repeated-tractrix curve shortening, and curvature
comparison checks.
"""

from .charts import (
    EllipsoidChart,
    GraphChart,
    HillyChart,
    ParaboloidChart,
    PlaneChart,
    PseudosphereChart,
    SphereChart,
    chart_from_config,
)
from .comparison import (
    Check,
    ComparisonReport,
    CurvatureBounds,
    certify_bounds,
    le_sandwich_check,
    merge_reports,
    rauch_length_area_check,
    toponogov_sandwich_check,
)
from .config import (
    ScenarioConfig,
    bundled_names,
    bundled_scenario,
    load_scenario,
    scenario_from_dict,
)
from .errors import TractrixError
from .functionals import (
    ExponentFit,
    SweepResult,
    leading_exponent_estimate,
    length_gap_bound,
    polyline_length,
    sweep_area,
    sweep_result,
    total_curvature,
    tractor_length,
)
from .manifold import (
    ManifoldModel,
    jacobi_reference,
    jacobi_reference_integral,
    model_from_config,
    space_form,
    surface_model,
)
from .shortening import (
    Iterate,
    ShorteningRun,
    geodesic_residual,
    loop_repeated,
    self_repeated,
)
from .spaceform import (
    SpaceFormSolution,
    dist_at,
    kappa_at,
    kappa_from_dist,
    leading_exponent,
    solve_from_d0,
)
from .tractrix_sim import (
    CuspRecord,
    SimParams,
    TractorCurve,
    TractrixTrace,
    orthogonal_attachment,
    polyline_tractor,
    simulate,
    tractor_from_config,
    tractor_from_tractrix,
)

__version__ = "0.1.0"
