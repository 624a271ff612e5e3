"""Nonlinear least squares over parametrized frame families, with an FDOA
multistatic radar specialization."""

from .core import (
    FrameFamily,
    FrameJet,
    dual_synthesis,
    error_value,
    error_values,
    frame_bounds,
    project_null,
)
from .derivatives import (
    ProjectorPieces,
    error_gradient_hessian,
    fd_gradient,
    fd_hessian,
    gradient,
    hessian,
    projector_pieces,
)
from .diagnostics import (
    LevelSetReport,
    UniquenessCertificate,
    augmented_vectors,
    level_set,
    residual_bound_check,
    uniqueness_certificate,
)
from .families import (
    CallableFrameFamily,
    ConstantFrameFamily,
    LinearFrameFamily,
    QuadraticFrameFamily,
)
from .radar import (
    NoiseModel,
    RadarGeometry,
    RadarScenario,
    TargetState,
    bistatic_distance,
    load_scenario,
    parse_scenario,
    radar_family,
    simulate_fdoa,
)
from .solver import (
    GridSpec,
    SolveResult,
    SolveStatus,
    SolverConfig,
    grid_search,
    localize,
    newton_step,
)
from .tracking import (
    TimeSeries,
    Trajectory,
    el_acceleration,
    el_residual,
    functional_value,
    integrate_trajectory,
    load_time_series,
    shooting_search,
)

__version__ = "0.1.0"
