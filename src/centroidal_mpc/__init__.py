"""Centroidal non-linear MPC for legged locomotion with online step adjustment."""

from importlib import resources

__version__ = "0.1.0"

from .model import (  # noqa: F401
    CentroidalState,
    ContactGeometry,
    PhysicalParams,
    integrate_step,
)
from .plan import (  # noqa: F401
    ContactPlan,
    NominalContact,
    QuinticSpline,
    horizon_schedule,
    nominal_com_trajectory,
)
from .transcription import (  # noqa: F401
    ContactBox,
    DecisionLayout,
    FrictionPyramid,
    NlpProblem,
    Weights,
    build_nlp,
)
from .qp import QpOptions, QpResult, QpWorkspace, solve_qp  # noqa: F401
from .solver import (  # noqa: F401
    DerivativeReport,
    Solution,
    SolverOptions,
    check_derivatives,
    solve,
)
from .controller import MpcOptions, MpcOutput, cold_start, mpc_step, shift_warm_start  # noqa: F401
from .scenario import ScenarioConfig, ScenarioError, parse_scenario  # noqa: F401
from .sim import (  # noqa: F401
    Metrics,
    SimulationDiverged,
    TrajectoryLog,
    compute_metrics,
    export_csv,
    simulate,
)


def bundled_scenario(name: str) -> str:
    """Text of a scenario shipped with the package (e.g. 'one_leg_jump')."""
    candidate = resources.files("centroidal_mpc").joinpath("scenarios", f"{name}.txt")
    try:
        return candidate.read_text()
    except FileNotFoundError:
        available = sorted(
            p.name[: -len(".txt")]
            for p in resources.files("centroidal_mpc").joinpath("scenarios").iterdir()
            if p.name.endswith(".txt")
        )
        raise KeyError(f"no bundled scenario {name!r}; available: {available}") from None
