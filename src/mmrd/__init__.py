"""mmrd: reaction-diffusion systems with maximal monotone boundary/interior graphs.

The package provides uniform 1D/2D grids, an implicit stepper whose nodal
solves are graph resolvents, principal Dirichlet eigenpairs with the Kaplan
blow-up functionals, and a comparison harness that machine-checks the
ordering hypotheses for a pair of problems and monitors the ordering defect
while co-evolving them.
"""

from .compare import (
    AssumptionReport,
    BlowupOrderResult,
    ComparisonReport,
    blowup_order_experiment,
    check_assumptions,
    ordering_defect,
    run_pair,
)
from .errors import ConfigurationError, SolverFailure
from .graphs import (
    DominationVerdict,
    MonotoneGraph,
    dirichlet_graph,
    dominates,
    eval_graph,
    extended_neumann_graph,
    extended_power_graph,
    linear_graph,
    obstacle_graph,
    power_graph,
    resolvent,
    yosida,
    zero_graph,
)
from .mesh import Mesh, build_mesh, integrate, positive_part_l2, sup_norm
from .reactions import (
    Reaction,
    check_order_F,
    ell,
    eval_reaction,
    lipschitz_bound,
    nuclear_reaction,
    power_reaction,
    zero_reaction,
)
from .scenarios import (
    PRESET_NAMES,
    Scenario,
    build_problem,
    make_preset,
    parse_scenario,
    scenario_to_dict,
)
from .spectral import (
    EigenPair,
    check_nr_initial,
    kaplan_threshold,
    kaplan_y,
    kaplan_z,
    principal_eigenpair,
    riccati_blowup_time,
)
from .stepper import (
    BlowupVerdict,
    ProblemSpec,
    TimeControl,
    Trajectory,
    detect_blowup,
    local_existence_horizon,
    run,
    step,
)

__version__ = "0.1.0"
