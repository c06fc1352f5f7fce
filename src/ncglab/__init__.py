"""Exact-arithmetic laboratory for bilateral network creation games."""

from .errors import (
    AlphaNotSquare,
    BoundViolation,
    DisconnectedNetwork,
    DisconnectedSeed,
    HostTooSmall,
    InstanceTooLarge,
    LabError,
    LabInputError,
    MoveError,
    NotProvenOptimal,
)
from .model import (
    CostBreakdown,
    DistanceMatrix,
    HostGraph,
    Instance,
    MetricReport,
    Network,
    cost_report,
    is_metric,
    metric_closure,
    shortest_distances,
    shortest_path_tree,
    spanner_stretch,
    star_social_cost,
    validate_host,
)
from .scalars import INF, format_rational, is_inf, parse_rational
from .stability import (
    BNE,
    BSE,
    CONCEPTS,
    PS,
    Budget,
    Move,
    Verdict,
    apply_move,
    best_single_removal,
    check,
    is_bne,
    is_bse,
    is_improving,
    is_pairwise_stable,
    move_deltas,
)
from .dynamics import (
    BEST_RESPONSE,
    FIRST_FOUND,
    POLICIES,
    Trace,
    find_improving_move,
    run_dynamics,
)
from .fixtures import (
    FAMILIES,
    Fixture,
    FixtureReport,
    gen_general_bse,
    gen_metric_path,
    gen_metric_star,
    generate,
    verify_fixture,
)
from .harness import (
    EnumerationResult,
    PoaPoint,
    SweepConfig,
    SweepReport,
    enumerate_stable,
    poa_point,
    poa_sweep,
)
from .optimum import (
    OptResult,
    brute_force_opt,
    heuristic_opt,
    opt_spanner_check,
    social_optimum,
)
from .properties import PropertyReport, property_suite, shrink_counterexample
from .randomgen import MODELS, random_instance

__all__ = [name for name in dir() if not name.startswith("_")]
