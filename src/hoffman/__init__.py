"""Hoffman-graph machinery and exact feasibility tools for distance-regular
graphs with classical parameters."""

from .errors import (
    BoundViolation,
    CliqueLimitExceeded,
    ConvergenceFailure,
    HoffmanError,
    IndexOutOfFamily,
    IndexOutOfRange,
    NegativeIntersectionNumber,
    NotEquitable,
    OrderingViolation,
    SearchBudgetExhausted,
    VerificationError,
)
from .graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    graph_from_json,
    load_graph,
    maximal_cliques,
    maximum_independent_set,
    mu_parameter,
    parse_graph6,
    twin_classes,
)
from .exact import (
    RationalMatrix,
    det_exact,
    eigenvalues_float,
    psd_witness,
    quotient_eigenvalues_float,
)
from .hgraphs import (
    CatalogEntry,
    HoffmanGraph,
    catalog,
    clique_with_two_fats,
    expand,
    expansion_blocks,
    is_t_fat,
    m_matrix,
    pendant_slim_pair,
    slim_with_fats,
    special_matrix,
)
from .forbidden import (
    ForbiddenHit,
    PROP_CAL_PAIRS,
    adjacency_rational,
    certify_lambda_min_below,
    graph_lambda_min_float,
    graph_quadratic_form,
    graph_quotient_matrix,
    prop215,
    scan_M_t,
    verify_proposition_cal,
)
from .structure import (
    CliqueExtraction,
    Thresholds,
    associated_hoffman,
    bose_laskar,
    n1_threshold,
    n2_threshold,
    theorem_intro2_check,
    thresholds,
)
from .drg import (
    BetaBounds,
    ClassicalParams,
    IntersectionArray,
    LocalGraphParams,
    check_ie1,
    delsarte_bound,
    eigenvalues,
    feasibility_scan,
    gaussian,
    intersection_array,
    local_graph_params,
    p66_leading_constant,
    theorem_beta_bounds,
)

__version__ = "0.1.0"
