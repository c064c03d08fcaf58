"""locallab: a desk-scale laboratory for distributed graph computation.

Exact-rational tooling for LOCAL/SLOCAL simulation, locally checkable
labelings, distributed LP relaxations and their dequantization, the
linearizable maximal-matching encoding, and gadget lifts with non-signaling
certification by marginal comparison.
"""

from .graphs import (
    INFINITY,
    CenteredGraph,
    ContractError,
    Graph,
    InputError,
    LabeledGraph,
    View,
    ball_distances,
    centered_isomorphism,
    centered_key,
    complete_graph,
    cycle_graph,
    distance,
    distances_from,
    extract_view,
    graph_from_json,
    graph_to_json,
    label_graph,
    labeled_graph_from_json,
    labeled_graph_to_json,
    make_graph,
    neighborhood,
    path_graph,
    star_graph,
    to_dot,
    view_isomorphisms,
    view_key,
    views_isomorphic,
)
from .lcl import (
    ConstraintSet,
    LclProblem,
    Verdict,
    centered_ball,
    check_constraints,
    make_constraint_set,
    verify_lcl_solution,
)
from .outcomes import (
    Labeling,
    LocalAlgorithm,
    NodeOutput,
    Outcome,
    SlocalAlgorithm,
    SlocalStep,
    deterministic_outcome,
    expectation,
    labeling_from_json,
    labeling_to_json,
    make_outcome,
    outcome_from_json,
    outcome_to_json,
    rand_local_marginal,
    restrict,
    run_local,
    run_rand_local,
    run_slocal,
    success_probability,
    verify_non_signaling,
)
from .lp import (
    INFEASIBLE,
    DistLP,
    LpPoint,
    approximation_ratio,
    build_fractional_matching_lp,
    check_feasible,
    cycle_family,
    dequantize,
    exact_opt,
    local_expectation_algorithm,
    maximal_matching_to_fractional,
    objective_value,
    whole_graph_family,
)
from .linearize import (
    MATCHING_ENCODING,
    IncidenceGraph,
    LinearizableProblem,
    decode_to_matching,
    encode_matching,
    greedy_matching,
    greedy_maximal_matching,
    incidence_graph_of,
    is_maximal_matching,
    make_incidence_graph,
    make_linearizable_problem,
    verify_linearizable,
)
from .gadgets import (
    BOTTOM,
    OctopusGadget,
    PortMap,
    ProperInstance,
    TreeLikeGadget,
    contract_octopi,
    family_constraint_set_for,
    gen_octopus,
    gen_proper_instance,
    gen_tree_like,
    lift_run,
    pullback_outcome,
    recognize_proper_instance,
    recognize_tree_like,
    verify_pi_promise,
)
from .suites import SUITE_NAMES, RunReport, run_suite

__version__ = "0.1.0"
