# Dequantization by expectation: a distribution over feasible LP points can be
# replaced by its coordinatewise expectation.  The expectation stays feasible,
# its objective equals the expected objective, and the approximation factor
# never degrades; all of it exact, in rational arithmetic.

from fractions import Fraction

from locallab import (
    approximation_ratio,
    build_fractional_matching_lp,
    check_feasible,
    complete_graph,
    dequantize,
    exact_opt,
    label_graph,
    local_expectation_algorithm,
    objective_value,
    restrict,
    run_local,
    whole_graph_family,
)
from locallab.lp import LpPoint, edge_var, labeling_from_point, outcome_of_points

k3 = complete_graph(3)
lp = build_fractional_matching_lp(k3)
print("fractional matching optimum of K3:", exact_opt(lp).value)  # 3/2 at x = 1/2

# The uniform distribution over the three single-edge matchings of K3.
def point(edge):
    return LpPoint.of({edge_var(e): Fraction(e == edge) for e in range(3)})

uniform = outcome_of_points(lp, [(point(e), Fraction(1, 3)) for e in range(3)])

x_hat = dequantize(uniform, lp)
print("dequantized point:", {name: str(v) for name, v in x_hat.values})
print("feasible:", check_feasible(lp, x_hat).ok)
print("objective:", objective_value(lp, x_hat), "| ratio:", approximation_ratio(lp, x_hat))

# The same expectation computed the distributed way: each node completes its
# view to a member of the family (here: the whole graph), names its image
# there, asks the oracle for the outcome's marginal on that one node, and
# outputs the marginal's expectation.
lg = label_graph(k3)
rule = local_expectation_algorithm(lambda network, nodes: restrict(uniform, nodes), 1, whole_graph_family(lg))
labeling = run_local(rule, lg)
print("distributed expectation equals dequantize:",
      labeling.half_edges() == labeling_from_point(lp, x_hat).half_edges())
