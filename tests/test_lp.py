import itertools
import math
import random
import re
from fractions import Fraction as F

import pytest

from locallab.corpus import (
    all_connected_bipartite_graphs,
    all_connected_graphs,
    all_maximal_matchings,
    best_half_integral_matching_value,
    maximum_matching_size,
)
from locallab.graphs import (
    INFINITY,
    ContractError,
    InputError,
    complete_graph,
    cycle_graph,
    extract_view,
    label_graph,
    make_graph,
    path_graph,
    star_graph,
    view_key,
)
from locallab.lp import (
    INFEASIBLE,
    LpConstraint,
    LpPoint,
    LpVariable,
    approximation_ratio,
    build_fractional_matching_lp,
    check_feasible,
    cycle_family,
    dequantize,
    edge_var,
    exact_opt,
    labeling_from_point,
    local_expectation_algorithm,
    lp_from_json,
    lp_to_json,
    make_dist_lp,
    maximal_matching_to_fractional,
    objective_value,
    oriented_cycle_graph,
    outcome_of_points,
    point_from_json,
    point_to_json,
    ratio_to_opt,
    whole_graph_family,
)
from locallab.outcomes import (
    Labeling,
    expectation,
    make_outcome,
    rand_local_marginal,
    restrict,
    run_local,
)
import locallab.lp as lp_module
import locallab.suites as suites


def point_from_labeling(lp, labeling):
    """The point a labeling encodes, through dequantize's own column
    decoding: positions, integer numerators over one denominator, point."""
    comp = lp_module._compiled(lp)
    positions = lp_module._label_positions(comp, labeling)
    return lp_module._point_of_columns(comp, *lp_module._decode(comp, positions, labeling, 0))


def matching_point(g, edges):
    return LpPoint.of(
        {edge_var(e): F(1) if e in edges else F(0) for e in range(g.m)}
    )


def test_build_matching_lp_shapes():
    single = make_graph(2, [(0, 1)])
    lp = build_fractional_matching_lp(single)
    assert len(lp.variables) == 1
    node_rows = [c for c in lp.constraints if c.name.startswith("node")]
    assert len(node_rows) == 2
    assert exact_opt(lp).value == 1

    with pytest.raises(InputError):
        build_fractional_matching_lp(make_graph(2, [(0, 1), (0, 1)], multi=True))


def test_exact_opt_examples():
    assert exact_opt(build_fractional_matching_lp(complete_graph(3))).value == F(3, 2)
    assert exact_opt(build_fractional_matching_lp(path_graph(3))).value == 1
    assert exact_opt(build_fractional_matching_lp(star_graph(4))).value == 1


def test_exact_opt_point_is_feasible_and_optimal():
    lp = build_fractional_matching_lp(complete_graph(3))
    result = exact_opt(lp)
    assert result.status == "optimal"
    assert check_feasible(lp, result.point).ok
    assert objective_value(lp, result.point) == result.value


def test_exact_opt_matches_half_integral_oracle():
    for g in all_connected_graphs(6):
        if g.m == 0:
            continue
        lp = build_fractional_matching_lp(g)
        assert exact_opt(lp).value == best_half_integral_matching_value(g)


def test_konig_on_bipartite_corpus():
    for g in all_connected_bipartite_graphs(8):
        if g.m == 0:
            continue
        lp = build_fractional_matching_lp(g)
        assert exact_opt(lp).value == maximum_matching_size(g)


def test_simplex_unbounded_and_infeasible():
    assert exact_opt(_node_lp(1, [1], [])).status == "unbounded"
    assert exact_opt(_node_lp(1, [1], [([(0, 1)], "<=", -1)])).status == "infeasible"
    result = exact_opt(_node_lp(2, [1, 1], [([(0, 1), (1, 1)], "==", 1), ([(0, 1), (1, 0)], "<=", 1)]))
    assert result.status == "optimal" and result.value == 1


def test_check_feasible_examples():
    k3 = complete_graph(3)
    lp = build_fractional_matching_lp(k3)
    assert check_feasible(lp, matching_point(k3, set())).ok
    bad = check_feasible(lp, matching_point(k3, {0, 1}))
    assert not bad.ok and any(v.startswith("node") for v in bad.violated)
    assert check_feasible(lp, LpPoint.of({edge_var(e): F(1, 2) for e in range(3)})).ok
    with pytest.raises(InputError):
        check_feasible(lp, LpPoint.of({edge_var(0): F(1)}))


def test_approximation_ratio_examples():
    k3 = complete_graph(3)
    lp = build_fractional_matching_lp(k3)
    opt_point = exact_opt(lp).point
    assert approximation_ratio(lp, opt_point) == 1

    p3 = path_graph(3)
    lp3 = build_fractional_matching_lp(p3)
    assert approximation_ratio(lp3, maximal_matching_to_fractional(p3, {0})) == 1
    assert approximation_ratio(lp, maximal_matching_to_fractional(k3, {0})) == F(3, 2)

    c6 = cycle_graph(6)
    lp6 = build_fractional_matching_lp(c6)
    assert approximation_ratio(lp6, maximal_matching_to_fractional(c6, {0, 2, 4})) == 1

    assert approximation_ratio(lp, matching_point(k3, {0, 1})) == INFEASIBLE
    assert approximation_ratio(lp, matching_point(k3, set())) == INFINITY


def test_maximal_matching_to_fractional_witnesses():
    p3 = path_graph(3)
    with pytest.raises(InputError, match="share"):
        maximal_matching_to_fractional(p3, {0, 1})
    with pytest.raises(InputError, match="added"):
        maximal_matching_to_fractional(p3, set())


def test_dequantize_examples():
    k3 = complete_graph(3)
    lp = build_fractional_matching_lp(k3)
    single = outcome_of_points(lp, [(matching_point(k3, {0}), F(1))])
    assert dequantize(single, lp) == matching_point(k3, {0})

    uniform = outcome_of_points(
        lp, [(matching_point(k3, {e}), F(1, 3)) for e in range(3)]
    )
    x_hat = dequantize(uniform, lp)
    assert x_hat == LpPoint.of({edge_var(e): F(1, 3) for e in range(3)})
    assert check_feasible(lp, x_hat).ok
    assert objective_value(lp, x_hat) == 1
    assert approximation_ratio(lp, x_hat) == F(3, 2)


def test_dequantize_mixture_of_optima_stays_optimal():
    c6 = cycle_graph(6)
    lp = build_fractional_matching_lp(c6)
    a = matching_point(c6, {0, 2, 4})
    b = matching_point(c6, {1, 3, 5})
    for p in (F(0), F(1, 4), F(1, 2)):
        pairs = [(a, p), (b, 1 - p)] if p > 0 else [(b, F(1))]
        outcome = outcome_of_points(lp, pairs)
        x_hat = dequantize(outcome, lp)
        assert objective_value(lp, x_hat) == exact_opt(lp).value
        assert approximation_ratio(lp, x_hat) == 1


def test_dequantize_rejects_infeasible_entry():
    k3 = complete_graph(3)
    lp = build_fractional_matching_lp(k3)
    bad = outcome_of_points(lp, [(matching_point(k3, {0, 1}), F(1))])
    with pytest.raises(ContractError, match="entry 0"):
        dequantize(bad, lp)


def test_dequantize_rejects_an_outcome_over_another_graph():
    lp = build_fractional_matching_lp(path_graph(3))
    half = LpPoint.of({"e0": F(1, 2), "e1": F(1, 2)})
    same = make_outcome(label_graph(path_graph(3)), [(labeling_from_point(lp, half), F(1))])
    assert dequantize(same, lp) == half
    # P3's half-edges are half-edges of C4 too, so only the graph tells them apart
    over_c4 = make_outcome(label_graph(cycle_graph(4)), [(labeling_from_point(lp, half), F(1))])
    with pytest.raises(InputError, match="LP's graph"):
        dequantize(over_c4, lp)


def test_dequantize_refuses_variables_that_share_a_node():
    # the labeling of a point shows one label per node, so x = 1 would read
    # back through y's label as 0 and give objective 0 where 1 is expected
    p2 = path_graph(2)
    lp = make_dist_lp("node-based", "maximize", p2, [
        LpVariable(name="x", owner=("node", 0), objective=F(1)),
        LpVariable(name="y", owner=("node", 0), objective=F(1)),
    ], [LpConstraint(name="c", coeffs=(("x", F(1)), ("y", F(1))), relation="<=", bound=F(1), owner=0)])
    point = LpPoint.of({"x": 1, "y": 0})
    assert check_feasible(lp, point).ok and objective_value(lp, point) == 1
    assert exact_opt(lp).value == 1
    outcome = outcome_of_points(lp, [(point, F(1))])
    with pytest.raises(InputError, match="'x' and 'y' share node 0"):
        dequantize(outcome, lp)


def test_dequantize_refuses_variables_that_share_an_edge():
    p3 = path_graph(3)
    lp = make_dist_lp("edge-based", "maximize", p3, [
        LpVariable(name="a", owner=("edge", 0), objective=F(1)),
        LpVariable(name="b", owner=("edge", 1), objective=F(1)),
        LpVariable(name="c", owner=("edge", 1), objective=F(1)),
    ], [])
    outcome = outcome_of_points(lp, [(LpPoint.of({"a": 0, "b": 1, "c": 0}), F(1))])
    with pytest.raises(InputError, match="'b' and 'c' share edge 1"):
        dequantize(outcome, lp)


@pytest.mark.parametrize(
    "probabilities, index",
    [((0.5, 0.5), 0), ((True,), 0), ((F(1, 2), 0.5), 1)],
    ids=["floats", "bool", "float-after-fraction"],
)
def test_outcome_of_points_rejects_an_inexact_probability(probabilities, index):
    p2 = path_graph(2)
    lp = build_fractional_matching_lp(p2)
    points = [matching_point(p2, {0}), matching_point(p2, set())]
    with pytest.raises(InputError, match=f"probability {index} is"):
        outcome_of_points(lp, list(zip(points, probabilities)))


def test_dequantize_soundness_random_mixtures():
    rng = random.Random(11)
    for g in all_connected_graphs(5):
        if g.m == 0:
            continue
        lp = build_fractional_matching_lp(g)
        opt = exact_opt(lp).value
        matchings = all_maximal_matchings(g)
        for _ in range(20):
            count = rng.randint(1, 3)
            pts = [matching_point(g, matchings[rng.randrange(len(matchings))]) for _ in range(count)]
            ws = [rng.randint(1, 5) for _ in range(count)]
            total = sum(ws)
            pairs = [(pt, F(w, total)) for pt, w in zip(pts, ws)]
            x_hat = dequantize(outcome_of_points(lp, pairs), lp)
            assert check_feasible(lp, x_hat).ok
            expected = sum((p * objective_value(lp, pt) for pt, p in pairs), F(0))
            assert objective_value(lp, x_hat) == expected


def test_point_labeling_roundtrip():
    g = path_graph(3)
    lp = build_fractional_matching_lp(g)
    point = LpPoint.of({edge_var(0): F(2, 3), edge_var(1): F(1, 3)})
    labeling = labeling_from_point(lp, point)
    assert point_from_labeling(lp, labeling) == point


def test_local_expectation_whole_graph():
    k3 = complete_graph(3)
    lp = build_fractional_matching_lp(k3)
    lg = label_graph(k3)
    uniform = outcome_of_points(lp, [(matching_point(k3, {e}), F(1, 3)) for e in range(3)])

    alg = local_expectation_algorithm(lambda network, nodes: restrict(uniform, nodes), 1, whole_graph_family(lg))
    labeling = run_local(alg, lg)
    assert all(value == F(1, 3) for value in labeling.half_edges().values())

    # deterministic oracle reproduces its own labeling exactly
    det = outcome_of_points(lp, [(matching_point(k3, {1}), F(1))])
    alg2 = local_expectation_algorithm(lambda network, nodes: restrict(det, nodes), 1, whole_graph_family(lg))
    assert run_local(alg2, lg).half_edges() == labeling_from_point(lp, matching_point(k3, {1})).half_edges()


def test_local_expectation_two_completions_agree():
    from locallab.outcomes import LocalAlgorithm, NodeOutput

    def rule(view, seeds):
        v = view.anchor_node()
        total = F(int(seeds[v]))
        for u in view.node_set:
            if u != v:
                total += F(int(seeds[u]), 3)
        return NodeOutput(node_label=total)

    alg = LocalAlgorithm(locality=1, rule=rule, seed_alphabet=("0", "1"))

    def oracle(network, nodes):
        return rand_local_marginal(alg, network, nodes)

    r9 = local_expectation_algorithm(oracle, 1, cycle_family(9))
    r12 = local_expectation_algorithm(oracle, 1, cycle_family(12))
    lg = oriented_cycle_graph(15)

    for v in (0, 7):
        view = extract_view(lg, [v], 1)
        assert r9.rule(view).node_label == r12.rule(view).node_label


def _brute_force_embeds(view, network, image, t):
    """Literal port-exact embedding: some bijection from the view onto the
    radius-t view of `image` sends the anchor to `image` and matches node
    labels, and per port the half-edge label, the retained pattern and the
    far end."""
    target = extract_view(network, [image], t)
    anchor = view.anchor_node()
    rest = sorted(view.node_set - {anchor})
    g1, g2 = view.source.graph, network.graph
    if len(view.node_set) != len(target.node_set):
        return False
    for images in itertools.permutations(sorted(target.node_set - {image})):
        phi = {anchor: image, **dict(zip(rest, images))}
        if all(_ports_match(view, target, g1, g2, phi, v) for v in view.node_set):
            return True
    return False


def _ports_match(view, target, g1, g2, phi, v):
    u = phi[v]
    p1, p2 = view.ports[v], target.ports[u]
    if view.node_label[v] != target.node_label[u] or len(p1) != len(p2):
        return False
    for (lab1, e1), (lab2, e2) in zip(p1, p2):
        if lab1 != lab2 or (e1 is None) != (e2 is None):
            return False
        if e1 is not None and phi[g1.other(e1, v)] != g2.other(e2, u):
            return False
    return True


def test_embeds_agrees_with_brute_force_on_small_graphs():
    """Every view at t = 0, 1, 2 of the connected graphs up to 5 nodes, with
    seeded port orders and, on two graphs in three, seeded node or half-edge
    labels, against every image in the graph itself and in the oriented
    cycles of length 3-9."""
    rng = random.Random("embeds")
    cycles = [oriented_cycle_graph(n) for n in range(3, 10)]
    sources = []
    for i, g in enumerate(all_connected_graphs(5)):
        order = [rng.sample(row, len(row)) for row in g.adjacency]
        shuffled = make_graph(g.n, g.edge_list, adjacency_order=order)
        node_labels = {v: rng.choice([None, "a"]) for v in range(g.n)} if i % 3 == 1 else None
        port_labels = {h: rng.choice([None, "p"]) for h in shuffled.half_edges()} if i % 3 == 2 else None
        sources.append(label_graph(shuffled, node_labels, port_labels))
    checked = embedded = 0
    for lg in sources:
        for t in (0, 1, 2):
            for v in range(lg.graph.n):
                view = extract_view(lg, [v], t)
                for network in [lg, *cycles]:
                    for image in range(network.graph.n):
                        expected = _brute_force_embeds(view, network, image, t)
                        target = extract_view(network, [image], t)
                        assert (view_key(view) == view_key(target)) == expected, (lg, t, v, image)
                        checked += 1
                        embedded += expected
    assert embedded and embedded < checked


def _no_oracle(network, nodes):
    raise AssertionError("the oracle is asked only after the view embeds")


@pytest.mark.parametrize("view, family", [
    # radius 3: at radius 2 the edge between C5's two far nodes is dropped,
    # so that view is a path, as in C9, and embeds
    pytest.param(extract_view(oriented_cycle_graph(5), [0], 3), cycle_family(9), id="whole-5-cycle-into-9"),
    pytest.param(extract_view(label_graph(path_graph(4)), [0], 1), cycle_family(9), id="path-end"),
    pytest.param(extract_view(label_graph(cycle_graph(6)), [0], 1), cycle_family(9), id="unoriented-cycle"),
    # C6 covers C3 twice around, port for port, but its view has twice the
    # nodes, so the keys differ
    pytest.param(extract_view(oriented_cycle_graph(6), [0], 3), cycle_family(3), id="6-cycle-covers-3-cycle"),
])
def test_completion_that_cannot_hold_the_view_is_a_contract_error(view, family):
    rule = local_expectation_algorithm(_no_oracle, view.radius, family)
    with pytest.raises(ContractError, match="completion does not embed the view"):
        rule.rule(view)


def test_cycle_family_needs_three_nodes():
    with pytest.raises(InputError, match="at least 3"):
        cycle_family(2)


def test_whole_graph_completion_rejects_a_foreign_network():
    rule = local_expectation_algorithm(_no_oracle, 1, whole_graph_family(oriented_cycle_graph(5)))
    with pytest.raises(ContractError, match="view of a different network"):
        rule.rule(extract_view(oriented_cycle_graph(6), [0], 1))


def test_locality_of_lp_formulation_enforced():
    g = path_graph(3)
    variables = [LpVariable(name="x", owner=("node", 2), objective=F(1))]
    constraints = [
        LpConstraint(name="far", coeffs=(("x", F(1)),), relation="<=", bound=F(1), owner=0)
    ]
    with pytest.raises(InputError, match="radius 1"):
        make_dist_lp("node-based", "maximize", g, variables, constraints)


def test_lp_json_roundtrip():
    lp = build_fractional_matching_lp(complete_graph(3))
    back = lp_from_json(lp_to_json(lp))
    assert [v.name for v in back.variables] == [v.name for v in lp.variables]
    assert exact_opt(back).value == F(3, 2)
    point = LpPoint.of({edge_var(e): F(1, 3) for e in range(3)})
    assert point_from_json(point_to_json(point)) == point


# ---------------------------------------------------------------------------
# differential tests against the rational tableau
#
# The reference is the plain two-phase dense simplex over Fraction with
# Bland's rule.  The integer tableau must make the same pivots, so status,
# value and point are compared with ==, not only the optimal value.


def _ref_pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    for i in range(len(tableau)):
        if i != row and tableau[i][col] != 0:
            f = tableau[i][col]
            r = tableau[row]
            tableau[i] = [a - f * b for a, b in zip(tableau[i], r)]
    basis[row] = col


def _ref_optimize(tableau, basis, allowed):
    obj = len(tableau) - 1
    while True:
        col = -1
        for j in range(len(allowed)):
            if allowed[j] and tableau[obj][j] < 0:
                col = j
                break
        if col == -1:
            return "optimal"
        row = -1
        best = None
        for i in range(obj):
            if tableau[i][col] > 0:
                ratio = tableau[i][-1] / tableau[i][col]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    best = ratio
                    row = i
        if row == -1:
            return "unbounded"
        _ref_pivot(tableau, basis, row, col)


def reference_simplex_solve(num_vars, objective, rows):
    norm_rows = []
    rhs = []
    for coeffs, rel, bound in rows:
        coeffs = [F(c) for c in coeffs]
        bound = F(bound)
        if bound < 0:
            coeffs = [-c for c in coeffs]
            bound = -bound
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        norm_rows.append((coeffs, rel))
        rhs.append(bound)

    m = len(norm_rows)
    slack_cols = {}
    art_cols = {}
    next_col = num_vars
    for i, (_, rel) in enumerate(norm_rows):
        if rel in ("<=", ">="):
            slack_cols[i] = next_col
            next_col += 1
    for i, (_, rel) in enumerate(norm_rows):
        if rel in (">=", "=="):
            art_cols[i] = next_col
            next_col += 1
    ncols = next_col

    tableau = []
    basis = []
    for i, (coeffs, rel) in enumerate(norm_rows):
        row = [F(0)] * (ncols + 1)
        for j, c in enumerate(coeffs):
            row[j] = c
        if rel == "<=":
            row[slack_cols[i]] = F(1)
            basis.append(slack_cols[i])
        elif rel == ">=":
            row[slack_cols[i]] = F(-1)
            row[art_cols[i]] = F(1)
            basis.append(art_cols[i])
        else:
            row[art_cols[i]] = F(1)
            basis.append(art_cols[i])
        row[-1] = rhs[i]
        tableau.append(row)

    allowed = [True] * ncols

    if art_cols:
        obj_row = [F(0)] * (ncols + 1)
        for col in art_cols.values():
            obj_row[col] = F(1)
        tableau.append(obj_row)
        for i, b in enumerate(basis):
            if tableau[-1][b] != 0:
                f = tableau[-1][b]
                tableau[-1] = [a - f * c for a, c in zip(tableau[-1], tableau[i])]
        _ref_optimize(tableau, basis, allowed)
        if tableau[-1][-1] != 0:
            return ("infeasible", None, None)
        tableau.pop()
        art_set = set(art_cols.values())
        drop_rows = []
        for i in range(m):
            if basis[i] in art_set:
                pivot_col = next(
                    (j for j in range(ncols) if j not in art_set and tableau[i][j] != 0),
                    None,
                )
                if pivot_col is None:
                    drop_rows.append(i)
                else:
                    _ref_pivot(tableau, basis, i, pivot_col)
        for i in reversed(drop_rows):
            tableau.pop(i)
            basis.pop(i)
        for col in art_set:
            allowed[col] = False

    obj_row = [F(0)] * (ncols + 1)
    for j in range(num_vars):
        obj_row[j] = -F(objective[j])
    tableau.append(obj_row)
    for i, b in enumerate(basis):
        if tableau[-1][b] != 0:
            f = tableau[-1][b]
            tableau[-1] = [a - f * c for a, c in zip(tableau[-1], tableau[i])]
    status = _ref_optimize(tableau, basis, allowed)
    if status == "unbounded":
        return ("unbounded", None, None)
    solution = [F(0)] * num_vars
    for i, b in enumerate(basis):
        if b < num_vars:
            solution[b] = tableau[i][-1]
    return ("optimal", tableau[-1][-1], solution)


# bit-identity against the dense fraction-free tableau
#
# `lp._solve` keeps sparse rows, each at its own denominator.  The dense
# tableau below holds every row at the one denominator and rewrites every
# entry on every pivot.  A positive scale changes no sign and no ratio, so
# both make the same pivots, and `_solve` must return the identical tuple:
# the same status and the same integers den, x, y and value.


def _dense_pivot(tableau: list[list[int]], basis: list[int], row: int, col: int, den: int) -> int:
    """Fraction-free pivot on tableau[row][col]; returns the new denominator.

    The tableau stands for tableau/den.  The pivot row keeps its integers and
    the pivot p becomes the denominator, so every other row turns into
    (p*a - f*b) / den.  That division is exact: each entry is, up to sign,
    a minor of the integer system and den the basis determinant.  A negative
    p negates the whole tableau, so the denominator stays positive.
    """
    p = tableau[row][col]
    prow = tableau[row]
    for i, r in enumerate(tableau):
        if i == row:
            continue
        f = r[col]
        if f:
            tableau[i] = [(p * a - f * b) // den for a, b in zip(r, prow)]
        elif p != den:
            tableau[i] = [p * a // den for a in r]
    basis[row] = col
    if p < 0:
        tableau[:] = [[-a for a in r] for r in tableau]
        return -p
    return p


def _dense_price_out(tableau: list[list[int]], basis: list[int], den: int) -> None:
    """Zero the objective row (the last) on the basic columns.

    Row i holds den on its basic column, and the objective row holds a
    multiple of den there when this runs, so the quotient is exact.
    """
    obj = tableau[-1]
    for i, b in enumerate(basis):
        if obj[b]:
            q = obj[b] // den
            obj = [a - q * c for a, c in zip(obj, tableau[i])]
    tableau[-1] = obj


def _dense_optimize(tableau: list[list[int]], basis: list[int], allowed: list[bool], den: int) -> tuple[str, int]:
    """Bland's rule on the maximization tableau; objective is the last row.

    Returns the status and the final denominator.  The ratio test compares
    rhs/a across rows by cross-multiplication (every a is positive).
    """
    last = len(tableau) - 1
    while True:
        obj = tableau[last]
        col = next((j for j, ok in enumerate(allowed) if ok and obj[j] < 0), -1)
        if col == -1:
            return "optimal", den
        row, best_rhs, best_a = -1, 0, 1
        for i in range(last):
            a = tableau[i][col]
            if a > 0:
                rhs = tableau[i][-1]
                lhs, rhs_best = rhs * best_a, best_rhs * a
                if row == -1 or lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[row]):
                    row, best_rhs, best_a = i, rhs, a
        if row == -1:
            return "unbounded", den
        den = _dense_pivot(tableau, basis, row, col, den)


def reference_dense_solve(comp, objective):
    """`lp._solve` on the dense tableau: maximize objective·x over
    {x >= 0 : comp's rows hold}.  Every row is a full list and every pivot
    rewrites every row.

    A row with a negative bound is negated as it is written, its relation
    flipped.  Columns: the variables, then a slack per <=/>= row, then an
    artificial per >=/== row, each in row order.  Phase 1 weighs row i's
    artificial by 1/scale_i (times their lcm), so every pivot is the one the
    unscaled rational tableau would make.  Returns the status and, when
    optimal, (den, x, y, value): integer numerators over the one positive
    denominator den of the point, the dual and the value.  The dual has one
    entry per input row, read off the final objective row at the row's own
    column (slack column of a <=/>= row, artificial column of an == row,
    sign flipped for a negated row).  An artificial that phase 1 cannot
    drive out of the basis sits in a redundant row, zero outside the
    artificial columns; the row stays in the tableau, no phase-2 pivot
    chooses it, and the artificial's unit column keeps a reduced cost of 0.
    """
    n, m = len(comp.names), len(comp.rows)
    negated = [row.bound < 0 for row in comp.rows]
    rels = [lp_module._FLIPPED[row.relation] if neg else row.relation for row, neg in zip(comp.rows, negated)]
    slack_cols = {i: col for col, i in enumerate((i for i, rel in enumerate(rels) if rel != "=="), n)}
    art_start = n + len(slack_cols)
    art_cols = {i: col for col, i in enumerate((i for i, rel in enumerate(rels) if rel != "<="), art_start)}
    ncols = art_start + len(art_cols)

    tableau: list[list[int]] = []
    basis: list[int] = []
    for i, row in enumerate(comp.rows):
        sign = -1 if negated[i] else 1
        r = [0] * (ncols + 1)
        for j, a in row.terms:
            r[j] = sign * a
        if i in slack_cols:
            r[slack_cols[i]] = 1 if rels[i] == "<=" else -1
        if i in art_cols:
            r[art_cols[i]] = 1
        r[-1] = sign * row.bound
        tableau.append(r)
        basis.append(art_cols[i] if i in art_cols else slack_cols[i])

    den = 1
    allowed = [True] * ncols

    if art_cols:
        # phase 1: maximize -(sum of artificials of the unscaled rows)
        weight = math.lcm(*(comp.rows[i].scale for i in art_cols))
        obj_row = [0] * (ncols + 1)
        for i, col in art_cols.items():
            obj_row[col] = weight // comp.rows[i].scale
        tableau.append(obj_row)
        _dense_price_out(tableau, basis, den)
        _, den = _dense_optimize(tableau, basis, allowed, den)
        if tableau[-1][-1] != 0:
            return "infeasible", None
        tableau.pop()
        art_set = set(art_cols.values())
        # drive surviving artificials out of the basis where possible; a row
        # that keeps one is zero outside the artificial columns, so no
        # phase-2 pivot can choose it
        for i in range(m):
            if basis[i] in art_set:
                pivot_col = next(
                    (j for j in range(ncols) if j not in art_set and tableau[i][j] != 0),
                    None,
                )
                if pivot_col is not None:
                    den = _dense_pivot(tableau, basis, i, pivot_col, den)
        for col in art_set:
            allowed[col] = False

    tableau.append([-c * den for c in objective] + [0] * (ncols + 1 - n))
    _dense_price_out(tableau, basis, den)
    status, den = _dense_optimize(tableau, basis, allowed, den)
    if status == "unbounded":
        return status, None
    x = [0] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tableau[i][-1]
    obj_row = tableau[-1]
    y = [0] * m
    for i in range(m):
        yi = obj_row[art_cols[i]] if rels[i] == "==" else obj_row[slack_cols[i]]
        y[i] = -yi if (rels[i] == ">=") != negated[i] else yi
    return status, (den, x, y, obj_row[-1])


def _assert_solve_matches_dense_tableau(lp):
    comp = lp_module._compiled(lp)
    sign = 1 if lp.sense == "maximize" else -1
    objective = [sign * c for c in comp.objective]
    assert lp_module._solve(comp, objective) == reference_dense_solve(comp, objective)


def _dense(lp):
    """(num_vars, objective, rows) of a DistLP, maximized, as dense Fraction rows."""
    names = [v.name for v in lp.variables]
    index = {name: j for j, name in enumerate(names)}
    sign = 1 if lp.sense == "maximize" else -1
    rows = []
    for c in lp.constraints:
        coeffs = [F(0)] * len(names)
        for name, coef in c.coeffs:
            coeffs[index[name]] += coef
        rows.append((coeffs, c.relation, c.bound))
    return len(names), [sign * v.objective for v in lp.variables], rows


def _assert_matches_reference(lp):
    """exact_opt agrees with the reference on one DistLP, and `_solve` with
    the dense tableau."""
    _assert_solve_matches_dense_tableau(lp)
    num_vars, objective, rows = _dense(lp)
    expected = reference_simplex_solve(num_vars, objective, rows)
    result = exact_opt(lp)
    assert result.status == expected[0]
    if expected[0] == "optimal":
        sign = 1 if lp.sense == "maximize" else -1
        assert result.value == sign * expected[1]
        assert result.point == LpPoint.of(dict(zip((v.name for v in lp.variables), expected[2])))
    return expected[0]


def _connected_graph(rng, n, m):
    """Random spanning tree plus random extra edges up to exactly m edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    ordered = sorted(edges)
    rng.shuffle(ordered)
    return make_graph(n, ordered)


def test_simplex_matches_reference_on_matching_lps_of_the_corpus():
    for g in all_connected_graphs(6):
        if g.m:
            assert _assert_matches_reference(build_fractional_matching_lp(g)) == "optimal"


@pytest.mark.parametrize("n", [16, 20, 28])
def test_simplex_matches_reference_on_medium_ladder_shapes(n):
    g = _connected_graph(random.Random(f"ladder:{n}"), n, 30 + 5 * (n - 16))
    assert _assert_matches_reference(build_fractional_matching_lp(g)) == "optimal"


def test_solve_matches_dense_tableau_on_a_70_node_200_edge_matching_lp():
    """The Fraction reference takes seconds at this size; the dense integer
    tableau does not, and exact_opt checks the optimum's certificate."""
    lp = build_fractional_matching_lp(_connected_graph(random.Random("matching:70"), 70, 200))
    _assert_solve_matches_dense_tableau(lp)
    assert exact_opt(lp).status == "optimal"


def _double_cover_matching_size(nx, g):
    """ν(G×K₂) by networkx's blossom algorithm on the bipartite double cover."""
    cover = nx.Graph()
    cover.add_nodes_from((v, side) for v in range(g.n) for side in (0, 1))
    for u, v in g.edge_list:
        cover.add_edges_from((((u, 0), (v, 1)), ((v, 0), (u, 1))))
    return len(nx.max_weight_matching(cover, maxcardinality=True))


@pytest.mark.parametrize("n", [60, 90, 120, 150])
def test_matching_lp_optimum_is_half_the_double_cover_matching(n):
    """ν_f(G) = ν(G×K₂)/2, on sparse graphs where ν_f < n/2."""
    nx = pytest.importorskip("networkx")
    g = _connected_graph(random.Random(f"double cover:{n}"), n, min(13 * n // 10, 200))
    value = exact_opt(build_fractional_matching_lp(g)).value
    assert value == F(_double_cover_matching_size(nx, g), 2)
    assert value < F(n, 2)


def _general_lp(rng, sense):
    """A node-based LP on a complete graph (every variable within radius 1 of
    node 0) with mixed relations, signed bounds and fractional coefficients."""
    k = rng.randint(1, 5)
    g = complete_graph(k) if k > 1 else make_graph(1, [])
    variables = [
        LpVariable(name=f"x{v}", owner=("node", v), objective=F(rng.randint(-4, 6), rng.randint(1, 3)))
        for v in range(k)
    ]
    constraints = []
    for i in range(rng.randint(1, 5)):
        names = rng.sample([v.name for v in variables], rng.randint(1, k))
        coeffs = tuple((name, F(rng.randint(-3, 5), rng.randint(1, 4))) for name in names)
        constraints.append(
            LpConstraint(
                name=f"r{i}",
                coeffs=coeffs,
                relation=rng.choice(["<=", "<=", ">=", "=="]),
                bound=F(rng.randint(-4, 8), rng.randint(1, 3)),
                owner=0,
            )
        )
    return make_dist_lp("node-based", sense, g, variables, constraints)


def test_simplex_matches_reference_on_seeded_general_lps():
    rng = random.Random(2024)
    statuses = {}
    for trial in range(400):
        lp = _general_lp(rng, "maximize" if trial % 2 else "minimize")
        status = _assert_matches_reference(lp)
        statuses[status] = statuses.get(status, 0) + 1
    assert set(statuses) == {"optimal", "unbounded", "infeasible"}, statuses


def _node_lp(k, objective, constraints, sense="maximize"):
    g = complete_graph(k) if k > 1 else make_graph(1, [])
    variables = [LpVariable(name=f"x{v}", owner=("node", v), objective=F(c)) for v, c in enumerate(objective)]
    rows = [
        LpConstraint(name=f"r{i}", coeffs=tuple((f"x{j}", F(a)) for j, a in terms),
                     relation=rel, bound=F(b), owner=0)
        for i, (terms, rel, b) in enumerate(constraints)
    ]
    return make_dist_lp("node-based", sense, g, variables, rows)


def test_simplex_edge_cases_match_reference():
    # redundant equalities: one artificial stays basic and its row is dropped
    redundant = _node_lp(2, [1, 2], [([(0, 1), (1, 1)], "==", 1), ([(0, 2), (1, 2)], "==", 2)])
    assert _assert_matches_reference(redundant) == "optimal"
    assert exact_opt(redundant).value == 2
    # negative bounds on every relation
    negative = _node_lp(
        3, [1, -1, F(1, 2)],
        [([(0, -1), (1, -1)], ">=", -4), ([(1, 1), (2, -2)], "<=", -1), ([(0, 1), (2, -1)], "==", -1)],
        sense="minimize",
    )
    assert _assert_matches_reference(negative) == "optimal"
    infeasible = _node_lp(2, [1, 1], [([(0, 1), (1, 1)], "<=", 1), ([(0, 1)], ">=", 2)])
    assert _assert_matches_reference(infeasible) == "infeasible"
    unbounded = _node_lp(2, [1, 0], [([(0, 1), (1, -1)], "<=", 1)])
    assert _assert_matches_reference(unbounded) == "unbounded"


def redundant_rows_lp():
    """maximize x1 s.t. x0 - x1 = 0, x0 = 0, x0 + 2*x1 = 0 on K2: phase 1 ends
    with an artificial basic in a row that is zero outside the artificial
    columns, and that artificial is not the row's own."""
    return _node_lp(2, [0, 1], [
        ([(0, 1), (1, -1)], "==", 0),
        ([(0, 1)], "==", 0),
        ([(0, 1), (1, 2)], "==", 0),
    ])


def test_exact_opt_reads_each_dual_from_its_own_row_after_a_redundant_row():
    lp = redundant_rows_lp()
    assert _assert_matches_reference(lp) == "optimal"
    result = exact_opt(lp)
    assert result.value == 0
    assert result.point == LpPoint.of({"x0": 0, "x1": 0})


def _redundant_lp(rng, sense):
    """A node-based LP on up to 3 variables whose base rows come back
    duplicated, scaled by a positive factor or negated with the relation
    flipped, and sometimes with a combination of two base equalities."""
    k = rng.randint(1, 3)
    base = [
        ([(j, rng.randint(-2, 2)) for j in range(k)], rng.choice(["==", "==", ">=", "<="]), rng.randint(-2, 2))
        for _ in range(rng.randint(1, 3))
    ]
    rows = list(base)
    for _ in range(rng.randint(1, 3)):
        terms, rel, bound = rng.choice(base)
        f = F(rng.randint(1, 3), rng.randint(1, 2)) * rng.choice([1, -1])
        rows.append(([(j, f * a) for j, a in terms], lp_module._FLIPPED[rel] if f < 0 else rel, f * bound))
    equalities = [row for row in base if row[1] == "=="]
    if len(equalities) >= 2 and rng.random() < 0.5:
        (t1, _, b1), (t2, _, b2) = rng.sample(equalities, 2)
        a, c = rng.choice([1, -1, 2]), rng.choice([1, -1, 2])
        rows.append(([(j, a * x + c * y) for (j, x), (_, y) in zip(t1, t2)], "==", a * b1 + c * b2))
    rng.shuffle(rows)
    return _node_lp(k, [rng.randint(-2, 3) for _ in range(k)], rows, sense)


def test_simplex_matches_reference_on_seeded_lps_with_redundant_rows():
    rng = random.Random("redundant")
    statuses = {}
    for trial in range(3000):
        status = _assert_matches_reference(_redundant_lp(rng, "maximize" if trial % 2 else "minimize"))
        statuses[status] = statuses.get(status, 0) + 1
    assert set(statuses) == {"optimal", "unbounded", "infeasible"}, statuses


def test_simplex_weighs_artificials_of_scaled_rows_like_the_rational_tableau():
    """Scaling a >= row to integers scales its artificial variable too; phase 1
    must weigh it back, or it ends at another vertex and phase 2 returns
    another optimal point of equal value."""
    lp = _node_lp(3, [-3, -1, 0], [
        ([(0, 0), (1, 0), (2, F(4, 5))], ">=", F(2, 5)),
        ([(0, 1), (1, F(1, 3)), (2, 0)], ">=", F(1, 4)),
        ([(0, 3), (1, F(3, 4)), (2, 1)], ">=", F(1, 2)),
    ])
    assert _assert_matches_reference(lp) == "optimal"
    result = exact_opt(lp)
    assert result.value == F(-3, 4)
    assert result.point == LpPoint.of({"x0": F(1, 4), "x1": 0, "x2": F(1, 2)})


def test_simplex_finishes_beales_cycling_example():
    """Beale (1955): the textbook pivot rule cycles on this LP; Bland's does not."""
    lp = _node_lp(4, [F(3, 4), -150, F(1, 50), -6], [
        ([(0, F(1, 4)), (1, -60), (2, F(-1, 25)), (3, 9)], "<=", 0),
        ([(0, F(1, 2)), (1, -90), (2, F(-1, 50)), (3, 3)], "<=", 0),
        ([(0, 0), (1, 0), (2, 1), (3, 0)], "<=", 1),
    ])
    assert _assert_matches_reference(lp) == "optimal"
    result = exact_opt(lp)
    assert result.value == F(1, 20)
    assert result.point == LpPoint.of({"x0": F(1, 25), "x1": 0, "x2": 1, "x3": 0})


def test_repeated_variable_in_a_row_is_summed_everywhere():
    lp = _node_lp(1, [1], [([(0, 1), (0, 1)], "<=", 1)])
    result = exact_opt(lp)
    assert result.value == F(1, 2)
    assert check_feasible(lp, result.point).ok
    assert not check_feasible(lp, LpPoint.of({"x0": F(1)})).ok


@pytest.mark.parametrize("ident", [True, "0", 0.0, -1])
def test_variable_owner_id_must_be_an_int_of_the_graph(ident):
    with pytest.raises(InputError, match="not one of the graph's"):
        make_dist_lp("node-based", "maximize", make_graph(1, []),
                     [LpVariable(name="x0", owner=("node", ident), objective=F(1))], [])


def _one_row_lp(objective=F(1), coefficient=F(1), bound=F(1)):
    return make_dist_lp(
        "node-based", "maximize", make_graph(1, []),
        [LpVariable(name="x0", owner=("node", 0), objective=objective)],
        [LpConstraint(name="r0", coeffs=(("x0", coefficient),), relation="<=", bound=bound, owner=0)],
    )


@pytest.mark.parametrize("inexact", [0.5, "1/2", True, None], ids=["float", "str", "bool", "none"])
@pytest.mark.parametrize("field, names", [
    ("objective", "variable 'x0'"),
    ("coefficient", "constraint 'r0'"),
    ("bound", "constraint 'r0'"),
])
def test_lp_numbers_must_be_ints_or_fractions(inexact, field, names):
    with pytest.raises(InputError, match=names):
        _one_row_lp(**{field: inexact})


def test_lp_with_int_numbers_solves_as_with_fractions():
    assert exact_opt(_one_row_lp(1, 2, 1)).value == exact_opt(_one_row_lp()).value / 2


@pytest.mark.parametrize("inexact", [0.1, "1/3", True, None], ids=["float", "str", "bool", "none"])
def test_lp_point_values_must_be_ints_or_fractions(inexact):
    with pytest.raises(InputError, match="'x'"):
        LpPoint.of({"y": F(1), "x": inexact})


def test_unknown_relation_is_input_error():
    with pytest.raises(InputError, match="relation"):
        _node_lp(1, [1], [([(0, 1)], "<", 1)])


@pytest.mark.parametrize("corrupt, message", [
    pytest.param("point", "violates", id="point"),
    pytest.param("value", "objective differs", id="value"),
    pytest.param("dual", "wrong sign", id="dual"),
    pytest.param("dual-cover", "does not cover", id="dual-cover"),
    pytest.param("dual-value", "dual value differs", id="dual-value"),
])
def test_exact_opt_rejects_a_corrupted_optimum(monkeypatch, corrupt, message):
    """Each corruption of the certificate (den, x, y, value) trips its own
    check.  Every optimum of the K4 matching LP saturates every node row, so
    raising one edge violates a row; rows are all <=, so a negative dual
    entry has the wrong sign, a zero dual covers nothing, and raising one
    dual entry keeps it a cover but changes b·y."""
    real_solve = lp_module._solve

    def corrupted(comp, objective):
        status, (den, x, y, value) = real_solve(comp, objective)
        if corrupt == "point":
            x = [a + 1 if j == 0 else a for j, a in enumerate(x)]
        elif corrupt == "value":
            value += 1
        elif corrupt == "dual":
            y = [-1 if i == 0 else b for i, b in enumerate(y)]
        elif corrupt == "dual-cover":
            y = [0] * len(y)
        else:
            y = [b + den if i == 0 else b for i, b in enumerate(y)]
        return status, (den, x, y, value)

    lp = build_fractional_matching_lp(complete_graph(4))
    assert exact_opt(lp).value == 2
    monkeypatch.setattr(lp_module, "_solve", corrupted)
    with pytest.raises(ContractError, match=message):
        exact_opt(build_fractional_matching_lp(complete_graph(4)))


def _ref_violations(lp, x):
    """check_feasible's verdict by the literal Fraction evaluation of each row."""
    vals = x.as_dict()
    bad = [f"nonneg:{name}" for name, value in sorted(vals.items()) if value < 0]
    for c in lp.constraints:
        total = sum((coef * vals[name] for name, coef in c.coeffs), F(0))
        holds = (
            total <= c.bound if c.relation == "<="
            else total == c.bound if c.relation == "==" else total >= c.bound
        )
        if not holds:
            bad.append(c.name)
    return tuple(bad)


def _check_rows(lp, candidates):
    for values in candidates:
        x = LpPoint.of(values)
        verdict = check_feasible(lp, x)
        assert verdict.violated == _ref_violations(lp, x)
        assert verdict.ok == (not verdict.violated)
        assert objective_value(lp, x) == sum(
            (v.objective * values[v.name] for v in lp.variables), F(0)
        )


def test_compiled_rows_match_the_literal_row_evaluation():
    rng = random.Random(99)
    for trial in range(300):
        lp = _general_lp(rng, "maximize" if trial % 2 else "minimize")
        candidates = [
            {v.name: F(rng.randint(-2, 6), rng.randint(1, 5)) for v in lp.variables} for _ in range(6)
        ]
        opt = exact_opt(lp)
        if opt.status == "optimal":
            candidates.append(opt.point.as_dict())
        _check_rows(lp, candidates)
    # 15 variables: name order (e0, e1, e10, ...) differs from column order
    lp = build_fractional_matching_lp(complete_graph(6))
    _check_rows(lp, [{v.name: F(rng.randint(-1, 2), rng.randint(1, 3)) for v in lp.variables} for _ in range(50)])


# ---------------------------------------------------------------------------
# dequantization on integers against the Fraction decoder it replaced


def reference_labeling_from_point(lp, x):
    vals = x.as_dict()
    nodes, half_edges = {}, {}
    for var in lp.variables:
        kind, ident = var.owner
        if kind == "node":
            nodes[ident] = vals[var.name]
        else:
            u, v = lp.graph.endpoints(ident)
            half_edges[(u, ident)] = vals[var.name]
            half_edges[(v, ident)] = vals[var.name]
    return Labeling.of(nodes, half_edges)


def reference_point_from_labeling(lp, labeling):
    nodes = labeling.nodes()
    half_edges = labeling.half_edges()
    out = {}
    for var in lp.variables:
        kind, ident = var.owner
        if kind == "node":
            if ident not in nodes:
                raise InputError(f"labeling misses node variable {var.name!r}")
            out[var.name] = F(nodes[ident])
        else:
            u, v = lp.graph.endpoints(ident)
            if (u, ident) not in half_edges or (v, ident) not in half_edges:
                raise InputError(f"labeling misses edge variable {var.name!r}")
            a, b = F(half_edges[(u, ident)]), F(half_edges[(v, ident)])
            if a != b:
                raise InputError(f"endpoints disagree on edge variable {var.name!r}: {a} vs {b}")
            out[var.name] = a
    return LpPoint.of(out)


def reference_expectation(outcome, value):
    out = {}
    for labeling, p in outcome.support:
        for key, lab in labeling.node_items + labeling.half_edge_items:
            out[key] = out.get(key, F(0)) + p * F(value(lab))
    return out


def reference_dequantize(outcome, lp):
    for i, (labeling, _) in enumerate(outcome.support):
        verdict = check_feasible(lp, reference_point_from_labeling(lp, labeling))
        if not verdict:
            raise ContractError(f"support entry {i} is infeasible (violates {list(verdict.violated)})")
    vals = reference_expectation(outcome, F)
    out = {}
    for var in lp.variables:
        kind, ident = var.owner
        if kind == "node":
            out[var.name] = vals[ident]
        else:
            out[var.name] = vals[(lp.graph.endpoints(ident)[0], ident)]
    return LpPoint.of(out)


def _result(fn, *args):
    try:
        return "ok", fn(*args)
    except (InputError, ContractError) as err:
        return type(err).__name__, str(err)


def _assert_dequantize_matches_reference(lp, outcome):
    got = _result(dequantize, outcome, lp)
    assert got == _result(reference_dequantize, outcome, lp)
    if got[0] == "ok":
        assert all(type(v) is F for _, v in got[1].values)
    for labeling, _ in outcome.support:
        assert _result(point_from_labeling, lp, labeling) == _result(
            reference_point_from_labeling, lp, labeling
        )


def _as_labels(values, use_ints):
    """Fractions, with the integral ones as ints when use_ints is set."""
    return {k: int(x) if use_ints and x.denominator == 1 else x for k, x in values.items()}


def _edge_labeling(g, values, use_ints):
    labels = _as_labels(values, use_ints)
    return Labeling.of(half_edges={(v, e): labels[e] for e in range(g.m) for v in g.endpoints(e)})


def _random_matching_values(rng, g):
    """Edge values over a random denominator 1..7, scaled under the loads."""
    d = rng.randint(1, 7)
    raw = [rng.randint(0, d) for _ in range(g.m)]
    load = [0] * g.n
    for e, val in enumerate(raw):
        for v in g.endpoints(e):
            load[v] += val
    scale = max([d] + load)
    return {e: F(raw[e], scale) for e in range(g.m)}


def test_dequantize_matches_fraction_reference_on_corpus():
    rng = random.Random(5)
    for g in all_connected_graphs(5):
        if g.m == 0:
            continue
        lp = build_fractional_matching_lp(g)
        lg = label_graph(g)
        matchings = all_maximal_matchings(g)
        for trial in range(12):
            entries = []
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 1 / 3:
                    pick = matchings[rng.randrange(len(matchings))]
                    values = {e: F(int(e in pick)) for e in range(g.m)}
                else:
                    values = _random_matching_values(rng, g)
                entries.append((values, rng.randint(1, 9)))
            total = sum(w for _, w in entries)
            use_ints = trial % 2 == 0
            outcome = make_outcome(
                lg, [(_edge_labeling(g, values, use_ints), F(w, total)) for values, w in entries]
            )
            _assert_dequantize_matches_reference(lp, outcome)
            assert expectation(outcome) == reference_expectation(outcome, F)
            for values, _ in entries:
                point = LpPoint.of({edge_var(e): x for e, x in values.items()})
                assert labeling_from_point(lp, point) == reference_labeling_from_point(lp, point)


def _node_lps(g):
    """A fractional vertex cover LP (node variables only) and a node-edge LP
    (x_e plus a slack y_v per node: sum of x_e at v plus y_v is 1)."""
    cover = make_dist_lp(
        "node-based",
        "minimize",
        g,
        [LpVariable(name=f"y{v}", owner=("node", v), objective=F(1)) for v in range(g.n)],
        [
            LpConstraint(name=f"cover{e}", coeffs=((f"y{u}", F(1)), (f"y{v}", F(1))),
                         relation=">=", bound=F(1), owner=u)
            for e, (u, v) in enumerate(g.edge_list)
        ],
    )
    slack = make_dist_lp(
        "node-edge-based",
        "maximize",
        g,
        [LpVariable(name=edge_var(e), owner=("edge", e), objective=F(1)) for e in range(g.m)]
        + [LpVariable(name=f"y{v}", owner=("node", v), objective=F(0)) for v in range(g.n)],
        [
            LpConstraint(name=f"node{v}",
                         coeffs=tuple((edge_var(e), F(1)) for e in g.adjacency[v]) + ((f"y{v}", F(1)),),
                         relation="==", bound=F(1), owner=v)
            for v in range(g.n)
        ],
    )
    return cover, slack


def test_dequantize_node_variables_match_fraction_reference():
    rng = random.Random(9)
    g = cycle_graph(11)  # node names y10 sort before y2: name order differs from column order
    lg = label_graph(g)
    cover, slack = _node_lps(g)
    for trial in range(20):
        use_ints = trial % 2 == 0
        cover_pairs, slack_pairs = [], []
        for _ in range(rng.randint(1, 4)):
            w = F(rng.randint(1, 9))
            ys = {v: rng.choice([F(1, 2), F(2, 3), F(3, 4), F(1)]) for v in range(g.n)}
            cover_pairs.append((Labeling.of(_as_labels(ys, use_ints)), w))
            xs = _random_matching_values(rng, g)
            load = {v: sum((xs[e] for e in g.adjacency[v]), F(0)) for v in range(g.n)}
            labeling = _edge_labeling(g, xs, use_ints)
            slack_pairs.append((Labeling.of(_as_labels({v: 1 - load[v] for v in range(g.n)}, use_ints),
                                            labeling.half_edges()), w))
        for lp, pairs in ((cover, cover_pairs), (slack, slack_pairs)):
            total = sum(w for _, w in pairs)
            outcome = make_outcome(lg, [(labeling, w / total) for labeling, w in pairs])
            _assert_dequantize_matches_reference(lp, outcome)


def test_dequantize_error_paths_match_fraction_reference():
    p3 = path_graph(3)
    lp = build_fractional_matching_lp(p3)
    lg = label_graph(p3)
    cover, _ = _node_lps(p3)

    def outcome(*labelings):
        return make_outcome(lg, [(labeling, F(1, len(labelings))) for labeling in labelings])

    half = F(1, 2)
    cases = [
        # missing edge variable e1
        (lp, outcome(Labeling.of(half_edges={(0, 0): half, (1, 0): half}))),
        # missing node variable y2
        (cover, outcome(Labeling.of({0: 1, 1: 1}))),
        # half-edges disagree, also int against Fraction
        (lp, outcome(Labeling.of(half_edges={(0, 0): half, (1, 0): F(1, 3), (1, 1): 0, (2, 1): 0}))),
        (lp, outcome(Labeling.of(half_edges={(0, 0): 1, (1, 0): half, (1, 1): 0, (2, 1): 0}))),
        # a disagreement at e0 comes before the missing e1 in entry 0
        (lp, outcome(Labeling.of(half_edges={(0, 0): 1, (1, 0): 0}))),
        # entry 1 infeasible: node 1 over its bound; entry 2 negative
        (lp, outcome(
            Labeling.of(half_edges={(0, 0): 1, (1, 0): 1, (1, 1): 0, (2, 1): 0}),
            Labeling.of(half_edges={(0, 0): 1, (1, 0): 1, (1, 1): half, (2, 1): half}),
        )),
        (lp, outcome(
            Labeling.of(half_edges={(0, 0): 1, (1, 0): 1, (1, 1): 0, (2, 1): 0}),
            Labeling.of(half_edges={(0, 0): F(-1, 2), (1, 0): F(-1, 2), (1, 1): 2, (2, 1): 2}),
        )),
        (cover, outcome(Labeling.of({0: 1, 1: 0, 2: half}))),
    ]
    for lp_, out in cases:
        got = _result(dequantize, out, lp_)
        assert got[0] != "ok"
        assert got == _result(reference_dequantize, out, lp_)


def test_dequantize_ignores_labels_no_variable_reads():
    p3 = path_graph(3)
    lp = build_fractional_matching_lp(p3)
    lg = label_graph(p3)
    pairs = [(matching_point(p3, {0}), F(1, 3)), (matching_point(p3, {1}), F(2, 3))]
    plain = outcome_of_points(lp, pairs)
    noisy = make_outcome(lg, [
        (Labeling.of({v: "junk" for v in range(3)}, labeling.half_edges()), p)
        for labeling, p in plain.support
    ])
    assert dequantize(noisy, lp) == dequantize(plain, lp)


def reference_ratio(sense, opt, value):
    if sense == "maximize":
        if value == 0:
            return F(1) if opt == 0 else INFINITY
        return opt / value
    if opt == 0:
        return F(1) if value == 0 else INFINITY
    return value / opt


def test_ratio_to_opt_matches_the_reference_convention():
    values = [F(0), F(1), F(1, 3), F(5, 2), F(-2, 7)]
    for sense in ("maximize", "minimize"):
        for opt in values:
            for value in values:
                assert ratio_to_opt(sense, opt, value) == reference_ratio(sense, opt, value)


def test_expectation_rejects_non_rational_values():
    lg = label_graph(path_graph(2))
    for bad in (0.5, True, "1/2", None):
        outcome = make_outcome(lg, [(Labeling.of({0: F(1, 2)}, {(0, 0): 1, (1, 0): bad}), F(1))])
        with pytest.raises(InputError, match=r"expectation of \(1, 0\): .* is not an integer or a Fraction"):
            expectation(outcome)


# ---------------------------------------------------------------------------
# criterion 1's suite


def reference_random_feasible_point(rng, g, matchings):
    if rng.random() < 1 / 3:
        pick = matchings[rng.randrange(len(matchings))]
        return LpPoint.of({edge_var(e): F(1) if e in pick else F(0) for e in range(g.m)})
    raw = {e: F(rng.randint(0, 6), 6) for e in range(g.m)}
    load = {v: F(0) for v in range(g.n)}
    for e, val in raw.items():
        u, v = g.endpoints(e)
        load[u] += val
        load[v] += val
    scale = max([F(1)] + list(load.values()))
    return LpPoint.of({edge_var(e): raw[e] / scale for e in range(g.m)})


def test_random_feasible_point_matches_fraction_reference():
    rng, ref_rng = random.Random(7), random.Random(7)
    for g in all_connected_graphs(5):
        if g.m == 0:
            continue
        matchings = all_maximal_matchings(g)
        for _ in range(30):
            point = suites._random_feasible_point(rng, g, matchings)
            assert point == reference_random_feasible_point(ref_rng, g, matchings)
            assert all(type(v) is F for _, v in point.values)
    assert rng.getstate() == ref_rng.getstate()


def test_dequantize_suite_names_a_witness(monkeypatch):
    """A feasible but wrong dequantized point (all zeros) fails the objective
    check, and the failure names the graph, trial and both objectives."""
    monkeypatch.setattr(
        suites, "dequantize", lambda outcome, lp: LpPoint.of({v.name: 0 for v in lp.variables})
    )
    (check,) = suites.suite_dequantize(7)
    assert check.status == "fail"
    assert check.detail == "objective does not equal the expected objective"
    q = check.quantities
    assert set(q) == {"graph_edges", "trial", "objective", "expected_objective"}
    assert q["objective"] == "0" and F(q["expected_objective"]) > 0
    assert int(q["trial"]) >= 0 and q["graph_edges"].startswith("(")


def _outcome_of_labelings(lp, pairs):
    return make_outcome(label_graph(lp.graph), [(labeling_from_point(lp, pt), p) for pt, p in pairs])


@pytest.mark.parametrize("evaluate", [check_feasible, objective_value, approximation_ratio])
def test_point_value_that_is_not_exact_is_input_error(evaluate):
    lp = build_fractional_matching_lp(path_graph(3))
    for value, shown in [(0.5, "0.5"), ("1/2", "'1/2'"), (None, "None"), (True, "True")]:
        x = LpPoint(values=(("e0", F(1, 2)), ("e1", value)))
        with pytest.raises(InputError, match=f"variable 'e1' the value {re.escape(shown)}, not an integer"):
            evaluate(lp, x)


def test_outcome_of_points_equals_make_outcome_over_labelings():
    p3 = path_graph(3)
    lp = build_fractional_matching_lp(p3)
    a, b, c = (LpPoint.of({"e0": x, "e1": y}) for x, y in [(1, 0), (0, 1), (F(1, 2), F(1, 2))])
    a_ints = LpPoint(values=(("e0", 1), ("e1", 0)))  # equal to a, labels of another type
    # two variables on node 0: the labeling shows only the last, so points
    # that differ in the first give one labeling
    shadowed = make_dist_lp("node-based", "maximize", p3, [
        LpVariable(name="s", owner=("node", 0), objective=F(1)),
        LpVariable(name="t", owner=("node", 0), objective=F(1)),
        LpVariable(name="u", owner=("node", 1), objective=F(0)),
    ], [])
    s0, s1, s2 = (LpPoint.of({"s": s, "t": F(1, 3), "u": 2}) for s in (0, F(1, 7), 5))
    cases = [
        (lp, [(a, F(1, 4)), (b, F(1, 4)), (a, F(1, 4)), (c, F(1, 4))]),
        (lp, [(c, F(0)), (a, F(1, 2)), (c, F(1, 2)), (b, F(0))]),
        (lp, [(a_ints, F(0)), (a, F(1, 3)), (a_ints, F(1, 3)), (b, F(1, 3))]),
        (lp, [(a_ints, F(1, 2)), (a, F(1, 2))]),
        (lp, [(a, F(1, 2)), (b, F(-1, 2)), (c, F(1))]),
        (lp, [(a, F(1, 2)), (b, F(1, 3))]),
        (lp, [(c, F(0))]),
        (lp, []),
        (shadowed, [(s0, F(1, 3)), (s1, F(1, 3)), (s2, F(1, 3))]),
    ]
    for lp_, pairs in cases:
        got = _result(outcome_of_points, lp_, pairs)
        assert got == _result(_outcome_of_labelings, lp_, pairs)
        if got[0] != "ok":
            continue
        want = _outcome_of_labelings(lp_, pairs)
        assert [repr(labeling) for labeling, _ in got[1].support] == [
            repr(labeling) for labeling, _ in want.support
        ]
        denominator = got[1].denominator
        assert [F(w, denominator) for _, w in got[1].entries] == [p for _, p in want.support]
    assert len(outcome_of_points(shadowed, cases[-1][1]).support) == 1
    with pytest.raises(InputError, match="point 1 gives variable 'e1' the value 0.5"):
        outcome_of_points(lp, [(a, F(1, 2)), (LpPoint(values=(("e0", 0), ("e1", 0.5))), F(1, 2))])
    with pytest.raises(InputError, match="point 1 gives variable 'e0' the value True"):
        outcome_of_points(lp, [(a, F(1, 2)), (LpPoint(values=(("e0", True), ("e1", False))), F(1, 2))])
    dropped = outcome_of_points(lp, cases[1][1])
    assert [labeling for labeling, _ in dropped.support] == [labeling_from_point(lp, x) for x in (a, c)]
