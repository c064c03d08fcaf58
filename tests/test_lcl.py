from fractions import Fraction as F

import pytest

from locallab.graphs import InputError, cycle_graph, label_graph, path_graph
from locallab.lcl import (
    centered_ball,
    check_constraints,
    constraint_set_from_json,
    constraint_set_to_json,
    make_constraint_set,
    verify_lcl_solution,
    LclProblem,
)
from locallab.outcomes import Labeling


def uniform(g, node="n", he="h"):
    return label_graph(
        g,
        node_labels={v: node for v in range(g.n)},
        half_edge_labels={(v, e): he for v, e in g.half_edges()},
    )


def balls_of(lg, r):
    return [centered_ball(lg, v, r) for v in range(lg.graph.n)]


def closure_constraints(lg, r, delta=None):
    from locallab.graphs import centered_isomorphism

    members = []
    for ball in balls_of(lg, r):
        if not any(centered_isomorphism(ball, m) for m in members):
            members.append(ball)
    return make_constraint_set(
        r=r,
        delta=delta or max(lg.graph.degree(v) for v in range(lg.graph.n)),
        node_alphabet={lab for lab in lg.node_labels},
        half_edge_alphabet={lab for _, lab in lg.half_edge_items()},
        members=members,
    )


@pytest.mark.parametrize(
    "one, same",
    [(1, F(1)), ((1, "a"), (F(1), "a")), ((("b", 2),), (("b", F(4, 2)),))],
    ids=["int", "tuple", "nested-tuple"],
)
def test_integral_fraction_labels_match_equal_int_labels(one, same):
    # labels that compare equal must give equal centered keys, whatever
    # their numeric type: the alphabet check already accepts them by ==
    constraints = closure_constraints(uniform(path_graph(3), node=one, he=one), r=1)
    assert check_constraints(uniform(path_graph(3), node=same, he=same), constraints).ok


def test_centered_ball_examples():
    p3 = uniform(path_graph(3))
    ball = centered_ball(p3, 1, 1)
    assert ball.base.graph.n == 3 and ball.base.graph.m == 2

    single = centered_ball(p3, 0, 0)
    assert single.base.graph.n == 1 and single.base.node_labels[single.center] == "n"

    c5 = uniform(cycle_graph(5))
    arc = centered_ball(c5, 2, 2)
    # N_2[v] covers all of C5, and the induced subgraph keeps the wrap edge
    assert arc.base.graph.n == 5 and arc.base.graph.m == 5
    assert all(arc.base.graph.degree(v) == 2 for v in range(5))
    # radius 1 gives the genuine 3-node path
    small = centered_ball(c5, 2, 1)
    assert small.base.graph.n == 3 and small.base.graph.m == 2


def test_check_constraints_closure():
    lg = uniform(cycle_graph(5))
    constraints = closure_constraints(lg, 1)
    assert check_constraints(lg, constraints).ok


def test_check_constraints_empty_set():
    lg = uniform(path_graph(3))
    constraints = make_constraint_set(1, 2, {"n"}, {"h"}, [])
    verdict = check_constraints(lg, constraints)
    assert not verdict.ok
    assert verdict.violating_nodes() == [0, 1, 2]


def test_check_constraints_alphabet_mismatch():
    lg = uniform(path_graph(3), node="other")
    constraints = make_constraint_set(1, 2, {"n"}, {"h"}, [])
    with pytest.raises(InputError):
        check_constraints(lg, constraints)


def test_check_constraints_monotone_in_members():
    lg = uniform(path_graph(4))
    constraints = closure_constraints(lg, 1)
    extra = centered_ball(uniform(cycle_graph(3)), 0, 1)
    bigger = make_constraint_set(
        constraints.r,
        3,
        constraints.node_alphabet,
        constraints.half_edge_alphabet,
        list(constraints.members) + [extra],
    )
    assert check_constraints(lg, constraints).ok
    assert check_constraints(lg, bigger).ok


def test_duplicate_members_rejected():
    lg = uniform(path_graph(3))
    ball = centered_ball(lg, 1, 1)
    with pytest.raises(InputError):
        make_constraint_set(1, 2, {"n"}, {"h"}, [ball, ball])


def test_member_eccentricity_and_degree_bounds():
    lg = uniform(path_graph(5))
    big = centered_ball(lg, 0, 4)
    with pytest.raises(InputError):
        make_constraint_set(1, 4, {"n"}, {"h"}, [big])
    star_ball = centered_ball(uniform(path_graph(3)), 1, 1)
    with pytest.raises(InputError):
        make_constraint_set(1, 1, {"n"}, {"h"}, [star_ball])


def make_trivial_problem(g_in):
    """LCL whose constraint set admits every ball of the product labeling."""
    from locallab.graphs import label_graph as lab

    out_nodes = {v: "0" for v in range(g_in.graph.n)}
    out_he = {(v, e): "0" for v, e in g_in.graph.half_edges()}
    product = lab(
        g_in.graph,
        {v: (g_in.node_labels[v], "0") for v in range(g_in.graph.n)},
        {(v, e): (g_in.half_edge_label(v, e), "0") for v, e in g_in.graph.half_edges()},
    )
    constraints = closure_constraints(product, 1)
    problem = LclProblem(
        node_in=frozenset(g_in.node_labels),
        half_edge_in=frozenset(lab for _, lab in g_in.half_edge_items()),
        node_out=frozenset({"0"}),
        half_edge_out=frozenset({"0"}),
        constraints=constraints,
    )
    return problem, Labeling.of(out_nodes, out_he)


def test_verify_lcl_solution_trivial_problem():
    g_in = uniform(cycle_graph(4))
    problem, out = make_trivial_problem(g_in)
    assert verify_lcl_solution(problem, g_in, out).ok


def test_verify_lcl_solution_rejects_bad_output_label():
    g_in = uniform(path_graph(3))
    problem, out = make_trivial_problem(g_in)
    bad = Labeling.of({**out.nodes(), 0: "not-in-alphabet"}, out.half_edges())
    with pytest.raises(InputError):
        verify_lcl_solution(problem, g_in, bad)


def test_verify_lcl_solution_missing_output():
    g_in = uniform(path_graph(3))
    problem, out = make_trivial_problem(g_in)
    partial = Labeling.of({0: "0"}, out.half_edges())
    with pytest.raises(InputError):
        verify_lcl_solution(problem, g_in, partial)


def test_verdict_determinism():
    lg = uniform(path_graph(4))
    constraints = make_constraint_set(1, 3, {"n"}, {"h"}, [])
    first = check_constraints(lg, constraints)
    second = check_constraints(lg, constraints)
    assert first == second
    assert first.violating_nodes() == sorted(first.violating_nodes())


def test_constraint_set_json_roundtrip():
    lg = uniform(path_graph(3))
    constraints = closure_constraints(lg, 1)
    back = constraint_set_from_json(constraint_set_to_json(constraints))
    assert back.r == constraints.r and len(back.members) == len(constraints.members)
    assert check_constraints(lg, back).ok
