import random
from fractions import Fraction as F

import pytest

from locallab import graphs, lcl
from locallab.corpus import all_connected_graphs
from locallab.gadgets import contract_octopi, family_constraint_set_for, gen_proper_instance
from locallab.graphs import (
    CenteredGraph,
    InputError,
    _numeric_form,
    ball_keys,
    centered_key,
    cycle_graph,
    label_graph,
    make_graph,
    path_graph,
)
from locallab.lcl import (
    OK,
    centered_ball,
    check_constraints,
    constraint_set_from_json,
    constraint_set_to_json,
    fail,
    make_constraint_set,
    verify_lcl_solution,
    LclProblem,
)
from locallab.linearize import incidence_graph_of, multigraph_of_incidence
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


# ---------------------------------------------------------------------------
# ball keys from the host's rows, against building each ball


def reference_ball_keys(lg, r):
    """Each node's ball built as a labeled graph, then keyed."""
    return [centered_key(centered_ball(lg, v, r)) for v in range(lg.graph.n)]


def reference_check_constraints(lg, constraints):
    """check_constraints with one built ball and one canonical search per node."""
    for lab in lg.node_labels:
        if lab not in constraints.node_alphabet:
            raise InputError(f"node label {lab!r} outside the constraint alphabet")
    for _, lab in lg.half_edge_items():
        if lab not in constraints.half_edge_alphabet:
            raise InputError(f"half-edge label {lab!r} outside the constraint alphabet")
    bad = []
    for v in range(lg.graph.n):
        if centered_key(centered_ball(lg, v, constraints.r)) not in constraints.member_index:
            bad.append((v, "ball matches no constraint member"))
    return OK if not bad else fail(bad)


class _Ratio(F):
    pass


MIXED_LABELS = (0, 3, F(2), F(4, 2), F(1, 2), True, False, (F(2), "x"), None, "a")


def _mixed_labeling(g, rng):
    return label_graph(
        g,
        {v: rng.choice(MIXED_LABELS) for v in range(g.n)},
        {h: rng.choice(MIXED_LABELS) for h in g.half_edges()},
    )


def test_ball_keys_match_built_balls_on_connected_graphs_up_to_5_nodes():
    rng = random.Random(13)
    balls = 0
    for g in all_connected_graphs(5):
        lg = _mixed_labeling(g, rng)
        for r in (0, 1, 2):
            assert ball_keys(lg, r) == reference_ball_keys(lg, r)
            balls += g.n
    assert balls == 3 * sum(g.n for g in all_connected_graphs(5))


def test_ball_keys_match_built_balls_on_a_multigraph():
    ig = incidence_graph_of(make_graph(3, [(0, 1), (0, 1), (1, 2), (0, 2), (0, 2)], multi=True))
    pi, _ = gen_proper_instance(ig, k=1)
    mg, _, _ = multigraph_of_incidence(contract_octopi(pi)[0])
    assert mg.multi and mg.m == 5
    lg = _mixed_labeling(mg, random.Random(5))
    for r in (0, 1, 2):
        assert ball_keys(lg, r) == reference_ball_keys(lg, r)


@pytest.mark.parametrize(
    "source, k",
    [(path_graph(3), 1), (cycle_graph(4), 2), (make_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]), None)],
    ids=["P3-k1", "C4-k2", "paw"],
)
def test_ball_keys_match_built_balls_on_family_labelings(source, k):
    pi, _ = gen_proper_instance(incidence_graph_of(source), k=k)
    for r in (0, 1, 2):
        assert ball_keys(pi.labeling, r) == reference_ball_keys(pi.labeling, r)
    constraints = family_constraint_set_for(pi)
    assert check_constraints(pi.labeling, constraints) == reference_check_constraints(
        pi.labeling, constraints
    ) == OK


def _colouring_constraints():
    members = []
    for b in "123":
        a, c = [x for x in "123" if x != b]
        for left, right in ((a, a), (c, c), (a, c)):
            members.append(CenteredGraph(base=label_graph(path_graph(3), {0: left, 1: b, 2: right}), center=1))
    return make_constraint_set(1, 2, "123", [None], members)


def _proper_colouring(n, rng):
    colour = [rng.choice("123")]
    for v in range(1, n):
        banned = {colour[v - 1], colour[0]} if v == n - 1 else {colour[v - 1]}
        colour.append(rng.choice([c for c in "123" if c not in banned]))
    return dict(enumerate(colour))


def test_check_constraints_matches_reference_on_proper_and_improper_colourings():
    constraints = _colouring_constraints()
    rng = random.Random(29)
    improper_seen = 0
    for n in (4, 5, 7, 30, 61):
        colours = _proper_colouring(n, rng)
        lg = label_graph(cycle_graph(n), colours)
        assert check_constraints(lg, constraints) == reference_check_constraints(lg, constraints) == OK
        for _ in range(3):
            planted = dict(colours)
            for v in rng.sample(range(n), 2):
                planted[v] = planted[(v + 1) % n]
            bad = label_graph(cycle_graph(n), planted)
            got = check_constraints(bad, constraints)
            assert got == reference_check_constraints(bad, constraints)
            assert got.violations == tuple(sorted(got.violations))
            improper_seen += not got.ok
    assert improper_seen == 15


def test_check_constraints_builds_no_graph_per_node(monkeypatch):
    constraints = _colouring_constraints()
    lg = label_graph(cycle_graph(200), _proper_colouring(200, random.Random(3)))

    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(graphs, "make_graph", refuse)
    monkeypatch.setattr(lcl, "induced_labeled_subgraph", refuse)
    assert check_constraints(lg, constraints) == OK


def test_numeric_form_maps_bools_floats_and_fraction_subclasses():
    assert [(type(x), x) for x in map(_numeric_form, (True, False, 2.0))] == [(int, 1), (int, 0), (int, 2)]
    assert type(_numeric_form(0.5)) is F and _numeric_form(0.5) == F(1, 2)
    assert [repr(_numeric_form(x)) for x in (float("nan"), float("inf"))] == ["nan", "inf"]
    assert type(_numeric_form(_Ratio(4, 2))) is int and _numeric_form(_Ratio(4, 2)) == 2
    assert type(_numeric_form(_Ratio(1, 2))) is F and repr(_numeric_form(_Ratio(1, 2))) == "Fraction(1, 2)"
    assert repr(_numeric_form((F(2), ("a", _Ratio(3)), None, True))) == repr((2, ("a", 3), None, 1))


@pytest.mark.parametrize(
    "member, label",
    [(1, 1), (1, True), (1, F(1)), (1, 1.0), ((1,), (True,)), (True, 1), (F(1, 2), 0.5), (F(1, 2), _Ratio(1, 2))],
    ids=["int", "bool", "fraction", "float", "tuple-of-bool", "bool-member", "half", "fraction-subclass-half"],
)
def test_a_label_equal_to_the_alphabet_is_a_member(member, label):
    """Alphabets are tested with `in`, so membership must read a label equal
    under == as the same label: at one time True and 1.0 passed the
    alphabet check of an all-1 C4 and then failed membership."""
    constraints = make_constraint_set(1, 2, {member}, {"h"}, [centered_ball(uniform(cycle_graph(4), member), 0, 1)])
    assert check_constraints(uniform(cycle_graph(4), label), constraints) == OK


@pytest.mark.parametrize(
    "r, delta",
    [(-1, 2), (True, 2), (1.0, 2), (1, -1), (1, False), (1, "2")],
    ids=["r-negative", "r-bool", "r-float", "delta-negative", "delta-bool", "delta-str"],
)
def test_make_constraint_set_rejects_a_bad_radius_or_degree_bound(r, delta):
    with pytest.raises(InputError):
        make_constraint_set(r, delta, ["a"], [None], [])
