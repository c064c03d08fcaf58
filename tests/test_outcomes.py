from fractions import Fraction as F

import pytest

from locallab.graphs import (
    ContractError,
    InputError,
    complete_graph,
    cycle_graph,
    extract_view,
    label_graph,
    make_graph,
    path_graph,
)
from locallab.outcomes import (
    Labeling,
    LocalAlgorithm,
    NodeOutput,
    SlocalAlgorithm,
    SlocalStep,
    deterministic_outcome,
    expectation,
    make_outcome,
    outcome_from_json,
    outcome_to_json,
    restrict,
    run_local,
    run_rand_local,
    run_slocal,
    success_probability,
    verify_non_signaling,
)


def k3_matching_outcome():
    k3 = label_graph(complete_graph(3))
    g = k3.graph

    def labeling(matched):
        he = {(v, e): ("M" if e == matched else "u") for v, e in g.half_edges()}
        return Labeling.of({}, he)

    return k3, make_outcome(k3, [(labeling(e), F(1, 3)) for e in range(3)])


def test_outcome_validation():
    lg = label_graph(path_graph(2))
    full = Labeling.of({0: "a", 1: "a"}, {})
    with pytest.raises(InputError):
        make_outcome(lg, [(full, F(1, 2))])  # does not sum to 1
    other_domain = Labeling.of({0: "a"}, {})
    with pytest.raises(InputError):
        make_outcome(lg, [(full, F(1, 2)), (other_domain, F(1, 2))])
    merged = make_outcome(lg, [(full, F(1, 2)), (full, F(1, 2))])
    assert len(merged.support) == 1 and merged.support[0][1] == 1


def test_restrict_examples():
    lg = label_graph(path_graph(3))
    det = deterministic_outcome(lg, Labeling.of({0: "x", 1: "y", 2: "z"}, {}))
    r = restrict(det, [1])
    assert r.support == ((Labeling.of({1: "y"}, {}), F(1)),)

    two = make_outcome(
        lg,
        [
            (Labeling.of({0: "a", 1: "s", 2: "b"}, {}), F(1, 2)),
            (Labeling.of({0: "c", 1: "s", 2: "d"}, {}), F(1, 2)),
        ],
    )
    merged = restrict(two, [1])
    assert len(merged.support) == 1 and merged.support[0][1] == 1

    k3, outcome = k3_matching_outcome()
    r0 = restrict(outcome, [0])
    assert len(r0.support) == 3
    assert all(p == F(1, 3) for _, p in r0.support)
    # node 0's incident half-edges: matched on e0, matched on e1, both unmatched
    patterns = sorted(tuple(lab for _, lab in entry.half_edge_items) for entry, _ in r0.support)
    assert patterns == [("M", "u"), ("u", "M"), ("u", "u")]


def test_restrict_tower_property():
    k3, outcome = k3_matching_outcome()
    one_shot = restrict(outcome, [0])
    via_pair = restrict(outcome, [0, 1])
    # restricting the restricted distribution again must agree
    refined = {}
    for labeling, p in via_pair.support:
        part = labeling.restrict_to(frozenset({0}), one_shot.scope_half_edges)
        refined[part] = refined.get(part, F(0)) + p
    assert tuple(sorted(refined.items(), key=lambda kv: kv[0].sort_key())) == one_shot.support


def test_expectation_examples():
    lg = label_graph(path_graph(2))
    det = deterministic_outcome(lg, Labeling.of({0: F(1), 1: F(0)}, {}))
    values = expectation(det, lambda lab: F(lab))
    assert values[0] == 1 and values[1] == 0

    coin = make_outcome(
        lg,
        [(Labeling.of({0: 0, 1: 0}, {}), F(1, 2)), (Labeling.of({0: 1, 1: 0}, {}), F(1, 2))],
    )
    assert expectation(coin, lambda lab: F(lab))[0] == F(1, 2)

    _, outcome = k3_matching_outcome()
    exp = expectation(outcome, lambda lab: F(1) if lab == "M" else F(0))
    assert all(exp[key] == F(1, 3) for key in exp)


def test_expectation_consistent_with_restriction():
    _, outcome = k3_matching_outcome()
    full = expectation(outcome, lambda lab: F(1) if lab == "M" else F(0))
    r = restrict(outcome, [0])
    partial = {}
    for labeling, p in r.support:
        for key, lab in labeling.half_edge_items:
            partial[key] = partial.get(key, F(0)) + p * (F(1) if lab == "M" else F(0))
    for key, value in partial.items():
        assert full[key] == value


def test_success_probability():
    _, outcome = k3_matching_outcome()
    assert success_probability(outcome, lambda lab: True) == 1
    assert success_probability(outcome, lambda lab: False) == 0
    has_e0 = lambda lab: lab.half_edge(0, 0) == "M"
    p = success_probability(outcome, has_e0)
    assert p == F(1, 3)
    assert p + success_probability(outcome, lambda lab: not has_e0(lab)) == 1


def test_run_local_examples():
    lg = label_graph(path_graph(3))
    constant = LocalAlgorithm(locality=0, rule=lambda view: NodeOutput(node_label="0"))
    assert run_local(constant, lg).nodes() == {0: "0", 1: "0", 2: "0"}

    degree = LocalAlgorithm(
        locality=1, rule=lambda view: NodeOutput(node_label=view.view_degree(view.anchor_node()))
    )
    assert run_local(degree, lg).nodes() == {0: 1, 1: 2, 2: 1}


def test_rule_depends_only_on_view():
    # the degree rule answers identically on isomorphic views
    degree = LocalAlgorithm(
        locality=1, rule=lambda view: NodeOutput(node_label=view.view_degree(view.anchor_node()))
    )
    a = extract_view(label_graph(path_graph(5)), [2], 1)
    b = extract_view(label_graph(path_graph(9)), [4], 1)
    assert degree.rule(a).node_label == degree.rule(b).node_label


def test_run_local_contract_error():
    lg = label_graph(path_graph(2))
    bad = LocalAlgorithm(
        locality=1,
        rule=lambda view: NodeOutput(node_label="x", half_edge_labels={5: "y"}),
    )
    with pytest.raises(ContractError):
        run_local(bad, lg)
    out_of_alphabet = LocalAlgorithm(
        locality=0,
        rule=lambda view: NodeOutput(node_label="zzz"),
        node_out_alphabet=frozenset({"a"}),
    )
    with pytest.raises(ContractError):
        run_local(out_of_alphabet, lg)


def test_run_rand_local_examples():
    one = label_graph(make_graph(1, []))
    echo = LocalAlgorithm(
        locality=0,
        rule=lambda view, seeds: NodeOutput(node_label=seeds[view.anchor_node()]),
        seed_alphabet=("0", "1"),
    )
    outcome = run_rand_local(echo, one)
    assert [(lab.nodes(), p) for lab, p in outcome.support] == [
        ({0: "0"}, F(1, 2)),
        ({0: "1"}, F(1, 2)),
    ]

    two = label_graph(make_graph(2, [(0, 1)]))
    outcome2 = run_rand_local(echo, two)
    assert len(outcome2.support) == 4
    assert all(p == F(1, 4) for _, p in outcome2.support)

    seedless = LocalAlgorithm(locality=0, rule=lambda view: NodeOutput(node_label="c"))
    assert len(run_rand_local(seedless, two).support) == 1


def test_run_rand_local_guard():
    big = label_graph(make_graph(30, []))
    echo = LocalAlgorithm(
        locality=0,
        rule=lambda view, seeds: NodeOutput(node_label=seeds[view.anchor_node()]),
        seed_alphabet=("0", "1"),
    )
    with pytest.raises(InputError):
        run_rand_local(echo, big)
    sampled = run_rand_local(echo, big, exact=False, samples=16, seed=1)
    assert sampled.probabilities_sum() == 1


def test_run_slocal_basics():
    lg = label_graph(make_graph(1, []))

    def step(ctx):
        view, states = ctx.query(1)
        return SlocalStep(output=NodeOutput(node_label="done"), state=None)

    labeling, observed = run_slocal(SlocalAlgorithm(locality=2, step=step), lg, [0])
    assert labeling.nodes() == {0: "done"} and observed <= 2

    with pytest.raises(InputError):
        run_slocal(SlocalAlgorithm(locality=1, step=step), lg, [0, 0])


def test_run_slocal_contract_errors():
    lg = label_graph(path_graph(2))
    triangle = label_graph(complete_graph(3))

    def bad(ctx):
        ctx.query(1)
        non_incident = next(
            e for e in range(3) if ctx.node not in triangle.graph.endpoints(e)
        )
        return SlocalStep(output=NodeOutput(half_edge_labels={non_incident: "x"}), state=None)

    with pytest.raises(ContractError):
        run_slocal(SlocalAlgorithm(locality=1, step=bad), triangle, [0, 1, 2])

    def over_query(ctx):
        ctx.query(5)
        return SlocalStep(output=NodeOutput(), state=None)

    with pytest.raises(ContractError):
        run_slocal(SlocalAlgorithm(locality=1, step=over_query), lg, [0, 1])


def test_verify_non_signaling_cases():
    c4 = label_graph(cycle_graph(4))
    c5 = label_graph(cycle_graph(5))
    parity4 = deterministic_outcome(c4, Labeling.of({v: 0 for v in range(4)}, {}))
    parity5 = deterministic_outcome(c5, Labeling.of({v: 1 for v in range(5)}, {}))
    assert verify_non_signaling(parity4, parity4, [0], [0], 1).status == "ok"
    assert verify_non_signaling(parity4, parity5, [0], [0], 1).status == "violation"
    star = label_graph(make_graph(4, [(0, 1), (0, 2), (0, 3)]))
    st_out = deterministic_outcome(star, Labeling.of({v: 0 for v in range(4)}, {}))
    assert verify_non_signaling(parity4, st_out, [0], [0], 1).status == "precondition-unmet"


def test_verify_non_signaling_checks_every_isomorphism():
    # On anonymous K2 with anchor set {0, 1}, the swap is a second valid view
    # isomorphism; a deterministic asymmetric labeling passes under the
    # identity but must be flagged through the swap.
    lg = label_graph(make_graph(2, [(0, 1)]))
    asym = deterministic_outcome(lg, Labeling.of({0: "a", 1: "b"}, {}))
    verdict = verify_non_signaling(asym, asym, [0, 1], [0, 1], 1)
    assert verdict.status == "violation"
    symmetric = make_outcome(
        lg,
        [
            (Labeling.of({0: "a", 1: "b"}, {}), F(1, 2)),
            (Labeling.of({0: "b", 1: "a"}, {}), F(1, 2)),
        ],
    )
    assert verify_non_signaling(symmetric, symmetric, [0, 1], [0, 1], 1).status == "ok"


def test_verify_non_signaling_ignores_numeric_type_of_equal_labels():
    # 1 == Fraction(1), so these two outcomes are the same distribution; their
    # marginals sort differently by repr and must still compare equal
    c4 = label_graph(cycle_graph(4))

    def half_half(one):
        return make_outcome(
            c4,
            [
                (Labeling.of({v: one for v in range(4)}, {}), F(1, 2)),
                (Labeling.of({v: 5 for v in range(4)}, {}), F(1, 2)),
            ],
        )

    verdict = verify_non_signaling(half_half(1), half_half(F(1)), [0], [0], 1)
    assert verdict.status == "ok", verdict.detail


def test_outcome_json_roundtrip():
    _, outcome = k3_matching_outcome()
    back = outcome_from_json(outcome_to_json(outcome))
    assert back.support == outcome.support
