import itertools
import random
from fractions import Fraction as F

import pytest

from locallab import outcomes
from locallab.corpus import all_connected_graphs
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
    rand_local_marginal,
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


def test_run_rand_local_checks_the_guard_before_any_view(monkeypatch):
    def no_views(*args, **kwargs):
        raise AssertionError("extract_view called before the seed-space guard")

    monkeypatch.setattr(outcomes, "extract_view", no_views)
    echo = LocalAlgorithm(
        locality=1,
        rule=lambda view, seeds: NodeOutput(node_label=seeds[view.anchor_node()]),
        seed_alphabet=(0, 1),
    )
    with pytest.raises(InputError, match="limit"):
        run_rand_local(echo, label_graph(cycle_graph(30)))


# ---------------------------------------------------------------------------
# the memoised simulator against the literal per-vector enumeration


def _parity_rule(t, alphabet=("0", "1")):
    """Node label: parity of the view's seeds and edges; half-edge on port i:
    (own seed + far seed + i) mod 2, far seed 0 when the edge is not retained."""

    def rule(view, seeds):
        v = view.anchor_node()
        g = view.source.graph
        total = len(view.edge_set) + sum(alphabet.index(seeds[u]) for u in view.node_set)
        half_edges = {}
        for i, (_label, e) in enumerate(view.ports[v]):
            far = alphabet.index(seeds[g.other(e, v)]) if e is not None else 0
            half_edges[g.adjacency[v][i]] = str((alphabet.index(seeds[v]) + far + i) % 2)
        return NodeOutput(node_label=str(total % 2), half_edge_labels=half_edges)

    return LocalAlgorithm(locality=t, rule=rule, seed_alphabet=alphabet)


def _reference_rand_local(alg, lg, exact=True, samples=0, seed=0):
    """Every seed vector, every node: Labeling.of per vector, Fraction weights
    merged in enumeration order and sorted by sort_key."""
    g = lg.graph
    views = [extract_view(lg, [v], alg.locality) for v in range(g.n)]
    if exact:
        vectors = list(itertools.product(alg.seed_alphabet, repeat=g.n))
    else:
        rng = random.Random(seed)
        vectors = [tuple(rng.choice(alg.seed_alphabet) for _ in range(g.n)) for _ in range(samples)]
    merged = {}
    for assignment in vectors:
        nodes, half_edges = {}, {}
        for v, view in enumerate(views):
            out = alg.rule(view, {u: assignment[u] for u in view.node_set})
            if out.node_label is not None:
                nodes[v] = out.node_label
            for e, lab in out.half_edge_labels.items():
                half_edges[(v, e)] = lab
        labeling = Labeling.of(nodes, half_edges)
        merged[labeling] = merged.get(labeling, F(0)) + F(1, len(vectors))
    return tuple(sorted(merged.items(), key=lambda kv: kv[0].sort_key()))


def _reference_restrict(outcome, s):
    g = outcome.input.graph
    nodes = frozenset(s)
    scope_he = frozenset((v, e) for v in nodes for e in g.adjacency[v])
    merged = {}
    for labeling, p in outcome.support:
        part = labeling.restrict_to(nodes, scope_he)
        merged[part] = merged.get(part, F(0)) + p
    return tuple(sorted(merged.items(), key=lambda kv: kv[0].sort_key()))


SMALL_GRAPHS = [label_graph(g) for g in all_connected_graphs(6)]


@pytest.mark.parametrize("t", [0, 1, 2])
def test_run_rand_local_matches_per_vector_enumeration(t):
    alg = _parity_rule(t)
    for lg in SMALL_GRAPHS:
        assert run_rand_local(alg, lg).support == _reference_rand_local(alg, lg)


def test_run_rand_local_sampling_matches_per_vector_enumeration():
    alg = _parity_rule(1, alphabet=("a", "b", "c"))
    for lg in SMALL_GRAPHS[::7]:
        got = run_rand_local(alg, lg, exact=False, samples=40, seed=5)
        assert got.support == _reference_rand_local(alg, lg, exact=False, samples=40, seed=5)


def test_run_rand_local_calls_the_rule_once_per_view_assignment():
    for t in (0, 1, 2):
        for lg in SMALL_GRAPHS[::5]:
            inner = _parity_rule(t)
            calls = []

            def counted(view, seeds):
                calls.append(1)
                return inner.rule(view, seeds)

            alg = LocalAlgorithm(locality=t, rule=counted, seed_alphabet=inner.seed_alphabet)
            run_rand_local(alg, lg)
            expected = sum(
                2 ** len(extract_view(lg, [v], t).node_set) for v in range(lg.graph.n)
            )
            assert len(calls) == expected


def test_restrict_matches_literal_definition():
    for lg in SMALL_GRAPHS[::4]:
        outcome = run_rand_local(_parity_rule(1), lg)
        n = lg.graph.n
        for scope in itertools.chain(
            itertools.combinations(range(n), 1), itertools.combinations(range(n), 2)
        ):
            assert restrict(outcome, scope).support == _reference_restrict(outcome, scope)


@pytest.mark.parametrize("t", [0, 1, 2])
def test_rand_local_marginal_equals_restricted_joint(t):
    alg = _parity_rule(t)
    for lg in SMALL_GRAPHS:
        joint = run_rand_local(alg, lg)
        for v in range(lg.graph.n):
            assert rand_local_marginal(alg, lg, [v]) == restrict(joint, [v])


def test_rand_local_marginal_guards_the_ball_only():
    lg = label_graph(cycle_graph(1000))
    alg = _parity_rule(2)
    with pytest.raises(InputError, match="limit"):
        run_rand_local(alg, lg)
    marginal = rand_local_marginal(alg, lg, [0])
    assert sum(p for _, p in marginal.support) == 1
    node_label = {}
    for lab, p in marginal.support:
        node_label[lab.node(0)] = node_label.get(lab.node(0), F(0)) + p
    assert node_label == {"0": F(1, 2), "1": F(1, 2)}
    with pytest.raises(InputError):
        rand_local_marginal(LocalAlgorithm(locality=0, rule=lambda view: NodeOutput()), lg, [0])
