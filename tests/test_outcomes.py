import dataclasses
import itertools
import json
import random
from collections import Counter
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
    rational_to_json,
    view_isomorphisms,
)
from locallab.outcomes import (
    Labeling,
    LocalAlgorithm,
    NodeOutput,
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


def reference_sort_key(labeling):
    """The support order: repr of the labeling's whole item structure."""
    return repr((labeling.node_items, labeling.half_edge_items))


def k3_matching_outcome(matched_label="M", unmatched_label="u"):
    k3 = label_graph(complete_graph(3))
    g = k3.graph

    def labeling(matched):
        he = {(v, e): (matched_label if e == matched else unmatched_label) for v, e in g.half_edges()}
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


@pytest.mark.parametrize(
    "probabilities, index",
    [((0.5, 0.5), 0), ((True,), 0), ((F(1, 2), 0.5), 1)],
    ids=["floats", "bool", "float-after-fraction"],
)
def test_make_outcome_rejects_an_inexact_probability(probabilities, index):
    lg = label_graph(path_graph(2))
    pairs = [(Labeling.of({0: i, 1: i}, {}), p) for i, p in enumerate(probabilities)]
    with pytest.raises(InputError, match=f"probability {index} is"):
        make_outcome(lg, pairs)


@pytest.mark.parametrize(
    "labeling",
    [
        Labeling.of({0: "a", 1: "a", 2: "a", 7: "a"}, {}),
        Labeling.of({}, {(0, 9): "a"}),
        Labeling.of({}, {(0, 1): "a"}),
        Labeling.of({}, {(3, 0): "a"}),
    ],
    ids=["node-7", "half-edge-0-9", "non-incident-half-edge", "half-edge-of-unknown-node"],
)
def test_make_outcome_rejects_labels_outside_its_network(labeling):
    with pytest.raises(InputError):
        make_outcome(label_graph(path_graph(3)), [(labeling, F(1))])


def test_make_outcome_rejects_an_unhashable_label():
    labeling = Labeling.of({0: ["x"], 1: "a"})
    with pytest.raises(InputError, match="support entry 1"):
        make_outcome(label_graph(path_graph(2)), [(Labeling.of({0: "x", 1: "a"}), F(1, 2)), (labeling, F(1, 2))])
    with pytest.raises(InputError, match="support entry 0"):
        deterministic_outcome(label_graph(path_graph(2)), labeling)


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


def _restrict_labeling(labeling, nodes, half_edges):
    return Labeling(
        node_items=tuple((v, lab) for v, lab in labeling.node_items if v in nodes),
        half_edge_items=tuple((k, lab) for k, lab in labeling.half_edge_items if k in half_edges),
    )


def test_restrict_tower_property():
    k3, outcome = k3_matching_outcome()
    one_shot = restrict(outcome, [0])
    via_pair = restrict(outcome, [0, 1])
    # restricting the restricted distribution again must agree
    refined = {}
    for labeling, p in via_pair.support:
        part = _restrict_labeling(labeling, frozenset({0}), {(0, e) for e in k3.graph.adjacency[0]})
        refined[part] = refined.get(part, F(0)) + p
    assert tuple(sorted(refined.items(), key=lambda kv: reference_sort_key(kv[0]))) == one_shot.support
    assert restrict(restrict(outcome, [0, 1]), [0]) == restrict(outcome, [0])


def test_expectation_examples():
    lg = label_graph(path_graph(2))
    det = deterministic_outcome(lg, Labeling.of({0: F(1), 1: F(0)}, {}))
    values = expectation(det)
    assert values[0] == 1 and values[1] == 0

    coin = make_outcome(
        lg,
        [(Labeling.of({0: 0, 1: 0}, {}), F(1, 2)), (Labeling.of({0: 1, 1: 0}, {}), F(1, 2))],
    )
    assert expectation(coin)[0] == F(1, 2)

    _, outcome = k3_matching_outcome(1, 0)
    exp = expectation(outcome)
    assert all(exp[key] == F(1, 3) for key in exp)


def test_expectation_consistent_with_restriction():
    _, outcome = k3_matching_outcome(F(1), F(0))
    full = expectation(outcome)
    r = restrict(outcome, [0])
    partial = {}
    for labeling, p in r.support:
        for key, lab in labeling.half_edge_items:
            partial[key] = partial.get(key, F(0)) + p * lab
    for key, value in partial.items():
        assert full[key] == value


def test_success_probability():
    _, outcome = k3_matching_outcome()
    assert success_probability(outcome, lambda lab: True) == 1
    assert success_probability(outcome, lambda lab: False) == 0
    has_e0 = lambda lab: lab.half_edges()[(0, 0)] == "M"
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
    sampled = run_rand_local(echo, big, samples=16, seed=1)
    assert sampled.probabilities_sum() == 1
    with pytest.raises(InputError, match="non-negative"):
        run_rand_local(echo, big, samples=-1)


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


@pytest.mark.parametrize(
    "labeling",
    [
        Labeling.of({0: F(1, 3), 2: F(-7, 2), 5: F(4)}, {(0, 1): F(0), (3, 0): F(2, 9)}),
        Labeling.of({0: ("a", 1, F(1, 2)), 1: ()}, {(1, 2): (("x",), F(5, 3)), (2, 2): ("y",)}),
        Labeling.of({0: "a", 1: "\u22a5", 10: ""}, {(10, 11): "M", (11, 11): "P"}),
        Labeling.of({}, {}),
    ],
    ids=["fraction", "tuple", "string", "empty"],
)
def test_labeling_json_roundtrip(labeling):
    data = labeling_to_json(labeling)
    assert json.loads(json.dumps(data)) == data
    back = labeling_from_json(data)
    assert back == labeling
    assert [type(lab) for _, lab in back.node_items] == [type(lab) for _, lab in labeling.node_items]


@pytest.mark.parametrize(
    "data, message",
    [
        ({"half_edges": {"0:0:7": "a"}}, "half-edge key '0:0:7'"),
        ({"half_edges": {"0": "a"}}, "half-edge key '0'"),
        ({"nodes": {"0": [1]}}, "malformed label JSON [1]"),
        ({"nodes": {"x": "a"}}, "node key 'x'"),
        (["nodes"], "malformed labeling JSON"),
        ({"nodes": {"0": [1]}}, "; in node '0' label JSON; in labeling JSON"),
        ({"half_edges": {"3:1": [1]}}, "; in half-edge '3:1' label JSON; in labeling JSON"),
        ({"nodes": {"1_0": "a"}}, "node key '1_0' is not a decimal node id"),
        ({"nodes": {" +2 ": "a"}}, "node key ' +2 ' is not a decimal node id"),
        ({"nodes": {"-1": "a"}}, "node key '-1' is not a decimal node id"),
        ({"nodes": {"1.0": "a"}}, "node key '1.0' is not a decimal node id"),
        ({"nodes": {"2": "a", "02": "b"}}, "node keys '2' and '02' name one node"),
        ({"half_edges": {"0:1": "a", "00:01": "b"}}, "half-edge keys '0:1' and '00:01' name one half-edge"),
    ],
)
def test_labeling_from_json_rejects_malformed_objects(data, message):
    with pytest.raises(InputError) as err:
        labeling_from_json(data)
    assert message in str(err.value)


def reference_outcome_to_json(outcome):
    from locallab.graphs import _label_to_json, labeled_graph_to_json, rational_to_json

    entries = []
    for labeling, p in sorted(outcome.support, key=lambda entry: reference_sort_key(entry[0])):
        entries.append(
            {
                "p": rational_to_json(p),
                "labels": {
                    "nodes": {str(v): _label_to_json(lab) for v, lab in labeling.node_items},
                    "half_edges": {
                        f"{v}:{e}": _label_to_json(lab)
                        for (v, e), lab in labeling.half_edge_items
                    },
                },
            }
        )
    return {"graph": labeled_graph_to_json(outcome.input), "support": entries}


def reference_outcome_from_json(data):
    from locallab.graphs import _label_from_json, json_decoding, labeled_graph_from_json, rational_from_json

    with json_decoding("outcome"):
        lg = labeled_graph_from_json(data["graph"])
        pairs = []
        for entry in data["support"]:
            nodes = {int(v): _label_from_json(lab) for v, lab in entry["labels"].get("nodes", {}).items()}
            half_edges = {}
            for key, lab in entry["labels"].get("half_edges", {}).items():
                v, e = key.split(":")
                half_edges[(int(v), int(e))] = _label_from_json(lab)
            pairs.append((Labeling.of(nodes, half_edges), rational_from_json(entry["p"])))
        return make_outcome(lg, pairs)


def test_outcome_json_matches_reference_codec_on_small_graphs():
    """Fraction node labels and tuple half-edge labels, on inputs with
    Fraction and tuple labels, encode and decode as the per-entry codec did."""

    def rule(view, seeds):
        v = view.anchor_node()
        g = view.source.graph
        total = sum(seeds[u] for u in view.node_set)
        half_edges = {e: ("far", seeds[g.other(e, v)], F(i, 3)) for i, e in enumerate(g.adjacency[v])}
        return NodeOutput(node_label=F(total, len(view.node_set)), half_edge_labels=half_edges)

    alg = LocalAlgorithm(locality=1, rule=rule, seed_alphabet=(0, 1))
    checked = 0
    for g in all_connected_graphs(5):
        lg = label_graph(g, {v: F(v, 2) for v in range(g.n)}, {(v, e): ("in", e) for v, e in g.half_edges()})
        outcome = run_rand_local(alg, lg)
        data = outcome_to_json(outcome)
        assert data == reference_outcome_to_json(outcome)
        assert outcome_from_json(data) == reference_outcome_from_json(data) == outcome
        checked += 1
    assert checked == 31


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


def _reference_rand_local(alg, lg, samples=0, seed=0):
    """Every seed vector, every node: Labeling.of per vector, Fraction weights
    merged into {labeling: probability}."""
    g = lg.graph
    views = [extract_view(lg, [v], alg.locality) for v in range(g.n)]
    if samples == 0:
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
    return merged


def _reference_restrict(outcome, s):
    g = outcome.input.graph
    nodes = frozenset(s)
    scope_he = frozenset((v, e) for v in nodes for e in g.adjacency[v])
    merged = {}
    for labeling, p in outcome.support:
        part = _restrict_labeling(labeling, nodes, scope_he)
        merged[part] = merged.get(part, F(0)) + p
    return merged


def _distribution(outcome):
    """The support as {labeling: probability}, which must not merge entries."""
    support = dict(outcome.support)
    assert len(support) == len(outcome.support)
    return support


SMALL_GRAPHS = [label_graph(g) for g in all_connected_graphs(6)]


@pytest.mark.parametrize("t", [0, 1, 2])
def test_run_rand_local_matches_per_vector_enumeration(t):
    alg = _parity_rule(t)
    for lg in SMALL_GRAPHS:
        assert _distribution(run_rand_local(alg, lg)) == _reference_rand_local(alg, lg)


def test_run_rand_local_sampling_matches_per_vector_enumeration():
    alg = _parity_rule(1, alphabet=("a", "b", "c"))
    for lg in SMALL_GRAPHS[::7]:
        got = run_rand_local(alg, lg, samples=40, seed=5)
        assert _distribution(got) == _reference_rand_local(alg, lg, samples=40, seed=5)


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
            assert _distribution(restrict(outcome, scope)) == _reference_restrict(outcome, scope)


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
        node_label[lab.nodes()[0]] = node_label.get(lab.nodes()[0], F(0)) + p
    assert node_label == {"0": F(1, 2), "1": F(1, 2)}
    with pytest.raises(InputError):
        rand_local_marginal(LocalAlgorithm(locality=0, rule=lambda view: NodeOutput()), lg, [0])


def test_verify_non_signaling_matches_views_whose_labels_differ_only_in_numeric_type():
    def constant(one):
        lg = label_graph(path_graph(3), {v: one for v in range(3)})
        return deterministic_outcome(lg, Labeling.of({v: "x" for v in range(3)}, {}))

    verdict = verify_non_signaling(constant(1), constant(F(1)), [1], [1], 1)
    assert verdict.status == "ok", verdict.detail


def reference_assemble(lg, per_node):
    """The labeling of per-node outputs, through Labeling.of."""
    nodes: dict[int, object] = {}
    half_edges: dict[tuple[int, int], object] = {}
    for v, out in per_node.items():
        if out.node_label is not None:
            nodes[v] = out.node_label
        for e, lab in out.half_edge_labels.items():
            half_edges[(v, e)] = lab
    return Labeling.of(nodes, half_edges)


def _sparse_output(view):
    """No node label at odd-degree nodes, and half-edge labels on the ports
    of the anchor listed from the last, skipping every third."""
    v = view.anchor_node()
    ports = view.source.graph.adjacency[v]
    return NodeOutput(
        node_label=None if len(ports) % 2 else len(view.node_set),
        half_edge_labels={e: (v, i) for i, e in reversed(list(enumerate(ports))) if i % 3 != 2},
    )


def test_run_local_and_run_slocal_match_reference_assembly():
    alg = LocalAlgorithm(locality=1, rule=_sparse_output)
    for lg in SMALL_GRAPHS:
        n = lg.graph.n
        per_node = {v: _sparse_output(extract_view(lg, [v], 1)) for v in range(n)}
        assert run_local(alg, lg) == reference_assemble(lg, per_node)
        recorded = {}

        def step(ctx):
            out = recorded[ctx.node] = _sparse_output(ctx.query(1)[0])
            return SlocalStep(output=out, state=None)

        labeling, _ = run_slocal(SlocalAlgorithm(locality=1, step=step), lg, list(reversed(range(n))))
        assert labeling == reference_assemble(lg, recorded)


# ---------------------------------------------------------------------------
# supports built from the producers' own keys


def _varying_domain_rule(vary, non_incident=False):
    """Seed "1" adds a node label (vary="node") or a half-edge label on the
    first port (vary="half-edge"); with non_incident, seed "1" also labels an
    edge not incident to the anchor, where there is one."""

    def rule(view, seeds):
        v = view.anchor_node()
        g = view.source.graph
        on = seeds[v] == "1"
        half_edges = {g.adjacency[v][0]: "h"} if on and vary == "half-edge" else {}
        if on and non_incident:
            far = [e for e in range(g.m) if v not in g.endpoints(e)]
            half_edges.update({e: "x" for e in far[:1]})
        return NodeOutput(node_label="n" if on or vary != "node" else None, half_edge_labels=half_edges)

    return LocalAlgorithm(locality=1, rule=rule, seed_alphabet=("0", "1"))


@pytest.mark.parametrize("vary", ["node", "half-edge"])
def test_randomized_rule_with_varying_domain_is_input_error(vary):
    lg = label_graph(path_graph(3))
    alg = _varying_domain_rule(vary)
    message = "do not share one node/half-edge domain"
    with pytest.raises(InputError, match=message):
        run_rand_local(alg, lg)
    with pytest.raises(InputError, match=message):
        run_rand_local(alg, lg, samples=64, seed=3)
    with pytest.raises(InputError, match=message):
        rand_local_marginal(alg, lg, [0])


@pytest.mark.parametrize("vary", ["node", "half-edge"])
def test_randomized_rule_with_varying_domain_and_non_incident_edge_is_contract_error(vary):
    lg = label_graph(path_graph(3))
    alg = _varying_domain_rule(vary, non_incident=True)
    with pytest.raises(ContractError, match="non-incident"):
        run_rand_local(alg, lg)
    with pytest.raises(ContractError, match="non-incident"):
        run_rand_local(alg, lg, samples=64, seed=3)
    with pytest.raises(ContractError, match="non-incident"):
        rand_local_marginal(alg, lg, [0])


def _label_strategy(st):
    text = st.text(alphabet=st.sampled_from("%s'\"\\ab \n⊥")) | st.text()
    base = text | st.integers() | st.fractions() | st.booleans() | st.none()
    return st.recursive(base, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6)


def test_outcome_to_json_lists_entries_in_reference_sort_key_order():
    """outcome_to_json is the one place a support is ordered: by the repr of
    each labeling's item structure, whatever order the support holds."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    labels = _label_strategy(st)
    k3 = label_graph(complete_graph(3))
    nodes = st.lists(st.integers(0, 2), max_size=3, unique=True)
    half_edges = st.lists(st.sampled_from(sorted(k3.graph.half_edges())), max_size=4, unique=True)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(nodes, half_edges, st.data())
    @hypothesis.example([2], [], None)
    @hypothesis.example([], [(0, 0)], None)
    def check(node_ids, half_edge_keys, data):
        if data is None:
            labelings = [
                Labeling.of(dict.fromkeys(node_ids, lab), dict.fromkeys(half_edge_keys, lab))
                for lab in ("%s", "'%'", '"', 1, F(1, 2), True, None, ("t", 1))
            ]
        else:
            labelings = data.draw(st.lists(st.builds(
                Labeling.of,
                st.fixed_dictionaries({v: labels for v in node_ids}),
                st.fixed_dictionaries({key: labels for key in half_edge_keys}),
            ), min_size=1, max_size=6))
        outcome = make_outcome(k3, [(labeling, F(1, len(labelings))) for labeling in labelings])
        want = sorted(outcome.support, key=lambda entry: reference_sort_key(entry[0]))
        assert outcome_to_json(outcome)["support"] == [
            {"p": rational_to_json(p), "labels": labeling_to_json(labeling)} for labeling, p in want
        ]

    check()


def test_outcomes_listing_one_distribution_in_different_orders_are_equal():
    lg = label_graph(path_graph(2))
    entries = [(Labeling.of({0: lab}), F(1, 4)) for lab in ("a", 2, F(1, 2), ("t", None))]
    forward = make_outcome(lg, entries)
    backward = dataclasses.replace(forward, entries=forward.entries[::-1])
    assert forward == backward and hash(forward) == hash(backward)
    assert make_outcome(lg, entries[::-1]) == forward
    assert outcome_to_json(backward) == outcome_to_json(forward)
    assert forward != make_outcome(lg, entries[:3] + [(Labeling.of({0: "b"}), F(1, 4))])
    assert forward != make_outcome(label_graph(path_graph(3)), entries)


def test_restricted_marginal_equals_its_reduced_outcome():
    """`restrict` keeps its parent's denominator 2^n; `make_outcome` of the
    same distribution reduces it.  Equality and hash see only probabilities."""
    lg = label_graph(path_graph(4))
    full = run_rand_local(_parity_rule(1), lg)
    marginal = restrict(full, [1])
    reduced = make_outcome(lg, list(_reference_restrict(full, [1]).items()))
    assert marginal.denominator == 2**4 and reduced.denominator < 2**4
    assert marginal == reduced and hash(marginal) == hash(reduced)
    (a, p), (b, q), *rest = reduced.support
    assert marginal != make_outcome(lg, [(a, p + q), (b, F(0)), *rest])


def _sparse_seed_rule():
    """Nodes 0, 5, 10 and 15 output their seed, the others a constant, so
    16 labelings each collect 4,096 of the 65,536 seed vectors."""

    def rule(view, seeds):
        v = view.anchor_node()
        ports = view.source.graph.adjacency[v]
        return NodeOutput(
            node_label=seeds[v] if v % 5 == 0 else "-",
            half_edge_labels={e: i for i, e in enumerate(ports)},
        )

    return LocalAlgorithm(locality=0, rule=rule, seed_alphabet=("0", "1"))


def test_run_rand_local_counts_across_chunks():
    lg = label_graph(path_graph(16))
    alg = _sparse_seed_rule()
    assert 2**16 > 2 * outcomes._CHUNK
    exact = run_rand_local(alg, lg)
    assert _distribution(exact) == _reference_rand_local(alg, lg)
    assert len(exact.entries) == 16 and {w for _, w in exact.entries} == {4096}
    assert exact.denominator == 2**16
    sampled = run_rand_local(alg, lg, samples=20_000, seed=2)
    assert _distribution(sampled) == _reference_rand_local(alg, lg, samples=20_000, seed=2)


def _assert_weights(outcome):
    weights = [w for _, w in outcome.entries]
    assert all(type(w) is int and w > 0 for w in weights)
    assert sum(weights) == outcome.denominator
    assert len({labeling for labeling, _ in outcome.entries}) == len(weights)
    assert outcome.support == tuple((labeling, F(w, outcome.denominator)) for labeling, w in outcome.entries)


def test_every_producer_fills_integer_weights():
    _, k3 = k3_matching_outcome()
    lg = label_graph(path_graph(4))
    alg = _parity_rule(1)
    produced = [
        k3,
        restrict(k3, [0]),
        deterministic_outcome(lg, Labeling.of({0: "a"}, {})),
        make_outcome(lg, [(Labeling.of({0: "a"}, {}), F(0)), (Labeling.of({0: "b"}, {}), F(1))]),
        run_rand_local(alg, lg),
        run_rand_local(alg, lg, samples=10, seed=1),
        run_rand_local(LocalAlgorithm(locality=0, rule=lambda view: NodeOutput(node_label=1)), lg),
        rand_local_marginal(alg, lg, [1, 2]),
        rand_local_marginal(alg, lg, []),
        restrict(run_rand_local(alg, lg), [3]),
        outcome_from_json(outcome_to_json(k3)),
    ]
    for outcome in produced:
        _assert_weights(outcome)


# ---------------------------------------------------------------------------
# exact labels and shared items in the randomized simulator


def _first_occurrence_entries(alg, lg, scope=None):
    """Every seed vector of the nodes whose views cover `scope` (all nodes by
    default), one Labeling.of per vector, merged in a dict: the first vector
    of each labeling gives its key and its place.  Returns the entries as
    (repr of the item structure, count) and the number of vectors."""
    g = lg.graph
    scope = range(g.n) if scope is None else sorted(scope)
    views = {v: extract_view(lg, [v], alg.locality) for v in scope}
    universe = sorted(set().union(*(view.node_set for view in views.values())))
    merged = {}
    vectors = list(itertools.product(alg.seed_alphabet, repeat=len(universe)))
    for assignment in vectors:
        seeds = dict(zip(universe, assignment))
        nodes, half_edges = {}, {}
        for v, view in views.items():
            out = alg.rule(view, {u: seeds[u] for u in view.node_set})
            if out.node_label is not None:
                nodes[v] = out.node_label
            for e, lab in out.half_edge_labels.items():
                half_edges[(v, e)] = lab
        labeling = Labeling.of(nodes, half_edges)
        merged[labeling] = merged.get(labeling, 0) + 1
    return [(reference_sort_key(labeling), c) for labeling, c in merged.items()], len(vectors)


def _entries_by_repr(outcome):
    return [(reference_sort_key(labeling), w) for labeling, w in outcome.entries], outcome.denominator


def _palette_rule(t, palette, alphabet=(0, 1, 2)):
    """Node label: palette[sum of the view's seeds mod len(palette)];
    half-edge on port i: the own seed as a string on even ports and
    palette[(own seed + i) mod len(palette)] on odd ones.  With a palette of
    equal labels of different types, a labeling fixed by the seeds' strings
    takes a label equal to, but not of the type of, an earlier output."""

    def rule(view, seeds):
        v = view.anchor_node()
        ports = view.source.graph.adjacency[v]
        k = len(palette)
        return NodeOutput(
            node_label=palette[sum(seeds[u] for u in view.node_set) % k],
            half_edge_labels={e: palette[(seeds[v] + i) % k] if i % 2 else str(seeds[v]) for i, e in enumerate(ports)},
        )

    return LocalAlgorithm(locality=t, rule=rule, seed_alphabet=alphabet)


def test_run_rand_local_keeps_the_type_of_each_label():
    """Node 0 outputs True on seeds (0, 0) and 1 otherwise, node 1 its own
    seed: the second labeling keeps its 1, which equals True."""

    def rule(view, seeds):
        if view.anchor_node() == 1:
            return NodeOutput(node_label=seeds[1])
        return NodeOutput(node_label=True if seeds[0] == seeds[1] == "0" else 1)

    alg = LocalAlgorithm(locality=1, rule=rule, seed_alphabet=("0", "1"))
    outcome = run_rand_local(alg, label_graph(path_graph(2)))
    assert [(repr(labeling.node_items), w) for labeling, w in outcome.entries] == [
        ("((0, True), (1, '0'))", 2),
        ("((0, 1), (1, '1'))", 2),
    ]


@pytest.mark.parametrize("t", [0, 1, 2])
def test_rand_local_entries_match_first_occurrence_reference_on_the_corpus(t):
    alg = _parity_rule(t)
    for lg in SMALL_GRAPHS:
        assert _entries_by_repr(run_rand_local(alg, lg)) == _first_occurrence_entries(alg, lg)
        for v in range(lg.graph.n):
            assert _entries_by_repr(rand_local_marginal(alg, lg, [v])) == _first_occurrence_entries(alg, lg, [v])


@pytest.mark.parametrize(
    "palette",
    [(1, True, F(1)), (True, 1), (F(1), 1, "1"), ((1, True), (1, 1)), ((1, (True,)), (1, (1,)), (F(1), (1,)))],
    ids=["one-true-fraction", "true-one", "fraction-one-str", "pairs", "nested"],
)
@pytest.mark.parametrize("t", [0, 1])
def test_rand_local_entries_keep_equal_labels_of_different_types(palette, t):
    alg = _palette_rule(t, palette)
    star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    for lg in [label_graph(g) for g in (path_graph(2), path_graph(3), cycle_graph(3), star)]:
        assert _entries_by_repr(run_rand_local(alg, lg)) == _first_occurrence_entries(alg, lg)
        for scope in ([0], [0, lg.graph.n - 1]):
            assert _entries_by_repr(rand_local_marginal(alg, lg, scope)) == _first_occurrence_entries(alg, lg, scope)


def test_outcome_and_its_marginals_share_equal_items():
    """Items that are equal in key, label type and label repr are one
    object across an outcome and its restrict marginals, at t = 2 on every
    eighth connected 7-node graph of the corpus."""
    alg = _parity_rule(2)
    seven = [label_graph(g) for g in all_connected_graphs(7) if g.n == 7][::8]
    for lg in seven:
        outcome = run_rand_local(alg, lg)
        n = lg.graph.n
        held = [outcome] + [restrict(outcome, scope) for scope in itertools.chain(
            itertools.combinations(range(n), 1), itertools.combinations(range(n), 2), [range(n)]
        )]
        ids = {}
        for held_outcome in held:
            for labeling, _ in held_outcome.entries:
                for item in itertools.chain(labeling.node_items, labeling.half_edge_items):
                    ids.setdefault((item[0], type(item[1]), repr(item[1])), set()).add(id(item))
        # every node and half-edge takes both labels, "0" and "1", and each
        # of its two items is one object
        assert len(ids) == 2 * (n + 2 * lg.graph.m)
        assert sum(map(len, ids.values())) == len(ids)


# ---------------------------------------------------------------------------
# malformed rule outputs


def _malformed_rules():
    """Rules on path_graph(3) whose output at node 1 is malformed."""

    def none_output(view, seeds=None):
        return None if view.anchor_node() == 1 else NodeOutput(node_label="a")

    def none_half_edges(view, seeds=None):
        return NodeOutput(node_label="a", half_edge_labels=None if view.anchor_node() == 1 else {})

    def unhashable(view, seeds=None):
        v = view.anchor_node()
        ports = view.source.graph.adjacency[v]
        return NodeOutput(node_label="a", half_edge_labels={e: ["x"] if v == 1 else "x" for e in ports})

    return {"none-output": none_output, "none-half-edges": none_half_edges, "unhashable": unhashable}


@pytest.mark.parametrize("name", ["none-output", "none-half-edges", "unhashable"])
def test_malformed_randomized_rule_output_is_contract_error_naming_the_node(name):
    lg = label_graph(path_graph(3))
    alg = LocalAlgorithm(locality=1, rule=_malformed_rules()[name], seed_alphabet=("0", "1"))
    with pytest.raises(ContractError, match="rule at node 1"):
        run_rand_local(alg, lg)
    with pytest.raises(ContractError, match="rule at node 1"):
        run_rand_local(alg, lg, samples=8, seed=1)
    with pytest.raises(ContractError, match="rule at node 1"):
        rand_local_marginal(alg, lg, [1])


@pytest.mark.parametrize("name", ["none-output", "none-half-edges", "unhashable"])
def test_malformed_deterministic_rule_output_in_run_rand_local_is_contract_error(name):
    alg = LocalAlgorithm(locality=1, rule=_malformed_rules()[name])
    with pytest.raises(ContractError, match="rule at node 1"):
        run_rand_local(alg, label_graph(path_graph(3)))


@pytest.mark.parametrize("name", ["none-output", "none-half-edges", "unhashable"])
def test_malformed_deterministic_rule_output_is_contract_error_naming_the_node(name):
    lg = label_graph(path_graph(3))
    rule = _malformed_rules()[name]
    with pytest.raises(ContractError, match="rule at node 1"):
        run_local(LocalAlgorithm(locality=1, rule=rule), lg)

    def step(ctx):
        return SlocalStep(output=rule(ctx.query(1)[0]), state=None)

    with pytest.raises(ContractError, match="rule at node 1"):
        run_slocal(SlocalAlgorithm(locality=1, step=step), lg, [0, 1, 2])


# ---------------------------------------------------------------------------
# the certifier against the per-labeling transport


def _reference_transport_partial(labeling, phi, g_from, g_to):
    """Carry a restricted labeling through a view isomorphism, port to port,
    one labeling at a time."""
    nodes = {phi[v]: lab for v, lab in labeling.node_items}
    half_edges = {}
    for (v, e), lab in labeling.half_edge_items:
        port = g_from.port_of(v, e)
        target = g_to.adjacency[phi[v]][port]
        half_edges[(phi[v], target)] = lab
    return Labeling.of(nodes, half_edges)


def _reference_verify_non_signaling(outcome_g, outcome_h, anchors_g, anchors_h, t):
    a_g, a_h = frozenset(anchors_g), frozenset(anchors_h)
    lg_g, lg_h = outcome_g.input, outcome_h.input
    isos = view_isomorphisms(extract_view(lg_g, a_g, t), extract_view(lg_h, a_h, t))
    if not isos:
        return "precondition-unmet", "no radius-t view isomorphism"
    r_g, r_h = restrict(outcome_g, a_g), restrict(outcome_h, a_h)
    target = {labeling: p for labeling, p in r_h.support}
    for phi in isos:
        transported = {}
        for labeling, p in r_g.support:
            moved = _reference_transport_partial(labeling, phi, lg_g.graph, lg_h.graph)
            transported[moved] = transported.get(moved, 0) + p
        if transported != target:
            return "violation", f"marginals differ under phi={dict(sorted(phi.items()))}"
    return "ok", f"checked {len(isos)} isomorphism(s)"


def _view_bucket(view):
    """Per node, the anchor flag and which ports carry a retained edge."""
    per_node = sorted((v in view.anchor, tuple(e is not None for _, e in view.ports[v])) for v in view.node_set)
    return len(view.node_set), len(view.edge_set), tuple(per_node)


def _degree_sum_rule(t):
    """A (t+1)-round rule: the parity rule's labels, with the node label
    paired with the degree sum of the radius-(t+1) view, so it signals at t."""
    inner = _parity_rule(t + 1)

    def rule(view, seeds):
        out = inner.rule(view, seeds)
        degrees = sum(len(view.ports[u]) for u in view.node_set)
        return NodeOutput(node_label=(degrees, out.node_label), half_edge_labels=out.half_edge_labels)

    return LocalAlgorithm(locality=t + 1, rule=rule, seed_alphabet=inner.seed_alphabet)


@pytest.mark.parametrize("t", [1, 2])
def test_verify_non_signaling_matches_the_per_labeling_transport(t):
    """Every same-bucket pair of views of the connected graphs up to 5
    nodes, on outcomes of a t-round rule (non-signaling at t) and of a
    (t+1)-round rule that signals at t."""
    graphs = [label_graph(g) for g in all_connected_graphs(5)]
    statuses = Counter()
    for alg in (_parity_rule(t), _degree_sum_rule(t)):
        views = {}
        for lg in graphs:
            outcome = run_rand_local(alg, lg)
            for v in range(lg.graph.n):
                views.setdefault(_view_bucket(extract_view(lg, [v], t)), []).append((outcome, v))
        for bucket in views.values():
            for (o_g, v_g), (o_h, v_h) in itertools.combinations(bucket, 2):
                verdict = verify_non_signaling(o_g, o_h, [v_g], [v_h], t)
                assert (verdict.status, verdict.detail) == _reference_verify_non_signaling(o_g, o_h, [v_g], [v_h], t)
                statuses[verdict.status] += 1
    assert statuses["ok"] and statuses["violation"], statuses


def test_verify_non_signaling_finds_a_violation_under_the_second_isomorphism():
    """On K2 with both nodes anchored, the node labels are symmetric and the
    half-edge labels are not: the identity passes and the swap fails."""
    lg = label_graph(make_graph(2, [(0, 1)]))
    outcome = deterministic_outcome(lg, Labeling.of({0: "a", 1: "a"}, {(0, 0): "x", (1, 0): "y"}))
    verdict = verify_non_signaling(outcome, outcome, [0, 1], [0, 1], 1)
    assert (verdict.status, verdict.detail) == ("violation", "marginals differ under phi={0: 1, 1: 0}")
    assert (verdict.status, verdict.detail) == _reference_verify_non_signaling(outcome, outcome, [0, 1], [0, 1], 1)
