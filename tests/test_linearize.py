import json
import random
from fractions import Fraction
from itertools import permutations

import pytest

from locallab.corpus import all_connected_graphs, all_graphs, all_maximal_matchings
from locallab.graphs import ContractError, InputError, label_graph, make_graph, path_graph, star_graph
from locallab.linearize import (
    AFTER,
    BLACK,
    MATCHED,
    MATCHING_ENCODING,
    PTR,
    WHITE,
    FREE,
    decode_to_matching,
    edge_labeling_from_json,
    edge_labeling_to_json,
    encode_matching,
    greedy_matching,
    greedy_maximal_matching,
    incidence_graph_of,
    incidence_graph_from_json,
    incidence_graph_to_json,
    is_maximal_matching,
    linearizable_from_json,
    linearizable_to_json,
    make_incidence_graph,
    make_linearizable_problem,
    multigraph_of_incidence,
    verify_linearizable,
)
from locallab.outcomes import NodeOutput, SlocalAlgorithm, SlocalStep, run_slocal


def test_matching_encoding_constants_are_the_published_sets():
    enc = MATCHING_ENCODING
    assert enc.sigma == {"M", "B", "A", "P"}
    assert enc.first == {"M", "B", "P"}
    assert enc.last == {"M", "A", "P"}
    assert enc.pairs == {("B", "B"), ("B", "M"), ("M", "A"), ("A", "A"), ("P", "P")}
    assert set(enc.black) == {
        ("M", "M"),
        ("B", "P"),
        ("A", "P"),
        ("B", "B"),
        ("A", "B"),
        ("A", "A"),
    }
    assert enc.rank == 2


def test_make_linearizable_validation():
    with pytest.raises(InputError):
        make_linearizable_problem({"a"}, set(), {"a"}, [], [], 1)
    with pytest.raises(InputError):
        make_linearizable_problem({"a"}, {"a"}, {"a"}, [("a", "z")], [], 1)
    with pytest.raises(InputError):
        make_linearizable_problem({"a"}, {"a"}, {"a"}, [], [("a", "a", "a")], 2)


def test_incidence_graph_roles():
    g = make_graph(2, [(0, 1)])
    with pytest.raises(InputError):
        make_incidence_graph(g, [WHITE, WHITE])
    ig = incidence_graph_of(path_graph(3))
    assert ig.whites() == [0, 1, 2]
    assert ig.blacks() == [3, 4]
    assert all(ig.graph.degree(b) == 2 for b in ig.blacks())


def test_verify_examples():
    ig = incidence_graph_of(path_graph(3))
    # white a: [M]; white b: (M, A); white c: [P]; blacks {M,M} and {A,P}
    labeling = {0: MATCHED, 1: MATCHED, 2: AFTER, 3: PTR}
    assert verify_linearizable(MATCHING_ENCODING, ig, labeling).ok

    bad = {0: AFTER, 1: MATCHED, 2: MATCHED, 3: MATCHED}
    verdict = verify_linearizable(MATCHING_ENCODING, ig, bad)
    assert not verdict.ok

    with pytest.raises(InputError):
        verify_linearizable(MATCHING_ENCODING, ig, {0: "Z", 1: "M", 2: "M", 3: "M"})


def test_singleton_string_ptr_accepted():
    # a degree-1 white whose string is just "P" satisfies the white constraint
    # (the black constraint is a separate matter and reported at the black)
    ig = incidence_graph_of(path_graph(2))
    labeling = {0: PTR, 1: MATCHED}
    verdict = verify_linearizable(MATCHING_ENCODING, ig, labeling)
    assert 0 not in verdict.violating_nodes() and 1 not in verdict.violating_nodes()
    assert verdict.violating_nodes() == [2]


def test_encode_examples():
    p3 = path_graph(3)
    ig = incidence_graph_of(p3)
    labeling = encode_matching(ig, {3})
    assert labeling == {0: MATCHED, 1: MATCHED, 2: AFTER, 3: PTR}

    single = incidence_graph_of(make_graph(2, [(0, 1)]))
    assert encode_matching(single, {2}) == {0: MATCHED, 1: MATCHED}

    s3 = star_graph(3)
    igs = incidence_graph_of(s3)
    enc = encode_matching(igs, {4})
    center_string = igs.white_string(0, enc)
    assert center_string == (MATCHED, AFTER, AFTER)
    assert igs.white_string(1, enc) == (MATCHED,)
    assert igs.white_string(2, enc) == (PTR,)


def test_encode_rejects_non_maximal():
    ig = incidence_graph_of(path_graph(3))
    with pytest.raises(InputError, match="maximal"):
        encode_matching(ig, set())


def test_decode_examples():
    ig = incidence_graph_of(path_graph(3))
    assert decode_to_matching(ig, {0: MATCHED, 1: MATCHED, 2: AFTER, 3: PTR}) == {3}

    lone = incidence_graph_of(make_graph(1, []))
    assert decode_to_matching(lone, {}) == frozenset()

    c4 = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    igc = incidence_graph_of(c4)
    enc = encode_matching(igc, {4, 6})
    assert decode_to_matching(igc, enc) == {4, 6}

    with pytest.raises(ContractError):
        decode_to_matching(ig, {0: PTR, 1: PTR, 2: PTR, 3: PTR})


def test_roundtrip_on_corpus():
    for g in all_graphs(5):
        ig = incidence_graph_of(g)
        for m in all_maximal_matchings(g):
            blacks = frozenset(g.n + e for e in m)
            labeling = encode_matching(ig, blacks)
            assert verify_linearizable(MATCHING_ENCODING, ig, labeling).ok
            assert decode_to_matching(ig, labeling) == blacks


def test_is_maximal_matching_witnesses():
    p3 = path_graph(3)
    assert is_maximal_matching(p3, {0}).ok
    missing = is_maximal_matching(make_graph(2, [(0, 1)]), set())
    assert not missing.ok and missing.witness == (0,)
    shared = is_maximal_matching(p3, {0, 1})
    assert not shared.ok and shared.witness[2] == 1


def test_greedy_examples():
    p3 = path_graph(3)
    matching, locality = greedy_matching(p3, [1, 0, 2])
    assert matching == {0}
    matching, _ = greedy_matching(p3, [0, 1, 2])
    assert matching == {0}
    single, locality = greedy_matching(make_graph(1, []), [0])
    assert single == frozenset() and locality <= 2


def test_greedy_every_order_is_maximal():
    for g in (path_graph(4), path_graph(5), star_graph(3), make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])):
        sizes = set()
        for order in permutations(range(g.n)):
            matching, _ = greedy_matching(g, list(order))
            assert is_maximal_matching(g, matching).ok, (g.edge_list, order)
            sizes.add(len(matching))
        if g.n == 5 and g.m == 4:  # path of 5
            assert sizes == {2}


def test_greedy_all_orders_on_all_graphs_up_to_5():
    for g in all_connected_graphs(5):
        for order in permutations(range(g.n)):
            matching, _ = greedy_matching(g, list(order))
            assert is_maximal_matching(g, matching).ok, (g.edge_list, order)


def test_greedy_survives_the_locality1_counterexample_order():
    p4 = path_graph(4)
    matching, _ = greedy_matching(p4, [0, 2, 1, 3])
    assert is_maximal_matching(p4, matching).ok
    assert len(matching) == 2


def test_greedy_on_multigraph():
    g = make_graph(2, [(0, 1), (0, 1)], multi=True)
    matching, _ = greedy_matching(g, [0, 1])
    assert len(matching) == 1 and is_maximal_matching(g, matching).ok


def _reference_greedy_maximal_matching() -> SlocalAlgorithm:
    """The greedy step as it read the anchor's edges off `view.ports`."""

    def step(ctx):
        v = ctx.node
        view1, states1 = ctx.query(1)
        claims = []
        for u, state in states1.items():
            if u != v and state[0] == "matched" and v in state[2]:
                claims.append((u, state[1]))
        if claims:
            claims.sort()
            u, e = claims[0]
            return SlocalStep(output=NodeOutput(node_label=e), state=("matched", e, frozenset((u, v))))
        if not view1.ports[v]:
            return SlocalStep(output=NodeOutput(node_label=FREE), state=("free",))
        view2, states2 = ctx.query(2)
        claimed = set()
        for state in states2.values():
            if state[0] == "matched":
                claimed.update(state[2])
        candidates = []
        for _, e in view2.ports[v]:
            if e is None:
                continue
            u = view2.source.graph.other(e, v)
            if u in states2 or u in claimed:
                continue
            candidates.append((u, e))
        if candidates:
            candidates.sort()
            u, e = candidates[0]
            return SlocalStep(output=NodeOutput(node_label=e), state=("matched", e, frozenset((u, v))))
        return SlocalStep(output=NodeOutput(node_label=FREE), state=("free",))

    return SlocalAlgorithm(locality=2, step=step)


def _random_tree(rng, n):
    """A tree on n nodes: each node but a random root joins an earlier one in a
    shuffled order, its edges listed in shuffled order."""
    order = rng.sample(range(n), n)
    edges = [(order[i], order[rng.randrange(i)]) for i in range(1, n)]
    rng.shuffle(edges)
    return make_graph(n, edges)


def test_greedy_step_matches_the_step_that_reads_ports():
    """The step on the edge set gives the labeling and observed locality of
    the step on `view.ports`: on every connected graph with at most 6 nodes
    under 3 seeded orders, and on 20 seeded random trees of 50-300 nodes."""
    rng = random.Random(31)
    runs = []
    for g in all_connected_graphs(6):
        runs.extend((g, rng.sample(range(g.n), g.n)) for _ in range(3))
    for _ in range(20):
        tree = _random_tree(rng, rng.randint(50, 300))
        runs.append((tree, rng.sample(range(tree.n), tree.n)))
    for g, order in runs:
        lg = label_graph(g)
        assert run_slocal(greedy_maximal_matching(), lg, order) == run_slocal(
            _reference_greedy_maximal_matching(), lg, order
        ), (g.edge_list, order)
    assert len(runs) == 3 * 143 + 20


def test_multigraph_of_incidence_errors():
    g = make_graph(3, [(0, 1), (0, 2)])
    ig = make_incidence_graph(g, [BLACK, WHITE, WHITE])
    mg, whites, edge_of_black = multigraph_of_incidence(ig)
    assert mg.n == 2 and mg.m == 1
    deg1 = make_incidence_graph(make_graph(2, [(0, 1)]), [BLACK, WHITE])
    with pytest.raises(InputError, match="degree"):
        multigraph_of_incidence(deg1)


def test_json_roundtrips():
    ig = incidence_graph_of(path_graph(3))
    back = incidence_graph_from_json(incidence_graph_to_json(ig))
    assert back.roles == ig.roles and back.graph == ig.graph
    enc = linearizable_from_json(linearizable_to_json(MATCHING_ENCODING))
    assert enc == MATCHING_ENCODING
    labeling = {0: MATCHED, 1: ("t", Fraction(1, 3)), 2: Fraction(2)}
    assert edge_labeling_from_json(json.loads(json.dumps(edge_labeling_to_json(labeling)))) == labeling


# ---------------------------------------------------------------------------
# a sigma that mixes label types


MIXED_PAIRS = [(1, 1), (1, "a"), ("a", 1), ("a", "a")]


def _mixed_problem(black):
    return make_linearizable_problem(
        sigma={1, "a"}, first={1, "a"}, last={1, "a"}, pairs=MIXED_PAIRS, black=black, rank=2
    )


def test_make_linearizable_problem_accepts_a_mixed_type_black_multiset():
    p = make_linearizable_problem(sigma={1, "a"}, first={1}, last={1}, pairs=[(1, 1)], black=[(1, "a")], rank=2)
    assert p.black == ((1, "a"),)
    assert make_linearizable_problem(
        sigma={1, "a"}, first={1}, last={1}, pairs=[(1, 1)], black=[("a", 1)], rank=2
    ) == p


def test_verify_linearizable_on_a_mixed_type_black_multiset():
    ig = incidence_graph_of(path_graph(2))
    verdict = verify_linearizable(_mixed_problem([(1, 1)]), ig, {0: 1, 1: "a"})
    assert not verdict.ok
    assert verdict.violations == ((2, "black configuration (1, 'a') not allowed"),)
    assert verify_linearizable(_mixed_problem([(1, 1), (1, "a")]), ig, {0: 1, 1: "a"}).ok
    assert verify_linearizable(_mixed_problem([(1, 1), ("a", 1)]), ig, {0: "a", 1: 1}).ok


def test_mixed_type_problem_round_trips_through_json():
    p = make_linearizable_problem(
        sigma={1, "a", Fraction(1, 2), ("t", 2)},
        first={1, "a"},
        last={Fraction(1, 2), ("t", 2)},
        pairs=[(1, "a"), ("a", Fraction(1, 2)), (Fraction(1, 2), ("t", 2)), (1, 1)],
        black=[(1, "a"), (Fraction(1, 2), 1), (("t", 2), "a"), ("a", "a")],
        rank=2,
    )
    data = linearizable_to_json(p)
    # numbers (in value order), then strings, then tuples
    assert data["sigma"] == [{"fraction": "1/2"}, 1, "a", {"tuple": ["t", 2]}]
    assert data["black"] == [[{"fraction": "1/2"}, 1], [1, "a"], ["a", "a"], ["a", {"tuple": ["t", 2]}]]
    assert linearizable_from_json(json.loads(json.dumps(data))) == p
    mixed = _mixed_problem([(1, "a")])
    data = linearizable_to_json(mixed)
    assert data["sigma"] == [1, "a"] and data["black"] == [[1, "a"]]
    assert linearizable_from_json(json.loads(json.dumps(data))) == mixed


def test_linearizable_json_keeps_the_order_of_labels_of_one_type():
    assert json.dumps(linearizable_to_json(MATCHING_ENCODING)) == json.dumps(
        {
            "sigma": ["A", "B", "M", "P"],
            "first": ["B", "M", "P"],
            "last": ["A", "M", "P"],
            "pairs": [["A", "A"], ["B", "B"], ["B", "M"], ["M", "A"], ["P", "P"]],
            "black": [["A", "A"], ["A", "B"], ["A", "P"], ["B", "B"], ["B", "P"], ["M", "M"]],
            "rank": 2,
        }
    )
