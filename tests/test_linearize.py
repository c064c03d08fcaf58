import json
from fractions import Fraction
from itertools import permutations

import pytest

from locallab.corpus import all_connected_graphs, all_graphs, all_maximal_matchings
from locallab.graphs import ContractError, InputError, make_graph, path_graph, star_graph
from locallab.linearize import (
    AFTER,
    BLACK,
    MATCHED,
    MATCHING_ENCODING,
    PTR,
    WHITE,
    decode_to_matching,
    edge_labeling_from_json,
    edge_labeling_to_json,
    encode_matching,
    greedy_matching,
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
