import random

import pytest

from locallab.corpus import (
    all_connected_bipartite_graphs,
    all_connected_graphs,
    all_graphs,
    all_maximal_matchings,
    best_half_integral_matching_value,
    maximum_matching_size,
    random_connected_graph,
    random_graph_corpus,
)
from locallab.graphs import InputError, canonical_key, complete_graph, cycle_graph, is_connected, path_graph


def is_matching(g, edges) -> bool:
    used: set[int] = set()
    for e in edges:
        u, v = g.endpoints(e)
        if u in used or v in used:
            return False
        used.update((u, v))
    return True


def test_exhaustive_counts_match_known_values():
    # numbers of graphs up to isomorphism are classical
    assert len(all_graphs(4)) == 1 + 2 + 4 + 11
    assert len(all_connected_graphs(6)) == 1 + 1 + 2 + 6 + 21 + 112
    assert len(all_connected_graphs(7)) == 143 + 853
    assert len(all_connected_bipartite_graphs(8)) == 1 + 1 + 1 + 3 + 5 + 17 + 44 + 182


def test_corpora_are_canonical():
    graphs = all_connected_graphs(5)
    keys = [canonical_key(g) for g in graphs]
    assert len(set(keys)) == len(keys)
    assert all(is_connected(g) for g in graphs)


def test_random_corpus_deterministic():
    a = random_graph_corpus(3, 20, 6)
    b = random_graph_corpus(3, 20, 6)
    assert [g.edge_list for g in a] == [g.edge_list for g in b]
    assert all(is_connected(g) for g in a)


def test_random_connected_graph_connected():
    rng = random.Random(0)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(1, 8))
        assert is_connected(g)


@pytest.mark.parametrize("n", [0, -1])
def test_random_connected_graph_without_nodes_is_input_error(n):
    with pytest.raises(InputError, match="at least one node"):
        random_connected_graph(random.Random(0), n)


def test_matching_oracles():
    k3 = complete_graph(3)
    assert all_maximal_matchings(k3) == [frozenset({0}), frozenset({1}), frozenset({2})]
    assert maximum_matching_size(cycle_graph(6)) == 3
    assert maximum_matching_size(path_graph(4)) == 2
    assert is_matching(k3, set()) and not is_matching(k3, {0, 1})
    # every enumerated matching really is maximal: no edge extends it
    for g in all_connected_graphs(5):
        for m in all_maximal_matchings(g):
            assert is_matching(g, m)
            blocked = {v for e in m for v in g.endpoints(e)}
            assert all(
                g.endpoints(e)[0] in blocked or g.endpoints(e)[1] in blocked
                for e in range(g.m)
            )


def test_half_integral_oracle_values():
    from fractions import Fraction as F

    assert best_half_integral_matching_value(complete_graph(3)) == F(3, 2)
    assert best_half_integral_matching_value(cycle_graph(5)) == F(5, 2)
    assert best_half_integral_matching_value(path_graph(3)) == 1
