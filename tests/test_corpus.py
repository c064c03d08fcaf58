import functools
import itertools
import random

import pytest

from locallab import corpus
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
from locallab.graphs import (
    ContractError,
    InputError,
    bare_canonical_form,
    complete_graph,
    connected_components,
    cycle_graph,
    is_bipartite,
    make_graph,
    path_graph,
)


@functools.lru_cache(maxsize=None)
def reference_layers(n, connected, bipartite):
    """The enumerator without orbit pruning: every admissible subset of every
    base is built as a graph, filtered and keyed; the first graph with each
    key is kept."""
    if n <= 1:
        return (make_graph(1, []),)
    smaller = reference_layers(n - 1, connected, bipartite)
    subsets = [
        s for size in range(int(connected), n) for s in itertools.combinations(range(n - 1), size)
    ]
    out = {}
    for base in (g for g in smaller if g.n == n - 1):
        for subset in subsets:
            g = make_graph(n, list(base.edge_list) + [(u, n - 1) for u in subset])
            if connected and len(connected_components(g)) != 1:
                continue
            if bipartite and is_bipartite(g) is None:
                continue
            out.setdefault(canonical_key(g), g)
    return smaller + tuple(out.values())


def canonical_key(g):
    return bare_canonical_form(g.neighbor_rows)[0]


def _generated_group(n, generators):
    """Every permutation of 0..n-1 the generators generate, by closure."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    for perm in frontier:
        for sigma in generators:
            product = tuple(sigma[perm[v]] for v in range(n))
            if product not in group:
                group.add(product)
                frontier.append(product)
    return group


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
    assert all(len(connected_components(g)) == 1 for g in graphs)


@pytest.mark.parametrize(
    "family, n, connected, bipartite",
    [(all_graphs, 7, False, False), (all_connected_graphs, 7, True, False), (all_connected_bipartite_graphs, 8, True, True)],
    ids=["all-7", "connected-7", "connected-bipartite-8"],
)
def test_orbit_pruned_corpus_equals_the_reference_enumerator(family, n, connected, bipartite):
    # Graph equality compares edge lists and port order; the tuples compare order
    assert family(n) == reference_layers(n, connected, bipartite)


@pytest.mark.slow
def test_orbit_pruned_corpus_equals_the_reference_enumerator_at_eight_nodes():
    graphs = all_connected_graphs(8)
    assert graphs == reference_layers(8, True, False)
    assert sum(g.n == 8 for g in graphs) == 11117


def test_orbit_pruning_keys_one_subset_per_orbit(monkeypatch):
    searches = []

    def counted(rows):
        searches.append(len(rows))
        return bare_canonical_form(rows)

    monkeypatch.setattr(corpus, "bare_canonical_form", counted)
    corpus._layers.cache_clear()
    assert len(all_connected_graphs(7)) == 996
    # keying every nonempty subset of every base would take 7,815 searches
    assert len(searches) <= 4159


def test_search_automorphisms_generate_the_whole_automorphism_group():
    graphs, automorphisms = corpus._layers(6, False, False)
    for g, found in zip(graphs, automorphisms):
        assert bare_canonical_form(g.neighbor_rows)[1] == found
        edges = {frozenset(e) for e in g.edge_list}
        for sigma in found:
            assert sorted(sigma) == list(range(g.n))
            assert {frozenset((sigma[u], sigma[v])) for u, v in g.edge_list} == edges
        brute = [
            p for p in itertools.permutations(range(g.n))
            if {frozenset((p[u], p[v])) for u, v in g.edge_list} == edges
        ]
        assert len(_generated_group(g.n, found)) == len(brute)


@pytest.mark.parametrize("sigma", [(1, 0, 2), (0, 0, 2), (0, 1)], ids=["moves-an-edge", "not-a-bijection", "short"])
def test_orbit_pruning_rejects_a_planted_non_automorphism(sigma):
    p3 = path_graph(3)  # edges {0,1} and {1,2}; its one non-trivial automorphism swaps 0 and 2
    assert list(corpus._orbit_representatives(p3, ((2, 1, 0),), [(0,), (1,), (2,)])) == [(0,), (1,)]
    with pytest.raises(ContractError, match="not an automorphism"):
        list(corpus._orbit_representatives(p3, (sigma,), [(0,), (1,), (2,)]))


def test_random_corpus_deterministic():
    a = random_graph_corpus(3, 20, 6)
    b = random_graph_corpus(3, 20, 6)
    assert [g.edge_list for g in a] == [g.edge_list for g in b]
    assert all(len(connected_components(g)) == 1 for g in a)


def test_random_connected_graph_connected():
    rng = random.Random(0)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(1, 8))
        assert len(connected_components(g)) == 1


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


def test_maximum_matching_size_agrees_with_networkx_on_the_7_node_corpus():
    nx = pytest.importorskip("networkx")
    graphs = all_connected_graphs(7)
    assert len(graphs) == 996
    for g in graphs:
        expected = len(nx.max_weight_matching(nx.Graph(list(g.edge_list)), maxcardinality=True))
        assert maximum_matching_size(g) == expected
