"""Exhaustive and seeded random graph corpora for the desk-scale test suites.

Exhaustive families are enumerated up to isomorphism by canonical augmentation:
every (connected) graph on n nodes arises from a (connected) graph on n-1
nodes by re-attaching a deleted non-cut vertex, so augmenting each smaller
graph with every admissible neighborhood subset and deduplicating by canonical
form is complete.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from .graphs import Graph, canonical_key, is_bipartite, is_connected, make_graph


def _augment(bases: list[Graph], n: int, require_connected: bool, require_bipartite: bool) -> list[Graph]:
    out: dict[tuple, Graph] = {}
    subsets: list[tuple[int, ...]] = []
    for size in range(0 if not require_connected else 1, n):
        subsets.extend(itertools.combinations(range(n - 1), size))
    for base in bases:
        for subset in subsets:
            edges = list(base.edge_list) + [(u, n - 1) for u in subset]
            g = make_graph(n, edges)
            if require_connected and not is_connected(g):
                continue
            if require_bipartite and is_bipartite(g) is None:
                continue
            key = canonical_key(g)
            if key not in out:
                out[key] = g
    return list(out.values())


@lru_cache(maxsize=None)
def all_graphs(max_n: int) -> tuple[Graph, ...]:
    """All graphs with 1..max_n nodes, up to isomorphism."""
    layers: list[list[Graph]] = [[make_graph(1, [])]]
    for n in range(2, max_n + 1):
        layers.append(_augment(layers[-1], n, require_connected=False, require_bipartite=False))
    return tuple(g for layer in layers for g in layer)


@lru_cache(maxsize=None)
def all_connected_graphs(max_n: int) -> tuple[Graph, ...]:
    """All connected graphs with 1..max_n nodes, up to isomorphism."""
    layers: list[list[Graph]] = [[make_graph(1, [])]]
    for n in range(2, max_n + 1):
        layers.append(_augment(layers[-1], n, require_connected=True, require_bipartite=False))
    return tuple(g for layer in layers for g in layer)


@lru_cache(maxsize=None)
def all_connected_bipartite_graphs(max_n: int) -> tuple[Graph, ...]:
    """All connected bipartite graphs with 1..max_n nodes, up to isomorphism."""
    layers: list[list[Graph]] = [[make_graph(1, [])]]
    for n in range(2, max_n + 1):
        layers.append(_augment(layers[-1], n, require_connected=True, require_bipartite=True))
    return tuple(g for layer in layers for g in layer)


def random_connected_graph(rng: random.Random, n: int, extra_edge_prob: float = 0.3) -> Graph:
    """Random spanning tree plus independent extra edges; always connected."""
    if n < 1:
        raise ValueError("need at least one node")
    edges: set[tuple[int, int]] = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_edge_prob:
                edges.add((u, v))
    shuffled = sorted(edges)
    rng.shuffle(shuffled)
    return make_graph(n, shuffled)


def random_graph_corpus(seed: int, count: int, max_n: int, min_n: int = 2) -> list[Graph]:
    rng = random.Random(seed)
    return [
        random_connected_graph(rng, rng.randint(min_n, max_n))
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# matchings (independent brute-force oracles)


def is_matching(g: Graph, edges: frozenset[int] | set[int]) -> bool:
    used: set[int] = set()
    for e in edges:
        u, v = g.endpoints(e)
        if u in used or v in used:
            return False
        used.update((u, v))
    return True


def all_maximal_matchings(g: Graph) -> list[frozenset[int]]:
    """Every maximal matching, enumerated over edge subsets with pruning."""
    out: list[frozenset[int]] = []

    def rec(e: int, chosen: list[int], blocked: set[int]) -> None:
        if e == g.m:
            for f in range(g.m):
                u, v = g.endpoints(f)
                if u not in blocked and v not in blocked:
                    return
            out.append(frozenset(chosen))
            return
        u, v = g.endpoints(e)
        if u not in blocked and v not in blocked:
            chosen.append(e)
            blocked.update((u, v))
            rec(e + 1, chosen, blocked)
            chosen.pop()
            blocked.difference_update((u, v))
        rec(e + 1, chosen, blocked)

    rec(0, [], set())
    return sorted(set(out), key=sorted)


def maximum_matching_size(g: Graph) -> int:
    """Size of a maximum matching by exhaustive branch and bound."""
    best = 0

    def rec(e: int, size: int, blocked: set[int]) -> None:
        nonlocal best
        best = max(best, size)
        if e == g.m or size + (g.m - e) <= best:
            return
        u, v = g.endpoints(e)
        if u not in blocked and v not in blocked:
            blocked.update((u, v))
            rec(e + 1, size + 1, blocked)
            blocked.difference_update((u, v))
        rec(e + 1, size, blocked)

    rec(0, 0, set())
    return best


def best_half_integral_matching_value(g: Graph):
    """Max of sum x_e over x_e in {0, 1/2, 1} with node loads <= 1.

    Brute force in doubled units with load capping and an optimistic bound;
    independent of the simplex path.
    """
    from fractions import Fraction

    best = 0
    loads = [0] * g.n

    def rec(e: int, total: int) -> None:
        nonlocal best
        if total + 2 * (g.m - e) <= best:
            return
        if e == g.m:
            best = max(best, total)
            return
        u, v = g.endpoints(e)
        for val in (2, 1, 0):
            if loads[u] + val <= 2 and loads[v] + val <= 2:
                loads[u] += val
                loads[v] += val
                rec(e + 1, total + val)
                loads[u] -= val
                loads[v] -= val

    rec(0, 0)
    return Fraction(best, 2)
