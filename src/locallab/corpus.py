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
from fractions import Fraction
from functools import lru_cache

from .graphs import Graph, InputError, canonical_key, is_bipartite, is_connected, make_graph


@lru_cache(maxsize=None)
def _layers(n: int, connected: bool, bipartite: bool) -> tuple[Graph, ...]:
    """The family's graphs with 1..n nodes, up to isomorphism, by node count.

    Each n-node graph augments an (n-1)-node one by a new node adjacent to a
    subset of the old nodes (nonempty when connected); the first candidate
    with a new canonical key is kept.
    """
    if n <= 1:
        return (make_graph(1, []),)
    smaller = _layers(n - 1, connected, bipartite)
    subsets = [
        s for size in range(int(connected), n) for s in itertools.combinations(range(n - 1), size)
    ]
    out: dict[tuple, Graph] = {}
    for base in (g for g in smaller if g.n == n - 1):
        for subset in subsets:
            g = make_graph(n, list(base.edge_list) + [(u, n - 1) for u in subset])
            if connected and not is_connected(g):
                continue
            if bipartite and is_bipartite(g) is None:
                continue
            out.setdefault(canonical_key(g), g)
    return smaller + tuple(out.values())


def all_graphs(max_n: int) -> tuple[Graph, ...]:
    """All graphs with 1..max_n nodes, up to isomorphism."""
    return _layers(max_n, False, False)


def all_connected_graphs(max_n: int) -> tuple[Graph, ...]:
    """All connected graphs with 1..max_n nodes, up to isomorphism."""
    return _layers(max_n, True, False)


def all_connected_bipartite_graphs(max_n: int) -> tuple[Graph, ...]:
    """All connected bipartite graphs with 1..max_n nodes, up to isomorphism."""
    return _layers(max_n, True, True)


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Random spanning tree plus an independent extra edge on each other
    node pair with probability 0.3; always connected."""
    if n < 1:
        raise InputError(f"a random connected graph needs at least one node, got {n}")
    edges: set[tuple[int, int]] = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < 0.3:
                edges.add((u, v))
    shuffled = sorted(edges)
    rng.shuffle(shuffled)
    return make_graph(n, shuffled)


def random_graph_corpus(seed: int, count: int, max_n: int) -> list[Graph]:
    """`count` random connected graphs of 2..max_n nodes each."""
    rng = random.Random(seed)
    return [random_connected_graph(rng, rng.randint(2, max_n)) for _ in range(count)]


# ---------------------------------------------------------------------------
# matchings (independent brute-force oracles)


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
