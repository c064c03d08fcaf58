"""Exhaustive and seeded random graph corpora for the desk-scale test suites.

Exhaustive families are enumerated up to isomorphism by canonical augmentation:
every (connected) graph on n nodes arises from a (connected) graph on n-1
nodes by re-attaching a deleted non-cut vertex, so augmenting each smaller
graph with every admissible neighborhood subset and deduplicating by canonical
form is complete.

The augmentations are pruned by orbits (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998): two subsets in one orbit of the base's
automorphism group give isomorphic graphs, so only the first subset of each
orbit, in enumeration order, is keyed.  Every skipped subset is isomorphic to
an earlier candidate, which deduplication would have kept instead, so the
representatives and their order are those of keying every subset.  The
automorphisms are the ones the canonical search of each kept graph met; each
is checked against the base's edge set before it is used.  A candidate is
keyed from the base's rows plus the new node, and only a kept graph is built.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from .graphs import ContractError, Graph, InputError, bare_canonical_form, is_bipartite, make_graph

Automorphisms = tuple[tuple[int, ...], ...]


def _orbit_representatives(
    base: Graph, automorphisms: Automorphisms, subsets: Sequence[tuple[int, ...]]
) -> Iterator[tuple[int, ...]]:
    """The first subset of each orbit of `subsets` under the group the
    automorphisms generate, in the order of `subsets`, which must be closed
    under that group.  Each automorphism (sigma[v] the image of v) is first
    checked to map base's edge set onto itself; one that does not is a
    ContractError."""
    edges = {frozenset(e) for e in base.edge_list}
    for sigma in automorphisms:
        if sorted(sigma) != list(base.nodes()) or {
            frozenset((sigma[u], sigma[v])) for u, v in base.edge_list
        } != edges:
            raise ContractError(f"{sigma} is not an automorphism of the graph with edges {list(base.edge_list)}")
    images = [[1 << u for u in sigma] for sigma in automorphisms]  # bit of sigma(v), per v
    seen: set[int] = set()
    for subset in subsets:
        mask = sum(1 << v for v in subset)
        if mask in seen:
            continue
        yield subset
        seen.add(mask)
        orbit = [mask]
        for m in orbit:
            for bits in images:
                image = 0
                for v, bit in enumerate(bits):
                    if m >> v & 1:
                        image |= bit
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)


@lru_cache(maxsize=None)
def _layers(n: int, connected: bool, bipartite: bool) -> tuple[tuple[Graph, ...], tuple[Automorphisms, ...]]:
    """The family's graphs with 1..n nodes, up to isomorphism, by node count,
    and next to each the automorphisms its canonical search found.

    Each n-node graph augments an (n-1)-node base by a new node adjacent to
    a subset of the base's nodes: nonempty when connected, which keeps the
    graph connected, and inside one class of the base's 2-colouring when
    bipartite (a bipartite family is connected, so that colouring is unique
    up to a swap).  The first subset of each orbit of the base's
    automorphisms is keyed, and the first candidate with a new key is kept.
    """
    if n <= 1:
        return (make_graph(1, []),), ((),)
    graphs, automorphisms = _layers(n - 1, connected, bipartite)
    subsets = [
        s for size in range(int(connected), n) for s in itertools.combinations(range(n - 1), size)
    ]
    out: dict[tuple, tuple[Graph, Automorphisms]] = {}
    for base, found in zip(graphs, automorphisms):
        if base.n != n - 1:
            continue
        colour = is_bipartite(base) if bipartite else None
        for subset in _orbit_representatives(base, found, subsets):
            if colour is not None and len({colour[u] for u in subset}) > 1:
                continue
            rows = [row + (n - 1,) if v in subset else row for v, row in enumerate(base.neighbor_rows)]
            key, kept = bare_canonical_form(rows + [subset])
            if key not in out:
                out[key] = (make_graph(n, base.edge_list + tuple((u, n - 1) for u in subset)), kept)
    return graphs + tuple(g for g, _ in out.values()), automorphisms + tuple(a for _, a in out.values())


def all_graphs(max_n: int) -> tuple[Graph, ...]:
    """All graphs with 1..max_n nodes, up to isomorphism."""
    return _layers(max_n, False, False)[0]


def all_connected_graphs(max_n: int) -> tuple[Graph, ...]:
    """All connected graphs with 1..max_n nodes, up to isomorphism."""
    return _layers(max_n, True, False)[0]


def all_connected_bipartite_graphs(max_n: int) -> tuple[Graph, ...]:
    """All connected bipartite graphs with 1..max_n nodes, up to isomorphism."""
    return _layers(max_n, True, True)[0]


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
