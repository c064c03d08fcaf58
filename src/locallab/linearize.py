"""Linearizable problems on bipartite incidence graphs; the maximal-matching
instance with its explicit label sets; encode/decode; the SLOCAL greedy matcher.

Label tokens follow the published sets: M (matched), B (before), A (after),
P (pointer).  The token "P" and the pair-set "P" collide in the usual
notation, so code names them PTR and `pairs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .graphs import (
    ContractError,
    Graph,
    InputError,
    _label_from_json,
    _label_to_json,
    _labels_from_json,
    edge_from_key,
    graph_from_json,
    graph_to_json,
    json_decoding,
    json_int,
    label_graph,
    label_order,
    make_graph,
)
from .lcl import Verdict, OK, fail
from .outcomes import NodeOutput, SlocalAlgorithm, SlocalContext, SlocalStep, run_slocal

MATCHED = "M"
BEFORE = "B"
AFTER = "A"
PTR = "P"

WHITE = "white"
BLACK = "black"


@dataclass(frozen=True)
class LinearizableProblem:
    """(Sigma, (first, last, pairs), black) with a constant rank bound."""

    sigma: frozenset
    first: frozenset
    last: frozenset
    pairs: frozenset  # of ordered label pairs
    black: tuple[tuple, ...]  # allowed multisets, each a `label_multiset`
    rank: int

    def string_violations(self, s: Sequence) -> list[str]:
        """Why the nonempty white string s breaks (F, L, P): first, last, first bad pair."""
        bad = []
        if s[0] not in self.first:
            bad.append(f"first label {s[0]!r} not in F")
        if s[-1] not in self.last:
            bad.append(f"last label {s[-1]!r} not in L")
        for a, b in zip(s, s[1:]):
            if (a, b) not in self.pairs:
                bad.append(f"consecutive pair ({a!r},{b!r}) not allowed")
                break
        return bad


def label_multiset(labels: Iterable) -> tuple:
    """A multiset of labels as the tuple of its labels in `label_order`."""
    return tuple(sorted(labels, key=label_order))


def make_linearizable_problem(sigma, first, last, pairs, black, rank) -> LinearizableProblem:
    sigma = frozenset(sigma)
    first = frozenset(first)
    last = frozenset(last)
    if not first or not last:
        raise InputError("first and last sets must be nonempty")
    if not (first <= sigma and last <= sigma):
        raise InputError("first/last sets must be subsets of sigma")
    pair_set = frozenset(tuple(p) for p in pairs)
    for a, b in pair_set:
        if a not in sigma or b not in sigma:
            raise InputError(f"pair ({a!r},{b!r}) leaves sigma")
    multisets = []
    for ms in black:
        ms = label_multiset(ms)
        if len(ms) > rank:
            raise InputError(f"black configuration {ms} exceeds the rank bound {rank}")
        if any(x not in sigma for x in ms):
            raise InputError(f"black configuration {ms} leaves sigma")
        multisets.append(ms)
    return LinearizableProblem(
        sigma=sigma, first=first, last=last, pairs=pair_set,
        black=tuple(sorted(set(multisets), key=label_order)), rank=rank,
    )


MATCHING_ENCODING = make_linearizable_problem(
    sigma={MATCHED, BEFORE, AFTER, PTR},
    first={MATCHED, BEFORE, PTR},
    last={MATCHED, AFTER, PTR},
    pairs={(BEFORE, BEFORE), (BEFORE, MATCHED), (MATCHED, AFTER), (AFTER, AFTER), (PTR, PTR)},
    black=[
        (MATCHED, MATCHED),
        (PTR, BEFORE),
        (PTR, AFTER),
        (BEFORE, BEFORE),
        (BEFORE, AFTER),
        (AFTER, AFTER),
    ],
    rank=2,
)


@dataclass(frozen=True)
class IncidenceGraph:
    """Bipartite graph with white/black roles and per-white port order."""

    graph: Graph
    roles: tuple[str, ...]

    def whites(self) -> list[int]:
        return [v for v in range(self.graph.n) if self.roles[v] == WHITE]

    def blacks(self) -> list[int]:
        return [v for v in range(self.graph.n) if self.roles[v] == BLACK]

    def white_string(self, w: int, labeling: Mapping[int, object]) -> tuple:
        return tuple(labeling[e] for e in self.graph.adjacency[w])


def make_incidence_graph(g: Graph, roles: Sequence[str], rank: Optional[int] = None) -> IncidenceGraph:
    if len(roles) != g.n:
        raise InputError("one role per node required")
    for role in roles:
        if role not in (WHITE, BLACK):
            raise InputError(f"unknown role {role!r}")
    for u, v in g.edge_list:
        if roles[u] == roles[v]:
            raise InputError(f"edge ({u},{v}) joins two {roles[u]} nodes")
    if rank is not None:
        for v in range(g.n):
            if roles[v] == BLACK and g.degree(v) > rank:
                raise InputError(f"black node {v} exceeds rank {rank}")
    return IncidenceGraph(graph=g, roles=tuple(roles))


def incidence_graph_of(g: Graph) -> IncidenceGraph:
    """Incidence graph of a (multi)graph: white v = v, black of edge e = n + e.

    Incidence-edge ids: edge e's white-u side gets id 2e, white-v side 2e+1.
    White port order follows the source adjacency order.
    """
    n, m = g.n, g.m
    edges = []
    for e, (u, v) in enumerate(g.edge_list):
        edges.append((u, n + e))
        edges.append((v, n + e))
    order: list[list[int]] = [[] for _ in range(n + m)]
    for v in range(n):
        for e in g.adjacency[v]:
            u, w = g.endpoints(e)
            order[v].append(2 * e if v == u else 2 * e + 1)
    for e in range(m):
        order[n + e] = [2 * e, 2 * e + 1]
    ig_graph = make_graph(n + m, edges, multi=False, adjacency_order=order)
    roles = [WHITE] * n + [BLACK] * m
    return make_incidence_graph(ig_graph, roles, rank=2)


def multigraph_of_incidence(ig: IncidenceGraph) -> tuple[Graph, list[int], dict[int, int]]:
    """Whites as nodes, blacks as edges (rank 2, loop-free required).

    Returns (multigraph, white ids in node order, black id -> multigraph edge).
    """
    whites = ig.whites()
    windex = {w: i for i, w in enumerate(whites)}
    g = ig.graph
    edge_of_black: dict[int, int] = {}
    edges = []
    for b in ig.blacks():
        nbrs = [g.other(e, b) for e in g.adjacency[b]]
        if len(nbrs) != 2:
            raise InputError(f"black node {b} has degree {len(nbrs)}, need exactly 2")
        u, v = nbrs
        if u == v:
            raise InputError(f"black node {b} attaches twice to white {u} (self-loop)")
        edge_of_black[b] = len(edges)
        edges.append((windex[u], windex[v]))
    order: list[list[int]] = [[] for _ in whites]
    for w in whites:
        for e in g.adjacency[w]:
            b = g.other(e, w)
            order[windex[w]].append(edge_of_black[b])
    mg = make_graph(len(whites), edges, multi=True, adjacency_order=order)
    return mg, whites, edge_of_black


# ---------------------------------------------------------------------------
# verification, encode, decode


def verify_linearizable(
    problem: LinearizableProblem, ig: IncidenceGraph, labeling: Mapping[int, object]
) -> Verdict:
    """Black multiset membership plus ordered white string constraints."""
    g = ig.graph
    for e in range(g.m):
        if e not in labeling:
            raise InputError(f"labeling misses edge {e}")
        if labeling[e] not in problem.sigma:
            raise InputError(f"label {labeling[e]!r} on edge {e} is outside sigma")
    bad: list[tuple[int, str]] = []
    for b in ig.blacks():
        ms = label_multiset([labeling[e] for e in g.adjacency[b]])
        if ms and ms not in problem.black:
            bad.append((b, f"black configuration {ms} not allowed"))
    for w in ig.whites():
        s = ig.white_string(w, labeling)
        for reason in problem.string_violations(s) if s else ():
            bad.append((w, reason))
    return OK if not bad else fail(bad)


def encode_matching(ig: IncidenceGraph, matched_blacks: Iterable[int]) -> dict[int, object]:
    """Labels from a maximal matching: M on the matched edge, B before, A after,
    P everywhere on unmatched whites."""
    g = ig.graph
    matched = frozenset(matched_blacks)
    mg, whites, edge_of_black = multigraph_of_incidence(ig)
    m_edges = frozenset(edge_of_black[b] for b in matched)
    verdict = is_maximal_matching(mg, m_edges)
    if not verdict.ok:
        raise InputError(f"matching is not maximal: {verdict.reason}")
    labeling: dict[int, object] = {}
    for w in ig.whites():
        ports = g.adjacency[w]
        matched_ports = [i for i, e in enumerate(ports) if g.other(e, w) in matched]
        if not matched_ports:
            for e in ports:
                labeling[e] = PTR
            continue
        mi = matched_ports[0]
        for i, e in enumerate(ports):
            labeling[e] = MATCHED if i == mi else (BEFORE if i < mi else AFTER)
    return labeling


def decode_to_matching(ig: IncidenceGraph, labeling: Mapping[int, object]) -> frozenset[int]:
    """Black nodes whose incident edges are all labeled M; asserts maximality."""
    verdict = verify_linearizable(MATCHING_ENCODING, ig, labeling)
    if not verdict.ok:
        raise ContractError(f"labeling is not a valid solution: {verdict.violations[:3]}")
    g = ig.graph
    matched = frozenset(
        b for b in ig.blacks()
        if g.degree(b) > 0 and all(labeling[e] == MATCHED for e in g.adjacency[b])
    )
    mg, whites, edge_of_black = multigraph_of_incidence(ig)
    m_edges = frozenset(edge_of_black[b] for b in matched)
    check = is_maximal_matching(mg, m_edges)
    if not check.ok:
        raise ContractError(f"decoded edge set is not a maximal matching: {check.reason}")
    return matched


# ---------------------------------------------------------------------------
# matching oracles and the greedy SLOCAL matcher


@dataclass(frozen=True)
class MatchingVerdict:
    ok: bool
    reason: str = ""
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok


def is_maximal_matching(g: Graph, edges: Iterable[int]) -> MatchingVerdict:
    """Pairwise disjointness plus non-augmentability, with witnesses."""
    chosen = frozenset(edges)
    used: dict[int, int] = {}
    for e in sorted(chosen):
        u, v = g.endpoints(e)
        for x in (u, v):
            if x in used:
                return MatchingVerdict(
                    ok=False, reason=f"edges {used[x]} and {e} share node {x}", witness=(used[x], e, x)
                )
            used[x] = e
    for e in range(g.m):
        u, v = g.endpoints(e)
        if u not in used and v not in used:
            return MatchingVerdict(
                ok=False, reason=f"edge {e}=({u},{v}) could be added", witness=(e,)
            )
    return MatchingVerdict(ok=True)


FREE = "free"


def greedy_maximal_matching() -> SlocalAlgorithm:
    """Claim-based greedy: an unmatched node claims its smallest-id neighbor
    that is neither processed nor already claimed.

    Claims are stored at the claimer, so whether a neighbor is claimed is
    visible at radius 2; that makes claims race-free and the result a maximal
    matching for every processing order.  A node that is itself claimed
    answers after a radius-1 query; hence locality 2, observed locality 2 on
    any run that must place a claim.  It reads the view's edge set, no table.
    """

    def step(ctx: SlocalContext) -> SlocalStep:
        v = ctx.node
        view1, states1 = ctx.query(1)
        claims = []
        for u, state in states1.items():
            if u != v and state[0] == "matched" and v in state[2]:
                claims.append((u, state[1]))
        if claims:
            claims.sort()
            u, e = claims[0]
            return SlocalStep(
                output=NodeOutput(node_label=e), state=("matched", e, frozenset((u, v)))
            )
        g = view1.source.graph
        if not g.adjacency[v]:
            return SlocalStep(output=NodeOutput(node_label=FREE), state=("free",))
        view2, states2 = ctx.query(2)
        claimed: set[int] = set()
        for state in states2.values():
            if state[0] == "matched":
                claimed.update(state[2])
        candidates = []
        for e in g.adjacency[v]:
            if e not in view2.edge_set:
                continue
            u = g.other(e, v)
            if u in states2 or u in claimed:
                continue
            candidates.append((u, e))
        if candidates:
            candidates.sort()
            u, e = candidates[0]
            return SlocalStep(
                output=NodeOutput(node_label=e), state=("matched", e, frozenset((u, v)))
            )
        return SlocalStep(output=NodeOutput(node_label=FREE), state=("free",))

    return SlocalAlgorithm(locality=2, step=step)


def greedy_matching(g: Graph, order: Sequence[int]) -> tuple[frozenset[int], int]:
    """Run the greedy matcher; returns (matched edge ids, observed locality)."""
    labeling, observed = run_slocal(greedy_maximal_matching(), label_graph(g), order)
    outputs = labeling.nodes()
    matched = set()
    for e in range(g.m):
        u, v = g.endpoints(e)
        if outputs.get(u) == e and outputs.get(v) == e:
            matched.add(e)
    return frozenset(matched), observed


# ---------------------------------------------------------------------------
# JSON


def linearizable_to_json(p: LinearizableProblem) -> dict:
    """Each label set, pair list and multiset list in `label_order`."""

    def labels(xs):
        return [_label_to_json(x) for x in xs]

    return {
        "sigma": labels(sorted(p.sigma, key=label_order)),
        "first": labels(sorted(p.first, key=label_order)),
        "last": labels(sorted(p.last, key=label_order)),
        "pairs": [labels(x) for x in sorted(p.pairs, key=label_order)],
        "black": [labels(x) for x in p.black],
        "rank": p.rank,
    }


def linearizable_from_json(data: Mapping) -> LinearizableProblem:
    with json_decoding("linearizable problem"):
        return make_linearizable_problem(
            sigma=map(_label_from_json, data["sigma"]),
            first=map(_label_from_json, data["first"]),
            last=map(_label_from_json, data["last"]),
            pairs=[tuple(map(_label_from_json, x)) for x in data["pairs"]],
            black=[tuple(map(_label_from_json, x)) for x in data["black"]],
            rank=json_int(data["rank"]),
        )


def incidence_graph_to_json(ig: IncidenceGraph) -> dict:
    data = graph_to_json(ig.graph)
    data["roles"] = list(ig.roles)
    return data


def incidence_graph_from_json(data: Mapping) -> IncidenceGraph:
    with json_decoding("incidence graph"):
        return make_incidence_graph(graph_from_json(data), data["roles"])


def edge_labeling_to_json(labeling: Mapping[int, object]) -> dict:
    return {str(e): _label_to_json(lab) for e, lab in sorted(labeling.items())}


def edge_labeling_from_json(data: Mapping) -> dict[int, object]:
    """{edge: label} of a JSON object keyed by decimal edge ids; a malformed
    key, or two keys that name one edge, is an InputError."""
    with json_decoding("edge labeling"):
        return _labels_from_json(data, edge_from_key, "edge")
