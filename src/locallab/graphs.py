"""Immutable undirected graphs, half-edge labelings, views, and exact isomorphism.

Node ids are dense integers 0..n-1 and edge ids dense integers 0..m-1 assigned
at construction.  Each node carries an ordered list of incident edge ids (its
"ports"); that order is the given ordering used by white-node constraints and
by view transport.  Self-loops are always rejected; parallel edges are allowed
only when the multi flag is set.

Views follow the literal definition: the view of A up to distance T keeps the
nodes of N_T[A], the edges of the induced subgraph that have an endpoint at
distance < T from A, and for every retained node its full per-port half-edge
label data (a node can always see the labels of its own incident half-edges,
even of edges the view drops).

Each Graph also carries one neighbour tuple per node, aligned with its ports,
so adjacency queries never resolve an edge id.  Views, balls (`neighborhood`,
and through it `lcl.centered_ball` and SLOCAL queries) come from one
radius-bounded BFS (`ball_distances`) that stops at depth T: their cost is
O(|ball|), the nodes of N_T[A] and their incident edges, not O(n + m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

INFINITY = math.inf


class InputError(ValueError):
    """Caller handed in data that violates an operation's precondition."""


class ContractError(RuntimeError):
    """A supplied rule or witness broke its declared contract."""


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class Graph:
    """Undirected graph with dense ids and explicit per-node port order."""

    n: int
    edge_list: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]
    multi: bool = False
    # neighbor_rows[v][i] is the far end of the edge on port i of v; derived
    # from edge_list and adjacency, so it takes no part in equality or hashing
    neighbor_rows: Optional[tuple[tuple[int, ...], ...]] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.neighbor_rows is None:
            rows = []
            for v, ports in enumerate(self.adjacency):
                row = []
                for e in ports:
                    u, w = self.edge_list[e]
                    row.append(w if u == v else u)
                rows.append(tuple(row))
            object.__setattr__(self, "neighbor_rows", tuple(rows))

    @property
    def m(self) -> int:
        return len(self.edge_list)

    def nodes(self) -> range:
        return range(self.n)

    def edges(self) -> range:
        return range(self.m)

    def endpoints(self, e: int) -> tuple[int, int]:
        return self.edge_list[e]

    def other(self, e: int, v: int) -> int:
        u, w = self.edge_list[e]
        if v == u:
            return w
        if v == w:
            return u
        raise InputError(f"node {v} is not an endpoint of edge {e}")

    def incident(self, v: int) -> tuple[int, ...]:
        self._check_node(v)
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.incident(v))

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Far ends of v's ports, in port order (repeated across parallel edges)."""
        self._check_node(v)
        return self.neighbor_rows[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbor_rows[u]

    def edges_between(self, u: int, v: int) -> tuple[int, ...]:
        return tuple(e for e, w in _ports(self, u) if w == v)

    def half_edges(self) -> Iterator[tuple[int, int]]:
        """All pairs (v, e) with v an endpoint of e."""
        for v in range(self.n):
            for e in self.adjacency[v]:
                yield (v, e)

    def port_of(self, v: int, e: int) -> int:
        """Position of edge e in v's port order."""
        try:
            return self.adjacency[v].index(e)
        except ValueError:
            raise InputError(f"edge {e} is not incident to node {v}") from None

    def _check_node(self, v: int) -> None:
        if not (isinstance(v, int) and 0 <= v < self.n):
            raise InputError(f"unknown node id {v!r}")


def make_graph(
    n: int,
    edges: Iterable[tuple[int, int]],
    multi: bool = False,
    adjacency_order: Optional[Sequence[Sequence[int]]] = None,
) -> Graph:
    """Build a Graph, validating endpoints, loop/parallel rules, and port order."""
    if n < 0:
        raise InputError("node count must be non-negative")
    edge_list = []
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise InputError(f"self-loop at node {u} is not allowed")
        edge_list.append((u, v))
    if not multi:
        seen = set()
        for u, v in edge_list:
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InputError(f"parallel edge {key} requires the multi flag")
            seen.add(key)
    if adjacency_order is None:
        adj: list[list[int]] = [[] for _ in range(n)]
        for e, (u, v) in enumerate(edge_list):
            adj[u].append(e)
            adj[v].append(e)
        adjacency = tuple(tuple(a) for a in adj)
    else:
        if len(adjacency_order) != n:
            raise InputError("adjacency_order must list every node")
        expected: list[set[int]] = [set() for _ in range(n)]
        for e, (u, v) in enumerate(edge_list):
            expected[u].add(e)
            expected[v].add(e)
        adjacency = tuple(tuple(a) for a in adjacency_order)
        for v in range(n):
            if sorted(adjacency[v]) != sorted(expected[v]) or len(adjacency[v]) != len(expected[v]):
                raise InputError(f"adjacency order at node {v} does not match the edge set")
    return Graph(n=n, edge_list=tuple(edge_list), adjacency=adjacency, multi=multi)


def path_graph(n: int) -> Graph:
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("cycles need at least 3 nodes")
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    return make_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# ---------------------------------------------------------------------------
# distances and neighborhoods


def _ports(g: Graph, v: int) -> Iterator[tuple[int, int]]:
    """(edge id, far end) for each port of v, in port order."""
    return zip(g.adjacency[v], g.neighbor_rows[v])


def distances_from(g: Graph, sources: Iterable[int]) -> list[float]:
    """BFS distance from a source set; INFINITY where unreachable."""
    dist: list[float] = [INFINITY] * g.n
    queue: list[int] = []
    for s in sources:
        g._check_node(s)
        if dist[s] != 0:
            dist[s] = 0
            queue.append(s)
    rows = g.neighbor_rows
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for u in rows[v]:
            if dist[u] == INFINITY:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def ball_distances(g: Graph, sources: Iterable[int], t: int) -> dict[int, int]:
    """{node: distance} for the nodes within distance t of the sources.

    A BFS that never expands nodes at depth t: it reads the neighbour rows of
    the nodes at distance < t only, so its cost is O(|N_t[sources]|).
    """
    dist: dict[int, int] = {}
    frontier: list[int] = []
    for s in sources:
        g._check_node(s)
        if s not in dist:
            dist[s] = 0
            frontier.append(s)
    rows = g.neighbor_rows
    for d in range(1, t + 1):
        reached: list[int] = []
        for v in frontier:
            for u in rows[v]:
                if u not in dist:
                    dist[u] = d
                    reached.append(u)
        if not reached:
            break
        frontier = reached
    return dist


def distance(g: Graph, u: int, v: int) -> float:
    """Exact shortest-path distance; INFINITY when disconnected."""
    g._check_node(u)
    g._check_node(v)
    if u == v:
        return 0
    return distances_from(g, [u])[v]


def neighborhood(g: Graph, a: Iterable[int], t: int) -> frozenset[int]:
    """N_T[A]: all nodes at distance at most T from A."""
    if t < 0:
        raise InputError("radius must be non-negative")
    return frozenset(sorted(ball_distances(g, a, t)))


def connected_components(g: Graph) -> list[frozenset[int]]:
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = []
        stack = [s]
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in g.neighbor_rows[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        comps.append(frozenset(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def is_bipartite(g: Graph) -> Optional[list[int]]:
    """2-coloring as a list of 0/1, or None if an odd cycle exists."""
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return None
    return color


def bridges(g: Graph) -> set[int]:
    """Edge ids whose removal disconnects their component (parallel-aware)."""
    disc = [-1] * g.n
    low = [0] * g.n
    out: set[int] = set()
    timer = 0
    for s in range(g.n):
        if disc[s] != -1:
            continue
        # iterative DFS keeping the edge used to enter each node
        stack: list[tuple[int, int, Iterator[tuple[int, int]]]] = [(s, -1, _ports(g, s))]
        disc[s] = low[s] = timer
        timer += 1
        while stack:
            v, pe, it = stack[-1]
            advanced = False
            for e, u in it:
                if e == pe:
                    continue
                if disc[u] == -1:
                    disc[u] = low[u] = timer
                    timer += 1
                    stack.append((u, e, _ports(g, u)))
                    advanced = True
                    break
                low[v] = min(low[v], disc[u])
            if not advanced:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if low[v] > disc[pv]:
                        out.add(pe)
    return out


def two_edge_components(g: Graph) -> list[frozenset[int]]:
    """Connected components after deleting all bridges."""
    cut = bridges(g)
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        stack = [s]
        while stack:
            v = stack.pop()
            for e, u in _ports(g, v):
                if e in cut:
                    continue
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    stack.append(u)
        comps.append(frozenset(comp))
    return comps


# ---------------------------------------------------------------------------
# labeled graphs

Label = object  # opaque hashable token; None means "no declared input"


@dataclass(frozen=True)
class LabeledGraph:
    """Graph plus one label per node and one per half-edge (None = anonymous)."""

    graph: Graph
    node_labels: tuple
    port_labels: tuple[tuple, ...]  # aligned with graph.adjacency

    def node_label(self, v: int):
        return self.node_labels[v]

    def half_edge_label(self, v: int, e: int):
        return self.port_labels[v][self.graph.port_of(v, e)]

    def half_edge_items(self) -> Iterator[tuple[tuple[int, int], object]]:
        for v in range(self.graph.n):
            for i, e in enumerate(self.graph.adjacency[v]):
                yield (v, e), self.port_labels[v][i]


def label_graph(
    g: Graph,
    node_labels: Optional[Mapping[int, object]] = None,
    half_edge_labels: Optional[Mapping[tuple[int, int], object]] = None,
) -> LabeledGraph:
    """Attach labels; missing maps mean an anonymous network."""
    nl = [None] * g.n
    if node_labels is not None:
        for v, lab in node_labels.items():
            g._check_node(v)
            nl[v] = lab
    pl: list[tuple] = []
    for v in range(g.n):
        row = [None] * len(g.adjacency[v])
        pl.append(row)
    if half_edge_labels is not None:
        for (v, e), lab in half_edge_labels.items():
            pl[v][g.port_of(v, e)] = lab
    return LabeledGraph(graph=g, node_labels=tuple(nl), port_labels=tuple(tuple(r) for r in pl))


def induced_labeled_subgraph(
    lg: LabeledGraph, nodes: Iterable[int]
) -> tuple[LabeledGraph, dict[int, int]]:
    """Induced subgraph with dense ids; returns (subgraph, old->new node map)."""
    keep = sorted(set(nodes))
    node_map = {v: i for i, v in enumerate(keep)}
    g = lg.graph
    # inner edges come from the kept nodes' rows; sub-edge ids keep the old order
    inner = sorted({e for v in keep for e, u in _ports(g, v) if u in node_map})
    edge_map = {e: i for i, e in enumerate(inner)}
    sub_edges = [(node_map[u], node_map[w]) for u, w in map(g.endpoints, inner)]
    # port order and half-edge labels inherited from the original rows
    adjacency_order = []
    hl = {}
    for v in keep:
        row = []
        for e, lab in zip(g.adjacency[v], lg.port_labels[v]):
            if e in edge_map:
                row.append(edge_map[e])
                hl[(node_map[v], edge_map[e])] = lab
        adjacency_order.append(row)
    sub = make_graph(len(keep), sub_edges, multi=g.multi, adjacency_order=adjacency_order)
    nl = {node_map[v]: lg.node_labels[v] for v in keep}
    return label_graph(sub, nl, hl), node_map


# ---------------------------------------------------------------------------
# views


@dataclass(frozen=True)
class View:
    """Radius-T view of an anchor set, with per-port data per retained node.

    ports[v] is a tuple of (half_edge_label, edge_id or None) in v's original
    port order; None marks an edge dropped by the view condition (or leading
    outside), which a radius-T observer cannot tell apart.
    """

    source: LabeledGraph
    anchor: frozenset[int]
    radius: int
    node_set: frozenset[int]
    edge_set: frozenset[int]
    node_label: Mapping[int, object] = field(hash=False)
    ports: Mapping[int, tuple] = field(hash=False)

    def nodes(self) -> list[int]:
        return sorted(self.node_set)

    def anchor_node(self) -> int:
        if len(self.anchor) != 1:
            raise InputError("view is not anchored at a single node")
        return next(iter(self.anchor))

    def view_edges(self) -> list[tuple[int, int, int]]:
        g = self.source.graph
        return [(e, *g.endpoints(e)) for e in sorted(self.edge_set)]

    def view_degree(self, v: int) -> int:
        return sum(1 for (_, e) in self.ports[v] if e is not None)

    def neighbors_in_view(self, v: int) -> list[int]:
        g = self.source.graph
        return [g.other(e, v) for (_, e) in self.ports[v] if e is not None]


def extract_view(lg: LabeledGraph, anchor: Iterable[int], t: int) -> View:
    """The view of anchor set A up to distance t (literal edge predicate)."""
    a = frozenset(anchor)
    if not a:
        raise InputError("anchor set must be nonempty")
    if t < 0:
        raise InputError("radius must be non-negative")
    g = lg.graph
    dist = ball_distances(g, a, t)
    keep = frozenset(sorted(dist))
    # an edge with an end at distance < t has both ends in the ball, so the
    # literal predicate keeps exactly the incident edges of the inner nodes
    kept_edges = set()
    for v, d in dist.items():
        if d < t:
            kept_edges.update(g.adjacency[v])
    node_label = {v: lg.node_labels[v] for v in keep}
    ports = {}
    for v in keep:
        row = []
        for i, e in enumerate(g.adjacency[v]):
            row.append((lg.port_labels[v][i], e if e in kept_edges else None))
        ports[v] = tuple(row)
    return View(
        source=lg,
        anchor=a,
        radius=t,
        node_set=keep,
        edge_set=frozenset(kept_edges),
        node_label=node_label,
        ports=ports,
    )


# ---------------------------------------------------------------------------
# isomorphism


def _view_node_key(view: View, v: int):
    port_sig = tuple((lab, e is not None) for (lab, e) in view.ports[v])
    return (v in view.anchor, view.node_label[v], port_sig)


def view_isomorphisms(v1: View, v2: View, find_all: bool = False) -> list[dict[int, int]]:
    """Port-aware isomorphisms mapping anchor onto anchor; [] when none.

    A bijection phi qualifies iff it maps the anchor set onto the anchor set,
    preserves node labels, preserves every per-port half-edge label and the
    retained/dropped pattern positionally, and is structurally consistent: the
    edge on port i of v is retained iff the edge on port i of phi(v) is, and
    their far endpoints correspond under phi.
    """
    if v1.radius != v2.radius:
        return []
    if len(v1.node_set) != len(v2.node_set) or len(v1.edge_set) != len(v2.edge_set):
        return []
    if len(v1.anchor) != len(v2.anchor):
        return []
    nodes1 = sorted(v1.node_set)
    key2: dict[object, list[int]] = {}
    for u in v2.node_set:
        key2.setdefault(_view_node_key(v2, u), []).append(u)
    keys1 = sorted(map(repr, (_view_node_key(v1, v) for v in nodes1)))
    keys2 = sorted(map(repr, (_view_node_key(v2, u) for u in v2.node_set)))
    if keys1 != keys2:
        return []

    # order: anchors first, then by BFS over retained edges for tight pruning
    order: list[int] = []
    seen = set()
    pending = sorted(v1.anchor) + nodes1
    for s in pending:
        if s in seen:
            continue
        seen.add(s)
        queue = [s]
        head = 0
        while head < len(queue):
            w = queue[head]
            head += 1
            order.append(w)
            for x in v1.neighbors_in_view(w):
                if x not in seen:
                    seen.add(x)
                    queue.append(x)

    g1 = v1.source.graph
    g2 = v2.source.graph
    phi: dict[int, int] = {}
    used: set[int] = set()
    found: list[dict[int, int]] = []

    def compatible(v: int, u: int) -> bool:
        # positional port check: retained ports must align structurally
        for (lab1, e1), (lab2, e2) in zip(v1.ports[v], v2.ports[u]):
            if lab1 != lab2 or (e1 is None) != (e2 is None):
                return False
            if e1 is not None:
                w1 = g1.other(e1, v)
                w2 = g2.other(e2, u)
                if w1 in phi:
                    if phi[w1] != w2:
                        return False
                elif w2 in used:
                    return False
        return True

    def rec(i: int) -> bool:
        if i == len(order):
            found.append(dict(phi))
            return not find_all
        v = order[i]
        for u in key2.get(_view_node_key(v1, v), []):
            if u in used:
                continue
            if not compatible(v, u):
                continue
            phi[v] = u
            used.add(u)
            if rec(i + 1):
                return True
            del phi[v]
            used.discard(u)
        return False

    rec(0)
    return found


def views_isomorphic(v1: View, v2: View) -> Optional[dict[int, int]]:
    """Some port-aware view isomorphism, or None."""
    isos = view_isomorphisms(v1, v2, find_all=False)
    return isos[0] if isos else None


@dataclass(frozen=True)
class CenteredGraph:
    """A labeled graph with a distinguished center node."""

    base: LabeledGraph
    center: int

    def eccentricity(self) -> float:
        d = distances_from(self.base.graph, [self.center])
        return max(d) if d else 0

    def max_degree(self) -> int:
        g = self.base.graph
        return max((g.degree(v) for v in range(g.n)), default=0)


def centered_isomorphism(c1: CenteredGraph, c2: CenteredGraph) -> Optional[dict[int, int]]:
    """Label-preserving graph isomorphism mapping center to center, or None.

    Structural half-edge correspondence: the label of (v, {v,w}) must equal
    the label of (phi(v), {phi(v), phi(w)}).  Port order is deliberately not
    part of the comparison (Def 2.2 objects are plain labeled graphs).
    """
    g1, g2 = c1.base.graph, c2.base.graph
    if g1.n != g2.n or g1.m != g2.m:
        return None

    def node_key(lg: LabeledGraph, v: int, center: int):
        g = lg.graph
        he = sorted(map(repr, (lg.half_edge_label(v, e) for e in g.adjacency[v])))
        return (v == center, lg.node_labels[v], g.degree(v), tuple(he))

    key2: dict[object, list[int]] = {}
    for u in range(g2.n):
        key2.setdefault(repr(node_key(c2.base, u, c2.center)), []).append(u)

    order = []
    seen = set()
    for s in [c1.center] + list(range(g1.n)):
        if s in seen:
            continue
        seen.add(s)
        queue = [s]
        head = 0
        while head < len(queue):
            w = queue[head]
            head += 1
            order.append(w)
            for x in g1.neighbors(w):
                if x not in seen:
                    seen.add(x)
                    queue.append(x)

    phi: dict[int, int] = {}
    used: set[int] = set()

    def edge_labels(lg: LabeledGraph, v: int, w: int) -> list:
        g = lg.graph
        out = []
        for e in g.edges_between(v, w):
            out.append((lg.half_edge_label(v, e), lg.half_edge_label(w, e)))
        out.sort(key=repr)
        return out

    def compatible(v: int, u: int) -> bool:
        for w in phi:
            lab1 = edge_labels(c1.base, v, w)
            lab2 = edge_labels(c2.base, u, phi[w])
            if lab1 != lab2:
                return False
        return True

    def rec(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for u in key2.get(repr(node_key(c1.base, v, c1.center)), []):
            if u in used or not compatible(v, u):
                continue
            phi[v] = u
            used.add(u)
            if rec(i + 1):
                return True
            del phi[v]
            used.discard(u)
        return False

    return dict(phi) if rec(0) else None


# ---------------------------------------------------------------------------
# canonical forms (bare graphs; used for corpus deduplication)


def canonical_key(g: Graph) -> tuple:
    """Canonical encoding invariant under node relabeling (exact, desk scale).

    Iterated neighborhood-color refinement, then a backtracking minimization of
    the adjacency encoding over color-respecting orderings.
    """
    n = g.n
    if n == 0:
        return (0, ())
    colors = [g.degree(v) for v in range(n)]
    while True:
        sig = [
            (colors[v], tuple(sorted(colors[u] for u in g.neighbors(v))))
            for v in range(n)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [palette[s] for s in sig]
        if new == colors:
            break
        colors = new

    best: list[tuple] = []

    def encode(perm: list[int]) -> tuple:
        pos = {v: i for i, v in enumerate(perm)}
        rows = []
        for v in perm:
            row = sorted(pos[u] for u in g.neighbors(v) if u in pos)
            rows.append(tuple(row))
        return tuple(rows)

    # minimize over orderings: nodes must appear in nondecreasing color order,
    # and within the search we prune by prefix comparison
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)
    color_seq: list[int] = []
    for c in sorted(by_color):
        color_seq.extend([c] * len(by_color[c]))

    best_rows: Optional[list[tuple]] = None

    def rec(perm: list[int], used: set[int]) -> None:
        nonlocal best_rows
        i = len(perm)
        if i == n:
            rows = list(encode(perm))
            if best_rows is None or rows < best_rows:
                best_rows = rows
            return
        for v in by_color[color_seq[i]]:
            if v in used:
                continue
            perm.append(v)
            used.add(v)
            # prefix prune: compare encoded rows of the prefix
            if best_rows is not None:
                pos = {w: j for j, w in enumerate(perm)}
                ok = True
                for j, w in enumerate(perm):
                    row = tuple(sorted(pos[u] for u in g.neighbors(w) if u in pos))
                    if row < best_rows[j]:
                        ok = True
                        break
                    if row > best_rows[j]:
                        ok = False
                        break
                if ok:
                    rec(perm, used)
            else:
                rec(perm, used)
            perm.pop()
            used.discard(v)

    rec([], set())
    assert best_rows is not None
    return (n, tuple(best_rows))


# ---------------------------------------------------------------------------
# JSON and DOT interchange


def graph_to_json(g: Graph) -> dict:
    return {
        "n": g.n,
        "multi": g.multi,
        "edges": [list(e) for e in g.edge_list],
        "adjacency_order": [list(a) for a in g.adjacency],
        "node_labels": [None] * g.n,
        "half_edge_labels": {},
    }


def labeled_graph_to_json(lg: LabeledGraph) -> dict:
    out = graph_to_json(lg.graph)
    out["node_labels"] = [_label_to_json(x) for x in lg.node_labels]
    he = {}
    for (v, e), lab in lg.half_edge_items():
        if lab is not None:
            he[f"{v}:{e}"] = _label_to_json(lab)
    out["half_edge_labels"] = he
    return out


def graph_from_json(data: Mapping) -> Graph:
    return make_graph(
        int(data["n"]),
        [tuple(e) for e in data["edges"]],
        multi=bool(data.get("multi", False)),
        adjacency_order=data.get("adjacency_order"),
    )


def labeled_graph_from_json(data: Mapping) -> LabeledGraph:
    g = graph_from_json(data)
    raw_nodes = data.get("node_labels") or [None] * g.n
    nl = {v: _label_from_json(lab) for v, lab in enumerate(raw_nodes) if lab is not None}
    hl = {}
    for key, lab in (data.get("half_edge_labels") or {}).items():
        v, e = key.split(":")
        hl[(int(v), int(e))] = _label_from_json(lab)
    return label_graph(g, nl, hl)


def _label_to_json(lab):
    from fractions import Fraction

    if isinstance(lab, Fraction):
        return {"fraction": f"{lab.numerator}/{lab.denominator}"}
    if isinstance(lab, tuple):
        return {"tuple": [_label_to_json(x) for x in lab]}
    return lab


def _label_from_json(lab):
    from fractions import Fraction

    if isinstance(lab, dict) and "fraction" in lab:
        return Fraction(lab["fraction"])
    if isinstance(lab, dict) and "tuple" in lab:
        return tuple(_label_from_json(x) for x in lab["tuple"])
    return lab


def to_dot(lg: LabeledGraph, node_color: Optional[Callable[[int], Optional[str]]] = None) -> str:
    """DOT rendering: node label `id|label`, half-edge labels on edge ends."""
    g = lg.graph
    lines = ["graph locallab {"]
    for v in range(g.n):
        lab = lg.node_labels[v]
        text = f"{v}|{lab}" if lab is not None else str(v)
        attrs = [f'label="{text}"']
        if node_color is not None:
            color = node_color(v)
            if color:
                attrs.append(f'style=filled fillcolor="{color}"')
        lines.append(f"  {v} [{' '.join(attrs)}];")
    for e, (u, v) in enumerate(g.edge_list):
        attrs = []
        lu = lg.half_edge_label(u, e)
        lv = lg.half_edge_label(v, e)
        if lu is not None:
            attrs.append(f'taillabel="{lu}"')
        if lv is not None:
            attrs.append(f'headlabel="{lv}"')
        suffix = f" [{' '.join(attrs)}]" if attrs else ""
        lines.append(f"  {u} -- {v}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"
