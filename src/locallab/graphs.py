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
`ball_keys`, `lcl.centered_ball`), SLOCAL queries and whole-graph distances
(`distances_from`) come from one radius-bounded BFS (`ball_distances`) that
stops at depth T: a ball costs O(|ball|), the nodes of N_T[A] and their
incident edges, not O(n + m).

Centered labeled graphs are keyed through one encoder, `_ball_encoding`,
which reads a node list's colours and arcs from the rows of the graph that
holds it.  `centered_key` encodes a built graph on all its nodes;
`ball_keys` encodes every node's ball straight from the host's rows, builds
no subgraph, and runs the canonical search once per distinct encoding in
the call.

`connected_components` and `bridges` take an optional node set and then
work on the subgraph it induces, in the host's node and edge ids, without
building it.  The octopus recognizer cuts the bridges once and takes the
two-edge components as `connected_components(g, nodes, cut)`.
"""

from __future__ import annotations

import math
import re
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Collection, Iterable, Iterator, Mapping, Optional, Sequence

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
    for v, d in ball_distances(g, sources, g.n).items():
        dist[v] = d
    return dist


def _node_set(g: Graph, nodes: Optional[Iterable[int]]) -> Collection[int]:
    """Every node of g when `nodes` is None, else the given nodes as a set."""
    if nodes is None:
        return range(g.n)
    keep = set(nodes)
    if keep and not (0 <= min(keep) and max(keep) < g.n):
        raise InputError(f"node set has ids outside 0..{g.n - 1}")
    return keep


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


def check_radius(t) -> None:
    """A radius is a non-negative int (not a bool); anything else is an InputError."""
    if not (_is_json_int(t) and t >= 0):
        raise InputError(f"radius must be a non-negative integer, not {t!r}")


def neighborhood(g: Graph, a: Iterable[int], t: int) -> frozenset[int]:
    """N_T[A]: all nodes at distance at most T from A."""
    check_radius(t)
    return frozenset(sorted(ball_distances(g, a, t)))


def connected_components(
    g: Graph, nodes: Optional[Iterable[int]] = None, cut: Collection[int] = ()
) -> list[frozenset[int]]:
    """Components of the subgraph induced by `nodes` (every node by default)
    without the edges in `cut`, ordered by their smallest node."""
    keep = _node_set(g, nodes)
    todo = set(keep)
    comps = []
    for s in sorted(keep):
        if s not in todo:
            continue
        todo.remove(s)
        comp = [s]
        stack = [s]
        while stack:
            v = stack.pop()
            for e, u in _ports(g, v):
                if u in todo and e not in cut:
                    todo.remove(u)
                    comp.append(u)
                    stack.append(u)
        comps.append(frozenset(comp))
    return comps


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


def bridges(g: Graph, nodes: Optional[Iterable[int]] = None) -> set[int]:
    """Edge ids whose removal disconnects their component (parallel-aware),
    in the subgraph induced by `nodes` (every node by default)."""
    keep = _node_set(g, nodes)
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    out: set[int] = set()
    for s in sorted(keep):
        if s in disc:
            continue
        # iterative DFS keeping the edge used to enter each node
        stack: list[tuple[int, int, Iterator[tuple[int, int]]]] = [(s, -1, _ports(g, s))]
        disc[s] = low[s] = len(disc)
        while stack:
            v, pe, it = stack[-1]
            advanced = False
            for e, u in it:
                if e == pe or u not in keep:
                    continue
                if u not in disc:
                    disc[u] = low[u] = len(disc)
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


# ---------------------------------------------------------------------------
# labeled graphs

Label = object  # opaque hashable token; None means "no declared input"


@dataclass(frozen=True)
class LabeledGraph:
    """Graph plus one label per node and one per half-edge (None = anonymous)."""

    graph: Graph
    node_labels: tuple
    port_labels: tuple[tuple, ...]  # aligned with graph.adjacency

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
    check_radius(t)
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
# view isomorphism


def view_key(view: View) -> tuple:
    """Key of a single-anchor view, equal for two views iff a bijection sends
    anchor to anchor and matches node labels and, port by port, half-edge
    labels, the retained/dropped pattern and far ends.  Such a view is rigid
    (every node is reached from the anchor through retained ports), so a BFS
    in port order numbers it canonically; per node in that order the key
    lists its label and per port (label, far end's BFS index or None)."""
    g = view.source.graph
    order = [view.anchor_node()]
    index = {order[0]: 0}
    key = []
    for v in order:
        row = []
        for lab, e in view.ports[v]:
            w = None if e is None else g.other(e, v)
            if w is not None and w not in index:
                index[w] = len(order)
                order.append(w)
            row.append((lab, index.get(w)))
        key.append((view.node_label[v], tuple(row)))
    return tuple(key)


def _view_node_key(view: View, v: int):
    port_sig = tuple((lab, e is not None) for (lab, e) in view.ports[v])
    return (v in view.anchor, view.node_label[v], port_sig)


def view_isomorphisms(v1: View, v2: View) -> list[dict[int, int]]:
    """Every port-aware isomorphism mapping anchor onto anchor, in the order
    the search finds them; [] when none.

    A bijection phi qualifies iff it maps the anchor set onto the anchor set,
    preserves node labels, preserves every per-port half-edge label and the
    retained/dropped pattern positionally, and is structurally consistent: the
    edge on port i of v is retained iff the edge on port i of phi(v) is, and
    their far endpoints correspond under phi.

    The search places v1's nodes in BFS order from the anchors, backtracking
    on an explicit stack.  It checks the port of v toward an already placed
    far end exactly, and toward an unplaced one only that its image is still
    free, so each retained edge's far-end correspondence is checked at its
    later-placed end only (see ROADMAP item 2).
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
    # the node keys must agree as multisets, compared by == as the search does
    unmatched = {key: len(us) for key, us in key2.items()}
    for v in nodes1:
        key = _view_node_key(v1, v)
        if not unmatched.get(key):
            return []
        unmatched[key] -= 1

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

    class2 = {u: us for us in key2.values() for u in us}
    rank2 = {u: i for us in key2.values() for i, u in enumerate(us)}

    def candidates(v: int) -> list[int]:
        # a compatible u neighbours phi(w) for every placed neighbour w of v,
        # so only those members of v's class are listed, in class order
        options = key2.get(_view_node_key(v1, v), [])
        for w in v1.neighbors_in_view(v):
            if w in phi:
                near = set(v2.neighbors_in_view(phi[w]))
                return sorted((u for u in near if class2[u] is options), key=rank2.__getitem__)
        return options

    # options[i] are the candidates for order[i]; tried[i] counts those tried
    options: list[list[int]] = [[]] * len(order)
    tried = [0] * (len(order) + 1)
    level = 0
    while True:
        placed = False
        if level == len(order):
            found.append(dict(phi))
        else:
            v = order[level]
            if tried[level] == 0:
                options[level] = candidates(v)
            while not placed and tried[level] < len(options[level]):
                u = options[level][tried[level]]
                tried[level] += 1
                if u not in used and compatible(v, u):
                    phi[v] = u
                    used.add(u)
                    placed = True
        if placed:
            level += 1
            tried[level] = 0
        elif level == 0:
            return found
        else:
            level -= 1
            used.discard(phi.pop(order[level]))


# ---------------------------------------------------------------------------
# canonical forms
#
# One individualization-refinement search (McKay & Piperno, "Practical graph
# isomorphism, II", J. Symb. Comput. 60, 2014) gives canonical keys of bare
# graphs (corpus deduplication, pruned by the automorphisms the search
# meets) and of centered labeled balls (LCL membership).  A structure is
# encoded as one colour per node and one coloured arc (far node, arc colour)
# per half-edge; labels enter colours through repr, integral Fractions as
# ints.  Two encodings are isomorphic iff their keys are equal, and then
# mapping each canonical position to the same position of the other is an
# isomorphism.


def _refine(lab: list, pos: list, cell: list, ends: list, into: list, active: list) -> None:
    """Split cells in place until the ordered partition is equitable.

    lab[p] is the node at position p and pos its inverse; a cell is a range
    [s, ends[s]) and cell[v] its start.  Each splitter cell W splits every
    cell by the multiset of colours of its nodes' arcs into W; the pieces
    keep the cell's place, in key order.  A split cell that is not queued
    queues all pieces but its first largest, whose keys follow from the rest.
    """
    queue = deque(active)
    queued = set(active)
    while queue:
        s = queue.popleft()
        queued.discard(s)
        hits: dict[int, list[int]] = {}
        for p in range(s, ends[s]):
            for v, c in into[lab[p]]:
                if v in hits:
                    hits[v].append(c)
                else:
                    hits[v] = [c]
        touched: dict[int, list[int]] = {}
        for v in hits:
            touched.setdefault(cell[v], []).append(v)
        for t in sorted(touched):
            e = ends[t]
            hit = touched[t]
            groups: dict[tuple, list[int]] = {}
            for v in hit:
                groups.setdefault(tuple(sorted(hits[v])), []).append(v)
            tail = e - len(hit)
            if tail == t and len(groups) == 1:
                continue
            # unhit nodes keep [t, tail) and start t; hit nodes fill the tail
            hitset = set(hit)
            strays = [lab[p] for p in range(tail, e) if lab[p] not in hitset]
            for w, v in zip(strays, (v for v in hit if pos[v] < tail)):
                lab[pos[v]] = w
                pos[w] = pos[v]
            pieces = [(t, tail - t)] if tail > t else []
            p = tail
            for key in sorted(groups):
                start = p
                for v in groups[key]:
                    lab[p] = v
                    pos[v] = p
                    cell[v] = start
                    p += 1
                ends[start] = p
                pieces.append((start, p - start))
            if tail > t:
                ends[t] = tail
            skip = -1 if t in queued else max(range(len(pieces)), key=lambda i: pieces[i][1])
            for i, (start, _) in enumerate(pieces):
                if i != skip and start not in queued:
                    queue.append(start)
                    queued.add(start)


def _canonical_form(
    colours: Sequence, arcs: Sequence[Sequence[tuple[int, object]]]
) -> tuple[tuple, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(key, order, automorphisms) of a node- and arc-coloured digraph on
    0..n-1, where order[p] is the node at canonical position p and each
    automorphism is a tuple sigma with sigma[v] the image of v.

    The root of the search tree refines the colour partition; a node that is
    not discrete has one child per node of its first smallest non-singleton
    cell, that node individualized and the partition refined again.  The tree
    is walked depth-first on an explicit stack.  A leaf orders the nodes; its
    certificate is the sorted arc list in that order and the key is the
    smallest certificate.  A leaf whose certificate equals the best one is
    the best leaf moved by an automorphism, which maps the best leaf's branch
    at the level where their paths part, explored first, onto this leaf's:
    the search resumes at that level.  That automorphism maps the best
    leaf's node at each position p to this leaf's, and it is returned: the
    search's automorphisms, in the order found, generate a subgroup of the
    automorphism group.
    """
    n = len(colours)
    palette = sorted(set(colours))
    rank = {c: i for i, c in enumerate(palette)}
    arc_palette = sorted({c for row in arcs for _, c in row})
    arc_rank = {c: i for i, c in enumerate(arc_palette)}
    out = [[(w, arc_rank[c]) for w, c in row] for row in arcs]
    into: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for v, row in enumerate(out):
        for w, c in row:
            into[w].append((v, c))

    lab = sorted(range(n), key=lambda v: rank[colours[v]])
    pos, cell, ends = [0] * n, [0] * n, [0] * n
    counts = [0] * len(palette)
    for p, v in enumerate(lab):
        pos[v] = p
        counts[rank[colours[v]]] += 1
    starts = []
    p = 0
    for size in counts:
        starts.append(p)
        for q in range(p, p + size):
            cell[lab[q]] = p
        ends[p] = p + size
        p += size
    _refine(lab, pos, cell, ends, into, starts)

    best = None  # (certificate, order, path)
    automorphisms = []
    stack: list[list] = []  # one frame per level: [partition, branch nodes, next, path]
    part, path = (lab, pos, cell, ends), ()
    while True:
        lab, pos, cell, ends = part
        target = None
        p = 0
        while p < n:
            if ends[p] - p > 1 and (target is None or ends[p] - p < ends[target] - target):
                target = p
            p = ends[p]
        if target is not None:
            stack.append([part, lab[target : ends[target]], 0, path])
        else:
            cert = tuple(sorted((pos[v], pos[w], c) for v in range(n) for w, c in out[v]))
            if best is None or cert < best[0]:
                best = (cert, tuple(lab), path)
            elif cert == best[0]:
                sigma = [0] * n
                for v, u in zip(best[1], lab):
                    sigma[v] = u
                automorphisms.append(tuple(sigma))
                level = 0
                while path[level] == best[2][level]:
                    level += 1
                del stack[level + 1 :]
        while stack and stack[-1][2] == len(stack[-1][1]):
            stack.pop()
        if not stack:
            break
        frame = stack[-1]
        v = frame[1][frame[2]]
        frame[2] += 1
        lab, pos, cell, ends = (list(x) for x in frame[0])
        s, e, q = cell[v], ends[cell[v]], pos[v]
        lab[q], lab[s] = lab[s], v
        pos[lab[q]], pos[v] = q, s
        for q in range(s + 1, e):
            cell[lab[q]] = s + 1
        ends[s], ends[s + 1] = s + 1, e
        _refine(lab, pos, cell, ends, into, [s])
        part, path = (lab, pos, cell, ends), frame[3] + (v,)

    return (tuple(zip(palette, counts)), tuple(arc_palette), best[0]), best[1], tuple(automorphisms)


def bare_canonical_form(rows: Sequence[Sequence[int]]) -> tuple[tuple, tuple[tuple[int, ...], ...]]:
    """(key, automorphisms) of the bare graph on 0..n-1 whose node v has the
    neighbours rows[v]: two graphs have equal keys iff they are isomorphic,
    and each automorphism the search met is a tuple sigma, sigma[v] the
    image of v.  A Graph's rows are its `neighbor_rows`."""
    key, _, automorphisms = _canonical_form([0] * len(rows), [[(w, 0) for w in row] for row in rows])
    return key, automorphisms


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


def _numeric_form(lab):
    """The label with each bool, finite float and Fraction, also inside
    tuples, as the rational it equals, an int when integral, so that labels
    equal under == have one repr (a Fraction subclass as a plain Fraction).
    A NaN or an infinity stays as it is."""
    # exact types first: isinstance against Fraction goes through ABCMeta
    kind = type(lab)
    if kind is str or kind is int or lab is None:
        return lab
    if kind is tuple:
        return tuple(map(_numeric_form, lab))
    if isinstance(lab, (bool, float)) and math.isfinite(lab):
        lab = Fraction(lab)
    if isinstance(lab, Fraction):
        if lab.denominator == 1:
            return lab.numerator
        return lab if type(lab) is Fraction else Fraction(lab)
    if isinstance(lab, tuple):
        return tuple(map(_numeric_form, lab))
    return lab


def _encoding_rows(lg: LabeledGraph) -> tuple[list, list]:
    """Per node of lg, its two colours (not center, center) and its row of
    (far end, arc colour), one per port in port order.  A node's colour is
    the repr of its center flag and label; the arc over edge {v, w} from v
    is coloured by the pair of half-edge labels seen from v.  Labels enter
    through repr, each integral Fraction, also inside a tuple, as the int it
    equals."""
    g = lg.graph
    reprs = [[repr(_numeric_form(lab)) for lab in row] for row in lg.port_labels]
    colours = []
    for lab in lg.node_labels:
        lab = _numeric_form(lab)
        colours.append((repr((False, lab)), repr((True, lab))))
    rows = [
        [(w, (reprs[v][i], reprs[w][g.adjacency[w].index(e)])) for i, (e, w) in enumerate(_ports(g, v))]
        for v in range(g.n)
    ]
    return colours, rows


def _ball_encoding(
    encoding_rows: tuple[list, list], v: int, nodes: Sequence[int]
) -> tuple[tuple, tuple]:
    """(colours, arcs) of the subgraph induced by `nodes`, centered at v,
    read from the host's `_encoding_rows`: the node at index i of `nodes` is
    node i, and each of its arcs to a node of `nodes` is (far index, arc
    colour), in port order.  Port order takes no part in the canonical form
    of the encoding, so parallel edges stay a multiset of label pairs."""
    colours, rows = encoding_rows
    index = {u: i for i, u in enumerate(nodes)}
    return (
        tuple([colours[u][u == v] for u in nodes]),
        tuple([tuple([(index[w], c) for w, c in rows[u] if w in index]) for u in nodes]),
    )


def _centered_form(c: CenteredGraph) -> tuple[tuple, tuple[int, ...]]:
    """(key, order) of the encoding of c on all its nodes."""
    return _canonical_form(*_ball_encoding(_encoding_rows(c.base), c.center, range(c.base.graph.n)))[:2]


def centered_key(c: CenteredGraph) -> tuple:
    """Canonical key of a centered labeled graph: equal iff isomorphic."""
    return _centered_form(c)[0]


def ball_keys(lg: LabeledGraph, r: int) -> list[tuple]:
    """The centered key of every node's radius-r ball (the subgraph induced
    by N_r[v], centered at v), in node order.

    Each ball is encoded from lg's rows, without building it; balls with
    equal encodings share one canonical search, since the key is a function
    of the encoding alone.
    """
    check_radius(r)
    g = lg.graph
    rows = _encoding_rows(lg)
    searched: dict[tuple, tuple] = {}  # encoding -> key, for this call only
    keys = []
    for v in range(g.n):
        encoding = _ball_encoding(rows, v, list(ball_distances(g, [v], r)))
        key = searched.get(encoding)
        if key is None:
            key = searched[encoding] = _canonical_form(*encoding)[0]
        keys.append(key)
    return keys


def centered_isomorphism(c1: CenteredGraph, c2: CenteredGraph) -> Optional[dict[int, int]]:
    """Label-preserving graph isomorphism mapping center to center, or None.

    Structural half-edge correspondence: the label of (v, {v,w}) must equal
    the label of (phi(v), {phi(v), phi(w)}).  Port order is deliberately not
    part of the comparison (Def 2.2 objects are plain labeled graphs).
    """
    g1, g2 = c1.base.graph, c2.base.graph
    if g1.n != g2.n or g1.m != g2.m:
        return None
    (key1, order1), (key2, order2) = _centered_form(c1), _centered_form(c2)
    return dict(sorted(zip(order1, order2))) if key1 == key2 else None


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


def _is_json_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def json_int(raw) -> int:
    """A JSON integer as read; a float, a bool or a string is an InputError."""
    if not _is_json_int(raw):
        raise InputError(f"expected a JSON integer, got {raw!r}")
    return raw


@contextmanager
def json_decoding(what: str) -> Iterator[None]:
    """Report a decoder's KeyError, TypeError, ValueError, AttributeError or
    IndexError on malformed JSON as an InputError naming `what`.  An
    InputError raised inside keeps its message and gains "; in `what` JSON",
    so a nested error names every enclosing document."""
    try:
        yield
    except InputError as err:
        raise InputError(f"{err}; in {what} JSON") from None
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as err:
        raise InputError(f"malformed {what} JSON: {err!r}") from None


_ID_KEY = re.compile(r"[0-9]+")
_HALF_EDGE_KEY = re.compile(r"([0-9]+):([0-9]+)")


def _id_from_key(key, what: str) -> int:
    """The id of a JSON key in decimal digits; anything else (a sign, a space,
    an underscore, a decimal point) is an InputError naming a `what` key."""
    if not (isinstance(key, str) and _ID_KEY.fullmatch(key)):
        raise InputError(f"{what} key {key!r} is not a decimal {what} id")
    return int(key)


def node_from_key(key) -> int:
    """The node v of a JSON key "v"."""
    return _id_from_key(key, "node")


def edge_from_key(key) -> int:
    """The edge e of a JSON key "e"."""
    return _id_from_key(key, "edge")


def half_edge_from_key(key) -> tuple[int, int]:
    """The half-edge (v, e) of a JSON key "v:e"; anything else is an InputError."""
    match = _HALF_EDGE_KEY.fullmatch(key) if isinstance(key, str) else None
    if match is None:
        raise InputError(f'half-edge key {key!r} is not of the form "v:e"')
    return int(match[1]), int(match[2])


def _labels_from_json(data: Mapping, from_key: Callable, what: str) -> dict:
    """{from_key(key): label} of a JSON object of labels keyed by node or
    half-edge (`what`).  Two keys that name one item, such as "2" and "02",
    are an InputError, and a malformed label's error names its key."""
    out: dict = {}
    key_of: dict = {}
    for key, lab in data.items():
        item = from_key(key)
        if item in key_of:
            raise InputError(f"{what} keys {key_of[item]!r} and {key!r} name one {what}")
        key_of[item] = key
        with json_decoding(f"{what} {key!r} label"):
            out[item] = _label_from_json(lab)
    return out


def graph_from_json(data: Mapping) -> Graph:
    with json_decoding("graph"):
        n = data["n"]
        edges = [tuple(e) for e in data["edges"]]
        if not _is_json_int(n) or not all(
            len(e) == 2 and all(map(_is_json_int, e)) for e in edges
        ):
            raise InputError('graph JSON "n" and edge endpoints must be integers')
        return make_graph(
            n,
            edges,
            multi=bool(data.get("multi", False)),
            adjacency_order=data.get("adjacency_order"),
        )


def labeled_graph_from_json(data: Mapping) -> LabeledGraph:
    g = graph_from_json(data)
    with json_decoding("labeled graph"):
        raw_nodes = data.get("node_labels") or [None] * g.n
        nl = {v: _label_from_json(lab) for v, lab in enumerate(raw_nodes) if lab is not None}
        hl = _labels_from_json(data.get("half_edge_labels") or {}, half_edge_from_key, "half-edge")
        return label_graph(g, nl, hl)


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rational_to_json(x) -> str:
    """The JSON form of an exact rational: the string "a/b" in lowest terms."""
    return f"{x.numerator}/{x.denominator}"


def rational_from_json(raw) -> Fraction:
    """Decode a JSON integer or an "a" / "a/b" string; anything else is an
    InputError (a float, a bool, a decimal string, a zero denominator)."""
    if isinstance(raw, str) and _RATIONAL.fullmatch(raw):
        try:
            return Fraction(raw)
        except ZeroDivisionError:
            raise InputError(f"rational {raw!r} has a zero denominator") from None
    if _is_json_int(raw):
        return Fraction(raw)
    raise InputError(f'expected an integer or an "a/b" string, got {raw!r}')


def rational_parts(x) -> Optional[tuple[int, int]]:
    """Numerator and positive denominator, in lowest terms, of an exact
    rational label: an int (not a bool) or a Fraction.  None for anything
    else (a float, a bool, a string, None)."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if _is_json_int(x):
        return x, 1
    return None


def common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Numerators of rationals over their least common denominator, and
    that denominator (1 for no values)."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _label_to_json(lab):
    if isinstance(lab, Fraction):
        return {"fraction": rational_to_json(lab)}
    if isinstance(lab, tuple):
        return {"tuple": [_label_to_json(x) for x in lab]}
    return lab


def _label_from_json(lab):
    """Decode a label written by `_label_to_json`.  A JSON array, or an
    object other than {"fraction": ...} or {"tuple": [...]}, is an
    InputError: labels are hashed, and a list label has no hashable form."""
    if isinstance(lab, dict):
        if lab.keys() == {"fraction"}:
            return rational_from_json(lab["fraction"])
        if lab.keys() == {"tuple"} and isinstance(lab["tuple"], list):
            return tuple(map(_label_from_json, lab["tuple"]))
    elif not isinstance(lab, list):
        return lab
    raise InputError(f'malformed label JSON {lab!r}: use {{"fraction": ...}} or {{"tuple": [...]}}')


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
