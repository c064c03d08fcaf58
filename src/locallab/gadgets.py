"""Gadget constructions and the lift: tree-like gadgets, octopus gadgets,
proper instances, contraction, the promise-problem verifier, and outcome
pullback through the port map.

Tree-like coordinates are stored implicitly: a witness lists host node ids in
(layer, position) lexicographic order, so index 2^l - 1 + k is the node at
coordinates (l, k).  One rule, `_tree_edges`, gives the tree-like edges and
their family half-edge labels for generation, recognition, witness validation
and the family labeling.

The recognizers work on the host graph in host node ids: each takes the node
set of the component it recognizes and reads the host's neighbour rows, so
recognition builds no Graph.  Tree-like coordinates are derived, not
searched: the root and the order of layer 1 fix every deeper layer.
Witnesses try roots in ascending host id, layer 1 in ascending order first,
and number ports in the edge-id order of their connectors.

A proper instance is what the lift runs on: `make_proper_instance` states
the attachment rule once, and the recognizer and `lift_run` follow it.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .graphs import (
    CenteredGraph,
    ContractError,
    Graph,
    InputError,
    LabeledGraph,
    ball_distances,
    ball_keys,
    bridges,
    connected_components,
    graph_from_json,
    graph_to_json,
    json_decoding,
    json_int,
    label_graph,
    make_graph,
    path_graph,
    to_dot,
)
from .lcl import OK, ConstraintSet, Verdict, _keyed_constraint_set, centered_ball, fail
from .linearize import (
    BLACK,
    WHITE,
    IncidenceGraph,
    LinearizableProblem,
    encode_matching,
    greedy_matching,
    incidence_graph_from_json,
    incidence_graph_of,
    incidence_graph_to_json,
    make_incidence_graph,
    multigraph_of_incidence,
)
from .outcomes import Labeling, Outcome

BOTTOM = "⊥"
_MIXED = object()  # the label of a port gadget that is not uniform


def _tree_index(l: int, k: int) -> int:
    return (1 << l) - 1 + k


def _tree_coords(index: int) -> tuple[int, int]:
    l = (index + 1).bit_length() - 1
    return l, index + 1 - (1 << l)


def _tree_size(height: int) -> int:
    return (1 << height) - 1


def _tree_height(nodes: Sequence[int]) -> int:
    return (len(nodes) + 1).bit_length() - 1


@functools.cache
def _tree_edges(height: int) -> Mapping[tuple[int, int], tuple[str, str]]:
    """The tree-like edge rule as (l,k)-lex index pairs, listed node by node,
    each mapped to the family half-edge labels of its two ends: each node
    below the root joins its parent (l-1, k//2), labeled "chl"/"chr" by k's
    parity at the parent and "par" at the child, and each node its right
    neighbour (l, k+1), labeled "sR" at the left and "sL" at the right."""
    edges = {}
    for i in range(_tree_size(height)):
        l, k = _tree_coords(i)
        if l >= 1:
            edges[(_tree_index(l - 1, k // 2), i)] = ("chr" if k % 2 else "chl", "par")
        if k + 1 < (1 << l):
            edges[(i, i + 1)] = ("sR", "sL")
    return MappingProxyType(edges)  # cached, so shared read-only


# ---------------------------------------------------------------------------
# tree-like gadgets


@dataclass(frozen=True)
class TreeLikeGadget:
    graph: Graph
    height: int


def gen_tree_like(height: int) -> TreeLikeGadget:
    """The unique tree-like gadget of the given height; node id = 2^l - 1 + k."""
    if height < 1:
        raise InputError("height must be at least 1")
    return TreeLikeGadget(graph=make_graph(_tree_size(height), _tree_edges(height)), height=height)


def tree_like_assignments(g: Graph, nodes: Optional[Iterable[int]] = None) -> Iterator[tuple[int, ...]]:
    """All valid coordinate assignments of the subgraph of g induced by
    `nodes` (every node by default), as tuples mapping (l,k)-lex index -> node.

    No search: roots with two neighbours in the set are tried in ascending
    node id, layer 1 in ascending then descending order, and those fix every
    deeper layer.  A parent's children are its unplaced neighbours in the
    set; the right child is next to the next parent's children, the last
    parent's left child next to the previous parent's.  An assignment is
    valid when its nodes are distinct and every edge of the tree-like rule
    is present; the edge count, checked first, leaves no other edge.
    """
    order = range(g.n) if nodes is None else sorted(set(nodes))
    inside = set(order)
    n = len(order)
    if n == 0 or (n + 1) & n != 0:  # n + 1 must be a power of two
        return
    height = (n + 1).bit_length() - 1
    if n == 1:
        yield (order[0],)
        return
    rows = g.neighbor_rows
    near = {v: [u for u in rows[v] if u in inside] for v in order}
    edges = _tree_edges(height)
    if sum(map(len, near.values())) != 2 * len(edges):
        return
    for root in order:
        if len(near[root]) != 2:
            continue
        a, b = sorted(near[root])
        for first in ((a, b), (b, a)):
            assignment = [root, *first]
            placed = set(assignment)
            for l in range(2, height):
                kids = [[u for u in near[p] if u not in placed] for p in assignment[-(1 << (l - 1)) :]]
                if any(len(pair) != 2 for pair in kids):
                    break
                for k, (c, d) in enumerate(kids):
                    if k + 1 < len(kids):
                        swap = any(u in kids[k + 1] for u in near[c])
                    else:
                        swap = any(u in kids[k - 1] for u in near[d])
                    assignment += (d, c) if swap else (c, d)
                placed.update(assignment[-(1 << l) :])
            else:
                if len(placed) == n and all(g.has_edge(assignment[i], assignment[j]) for i, j in edges):
                    yield tuple(assignment)


def recognize_tree_like(g: Graph) -> Optional[dict[int, tuple[int, int]]]:
    """A coordinate map node -> (l, k) when g is tree-like, else None."""
    for assignment in tree_like_assignments(g):
        return {assignment[i]: _tree_coords(i) for i in range(len(assignment))}
    return None


# ---------------------------------------------------------------------------
# octopus gadgets


@dataclass(frozen=True)
class PortWitness:
    slot: int  # i: bottom-layer position of the head it hangs from
    copy: int  # j in {1, 2}
    height: int
    nodes: tuple[int, ...]  # host ids in (l,k)-lex order

    @property
    def root(self) -> int:
        return self.nodes[0]

    @property
    def leaf(self) -> int:
        return self.nodes[_tree_index(self.height - 1, 0)]


@dataclass(frozen=True)
class OctopusWitness:
    x: int
    eta: tuple[int, ...]
    head_nodes: tuple[int, ...]  # host ids in (l,k)-lex order
    ports: tuple[PortWitness, ...]  # sorted by (slot, copy): the left-to-right order

    def all_nodes(self) -> list[int]:
        out = list(self.head_nodes)
        for p in self.ports:
            out.extend(p.nodes)
        return out


@dataclass(frozen=True)
class OctopusGadget:
    graph: Graph
    witness: OctopusWitness


def _octopus_witness(
    x: int, eta: Sequence[int], weights: Mapping[tuple[int, int], int], first: int
) -> OctopusWitness:
    """The witness of a head of height x with eta[i] port gadgets at bottom
    slot i, of heights weights[(i, j)], numbered from node `first` on: the
    head, then each port in (slot, copy) order, each in (l,k)-lex order."""
    if x < 1:
        raise InputError("head height must be at least 1")
    slots = 1 << (x - 1)
    eta = tuple(eta)
    if len(eta) != slots:
        raise InputError(f"eta must have {slots} entries")
    if any(v not in (1, 2) for v in eta):
        raise InputError("eta entries must be 1 or 2")
    index_set = {(i, j) for i in range(slots) for j in (1, 2) if j <= eta[i]}
    if set(weights) != index_set:
        raise InputError(f"weights must be defined exactly on {sorted(index_set)}")
    head_nodes = tuple(range(first, first + _tree_size(x)))
    next_id = head_nodes[-1] + 1
    ports = []
    for i in range(slots):
        for j in range(1, eta[i] + 1):
            w = weights[(i, j)]
            if w < 1:
                raise InputError("port heights must be at least 1")
            nodes = tuple(range(next_id, next_id + _tree_size(w)))
            ports.append(PortWitness(slot=i, copy=j, height=w, nodes=nodes))
            next_id = nodes[-1] + 1
    return OctopusWitness(x=x, eta=eta, head_nodes=head_nodes, ports=tuple(ports))


def _edge_pairs(w: OctopusWitness) -> list[tuple[int, int]]:
    """The witness's edges as node pairs, in `_octopus_edges` order."""
    return [(a, b) for (a, _), (b, _) in _octopus_edges(w).values()]


def gen_octopus(x: int, eta: Sequence[int], weights: Mapping[tuple[int, int], int]) -> OctopusGadget:
    """Assemble a head of height x with one or two port gadgets per bottom node."""
    witness = _octopus_witness(x, eta, weights, 0)
    return OctopusGadget(graph=make_graph(len(witness.all_nodes()), _edge_pairs(witness)), witness=witness)


def recognize_octopus(
    g: Graph, leaf_required: frozenset[int] = frozenset(), nodes: Optional[Iterable[int]] = None
) -> Optional[OctopusWitness]:
    """Find an octopus witness of the subgraph of g induced by `nodes` (every
    node by default), or None.

    `leaf_required` nodes must come out as the (w-1, 0) leaf of their port
    gadget (they carry inter-octopus attachments in a proper instance).
    Connectors are exactly the bridges: tree-like gadgets of height >= 2 are
    two-edge-connected, so the bridge tree of the two-edge components must be
    a star with the head in the middle.  Ports are numbered in the edge-id
    order of their connectors.
    """
    cut = bridges(g, nodes)
    comps = connected_components(g, nodes, cut)
    if len(comps) < 2:
        return None
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    # the bridges are exactly the edges between two-edge components, and two
    # components share at most one: two would lie on a cycle
    links: dict[tuple[int, int], tuple[int, int]] = {}
    degree = [0] * len(comps)
    for e in sorted(cut):
        u, v = g.edge_list[e]
        a, b = sorted((comp_of[u], comp_of[v]))
        links[(a, b)] = (u, v)
        degree[a] += 1
        degree[b] += 1
    for center in range(len(comps)):
        # the bridge tree is a star iff one component touches all others
        if degree[center] == len(comps) - 1:
            witness = _try_octopus_center(g, comps, links, center, leaf_required)
            if witness is not None:
                return witness
    return None


def _try_octopus_center(
    g: Graph,
    comps: list[frozenset[int]],
    links: Mapping[tuple[int, int], tuple[int, int]],
    center: int,
    leaf_required: frozenset[int],
) -> Optional[OctopusWitness]:
    head = comps[center]
    if leaf_required & head:
        return None
    hooks: list[tuple[int, tuple[int, ...]]] = []  # (head-side node, port witness nodes)
    for (a, b), (u, v) in links.items():
        other = comps[b if a == center else a]
        port_end, head_end = (u, v) if u in other else (v, u)
        required = leaf_required & other
        chosen = next(
            (
                pa
                for pa in tree_like_assignments(g, other)
                if pa[0] == port_end and required <= {pa[_tree_index(_tree_height(pa) - 1, 0)]}
            ),
            None,
        )
        if chosen is None:
            return None
        hooks.append((head_end, chosen))

    for assignment in tree_like_assignments(g, head):
        x = _tree_height(assignment)
        slots = 1 << (x - 1)
        position = {v: _tree_coords(i) for i, v in enumerate(assignment)}
        slot_counts: dict[int, int] = {}
        ports = []
        for head_end, nodes in hooks:
            l, i = position[head_end]
            if l != x - 1:
                break
            slot_counts[i] = slot_counts.get(i, 0) + 1
            ports.append(PortWitness(slot=i, copy=slot_counts[i], height=_tree_height(nodes), nodes=nodes))
        if (
            len(ports) == len(hooks)
            and set(slot_counts) == set(range(slots))
            and all(c in (1, 2) for c in slot_counts.values())
        ):
            return OctopusWitness(
                x=x,
                eta=tuple(slot_counts[i] for i in range(slots)),
                head_nodes=assignment,
                ports=tuple(sorted(ports, key=lambda p: (p.slot, p.copy))),
            )
    return None


# ---------------------------------------------------------------------------
# proper instances

INTRA = "intra-octopus"
INTER = "inter-octopus"


@dataclass(frozen=True)
class ProperInstance:
    graph: Graph
    lam: tuple[str, ...]
    octopi: tuple[OctopusWitness, ...]
    labeling: LabeledGraph  # the family labeling placing the graph in the class

    def inters(self) -> list[int]:
        return [v for v in range(self.graph.n) if self.lam[v] == INTER]

    def port_nodes(self) -> set[int]:
        return {v for w in self.octopi for p in w.ports for v in p.nodes}


@dataclass(frozen=True)
class PortMap:
    """Bijection from the port-gadget root nodes of a proper instance's
    graph to the edges of the source incidence graph."""

    source: IncidenceGraph
    root_to_edge: tuple[tuple[int, int], ...]
    graph: Graph  # the proper instance's

    def __post_init__(self) -> None:
        m = self.source.graph.m
        roots, edges = Counter(r for r, _ in self.root_to_edge), Counter(e for _, e in self.root_to_edge)
        bad = [f"root {r} is not a node of the instance" for r in roots if not 0 <= r < self.graph.n]
        bad += [f"root {r} is named {c} times" for r, c in roots.items() if c > 1]
        bad += [f"edge {e} is not an edge of the source graph" for e in edges if not 0 <= e < m]
        bad += [f"edge {e} is named {c} times" for e, c in edges.items() if c > 1]
        bad += [f"edge {e} has no root" for e in range(m) if e not in edges]
        if bad:
            raise InputError(f"root_to_edge needs distinct instance nodes and edges 0..{m - 1} once each: {bad[0]}")


# an edge's two end nodes -> ((end, its family half-edge label), (end, label))
_FixedEdges = dict[frozenset[int], tuple[tuple[int, object], ...]]


def _octopus_edges(w: OctopusWitness) -> _FixedEdges:
    """Every edge an octopus witness fixes, keyed by its two end nodes, with
    the family half-edge label of each end: the head's tree-like edges, then
    per port its tree-like edges and its connector ("up" at the port root,
    ("hook", copy) at the head).  The witness must fit its heights and eta:
    slot i carries copies 1..eta[i] of eta[i] in {1, 2}."""
    trees = ((w.x, w.head_nodes), *((p.height, p.nodes) for p in w.ports))
    for height, nodes in trees:
        if height < 1 or len(nodes) != _tree_size(height):
            raise InputError(f"octopus witness lists {len(nodes)} nodes for a gadget of height {height}")
    slots = [(i, j) for i, c in enumerate(w.eta) for j in range(1, c + 1)]
    if (
        len(w.eta) != 1 << (w.x - 1)
        or any(c not in (1, 2) for c in w.eta)
        or sorted((p.slot, p.copy) for p in w.ports) != slots
    ):
        raise InputError(f"octopus witness ports do not give slot i copies 1..eta[i] for eta {w.eta}")
    out: _FixedEdges = {}

    def add_tree(height: int, nodes: Sequence[int]) -> None:
        for (a, b), (la, lb) in _tree_edges(height).items():
            out[frozenset((nodes[a], nodes[b]))] = ((nodes[a], la), (nodes[b], lb))

    add_tree(w.x, w.head_nodes)
    for p in w.ports:
        add_tree(p.height, p.nodes)
        hook = w.head_nodes[_tree_index(w.x - 1, p.slot)]
        out[frozenset((p.root, hook))] = ((p.root, "up"), (hook, ("hook", p.copy)))
    return out


def make_proper_instance(
    g: Graph, lam: Sequence[str], octopi: Iterable[OctopusWitness]
) -> ProperInstance:
    """Validate the witness decomposition and attach the family labeling.
    The one statement of the attachment rule: each inter node joins leaves
    of two octopi, and beside inter nodes each port leaf carries one."""
    lam = tuple(lam)
    if len(lam) != g.n or any(x not in (INTRA, INTER) for x in lam):
        raise InputError("lambda must assign intra/inter to every node")
    octopi = tuple(sorted(octopi, key=lambda w: min(w.all_nodes(), default=-1)))
    intra = {v for v in range(g.n) if lam[v] == INTRA}
    if sorted(v for w in octopi for v in w.all_nodes()) != sorted(intra):
        raise InputError("octopus witnesses must partition the intra nodes")
    comps = set(connected_components(g, intra))
    fixed: _FixedEdges = {}
    for w in octopi:
        if frozenset(w.all_nodes()) not in comps:
            raise InputError("an octopus witness is not a connected intra component")
        fixed.update(_octopus_edges(w))
    # each intra edge lies in one witness's component, so one comparison,
    # with multiplicity, checks every witness's edges against the graph
    if Counter(fixed.keys()) != Counter(frozenset((u, v)) for u, v in g.edge_list if lam[u] == lam[v] == INTRA):
        raise InputError("octopus witness edges do not match the graph")
    octopus_of_leaf = {p.leaf: i for i, w in enumerate(octopi) for p in w.ports}
    attached = Counter()
    for u, v in g.edge_list:
        if lam[u] == lam[v] == INTER:
            raise InputError(f"inter nodes {u} and {v} are adjacent")
        for a, b in ((u, v), (v, u)):
            if lam[a] == INTER:
                if b not in octopus_of_leaf:
                    raise InputError(f"inter node {a} attaches to non-leaf intra node {b}")
                attached[b] += 1
    for a in (v for v in range(g.n) if lam[v] == INTER):
        reached = {octopus_of_leaf[b] for b in g.neighbor_rows[a]}
        if g.degree(a) != 2 or len(reached) != 2:
            raise InputError(f"inter node {a} has {g.degree(a)} attachments in {len(reached)} octopi, not one in each of two")
    for b in sorted(octopus_of_leaf) if INTER in lam else ():
        if attached[b] != 1:
            raise InputError(f"port leaf {b} carries {attached[b] or 'no'} attachments; beside inter nodes it needs one")
    labeling = _family_labeling(g, lam, octopi, fixed)
    return ProperInstance(graph=g, lam=lam, octopi=octopi, labeling=labeling)


def _family_labeling(
    g: Graph,
    lam: Sequence[str],
    octopi: Sequence[OctopusWitness],
    fixed: _FixedEdges,
) -> LabeledGraph:
    """Witness data re-encoded as finite node and half-edge labels; `fixed`
    holds the witnesses' edges with their labels (`_octopus_edges`), and
    every other edge is an attachment, "in" at its inter end."""
    node_labels: dict[int, object] = {v: ("inter",) for v in range(g.n) if lam[v] == INTER}
    for w in octopi:
        for kind, height, copy, nodes in (
            ("head", w.x, 0, w.head_nodes),
            *(("port", p.height, p.copy, p.nodes) for p in w.ports),
        ):
            for idx, v in enumerate(nodes):
                l, k = _tree_coords(idx)
                node_labels[v] = (kind, copy, l % 2, k % 2, l == 0, l == height - 1, k == 0, k == (1 << l) - 1)
    he: dict[tuple[int, int], object] = {}
    for e, (u, v) in enumerate(g.edge_list):
        ends = fixed.get(frozenset((u, v)))
        if ends is None:
            ends = ((u, "in"), (v, "out")) if lam[u] == INTER else ((u, "out"), (v, "in"))
        for x, lab in ends:
            he[(x, e)] = lab
    return label_graph(g, node_labels, he)


def _ceil_log2(n: int) -> int:
    return max(1, (n - 1).bit_length()) if n >= 2 else 1


def default_port_height(n: int) -> int:
    return _ceil_log2(max(n, 2))


def gen_proper_instance(
    ig: IncidenceGraph, k: Optional[int] = None
) -> tuple[ProperInstance, PortMap]:
    """Octopus per white node, inter node per black node (joined to two whites
    by `make_proper_instance`'s rule), attachments at the left-most port
    leaves; port heights are uniform (= k)."""
    n = ig.graph.n
    if k is None:
        k = default_port_height(n)
    if k < 1:
        raise InputError("port height must be at least 1")
    g = ig.graph
    edges: list[tuple[int, int]] = []
    octopi: list[OctopusWitness] = []
    port_root_edge: list[tuple[int, int]] = []
    next_id = 0
    port_leaf_of_edge: dict[int, int] = {}  # source edge -> attachment leaf host id
    for w in ig.whites():
        if not g.degree(w) and ig.blacks():
            # the attachment rule rejects an unattached port leaf beside inter nodes
            raise InputError(f"white node {w} is isolated, so its port leaf would stay unattached")
        d_eff = max(g.degree(w), 1)
        x = max(1, (d_eff - 1).bit_length())
        slots = 1 << (x - 1)
        eta = tuple(2 if i < d_eff - slots else 1 for i in range(slots))
        weights = {(i, j): k for i in range(slots) for j in range(1, eta[i] + 1)}
        witness = _octopus_witness(x, eta, weights, next_id)
        edges.extend(_edge_pairs(witness))
        next_id += len(witness.all_nodes())
        octopi.append(witness)
        for port, e in zip(witness.ports, g.adjacency[w]):
            port_root_edge.append((port.root, e))
            port_leaf_of_edge[e] = port.leaf
    inter_of_black: dict[int, int] = {}
    for b in ig.blacks():
        inter_of_black[b] = next_id
        next_id += 1
    for e, (u, v) in enumerate(g.edge_list):
        b = u if ig.roles[u] == BLACK else v
        edges.append((port_leaf_of_edge[e], inter_of_black[b]))
    lam = [INTRA] * next_id
    for b, host in inter_of_black.items():
        lam[host] = INTER
    graph = make_graph(next_id, edges)
    pi = make_proper_instance(graph, lam, octopi)
    if n >= 3 and not (n <= graph.n <= n**3):
        raise ContractError(f"size law violated: n={n}, N={graph.n}")
    port_map = PortMap(source=ig, root_to_edge=tuple(sorted(port_root_edge)), graph=graph)
    return pi, port_map


# ---------------------------------------------------------------------------
# proper-instance recognition


def _independent_neighborhood(g: Graph, v: int) -> bool:
    nbrs = list(dict.fromkeys(g.neighbors(v)))
    for i in range(len(nbrs)):
        for j in range(i + 1, len(nbrs)):
            if g.has_edge(nbrs[i], nbrs[j]):
                return False
    return True


def recognize_proper_instance(
    g: Graph,
) -> Optional[tuple[tuple[str, ...], tuple[OctopusWitness, ...]]]:
    """Find an intra/inter bipartition and octopus decomposition, or None.

    A tree-like gadget of height >= 2 is two-edge-connected with each node in
    a triangle; inter nodes and one-node heads and ports lie in none.  So in
    any decomposition the blocks, the two-edge components of the triangle
    nodes and each node in no triangle, are its gadgets and inter nodes.
    With inter nodes, the block graph is the bipartite graph of heads and
    inter nodes with each edge subdivided by a port: from a head or an inter
    node, BFS distance mod 4 reads inter, port, head, port (or head first).
    A component's smallest block is one of these or a port, whose neighbours
    are its head and its inter node, so the readings from it and from its
    smallest neighbour, at two phases, include every decomposition of the
    component with inter nodes; each is checked once.  Without inter nodes,
    every component is an octopus on its own.  Reads g's rows in host ids.
    """
    rows = g.neighbor_rows
    loose = [v for v in range(g.n) if _independent_neighborhood(g, v)]
    # a node in no triangle is inter (two neighbours) or a one-node head or
    # port (one or two)
    if any(len(rows[v]) not in (1, 2) for v in loose):
        return None
    tri = set(range(g.n)).difference(loose)
    blocks = [*connected_components(g, tri, bridges(g, tri)), *(frozenset((v,)) for v in loose)]
    block_of = {v: b for b in blocks for v in b}
    near: dict[frozenset[int], set[frozenset[int]]] = {b: set() for b in blocks}
    for u, v in g.edge_list:
        if block_of[u] != block_of[v]:
            near[block_of[u]].add(block_of[v])
            near[block_of[v]].add(block_of[u])

    def witness(comp: frozenset[int]) -> Optional[OctopusWitness]:
        # its outside neighbours are inter, each on one leaf of comp by
        # `make_proper_instance`'s rule, so the witness follows from comp
        outside = [(v, u) for v in comp for u in rows[v] if u not in comp]
        attached = frozenset(v for v, _ in outside)
        once = len(attached) == len({u for _, u in outside}) == len(outside)
        return recognize_octopus(g, attached, comp) if once else None

    def reading(comp: frozenset[int], root: frozenset[int], phase: int) -> Optional[tuple[set[int], list]]:
        dist = {root: 0}
        queue = [root]
        for b in queue:
            for c in near[b].difference(dist):
                dist[c] = dist[b] + 1
                queue.append(c)
        # the blocks read as inter must be single nodes with two neighbours,
        # no two adjacent
        at_inter = [b for b, d in dist.items() if (d + phase) % 4 == 0]
        inter = {v for b in at_inter for v in b}
        if len(inter) > len(at_inter) or any(len(rows[u]) != 2 or inter.intersection(rows[u]) for u in inter):
            return None
        octopi = []
        for c in connected_components(g, comp - inter):
            w = witness(c)
            # every port leaf carries an attachment, so a reading with no
            # inter nodes fails here
            if w is None or any(not inter.intersection(rows[p.leaf]) for p in w.ports):
                return None
            octopi.append(w)
        return inter, octopi

    inter: set[int] = set()
    octopi: list[OctopusWitness] = []
    comps = connected_components(g)
    for comp in comps:
        first = block_of[min(comp)]
        roots = [first, *([min(near[first], key=min)] if near[first] else [])]
        found = next(filter(None, (reading(comp, r, phase) for r in roots for phase in (0, 2))), None)
        if found is None:
            # with inter nodes present, this component's port leaves would
            # stay unattached: every component must be an octopus alone
            octopi = [witness(c) for c in comps]
            if any(w is None for w in octopi):
                return None
            return (INTRA,) * g.n, tuple(octopi)
        inter.update(found[0])
        octopi.extend(found[1])
    lam = tuple(INTER if v in inter else INTRA for v in range(g.n))
    return lam, tuple(sorted(octopi, key=lambda w: min(w.all_nodes())))


# ---------------------------------------------------------------------------
# contraction and the lift


def contract_octopi(pi: ProperInstance) -> tuple[IncidenceGraph, tuple[tuple[int, int], ...]]:
    """White node per octopus, black node per inter node, one edge per
    leaf-inter attachment (octopus index, port position, returned per edge);
    white port order is the left-to-right port order."""
    g = pi.graph
    octopi = pi.octopi
    inters = pi.inters()
    black_id = {u: len(octopi) + bi for bi, u in enumerate(sorted(inters))}
    edges = []
    info = []
    for oi, w in enumerate(octopi):
        for r, p in enumerate(w.ports):
            leaf = p.leaf
            for e in g.adjacency[leaf]:
                u = g.other(e, leaf)
                if pi.lam[u] == INTER:
                    edges.append((oi, black_id[u]))
                    info.append((oi, r))
    n = len(octopi) + len(inters)
    ghat_graph = make_graph(n, edges, multi=True)
    roles = [WHITE] * len(octopi) + [BLACK] * len(inters)
    ghat = make_incidence_graph(ghat_graph, roles)
    return ghat, tuple(info)


@dataclass(frozen=True)
class LiftResult:
    labels: Mapping[int, object]  # node -> promise-problem label
    observed_ghat_locality: int
    simulated_locality: int


@functools.cache
def _shape_diameter(x: int, ports: tuple[tuple[int, int], ...]) -> int:
    """The diameter of an octopus with head height x and the sorted
    (slot, height) pairs `ports`, by BFS from every node of the octopus
    `gen_octopus` builds for that shape.  Copies of one slot hang from the
    same head node, so which copy has which height does not matter."""
    eta = [0] * (1 << (x - 1))
    weights = {}
    for slot, height in ports:
        eta[slot] += 1
        weights[(slot, eta[slot])] = height
    g = gen_octopus(x, eta, weights).graph
    return max(max(ball_distances(g, [v], g.n).values()) for v in range(g.n))


def lift_run(pi: ProperInstance, order: Optional[Sequence[int]] = None) -> LiftResult:
    """Contract to the multigraph of `make_proper_instance`'s rule, run the
    greedy matcher on it, and write the matching encoding onto the port
    gadgets, one attachment each (bottom label elsewhere)."""
    ghat, attachments = contract_octopi(pi)
    mg, whites, edge_of_black = multigraph_of_incidence(ghat)
    if order is None:
        order = list(range(mg.n))
    matching, observed = greedy_matching(mg, list(order))
    edge_labels = encode_matching(ghat, (b for b, me in edge_of_black.items() if me in matching))
    port_label = {port: edge_labels[ge] for ge, port in enumerate(attachments)}
    labels: dict[int, object] = dict.fromkeys(range(pi.graph.n), BOTTOM)
    # a port without an attachment lies in an instance with no inter nodes
    for oi, w in enumerate(pi.octopi):
        for r, p in enumerate(w.ports):
            labels.update(dict.fromkeys(p.nodes, port_label.get((oi, r), "P")))
    sim = 0
    if pi.octopi:
        # make_proper_instance checks a witness's edges against those its head
        # height and its ports' (slot, height) pairs fix, so an octopus has the
        # diameter of its shape, whatever order its ports are listed in
        shapes = {(w.x, tuple(sorted((p.slot, p.height) for p in w.ports))) for w in pi.octopi}
        stretch = max(_shape_diameter(x, ports) for x, ports in shapes) + 1
        sim = observed * stretch
    return LiftResult(
        labels=labels,
        observed_ghat_locality=observed,
        simulated_locality=sim,
    )


def verify_pi_promise(
    pi: ProperInstance, out: Mapping[int, object], problem: LinearizableProblem
) -> Verdict:
    """The five promise-problem conditions over a proper instance."""
    g = pi.graph
    for v in range(g.n):
        if v not in out:
            raise InputError(f"missing output label for node {v}")
    bad: list[tuple[int, str]] = []
    port_nodes = pi.port_nodes()
    for v in range(g.n):
        if v in port_nodes:
            if out[v] not in problem.sigma:
                bad.append((v, f"port node labeled {out[v]!r}, not in sigma"))
        elif out[v] != BOTTOM:
            bad.append((v, f"non-port node labeled {out[v]!r}, expected bottom"))
    # each port's one label, or _MIXED when it is not uniform
    sequences: list[list[object]] = []
    leaf_label: dict[int, object] = {}
    for w in pi.octopi:
        seq = []
        for p in w.ports:
            labs = {out[v] for v in p.nodes}
            if len(labs) > 1:
                bad.append((p.root, f"port gadget not uniform: {sorted(map(repr, labs))}"))
            seq.append(labs.pop() if len(labs) == 1 else _MIXED)
            leaf_label[p.leaf] = seq[-1]
        sequences.append(seq)
    for w, seq in zip(pi.octopi, sequences):
        if not seq or any(lab not in problem.sigma for lab in seq):
            continue
        head_id = w.head_nodes[0]
        if seq[0] not in problem.first:
            bad.append((head_id, f"first port label {seq[0]!r} not in F"))
        if seq[-1] not in problem.last:
            bad.append((head_id, f"last port label {seq[-1]!r} not in L"))
        for a, b in zip(seq, seq[1:]):
            if (a, b) not in problem.pairs:
                bad.append((head_id, f"consecutive port labels ({a!r},{b!r}) not allowed"))
                break
    for u in pi.inters():
        labs = []
        for v in g.neighbors(u):
            if v not in leaf_label:
                bad.append((u, f"inter node attaches to non-leaf {v}"))
            if leaf_label.get(v, _MIXED) is _MIXED:
                break
            labs.append(leaf_label[v])
        else:
            ms = tuple(sorted(labs))
            if ms and ms not in problem.black:
                bad.append((u, f"inter configuration {ms} not allowed"))
    return OK if not bad else fail(bad)


def pullback_outcome(outcome: Outcome, port_map: PortMap) -> Outcome:
    """Carry a promise-problem outcome back to the source incidence graph.

    Each support labeling sends source edge e to the label of the root of the
    port gadget mapped to e; probabilities are preserved exactly.  Each root's
    position is read once off the support's shared domain (a root it lacks is
    an InputError, as is an outcome over another graph than the port map's
    instance), and entries merge on integer weights, as in `restrict`.
    """
    if outcome.input.graph != port_map.graph:
        raise InputError("the outcome is not over the port map's proper instance")
    g = port_map.source.graph
    position = {v: i for i, (v, _) in enumerate(outcome.entries[0][0].node_items)}
    slots = []  # (source half-edge, position of its root's label)
    for root, e in port_map.root_to_edge:
        if root not in position:
            raise InputError(f"the outcome leaves port root {root} unlabeled")
        slots.extend(((v, e), position[root]) for v in g.endpoints(e))
    slots.sort()
    merged: dict[tuple, int] = {}
    for labeling, w in outcome.entries:
        items = tuple([(key, labeling.node_items[i][1]) for key, i in slots])
        merged[items] = merged.get(items, 0) + w
    entries = tuple([(Labeling(node_items=(), half_edge_items=items), w) for items, w in merged.items()])
    return Outcome(input=label_graph(g), entries=entries, denominator=outcome.denominator)


def edge_labels_of_pullback(labeling: Labeling, ig: IncidenceGraph) -> dict[int, object]:
    """Edge labeling {edge -> label} from a pulled-back support entry."""
    he = labeling.half_edges()
    out: dict[int, object] = {}
    for e in range(ig.graph.m):
        u, v = ig.graph.endpoints(e)
        a, b = he.get((u, e)), he.get((v, e))
        if a is None or a != b:
            raise InputError(f"edge {e} has inconsistent half-edge labels")
        out[e] = a
    return out


def promise_labeling_of(pi: ProperInstance, labels: Mapping[int, object]) -> Labeling:
    return Labeling.of(dict(labels), {})


# ---------------------------------------------------------------------------
# family constraint set


FAMILY_RADIUS = 2


@dataclass(frozen=True)
class _FamilyBalls:
    """One instance's labeled radius-FAMILY_RADIUS balls, one per canonical
    key in first-seen node order, with the labels and the degree bound they
    need."""

    members: tuple[tuple[tuple, CenteredGraph], ...]  # (canonical key, ball)
    node_alphabet: frozenset
    half_edge_alphabet: frozenset
    delta: int


def _instance_balls(pi: ProperInstance) -> _FamilyBalls:
    lg = pi.labeling
    members: dict[tuple, CenteredGraph] = {}  # canonical key -> first ball with it
    for v, key in enumerate(ball_keys(lg, FAMILY_RADIUS)):
        if key not in members:
            members[key] = centered_ball(lg, v, FAMILY_RADIUS)
    return _FamilyBalls(
        members=tuple(members.items()),
        node_alphabet=frozenset(lg.node_labels),
        half_edge_alphabet=frozenset(lab for _, lab in lg.half_edge_items()),
        delta=max((lg.graph.degree(v) for v in range(lg.graph.n)), default=1),
    )


@functools.cache
def _calibration_balls(k: int) -> tuple[_FamilyBalls, ...]:
    """The balls of the calibration instances at port height k: the proper
    instances of the paths on 2, 3 and 4 nodes, in that order."""
    return tuple(
        _instance_balls(gen_proper_instance(incidence_graph_of(path_graph(n)), k=k)[0])
        for n in (2, 3, 4)
    )


def family_constraint_set_for(pi: ProperInstance) -> ConstraintSet:
    """Constraint set whose calibration covers the instance's parameter ranges:
    pi's balls, then the calibration balls of its port heights in ascending
    order, keeping the first ball of each canonical key."""
    heights = sorted({p.height for w in pi.octopi for p in w.ports} or {1})
    parts = [_instance_balls(pi), *itertools.chain.from_iterable(map(_calibration_balls, heights))]
    members: dict[tuple, CenteredGraph] = {}
    node_alpha: set = set()
    he_alpha: set = set()
    delta = 1
    for part in parts:
        for key, ball in part.members:
            members.setdefault(key, ball)
        node_alpha |= part.node_alphabet
        he_alpha |= part.half_edge_alphabet
        delta = max(delta, part.delta)
    return _keyed_constraint_set(
        FAMILY_RADIUS, delta, frozenset(node_alpha), frozenset(he_alpha), members.items()
    )


# ---------------------------------------------------------------------------
# JSON and DOT


def proper_instance_to_json(pi: ProperInstance) -> dict:
    return {
        "graph": graph_to_json(pi.graph),
        "lambda": list(pi.lam),
        "octopi": [
            {
                "x": w.x,
                "eta": list(w.eta),
                "head": list(w.head_nodes),
                "ports": [
                    {"slot": p.slot, "copy": p.copy, "height": p.height, "nodes": list(p.nodes)}
                    for p in w.ports
                ],
            }
            for w in pi.octopi
        ],
    }


def proper_instance_from_json(data: Mapping) -> ProperInstance:
    with json_decoding("proper instance"):
        g = graph_from_json(data["graph"])
        octopi = [
            OctopusWitness(
                x=json_int(w["x"]),
                eta=tuple(map(json_int, w["eta"])),
                head_nodes=tuple(map(json_int, w["head"])),
                ports=tuple(
                    PortWitness(
                        slot=json_int(p["slot"]),
                        copy=json_int(p["copy"]),
                        height=json_int(p["height"]),
                        nodes=tuple(map(json_int, p["nodes"])),
                    )
                    for p in w["ports"]
                ),
            )
            for w in data["octopi"]
        ]
        return make_proper_instance(g, data["lambda"], octopi)


def port_map_to_json(pm: PortMap) -> dict:
    return {
        "source": incidence_graph_to_json(pm.source),
        "root_to_edge": [list(pair) for pair in pm.root_to_edge],
        "graph": graph_to_json(pm.graph),
    }


def port_map_from_json(data: Mapping) -> PortMap:
    """Decode a port map; `PortMap` checks its pairs."""
    with json_decoding("port map"):
        source = incidence_graph_from_json(data["source"])
        pairs = tuple((json_int(a), json_int(b)) for a, b in data["root_to_edge"])
        return PortMap(source=source, root_to_edge=pairs, graph=graph_from_json(data["graph"]))


def proper_instance_dot(pi: ProperInstance) -> str:
    heads = {v for w in pi.octopi for v in w.head_nodes}
    ports = pi.port_nodes()

    def color(v: int) -> Optional[str]:
        if v in heads:
            return "lightblue"
        if v in ports:
            return "lightgreen"
        return "orange"

    return to_dot(pi.labeling, node_color=color)
