"""Gadget constructions and the lift: tree-like gadgets, octopus gadgets,
proper instances, contraction, the promise-problem verifier, and outcome
pullback through the port map.

Tree-like coordinates are stored implicitly: a witness lists host node ids in
(layer, position) lexicographic order, so index 2^l - 1 + k is the node at
coordinates (l, k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .graphs import (
    ContractError,
    Graph,
    InputError,
    LabeledGraph,
    distances_from,
    label_graph,
    make_graph,
    two_edge_components,
)
from .lcl import OK, ConstraintSet, Verdict, centered_ball, fail, make_constraint_set
from .linearize import (
    BLACK,
    WHITE,
    IncidenceGraph,
    LinearizableProblem,
    encode_matching,
    greedy_matching,
    make_incidence_graph,
    multigraph_of_incidence,
)
from .outcomes import Labeling, Outcome, make_outcome

BOTTOM = "⊥"


def _tree_index(l: int, k: int) -> int:
    return (1 << l) - 1 + k


def _tree_coords(index: int) -> tuple[int, int]:
    l = (index + 1).bit_length() - 1
    return l, index + 1 - (1 << l)


def _tree_size(height: int) -> int:
    return (1 << height) - 1


def _tree_edge_predicate(a: tuple[int, int], b: tuple[int, int]) -> bool:
    (lu, ku), (lv, kv) = a, b
    if lu == lv and abs(ku - kv) == 1:
        return True
    if lv == lu - 1 and kv == ku // 2:
        return True
    if lu == lv - 1 and ku == kv // 2:
        return True
    return False


# ---------------------------------------------------------------------------
# tree-like gadgets


@dataclass(frozen=True)
class TreeLikeGadget:
    graph: Graph
    height: int

    def coords(self) -> dict[int, tuple[int, int]]:
        return {i: _tree_coords(i) for i in range(self.graph.n)}


def gen_tree_like(height: int) -> TreeLikeGadget:
    """The unique tree-like gadget of the given height; node id = 2^l - 1 + k."""
    if height < 1:
        raise InputError("height must be at least 1")
    n = _tree_size(height)
    edges = []
    for i in range(n):
        l, k = _tree_coords(i)
        if l >= 1:
            edges.append((_tree_index(l - 1, k // 2), i))
        if k + 1 < (1 << l):
            edges.append((i, _tree_index(l, k + 1)))
    return TreeLikeGadget(graph=make_graph(n, edges), height=height)


def tree_like_assignments(g: Graph) -> Iterator[tuple[int, ...]]:
    """All valid coordinate assignments, as tuples mapping (l,k)-lex index -> node.

    Layers are BFS levels from the root; each layer must induce a path whose
    order extends consistently (children 2k, 2k+1 under parent k), and the full
    edge predicate is verified before yielding.
    """
    n = g.n
    if n == 0 or (n + 1) & n != 0:  # n + 1 must be a power of two
        return
    height = (n + 1).bit_length() - 1
    if n == 1:
        yield (0,)
        return

    def layer_path_orders(nodes: list[int]) -> list[list[int]]:
        # orders in which `nodes` forms the induced path v0 - v1 - ... in g
        if len(nodes) == 1:
            return [nodes[:]]
        inside = set(nodes)
        deg = {v: sum(1 for u in g.neighbors(v) if u in inside) for v in nodes}
        ends = [v for v in nodes if deg[v] == 1]
        if len(ends) != 2 or any(deg[v] not in (1, 2) for v in nodes):
            return []
        orders = []
        for start in ends:
            order = [start]
            prev = None
            cur = start
            while len(order) < len(nodes):
                nxts = [u for u in g.neighbors(cur) if u in inside and u != prev and u not in order]
                if len(nxts) != 1:
                    break
                prev, cur = cur, nxts[0]
                order.append(cur)
            if len(order) == len(nodes):
                orders.append(order)
        return orders

    for root in range(n):
        dist = distances_from(g, [root])
        layers: list[list[int]] = [[] for _ in range(height)]
        ok = True
        for v in range(n):
            d = dist[v]
            if d == math.inf or d >= height:
                ok = False
                break
            layers[int(d)].append(v)
        if not ok or any(len(layers[l]) != (1 << l) for l in range(height)):
            continue

        def extend(l: int, assignment: list[int]) -> Iterator[tuple[int, ...]]:
            if l == height:
                candidate = tuple(assignment)
                if _assignment_valid(g, candidate, height):
                    yield candidate
                return
            for order in layer_path_orders(layers[l]):
                # parent consistency: node at position k must neighbor parent k//2
                good = True
                for k, v in enumerate(order):
                    parent = assignment[_tree_index(l - 1, k // 2)]
                    if not g.has_edge(v, parent):
                        good = False
                        break
                if good:
                    yield from extend(l + 1, assignment + order)

        yield from extend(1, [root])


def _assignment_valid(g: Graph, assignment: tuple[int, ...], height: int) -> bool:
    n = _tree_size(height)
    if len(assignment) != n or len(set(assignment)) != n or g.n != n:
        return False
    want = 0
    for i in range(n):
        for j in range(i + 1, n):
            if _tree_edge_predicate(_tree_coords(i), _tree_coords(j)):
                want += 1
                if not g.has_edge(assignment[i], assignment[j]):
                    return False
    return g.m == want


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


def gen_octopus(x: int, eta: Sequence[int], weights: Mapping[tuple[int, int], int]) -> OctopusGadget:
    """Assemble a head of height x with one or two port gadgets per bottom node."""
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

    edges: list[tuple[int, int]] = []
    head = gen_tree_like(x)
    head_nodes = tuple(range(head.graph.n))
    edges.extend(head.graph.edge_list)
    next_id = head.graph.n
    ports = []
    for i in range(slots):
        for j in (1, 2):
            if j > eta[i]:
                continue
            w = weights[(i, j)]
            if w < 1:
                raise InputError("port heights must be at least 1")
            tree = gen_tree_like(w)
            nodes = tuple(range(next_id, next_id + tree.graph.n))
            edges.extend((nodes[a], nodes[b]) for a, b in tree.graph.edge_list)
            next_id += tree.graph.n
            ports.append(PortWitness(slot=i, copy=j, height=w, nodes=nodes))
            edges.append((nodes[0], head_nodes[_tree_index(x - 1, i)]))
    witness = OctopusWitness(x=x, eta=eta, head_nodes=head_nodes, ports=tuple(sorted(ports, key=lambda p: (p.slot, p.copy))))
    return OctopusGadget(graph=make_graph(next_id, edges), witness=witness)


def _induced(g: Graph, nodes: Iterable[int]) -> tuple[Graph, list[int]]:
    keep = sorted(set(nodes))
    index = {v: i for i, v in enumerate(keep)}
    edges = [
        (index[u], index[v])
        for u, v in g.edge_list
        if u in index and v in index
    ]
    return make_graph(len(keep), edges, multi=g.multi), keep


def recognize_octopus(g: Graph, leaf_required: frozenset[int] = frozenset()) -> Optional[OctopusWitness]:
    """Find an octopus witness of the standalone graph g, or None.

    `leaf_required` nodes must come out as the (w-1, 0) leaf of their port
    gadget (they carry inter-octopus attachments in a proper instance).
    Connectors are exactly the bridges: tree-like gadgets of height >= 2 are
    two-edge-connected, so the two-edge-component structure must be a star
    with the head in the middle.
    """
    if g.n < 2:
        return None
    comps = two_edge_components(g)
    if len(comps) < 2:
        return None
    comp_of: dict[int, int] = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    links: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for u, v in g.edge_list:
        cu, cv = comp_of[u], comp_of[v]
        if cu != cv:
            key = (min(cu, cv), max(cu, cv))
            links.setdefault(key, []).append((u, v))
    # star check: some component is adjacent to all others, each exactly once
    degree = {ci: 0 for ci in range(len(comps))}
    for (a, b), es in links.items():
        if len(es) != 1:
            return None
        degree[a] += 1
        degree[b] += 1
    centers = [ci for ci in range(len(comps)) if degree[ci] == len(comps) - 1]
    for center in centers:
        if any(degree[ci] != 1 for ci in range(len(comps)) if ci != center):
            continue
        witness = _try_octopus_center(g, comps, links, center, leaf_required)
        if witness is not None:
            return witness
    return None


def _try_octopus_center(
    g: Graph,
    comps: list[frozenset[int]],
    links: Mapping[tuple[int, int], list[tuple[int, int]]],
    center: int,
    leaf_required: frozenset[int],
) -> Optional[OctopusWitness]:
    head_sub, head_nodes = _induced(g, comps[center])
    if leaf_required & set(head_nodes):
        return None
    hooks: list[tuple[int, int, int]] = []  # (component index, port-side node, head-side node)
    for (a, b), es in links.items():
        if center not in (a, b):
            return None
        other = b if a == center else a
        (u, v) = es[0]
        port_end, head_end = (u, v) if u in comps[other] else (v, u)
        hooks.append((other, port_end, head_end))

    for assignment in tree_like_assignments(head_sub):
        x = (len(assignment) + 1).bit_length() - 1
        slots = 1 << (x - 1)
        position = {head_nodes[assignment[i]]: _tree_coords(i) for i in range(len(assignment))}
        slot_counts: dict[int, int] = {}
        port_data: list[tuple[int, int, tuple[int, ...]]] = []
        ok = True
        for other, port_end, head_end in hooks:
            l, i = position[head_end]
            if l != x - 1:
                ok = False
                break
            port_sub, port_nodes = _induced(g, comps[other])
            required_local = frozenset(
                port_nodes.index(v) for v in leaf_required if v in comps[other]
            )
            chosen: Optional[tuple[int, ...]] = None
            for pa in tree_like_assignments(port_sub):
                w = (len(pa) + 1).bit_length() - 1
                if port_nodes[pa[0]] != port_end:
                    continue
                leaf_local = pa[_tree_index(w - 1, 0)]
                if any(r != leaf_local for r in required_local):
                    continue
                chosen = tuple(port_nodes[p] for p in pa)
                break
            if chosen is None:
                ok = False
                break
            slot_counts[i] = slot_counts.get(i, 0) + 1
            port_data.append((i, slot_counts[i], chosen))
        if not ok:
            continue
        if set(slot_counts) != set(range(slots)):
            continue
        if any(c not in (1, 2) for c in slot_counts.values()):
            continue
        ports = tuple(
            sorted(
                (
                    PortWitness(
                        slot=i,
                        copy=j,
                        height=(len(nodes) + 1).bit_length() - 1,
                        nodes=nodes,
                    )
                    for i, j, nodes in port_data
                ),
                key=lambda p: (p.slot, p.copy),
            )
        )
        head_tuple = tuple(head_nodes[assignment[i]] for i in range(len(assignment)))
        return OctopusWitness(x=x, eta=tuple(slot_counts[i] for i in range(slots)), head_nodes=head_tuple, ports=ports)
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
        out: set[int] = set()
        for w in self.octopi:
            for p in w.ports:
                out.update(p.nodes)
        return out


@dataclass(frozen=True)
class PortMap:
    """Bijection from port-gadget root nodes to edges of the source incidence graph."""

    source: IncidenceGraph
    root_to_edge: tuple[tuple[int, int], ...]

    def edge_of(self, root: int) -> int:
        return dict(self.root_to_edge)[root]


def _octopus_expected_edges(w: OctopusWitness) -> set[frozenset[int]]:
    out: set[frozenset[int]] = set()

    def tree_edges(nodes: Sequence[int]) -> None:
        for a in range(len(nodes)):
            for b in range(a + 1, len(nodes)):
                if _tree_edge_predicate(_tree_coords(a), _tree_coords(b)):
                    out.add(frozenset((nodes[a], nodes[b])))

    tree_edges(w.head_nodes)
    for p in w.ports:
        tree_edges(p.nodes)
        out.add(frozenset((p.root, w.head_nodes[_tree_index(w.x - 1, p.slot)])))
    return out


def _components_within(g: Graph, keep: set[int]) -> list[list[int]]:
    seen: set[int] = set()
    comps = []
    for s in sorted(keep):
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        stack = [s]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if u in keep and u not in seen:
                    seen.add(u)
                    comp.append(u)
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def make_proper_instance(
    g: Graph, lam: Sequence[str], octopi: Iterable[OctopusWitness]
) -> ProperInstance:
    """Validate the witness decomposition and attach the family labeling."""
    lam = tuple(lam)
    if len(lam) != g.n or any(x not in (INTRA, INTER) for x in lam):
        raise InputError("lambda must assign intra/inter to every node")
    octopi = tuple(sorted(octopi, key=lambda w: min(w.all_nodes(), default=-1)))
    intra = {v for v in range(g.n) if lam[v] == INTRA}
    covered: list[int] = []
    for w in octopi:
        covered.extend(w.all_nodes())
    if sorted(covered) != sorted(intra):
        raise InputError("octopus witnesses must partition the intra nodes")
    comps = {frozenset(c) for c in _components_within(g, intra)}
    for w in octopi:
        nodes = frozenset(w.all_nodes())
        if nodes not in comps:
            raise InputError("an octopus witness is not a connected intra component")
        expected = _octopus_expected_edges(w)
        actual = {
            frozenset((u, v))
            for u, v in g.edge_list
            if u in nodes and v in nodes
        }
        if expected != actual:
            raise InputError("octopus witness edges do not match the graph")
    for v in range(g.n):
        if lam[v] != INTER:
            continue
        for u in g.neighbors(v):
            if lam[u] == INTER:
                raise InputError(f"inter nodes {v} and {u} are adjacent")
    leaves = set()
    for w in octopi:
        for p in w.ports:
            leaves.add(p.leaf)
    for u, v in g.edge_list:
        if lam[u] == INTER and lam[v] == INTRA and v not in leaves:
            raise InputError(f"inter node {u} attaches to non-leaf intra node {v}")
        if lam[v] == INTER and lam[u] == INTRA and u not in leaves:
            raise InputError(f"inter node {v} attaches to non-leaf intra node {u}")
    labeling = _family_labeling(g, lam, octopi)
    return ProperInstance(graph=g, lam=lam, octopi=octopi, labeling=labeling)


def _family_labeling(g: Graph, lam: Sequence[str], octopi: Sequence[OctopusWitness]) -> LabeledGraph:
    """Witness data re-encoded as finite node and half-edge labels."""
    node_labels: dict[int, object] = {}
    he: dict[tuple[int, int], object] = {}
    coords: dict[int, tuple[str, int, int, int, int]] = {}  # node -> (kind, l, k, height, copy)
    for v in range(g.n):
        if lam[v] == INTER:
            node_labels[v] = ("inter",)
    for w in octopi:
        for idx, v in enumerate(w.head_nodes):
            l, k = _tree_coords(idx)
            coords[v] = ("head", l, k, w.x, 0)
        for p in w.ports:
            for idx, v in enumerate(p.nodes):
                l, k = _tree_coords(idx)
                coords[v] = ("port", l, k, p.height, p.copy)
    for v, (kind, l, k, height, copy) in coords.items():
        node_labels[v] = (
            kind,
            copy,
            l % 2,
            k % 2,
            l == 0,
            l == height - 1,
            k == 0,
            k == (1 << l) - 1,
        )
    for e, (u, v) in enumerate(g.edge_list):
        cu, cv = coords.get(u), coords.get(v)
        if cu is None and cv is None:
            raise InputError(f"edge ({u},{v}) joins two inter nodes")
        if cu is None or cv is None:
            inter_end, leaf_end = (u, v) if cu is None else (v, u)
            he[(inter_end, e)] = "in"
            he[(leaf_end, e)] = "out"
            continue
        same_gadget = cu[0] == cv[0] and cu[3] == cv[3] and cu[4] == cv[4]
        (ku_kind, lu, ku, hu, ju) = cu
        (kv_kind, lv, kv, hv, jv) = cv
        if same_gadget and lu == lv and abs(ku - kv) == 1:
            left, right = (u, v) if ku < kv else (v, u)
            he[(left, e)] = "sR"
            he[(right, e)] = "sL"
        elif same_gadget and abs(lu - lv) == 1:
            child, parent = (u, v) if lu > lv else (v, u)
            ck = cu[2] if lu > lv else cv[2]
            he[(child, e)] = "par"
            he[(parent, e)] = "chl" if ck % 2 == 0 else "chr"
        else:
            # connector: port root to head bottom node
            root_end, head_end = (u, v) if cu[0] == "port" else (v, u)
            j = coords[root_end][4]
            he[(root_end, e)] = "up"
            he[(head_end, e)] = ("hook", j)
    return label_graph(g, node_labels, he)


def _ceil_log2(n: int) -> int:
    return max(1, (n - 1).bit_length()) if n >= 2 else 1


def default_port_height(n: int) -> int:
    return _ceil_log2(max(n, 2))


def gen_proper_instance(
    ig: IncidenceGraph, k: Optional[int] = None
) -> tuple[ProperInstance, PortMap]:
    """Octopus per white node, inter node per black node, attachments at the
    left-most port leaves; port heights are uniform (= k)."""
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
        d = g.degree(w)
        d_eff = max(d, 1)
        x = max(1, (d_eff - 1).bit_length())
        slots = 1 << (x - 1)
        twos = d_eff - slots
        eta = tuple(2 if i < twos else 1 for i in range(slots))
        weights = {
            (i, j): k for i in range(slots) for j in (1, 2) if j <= eta[i]
        }
        octo = gen_octopus(x, eta, weights)
        offset = next_id
        shifted_ports = tuple(
            PortWitness(slot=p.slot, copy=p.copy, height=p.height,
                        nodes=tuple(v + offset for v in p.nodes))
            for p in octo.witness.ports
        )
        witness = OctopusWitness(
            x=octo.witness.x,
            eta=octo.witness.eta,
            head_nodes=tuple(v + offset for v in octo.witness.head_nodes),
            ports=shifted_ports,
        )
        edges.extend((u + offset, v + offset) for u, v in octo.graph.edge_list)
        next_id += octo.graph.n
        octopi.append(witness)
        for r, e in enumerate(g.adjacency[w]):
            port = witness.ports[r]
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
    port_map = PortMap(source=ig, root_to_edge=tuple(sorted(port_root_edge)))
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


def _witness_to_host(w: OctopusWitness, host: Sequence[int]) -> OctopusWitness:
    return OctopusWitness(
        x=w.x,
        eta=w.eta,
        head_nodes=tuple(host[v] for v in w.head_nodes),
        ports=tuple(
            PortWitness(slot=p.slot, copy=p.copy, height=p.height,
                        nodes=tuple(host[v] for v in p.nodes))
            for p in w.ports
        ),
    )


def _validate_inter_set(g: Graph, inter: frozenset[int]) -> Optional[tuple[OctopusWitness, ...]]:
    for v in inter:
        for u in g.neighbors(v):
            if u in inter:
                return None
    witnesses = []
    intra = set(range(g.n)) - inter
    for comp in _components_within(g, intra):
        sub, nodes = _induced(g, comp)
        index = {v: i for i, v in enumerate(nodes)}
        leaf_req = frozenset(
            index[v] for v in comp if any(u in inter for u in g.neighbors(v))
        )
        local = recognize_octopus(sub, leaf_req)
        if local is None:
            return None
        witnesses.append(_witness_to_host(local, nodes))
    if inter:
        # the definition's "if and only if": with inter nodes present, every
        # left-most port leaf must carry an attachment
        for w in witnesses:
            for p in w.ports:
                if not any(u in inter for u in g.neighbors(p.leaf)):
                    return None
    return tuple(witnesses)


def _failing_component(g: Graph, inter: frozenset[int]) -> Optional[list[int]]:
    intra = set(range(g.n)) - inter
    for comp in _components_within(g, intra):
        sub, nodes = _induced(g, comp)
        index = {v: i for i, v in enumerate(nodes)}
        leaf_req = frozenset(
            index[v] for v in comp if any(u in inter for u in g.neighbors(v))
        )
        if recognize_octopus(sub, leaf_req) is None:
            return comp
    return None


def recognize_proper_instance(
    g: Graph,
) -> Optional[tuple[tuple[str, ...], tuple[OctopusWitness, ...]]]:
    """Search for the intra/inter bipartition and octopus decomposition.

    Only nodes with an independent neighborhood can be inter.  The search
    starts from "every candidate is inter" and repairs failing intra
    components by flipping adjacent candidates to intra (smallest flip sets
    first); candidate clusters that are adjacent within the candidate set are
    enumerated outright.
    """
    import itertools

    if g.n == 0:
        return ((), ())
    candidates = [v for v in range(g.n) if _independent_neighborhood(g, v)]
    cand_set = set(candidates)
    groups = _components_within(g, cand_set)
    multi_groups = [grp for grp in groups if len(grp) > 1]
    singles = [grp[0] for grp in groups if len(grp) == 1]

    def independent_subsets(nodes: list[int]) -> list[frozenset[int]]:
        out = []
        for mask in range(1 << len(nodes)):
            subset = [nodes[i] for i in range(len(nodes)) if mask >> i & 1]
            ok = True
            for a in range(len(subset)):
                for b in range(a + 1, len(subset)):
                    if g.has_edge(subset[a], subset[b]):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append(frozenset(subset))
        out.sort(key=lambda s: -len(s))
        return out

    group_options = [independent_subsets(grp) for grp in multi_groups]

    def attempt(base_inter: frozenset[int]) -> Optional[tuple[tuple[str, ...], tuple[OctopusWitness, ...]]]:
        inter = set(base_inter)
        flippable = set(singles) & inter
        for _ in range(g.n + 1):
            comp = _failing_component(g, frozenset(inter))
            if comp is None:
                break
            frontier = sorted(
                u for u in flippable
                if any(g.has_edge(u, v) for v in comp)
            )
            fixed = False
            for size in range(1, len(frontier) + 1):
                for subset in itertools.combinations(frontier, size):
                    trial = frozenset(inter) - frozenset(subset)
                    merged = None
                    intra = set(range(g.n)) - trial
                    for c in _components_within(g, intra):
                        if comp[0] in c:
                            merged = c
                            break
                    assert merged is not None
                    sub, nodes = _induced(g, merged)
                    index = {v: i for i, v in enumerate(nodes)}
                    leaf_req = frozenset(
                        index[v] for v in merged
                        if any(u in trial for u in g.neighbors(v))
                    )
                    if recognize_octopus(sub, leaf_req) is not None:
                        inter = set(trial)
                        flippable -= set(subset)
                        fixed = True
                        break
                if fixed:
                    break
            if not fixed:
                return None
        witnesses = _validate_inter_set(g, frozenset(inter))
        if witnesses is None:
            return None
        lam = tuple(INTER if v in inter else INTRA for v in range(g.n))
        return lam, tuple(sorted(witnesses, key=lambda w: min(w.all_nodes())))

    for combo in itertools.product(*group_options) if group_options else [()]:
        base = frozenset(singles).union(*combo) if combo else frozenset(singles)
        result = attempt(base)
        if result is not None:
            return result
    return None


# ---------------------------------------------------------------------------
# contraction and the lift


@dataclass(frozen=True)
class GhatMaps:
    """Correspondence between a proper instance and its contracted graph."""

    white_count: int
    black_of_inter: tuple[tuple[int, int], ...]  # (inter host id, ghat black id)
    edge_info: tuple[tuple[int, int, int], ...]  # ghat edge -> (octopus idx, port position, host edge)

    def inter_of_black(self, black: int) -> int:
        inv = {b: u for u, b in self.black_of_inter}
        return inv[black]


def contract_octopi(pi: ProperInstance) -> tuple[IncidenceGraph, GhatMaps]:
    """White node per octopus, black node per inter node, one edge per
    leaf-inter attachment; white port order is the left-to-right port order."""
    g = pi.graph
    octopi = pi.octopi
    inters = pi.inters()
    white_of_node: dict[int, int] = {}
    for oi, w in enumerate(octopi):
        for v in w.all_nodes():
            white_of_node[v] = oi
    black_of_inter = {u: len(octopi) + bi for bi, u in enumerate(sorted(inters))}
    edges = []
    info = []
    for oi, w in enumerate(octopi):
        for r, p in enumerate(w.ports):
            leaf = p.leaf
            for e in g.adjacency[leaf]:
                u = g.other(e, leaf)
                if pi.lam[u] == INTER:
                    edges.append((oi, black_of_inter[u]))
                    info.append((oi, r, e))
    n = len(octopi) + len(inters)
    ghat_graph = make_graph(n, edges, multi=True)
    roles = [WHITE] * len(octopi) + [BLACK] * len(inters)
    ghat = make_incidence_graph(ghat_graph, roles)
    maps = GhatMaps(
        white_count=len(octopi),
        black_of_inter=tuple(sorted((u, b) for u, b in black_of_inter.items())),
        edge_info=tuple(info),
    )
    return ghat, maps


@dataclass(frozen=True)
class LiftResult:
    labels: Mapping[int, object]  # node -> promise-problem label
    ghat: IncidenceGraph
    maps: GhatMaps
    matched_blacks: frozenset[int]  # ghat black ids in the matching
    observed_ghat_locality: int
    simulated_locality: int


def _octopus_diameter(pi: ProperInstance, w: OctopusWitness) -> int:
    nodes = w.all_nodes()
    sub, _ = _induced(pi.graph, nodes)
    best = 0
    for v in range(sub.n):
        d = distances_from(sub, [v])
        best = max(best, int(max(d)))
    return best


def lift_run(pi: ProperInstance, order: Optional[Sequence[int]] = None) -> LiftResult:
    """Contract, run the greedy matcher on the contracted graph, and write the
    matching encoding onto the port gadgets (bottom label elsewhere)."""
    ghat, maps = contract_octopi(pi)
    for oi, w in enumerate(pi.octopi):
        positions = [r for (o2, r, _e) in maps.edge_info if o2 == oi]
        if len(positions) != len(set(positions)):
            raise ContractError("a port gadget carries more than one attachment")
    try:
        mg, whites, edge_of_black = multigraph_of_incidence(ghat)
    except InputError as err:
        raise ContractError(f"contracted instance is not rank-2 and loop-free: {err}") from err
    if order is None:
        order = list(range(mg.n))
    matching, observed = greedy_matching(mg, list(order))
    matched_blacks = frozenset(
        b for b, me in edge_of_black.items() if me in matching
    )
    edge_labels = encode_matching(ghat, matched_blacks)
    labels: dict[int, object] = {}
    for v in range(pi.graph.n):
        labels[v] = BOTTOM
    for oi, w in enumerate(pi.octopi):
        attached: dict[int, object] = {}
        for ge, (o2, r, _host_e) in enumerate(maps.edge_info):
            if o2 == oi:
                attached[r] = edge_labels[ge]
        mi = next((r for r, lab in attached.items() if lab == "M"), None)
        for r, p in enumerate(w.ports):
            if r in attached:
                lab = attached[r]
            elif mi is None:
                lab = "P"
            else:
                lab = "B" if r < mi else "A"
            for v in p.nodes:
                labels[v] = lab
    sim = 0
    if pi.octopi:
        stretch = max(_octopus_diameter(pi, w) for w in pi.octopi) + 1
        sim = observed * stretch
    return LiftResult(
        labels=labels,
        ghat=ghat,
        maps=maps,
        matched_blacks=matched_blacks,
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
    for w in pi.octopi:
        for p in w.ports:
            labs = {out[v] for v in p.nodes}
            if len(labs) > 1:
                bad.append((p.root, f"port gadget not uniform: {sorted(map(repr, labs))}"))
    for w in pi.octopi:
        seq = []
        ok_seq = True
        for p in w.ports:
            labs = {out[v] for v in p.nodes}
            if len(labs) != 1 or next(iter(labs)) not in problem.sigma:
                ok_seq = False
                break
            seq.append(next(iter(labs)))
        if not ok_seq or not seq:
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
    leaf_port: dict[int, PortWitness] = {}
    for w in pi.octopi:
        for p in w.ports:
            leaf_port[p.leaf] = p
    for u in pi.inters():
        labs = []
        ok_ms = True
        for v in g.neighbors(u):
            p = leaf_port.get(v)
            if p is None:
                bad.append((u, f"inter node attaches to non-leaf {v}"))
                ok_ms = False
                break
            vals = {out[x] for x in p.nodes}
            if len(vals) != 1:
                ok_ms = False
                break
            labs.append(next(iter(vals)))
        if not ok_ms:
            continue
        ms = tuple(sorted(labs))
        if ms and ms not in problem.black:
            bad.append((u, f"inter configuration {ms} not allowed"))
    return OK if not bad else fail(bad)


def pullback_outcome(outcome: Outcome, port_map: PortMap) -> Outcome:
    """Carry a promise-problem outcome back to the source incidence graph.

    Each support labeling sends source edge e to the label of the root of the
    port gadget mapped to e; probabilities are preserved exactly.
    """
    ig = port_map.source
    source_lg = label_graph(ig.graph)
    pairs = []
    for labeling, p in outcome.support:
        nodes = labeling.nodes()
        he: dict[tuple[int, int], object] = {}
        for root, e in port_map.root_to_edge:
            lab = nodes[root]
            u, v = ig.graph.endpoints(e)
            he[(u, e)] = lab
            he[(v, e)] = lab
        pairs.append((Labeling.of({}, he), p))
    return make_outcome(source_lg, pairs)


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
# family constraint set and the promise problem as an LCL


def family_constraint_set(instances: Sequence[ProperInstance], r: int = 2) -> ConstraintSet:
    """Radius-r constraint set collecting the labeled balls of the instances."""
    from .graphs import centered_isomorphism

    members = []
    node_alpha: set = set()
    he_alpha: set = set()
    delta = 1
    buckets: dict[object, list] = {}
    for pi in instances:
        lg = pi.labeling
        node_alpha.update(lg.node_labels)
        he_alpha.update(lab for _, lab in lg.half_edge_items())
        delta = max(delta, max((lg.graph.degree(v) for v in range(lg.graph.n)), default=1))
        for v in range(lg.graph.n):
            ball = centered_ball(lg, v, r)
            key = (
                ball.base.graph.n,
                ball.base.graph.m,
                ball.base.node_labels[ball.center],
                tuple(sorted(map(repr, ball.base.node_labels))),
            )
            known = buckets.setdefault(key, [])
            if not any(centered_isomorphism(ball, other) is not None for other in known):
                known.append(ball)
                members.append(ball)
    return make_constraint_set(
        r=r,
        delta=delta,
        node_alphabet=node_alpha,
        half_edge_alphabet=he_alpha,
        members=members,
    )


def _calibration_instances(k_values: Iterable[int]) -> list[ProperInstance]:
    from .graphs import path_graph
    from .linearize import incidence_graph_of

    out = []
    for k in sorted(set(k_values)):
        for source in (path_graph(2), path_graph(3), path_graph(4)):
            pi, _ = gen_proper_instance(incidence_graph_of(source), k=k)
            out.append(pi)
    return out


def family_constraint_set_for(pi: ProperInstance, r: int = 2) -> ConstraintSet:
    """Constraint set whose calibration covers the instance's parameter ranges."""
    heights = {p.height for w in pi.octopi for p in w.ports} or {1}
    return family_constraint_set([pi] + _calibration_instances(heights), r=r)


def pi_promise_lcl(
    pi: ProperInstance,
    problem: LinearizableProblem,
    admissible: Sequence[Mapping[int, object]],
):
    """The promise problem on one fixed small instance, packaged as an LCL.

    The radius is the instance's eccentricity bound so each ball determines
    the whole component; the constraint members are the balls of the supplied
    valid output labelings (product-labeled with the family labeling).
    """
    from .lcl import LclProblem, OutputLabeling

    g = pi.graph
    ecc = 0
    for v in range(g.n):
        d = distances_from(g, [v])
        finite = [int(x) for x in d if x != math.inf]
        ecc = max(ecc, max(finite, default=0))
    r = ecc
    node_out = frozenset(problem.sigma | {BOTTOM})
    he_out = frozenset({"-"})
    members = []
    seen: list = []
    from .graphs import centered_isomorphism

    node_in_alpha = frozenset(pi.labeling.node_labels)
    he_in_alpha = frozenset(lab for _, lab in pi.labeling.half_edge_items())
    for out in admissible:
        product = label_graph(
            g,
            {v: (pi.labeling.node_labels[v], out[v]) for v in range(g.n)},
            {
                (v, e): (pi.labeling.half_edge_label(v, e), "-")
                for v, e in g.half_edges()
            },
        )
        for v in range(g.n):
            ball = centered_ball(product, v, r)
            if not any(centered_isomorphism(ball, m) is not None for m in seen):
                seen.append(ball)
                members.append(ball)
    constraints = make_constraint_set(
        r=r,
        delta=max((g.degree(v) for v in range(g.n)), default=1),
        node_alphabet={(a, b) for a in node_in_alpha for b in node_out},
        half_edge_alphabet={(a, b) for a in he_in_alpha for b in he_out},
        members=members,
    )
    lcl = LclProblem(
        node_in=node_in_alpha,
        half_edge_in=he_in_alpha,
        node_out=node_out,
        half_edge_out=he_out,
        constraints=constraints,
    )

    def output_labeling(out: Mapping[int, object]) -> OutputLabeling:
        return OutputLabeling(
            node_labels=dict(out),
            half_edge_labels={(v, e): "-" for v, e in g.half_edges()},
        )

    return lcl, output_labeling


# ---------------------------------------------------------------------------
# JSON and DOT


def proper_instance_to_json(pi: ProperInstance) -> dict:
    from .graphs import graph_to_json

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
    from .graphs import graph_from_json

    g = graph_from_json(data["graph"])
    octopi = [
        OctopusWitness(
            x=int(w["x"]),
            eta=tuple(int(v) for v in w["eta"]),
            head_nodes=tuple(int(v) for v in w["head"]),
            ports=tuple(
                PortWitness(
                    slot=int(p["slot"]),
                    copy=int(p["copy"]),
                    height=int(p["height"]),
                    nodes=tuple(int(v) for v in p["nodes"]),
                )
                for p in w["ports"]
            ),
        )
        for w in data["octopi"]
    ]
    return make_proper_instance(g, data["lambda"], octopi)


def port_map_to_json(pm: PortMap) -> dict:
    from .linearize import incidence_graph_to_json

    return {
        "source": incidence_graph_to_json(pm.source),
        "root_to_edge": [list(pair) for pair in pm.root_to_edge],
    }


def port_map_from_json(data: Mapping) -> PortMap:
    from .linearize import incidence_graph_from_json

    return PortMap(
        source=incidence_graph_from_json(data["source"]),
        root_to_edge=tuple((int(a), int(b)) for a, b in data["root_to_edge"]),
    )


def proper_instance_dot(pi: ProperInstance) -> str:
    from .graphs import to_dot

    heads = {v for w in pi.octopi for v in w.head_nodes}
    ports = pi.port_nodes()

    def color(v: int) -> Optional[str]:
        if v in heads:
            return "lightblue"
        if v in ports:
            return "lightgreen"
        return "orange"

    return to_dot(pi.labeling, node_color=color)
