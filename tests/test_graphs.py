import itertools
import json
import random
import time
import timeit
from collections.abc import Sequence
from dataclasses import replace
from fractions import Fraction

import pytest

from locallab.corpus import all_connected_graphs
from locallab.graphs import (
    INFINITY,
    CenteredGraph,
    InputError,
    View,
    _label_from_json,
    _label_to_json,
    ball_distances,
    ball_keys,
    bare_canonical_form,
    bridges,
    centered_isomorphism,
    centered_key,
    connected_components,
    cycle_graph,
    distance,
    distances_from,
    extract_view,
    graph_from_json,
    graph_to_json,
    half_edge_from_key,
    induced_labeled_subgraph,
    json_decoding,
    label_graph,
    labeled_graph_from_json,
    labeled_graph_to_json,
    make_graph,
    neighborhood,
    node_from_key,
    path_graph,
    rational_from_json,
    rational_to_json,
    star_graph,
    to_dot,
    view_isomorphisms,
    view_key,
)
from locallab.lcl import centered_ball
from locallab.outcomes import (
    LocalAlgorithm,
    NodeOutput,
    SlocalContext,
    run_local,
    run_rand_local,
    verify_non_signaling,
)


def test_distance_examples():
    g = path_graph(3)
    assert distance(g, 0, 2) == 2
    assert distance(g, 1, 1) == 0
    two_edges = make_graph(4, [(0, 1), (2, 3)])
    assert distance(two_edges, 0, 3) == INFINITY


def test_distance_unknown_node():
    with pytest.raises(InputError):
        distance(path_graph(2), 0, 5)


def test_neighborhood_examples():
    assert neighborhood(path_graph(5), [2], 1) == frozenset({1, 2, 3})
    g = cycle_graph(6)
    assert neighborhood(g, range(6), 0) == frozenset(range(6))
    assert neighborhood(g, [0], 2) == frozenset({4, 5, 0, 1, 2})


def test_neighborhood_expansion_equals_bfs():
    # repeated 1-step expansion must agree with the BFS distances
    for g in all_connected_graphs(5):
        for t in range(4):
            direct = neighborhood(g, [0], t)
            expanded = frozenset({0})
            for _ in range(t):
                grown = set(expanded)
                for v in expanded:
                    grown.update(g.neighbors(v))
                expanded = frozenset(grown)
            assert direct == expanded


def test_construction_validation():
    with pytest.raises(InputError):
        make_graph(2, [(0, 0)])  # self-loop
    with pytest.raises(InputError):
        make_graph(2, [(0, 1), (1, 0)])  # parallel without multi flag
    make_graph(2, [(0, 1), (1, 0)], multi=True)
    with pytest.raises(InputError):
        make_graph(2, [(0, 3)])
    with pytest.raises(InputError):
        make_graph(3, [(0, 1)], adjacency_order=[[0], [], [0]])


def test_extract_view_examples():
    lg = label_graph(path_graph(5))
    view = extract_view(lg, [2], 1)
    assert view.node_set == frozenset({1, 2, 3})
    assert len(view.edge_set) == 2
    zero = extract_view(lg, [2], 0)
    assert zero.node_set == frozenset({2}) and not zero.edge_set
    c4 = label_graph(cycle_graph(4))
    full = extract_view(c4, [0], 2)
    assert full.node_set == frozenset(range(4)) and len(full.edge_set) == 4


def test_extract_view_empty_anchor():
    with pytest.raises(InputError):
        extract_view(label_graph(path_graph(3)), [], 1)


def test_view_keeps_port_labels_at_radius_zero():
    g = path_graph(2)
    lg = label_graph(g, half_edge_labels={(0, 0): "a", (1, 0): "b"})
    view = extract_view(lg, [0], 0)
    assert view.ports[0] == (("a", None),)


def test_view_monotone_in_radius():
    for g in all_connected_graphs(5):
        lg = label_graph(g)
        for t in range(3):
            small = extract_view(lg, [0], t)
            large = extract_view(lg, [0], t + 1)
            assert small.node_set <= large.node_set
            assert small.edge_set <= large.edge_set


def test_views_isomorphic_examples():
    p7 = label_graph(path_graph(7))
    v1 = extract_view(p7, [3], 1)
    p9 = label_graph(path_graph(9))
    v2 = extract_view(p9, [4], 1)
    assert view_isomorphisms(v1, v2) != []

    star = label_graph(star_graph(3))
    v3 = extract_view(star, [0], 1)
    assert view_isomorphisms(v1, v3) == []

    c4 = label_graph(cycle_graph(4))
    c5 = label_graph(cycle_graph(5))
    isos = view_isomorphisms(extract_view(c4, [0], 1), extract_view(c5, [0], 1))
    assert isos != [] and isos[0][0] == 0


def test_views_isomorphic_is_equivalence():
    graphs = [cycle_graph(5), path_graph(4), star_graph(3)]
    for g in graphs:
        lg = label_graph(g)
        for v in range(g.n):
            view = extract_view(lg, [v], 1)
            assert view_isomorphisms(view, view) != []
    # symmetry: a found map inverts to a valid map the other way
    a = extract_view(label_graph(cycle_graph(6)), [0], 2)
    b = extract_view(label_graph(cycle_graph(6)), [3], 2)
    isos = view_isomorphisms(a, b)
    assert isos != []
    inv = {u: v for v, u in isos[0].items()}
    assert inv in view_isomorphisms(b, a)


def test_views_respect_labels():
    g = path_graph(3)
    red = label_graph(g, node_labels={0: "r", 1: "r", 2: "r"})
    blue = label_graph(g, node_labels={0: "b", 1: "b", 2: "b"})
    assert view_isomorphisms(extract_view(red, [1], 1), extract_view(blue, [1], 1)) == []

    # half-edge labels matter too
    ha = label_graph(g, half_edge_labels={(1, 0): "x", (1, 1): "x"})
    hb = label_graph(g, half_edge_labels={(1, 0): "x", (1, 1): "y"})
    assert view_isomorphisms(extract_view(ha, [1], 1), extract_view(ha, [1], 1)) != []
    assert view_isomorphisms(extract_view(ha, [1], 1), extract_view(hb, [1], 1)) == []


def test_view_key_needs_a_single_anchor():
    view = extract_view(label_graph(path_graph(4)), [0, 3], 1)
    with pytest.raises(InputError, match="single node"):
        view_key(view)


def test_boundary_edge_dropped_when_both_ends_at_distance_t():
    # C5 from one anchor at radius 2: every node is reached, but the edge whose
    # endpoints both sit at distance exactly 2 is invisible
    c5 = label_graph(cycle_graph(5))
    view = extract_view(c5, [0], 2)
    assert view.node_set == frozenset(range(5))
    assert len(view.edge_set) == 4
    far_edge = next(
        e for e, (u, v) in enumerate(c5.graph.edge_list) if {u, v} == {2, 3}
    )
    assert far_edge not in view.edge_set


def test_graph_json_roundtrip():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], adjacency_order=[[3, 0], [0, 1], [1, 2], [2, 3]])
    lg = label_graph(g, node_labels={0: "x"}, half_edge_labels={(1, 0): "h"})
    data = labeled_graph_to_json(lg)
    back = labeled_graph_from_json(json.loads(json.dumps(data)))
    assert back == lg
    assert graph_from_json(graph_to_json(g)) == g


def test_rational_codec_is_exact_and_strict():
    from fractions import Fraction

    for x in (Fraction(0), Fraction(7), Fraction(-3, 4), Fraction(10**30 + 1, 3)):
        text = rational_to_json(x)
        assert text == f"{x.numerator}/{x.denominator}"
        assert rational_from_json(text) == x
    assert rational_from_json(5) == 5 and rational_from_json("-2") == -2
    for bad in (0.5, 1.0, True, None, "0.5", "1e3", " 1/2", "1/0", "a/b", [1, 2]):
        with pytest.raises(InputError):
            rational_from_json(bad)
    fraction_label = labeled_graph_to_json(label_graph(path_graph(2), node_labels={0: Fraction(1, 3)}))
    assert fraction_label["node_labels"][0] == {"fraction": "1/3"}
    fraction_label["node_labels"][0] = {"fraction": 0.25}
    with pytest.raises(InputError):
        labeled_graph_from_json(fraction_label)


def test_label_codec_rejects_arrays_and_unknown_objects():
    for lab in ("x", 3, None, Fraction(-1, 3), ("a", (Fraction(2), "b")), ()):
        assert _label_from_json(json.loads(json.dumps(_label_to_json(lab)))) == lab
    for bad in ([1], [], {"tuple": [[1]]}, {"tuple": "ab"}, {"fraction": "1/2", "x": 1}, {}, {"list": [1]}):
        with pytest.raises(InputError, match="malformed label JSON"):
            _label_from_json(bad)


def test_node_key_parser_takes_exactly_one_decimal_id():
    assert node_from_key("0") == 0
    assert node_from_key("305") == 305
    assert node_from_key("02") == 2
    for bad in ("1_0", " +2 ", "+2", "-1", "1.0", "", " 0", "0 ", "0:0", "a", "\u0661", 5, None):
        with pytest.raises(InputError, match="is not a decimal node id"):
            node_from_key(bad)


def test_half_edge_key_parser_takes_exactly_two_decimal_ids():
    assert half_edge_from_key("0:0") == (0, 0)
    assert half_edge_from_key("12:305") == (12, 305)
    for bad in ("0:0:7", "0", ":", "0:", "-1:0", " 0:1", "0:1 ", "1_0:2", "a:b", "\u0661:0", 5, None):
        with pytest.raises(InputError, match="is not of the form"):
            half_edge_from_key(bad)
    data = labeled_graph_to_json(label_graph(path_graph(2), half_edge_labels={(0, 0): "t"}))
    data["half_edge_labels"] = {"0:0:7": "t"}
    with pytest.raises(InputError, match="half-edge key '0:0:7'.*; in labeled graph JSON"):
        labeled_graph_from_json(data)


def test_json_decoding_names_every_enclosing_document():
    with pytest.raises(InputError) as err:
        with json_decoding("outcome"):
            with json_decoding("labeling"):
                _label_from_json([1])
    message = str(err.value)
    assert message.startswith("malformed label JSON [1]: use ")
    assert message.endswith("; in labeling JSON; in outcome JSON")
    with pytest.raises(InputError, match=r"^malformed labeling JSON: KeyError\('x'\); in outcome JSON$"):
        with json_decoding("outcome"):
            with json_decoding("labeling"):
                {}["x"]


def test_dot_export():
    lg = label_graph(path_graph(2), node_labels={0: "A", 1: "B"}, half_edge_labels={(0, 0): "t"})
    dot = to_dot(lg)
    assert "0|A" in dot and 'taillabel="t"' in dot and "0 -- 1" in dot


def canonical_key(g):
    return bare_canonical_form(g.neighbor_rows)[0]


def test_canonical_key_detects_isomorphism():
    g1 = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    g2 = make_graph(4, [(3, 2), (2, 0), (0, 1)])  # relabeled path
    star = star_graph(3)
    assert canonical_key(g1) == canonical_key(g2)
    assert canonical_key(g1) != canonical_key(star)


# ---------------------------------------------------------------------------
# bounded BFS against the literal whole-graph definitions


def _literal_neighborhood(g, anchor, t):
    dist = distances_from(g, anchor)
    return frozenset(v for v in range(g.n) if dist[v] <= t)


def _literal_view(lg, anchor, t):
    g = lg.graph
    dist = distances_from(g, anchor)
    keep = frozenset(v for v in range(g.n) if dist[v] <= t)
    kept = frozenset(
        e
        for e, (u, v) in enumerate(g.edge_list)
        if u in keep and v in keep and min(dist[u], dist[v]) < t
    )
    ports = {
        v: tuple(
            (lab, e if e in kept else None)
            for e, lab in zip(g.adjacency[v], lg.port_labels[v])
        )
        for v in keep
    }
    return View(
        source=lg,
        anchor=frozenset(anchor),
        radius=t,
        node_set=keep,
        edge_set=kept,
        node_label={v: lg.node_labels[v] for v in keep},
        ports=ports,
    )


def _literal_ball(lg, center, t):
    g = lg.graph
    keep = sorted(_literal_neighborhood(g, [center], t))
    node_map = {v: i for i, v in enumerate(keep)}
    edge_map = {}
    sub_edges = []
    for e, (u, v) in enumerate(g.edge_list):
        if u in node_map and v in node_map:
            edge_map[e] = len(sub_edges)
            sub_edges.append((node_map[u], node_map[v]))
    order = [[edge_map[e] for e in g.adjacency[v] if e in edge_map] for v in keep]
    sub = make_graph(len(keep), sub_edges, multi=g.multi, adjacency_order=order)
    half_edges = {
        (node_map[v], edge_map[e]): lg.half_edge_label(v, e)
        for v in keep
        for e in g.adjacency[v]
        if e in edge_map
    }
    base = label_graph(sub, {node_map[v]: lg.node_labels[v] for v in keep}, half_edges)
    return CenteredGraph(base=base, center=node_map[center])


def _distinctly_labeled(g):
    return label_graph(
        g,
        node_labels={v: f"n{v}" for v in range(g.n)},
        half_edge_labels={(v, e): (v, e) for v, e in g.half_edges()},
    )


def _assert_matches_literal(g, max_t=3):
    lg = _distinctly_labeled(g)
    singles = [(v,) for v in range(g.n)]
    pairs = list(itertools.combinations(range(g.n), 2))
    for t in range(max_t + 1):
        for anchor in singles + pairs:
            assert neighborhood(g, anchor, t) == _literal_neighborhood(g, anchor, t)
            assert extract_view(lg, anchor, t) == _literal_view(lg, anchor, t)
        for (v,) in singles:
            assert centered_ball(lg, v, t) == _literal_ball(lg, v, t)


def test_bounded_bfs_matches_literal_definition_on_corpus():
    graphs = all_connected_graphs(6)
    assert {g.n for g in graphs} == set(range(1, 7))
    for g in graphs:
        _assert_matches_literal(g)


def test_bounded_bfs_matches_literal_definition_on_multigraph():
    multi = make_graph(
        4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 0), (2, 3)], multi=True
    )
    _assert_matches_literal(multi)


def test_bounded_bfs_matches_literal_definition_on_disconnected_graph():
    parts = make_graph(8, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (6, 5)])
    _assert_matches_literal(parts, max_t=4)


# ---------------------------------------------------------------------------
# node-set forms against the same function on the induced subgraph, and that
# function against literal definitions


def _literal_components(n, edges):
    """Components of the graph on 0..n-1 with these edges, by merging."""
    comp = {v: frozenset([v]) for v in range(n)}
    for u, v in edges:
        if comp[u] is not comp[v]:
            merged = comp[u] | comp[v]
            comp.update(dict.fromkeys(merged, merged))
    return set(comp.values())


def _literal_distances(edges, source):
    """{node: distance} by relaxing every edge until nothing changes."""
    dist = {source: 0}
    changed = True
    while changed:
        changed = False
        for u, v in edges + [(v, u) for u, v in edges]:
            if u in dist and dist.get(v, INFINITY) > dist[u] + 1:
                dist[v] = dist[u] + 1
                changed = True
    return dist


def _assert_node_set_forms_match(g):
    for size in range(1, g.n + 1):
        for keep in itertools.combinations(range(g.n), size):
            sub = induced_labeled_subgraph(label_graph(g), keep)[0].graph
            # sub-edge i is the i-th host edge inside keep, sub-node i is keep[i]
            inner = [e for e, (u, v) in enumerate(g.edge_list) if u in keep and v in keep]
            edges = list(sub.edge_list)

            def host(comps):
                return [frozenset(keep[v] for v in c) for c in comps]

            literal_cut = {
                e for e in range(sub.m)
                if len(_literal_components(sub.n, edges[:e] + edges[e + 1 :]))
                > len(_literal_components(sub.n, edges))
            }
            assert connected_components(g, keep) == host(connected_components(sub))
            assert set(connected_components(sub)) == _literal_components(sub.n, edges)
            assert bridges(g, keep) == {inner[e] for e in bridges(sub)}
            assert bridges(sub) == literal_cut
            assert connected_components(g, keep, cut=bridges(g, keep)) == host(
                connected_components(sub, cut=bridges(sub))
            )
            assert set(connected_components(sub, cut=bridges(sub))) == _literal_components(
                sub.n, [edge for e, edge in enumerate(edges) if e not in literal_cut]
            )
            for s in {0, sub.n - 1}:
                literal = _literal_distances(edges, s)
                for t in (1, 2, g.n):
                    within = ball_distances(sub, [s], t)
                    assert within == {v: d for v, d in literal.items() if d <= t}


def test_node_set_forms_match_induced_subgraph_on_corpus():
    for g in all_connected_graphs(6):
        _assert_node_set_forms_match(g)


def test_node_set_forms_match_induced_subgraph_on_multigraph():
    multi = make_graph(5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (3, 4), (2, 3)], multi=True)
    _assert_node_set_forms_match(multi)


def test_node_set_forms_reject_unknown_nodes():
    g = path_graph(3)
    with pytest.raises(InputError):
        connected_components(g, [0, 3])


def test_graph_equality_ignores_neighbor_rows():
    g = make_graph(3, [(0, 1), (1, 2)])
    twin = replace(g, neighbor_rows=((), (), ()))
    assert twin == g and hash(twin) == hash(g)
    assert g.neighbors(1) == (0, 2) and g.has_edge(2, 1) and not g.has_edge(0, 2)


# ---------------------------------------------------------------------------
# work bound: a ball query reads rows of the ball only


class _CountingRows(Sequence):
    """Read-counting stand-in for a graph's per-node rows."""

    def __init__(self, rows):
        self.rows = rows
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return self.rows[i]

    def __len__(self):
        return len(self.rows)


BIG_CYCLE = 100_000


def _counting_cycle():
    plain = label_graph(cycle_graph(BIG_CYCLE))
    adjacency = _CountingRows(plain.graph.adjacency)
    neighbors = _CountingRows(plain.graph.neighbor_rows)
    graph = replace(plain.graph, adjacency=adjacency, neighbor_rows=neighbors)
    return replace(plain, graph=graph), lambda: adjacency.reads + neighbors.reads


def test_counting_rows_see_whole_graph_work():
    lg, reads = _counting_cycle()
    distances_from(lg.graph, [0])
    assert reads() >= BIG_CYCLE


@pytest.mark.parametrize(
    "query, ball_size",
    [
        (lambda lg: extract_view(lg, [0], 1), 3),
        (lambda lg: centered_ball(lg, 0, 1), 3),
        (lambda lg: SlocalContext(lg, 0, 2, {}).query(2), 5),
    ],
    ids=["extract_view", "centered_ball", "slocal_query"],
)
def test_ball_queries_read_rows_of_the_ball_only(query, ball_size):
    lg, reads = _counting_cycle()
    query(lg)
    assert 0 < reads() <= 4 * ball_size


def _rand_local_echo(locality):
    return LocalAlgorithm(
        locality=locality,
        rule=lambda view, seeds: NodeOutput(node_label=seeds[view.anchor_node()]),
        seed_alphabet=("0", "1"),
    )


@pytest.mark.parametrize(
    "enter",
    [
        lambda lg, r: extract_view(lg, [0], r),
        lambda lg, r: neighborhood(lg.graph, [0], r),
        lambda lg, r: centered_ball(lg, 0, r),
        lambda lg, r: ball_keys(lg, r),
        lambda lg, r: SlocalContext(lg, 0, 2, {}).query(r),
        lambda lg, r: run_local(
            LocalAlgorithm(locality=r, rule=lambda view: NodeOutput(node_label="a")), lg
        ),
        lambda lg, r: run_rand_local(_rand_local_echo(r), lg),
        lambda lg, r: verify_non_signaling(
            run_rand_local(_rand_local_echo(0), lg), run_rand_local(_rand_local_echo(0), lg), [0], [1], r
        ),
    ],
    ids=["extract_view", "neighborhood", "centered_ball", "ball_keys", "slocal_query",
         "run_local", "run_rand_local", "verify_non_signaling"],
)
@pytest.mark.parametrize("radius", [1.5, "1", True, -1, None])
def test_a_radius_that_is_not_a_non_negative_int_is_an_input_error(enter, radius):
    with pytest.raises(InputError, match="radius"):
        enter(label_graph(cycle_graph(5)), radius)


# ---------------------------------------------------------------------------
# the canonical-form engine and the view search against the earlier
# recursive searches, kept here as reference oracles


def reference_canonical_key(g):
    """Colour refinement, then a backtracking minimization of the adjacency
    encoding over colour-respecting orderings (factorial on regular graphs)."""
    n = g.n
    if n == 0:
        return (0, ())
    colors = [g.degree(v) for v in range(n)]
    while True:
        sig = [(colors[v], tuple(sorted(colors[u] for u in g.neighbors(v)))) for v in range(n)]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [palette[s] for s in sig]
        if new == colors:
            break
        colors = new

    def encode(perm):
        pos = {v: i for i, v in enumerate(perm)}
        return tuple(tuple(sorted(pos[u] for u in g.neighbors(v) if u in pos)) for v in perm)

    by_color = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)
    color_seq = []
    for c in sorted(by_color):
        color_seq.extend([c] * len(by_color[c]))
    best_rows = None

    def rec(perm, used):
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
            if best_rows is not None:
                pos = {w: j for j, w in enumerate(perm)}
                ok = True
                for j, w in enumerate(perm):
                    row = tuple(sorted(pos[u] for u in g.neighbors(w) if u in pos))
                    if row < best_rows[j]:
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
    return (n, tuple(best_rows))


def _reference_view_node_key(view, v):
    port_sig = tuple((lab, e is not None) for (lab, e) in view.ports[v])
    return (v in view.anchor, view.node_label[v], port_sig)


def reference_view_isomorphisms(v1, v2, find_all=False):
    """The recursive view search: nodes of v1 in BFS order from the anchors,
    candidates in v2 by node key, positional port checks."""
    if v1.radius != v2.radius:
        return []
    if len(v1.node_set) != len(v2.node_set) or len(v1.edge_set) != len(v2.edge_set):
        return []
    if len(v1.anchor) != len(v2.anchor):
        return []
    nodes1 = sorted(v1.node_set)
    key2 = {}
    for u in v2.node_set:
        key2.setdefault(_reference_view_node_key(v2, u), []).append(u)
    keys1 = sorted(map(repr, (_reference_view_node_key(v1, v) for v in nodes1)))
    keys2 = sorted(map(repr, (_reference_view_node_key(v2, u) for u in v2.node_set)))
    if keys1 != keys2:
        return []
    order = []
    seen = set()
    for s in sorted(v1.anchor) + nodes1:
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
    g1, g2 = v1.source.graph, v2.source.graph
    phi, used, found = {}, set(), []

    def compatible(v, u):
        for (lab1, e1), (lab2, e2) in zip(v1.ports[v], v2.ports[u]):
            if lab1 != lab2 or (e1 is None) != (e2 is None):
                return False
            if e1 is not None:
                w1, w2 = g1.other(e1, v), g2.other(e2, u)
                if w1 in phi:
                    if phi[w1] != w2:
                        return False
                elif w2 in used:
                    return False
        return True

    def rec(i):
        if i == len(order):
            found.append(dict(phi))
            return not find_all
        v = order[i]
        for u in key2.get(_reference_view_node_key(v1, v), []):
            if u in used or not compatible(v, u):
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


def reference_centered_isomorphism(c1, c2):
    """The recursive centered search: BFS order from the center, candidates by
    (center flag, label, degree, half-edge labels), label pairs per node pair."""
    g1, g2 = c1.base.graph, c2.base.graph
    if g1.n != g2.n or g1.m != g2.m:
        return None

    def node_key(lg, v, center):
        he = sorted(map(repr, (lg.half_edge_label(v, e) for e in lg.graph.adjacency[v])))
        return (v == center, lg.node_labels[v], lg.graph.degree(v), tuple(he))

    key2 = {}
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
    phi, used = {}, set()

    def edge_labels(lg, v, w):
        out = [(lg.half_edge_label(v, e), lg.half_edge_label(w, e)) for e, u in zip(lg.graph.adjacency[v], lg.graph.neighbor_rows[v]) if u == w]
        out.sort(key=repr)
        return out

    def compatible(v, u):
        return all(edge_labels(c1.base, v, w) == edge_labels(c2.base, u, phi[w]) for w in phi)

    def rec(i):
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


def _relabeled(g, rng):
    """An isomorphic copy of g under a random node numbering and edge order."""
    perm = rng.sample(range(g.n), g.n)
    edges = [(perm[u], perm[v]) for u, v in g.edge_list]
    rng.shuffle(edges)
    return make_graph(g.n, edges, multi=g.multi)


def _randomly_labeled(rng, g):
    return label_graph(
        g,
        node_labels={v: rng.choice("ab") for v in range(g.n)},
        half_edge_labels={(v, e): rng.choice("xy") for v, e in g.half_edges()},
    )


def _pairs_of_equal_shape(graphs):
    by_shape = {}
    for i, g in enumerate(graphs):
        by_shape.setdefault((g.n, g.m), []).append(i)
    return [pair for group in by_shape.values() for pair in itertools.combinations(group, 2)]


def test_canonical_key_equality_is_reference_isomorphism():
    rng = random.Random(5)
    graphs = list(all_connected_graphs(6))
    graphs += [_relabeled(g, rng) for g in graphs]
    new = [canonical_key(g) for g in graphs]
    ref = [reference_canonical_key(g) for g in graphs]
    pairs = _pairs_of_equal_shape(graphs)
    assert sum(ref[i] == ref[j] for i, j in pairs) == len(graphs) // 2
    for i, j in pairs:
        assert (new[i] == new[j]) == (ref[i] == ref[j]), (graphs[i].edge_list, graphs[j].edge_list)


def test_canonical_key_separates_and_survives_relabeling_on_seven_node_corpus():
    rng = random.Random(11)
    graphs = all_connected_graphs(7)
    keys = [canonical_key(g) for g in graphs]
    assert len(set(keys)) == len(graphs)
    for g, key in zip(graphs, keys):
        assert canonical_key(_relabeled(g, rng)) == key


def _random_regular(rng, n, d):
    """A uniform-ish simple d-regular graph on n nodes (pairing model)."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = {tuple(sorted(pair)) for pair in zip(stubs[::2], stubs[1::2])}
        if len(edges) == n * d // 2 and all(u != v for u, v in edges):
            return make_graph(n, sorted(edges))


REGULAR_SHAPES = [(8, 3), (10, 3), (12, 3), (10, 4), (12, 4), (14, 3)]


def test_canonical_key_survives_relabeling_of_regular_graphs():
    # colour refinement cannot split a regular graph, so these keys come from
    # individualization and from skipping branches that automorphisms repeat
    rng = random.Random(21)
    for n, d in REGULAR_SHAPES:
        for _ in range(4):
            g = _random_regular(rng, n, d)
            key = canonical_key(g)
            assert all(canonical_key(_relabeled(g, rng)) == key for _ in range(5))


def test_canonical_key_agrees_with_networkx_vf2():
    nx = pytest.importorskip("networkx")
    rng = random.Random(3)
    graphs = [g for g in all_connected_graphs(6) if g.n == 6]
    graphs += [_relabeled(g, rng) for g in graphs[::3]]
    regular = [_random_regular(rng, n, d) for n, d in REGULAR_SHAPES for _ in range(5)]
    graphs += regular + [_relabeled(g, rng) for g in regular[::2]]
    nx_graphs = [nx.Graph(list(g.edge_list)) for g in graphs]
    keys = [canonical_key(g) for g in graphs]
    for i, j in _pairs_of_equal_shape(graphs):
        assert (keys[i] == keys[j]) == nx.is_isomorphic(nx_graphs[i], nx_graphs[j])


def test_canonical_key_of_a_cycle_is_not_factorial():
    g = cycle_graph(16)
    assert min(timeit.repeat(lambda: canonical_key(g), number=1, repeat=3)) < 0.05
    assert canonical_key(g) == canonical_key(_relabeled(g, random.Random(1)))
    assert canonical_key(g) != canonical_key(make_graph(16, [(i, (i + 1) % 8 + 8 * (i // 8)) for i in range(16)]))


def _views_up_to_five_nodes(t, anchors):
    views = []
    for g in all_connected_graphs(5):
        lg = label_graph(g)
        views.extend(extract_view(lg, a, t) for a in itertools.combinations(range(g.n), anchors))
    return views


@pytest.mark.parametrize("t, anchors", [(0, 1), (1, 1), (2, 1), (0, 2), (1, 2)])
def test_view_isomorphisms_equal_reference_search(t, anchors):
    views = _views_up_to_five_nodes(t, anchors)
    if anchors == 2:
        views = views[::4]
    for a in views:
        for b in views:
            assert view_isomorphisms(a, b) == reference_view_isomorphisms(a, b, True)


def test_view_isomorphisms_equal_reference_search_on_labeled_views():
    rng = random.Random(9)
    views = []
    for g in all_connected_graphs(4):
        lg = _randomly_labeled(rng, g)
        views.extend(extract_view(lg, [v], t) for v in range(g.n) for t in (1, 2))
    for a in views:
        for b in views:
            assert view_isomorphisms(a, b) == reference_view_isomorphisms(a, b, True)


def test_long_path_view_matches_itself_without_recursion():
    view = extract_view(label_graph(path_graph(3000)), [1500], 1400)
    assert len(view.node_set) == 2801
    start = time.perf_counter()
    assert view_isomorphisms(view, view) == [{v: v for v in sorted(view.node_set)}]
    assert time.perf_counter() - start < 5


def _is_centered_isomorphism(c1, c2, phi):
    g1, g2 = c1.base.graph, c2.base.graph
    if phi[c1.center] != c2.center or sorted(phi.values()) != list(range(g2.n)):
        return False
    if any(c1.base.node_labels[v] != c2.base.node_labels[phi[v]] for v in range(g1.n)):
        return False

    def pairs(c, v, w):
        return sorted(
            (repr(c.base.half_edge_label(v, e)), repr(c.base.half_edge_label(w, e)))
            for e, u in zip(c.base.graph.adjacency[v], c.base.graph.neighbor_rows[v])
            if u == w
        )

    return all(
        pairs(c1, v, w) == pairs(c2, phi[v], phi[w]) for v in range(g1.n) for w in range(g1.n)
    )


def test_centered_isomorphism_exists_exactly_when_reference_finds_one():
    rng = random.Random(13)
    multi = make_graph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (1, 2), (0, 2)], multi=True)
    sources = [_randomly_labeled(rng, g) for g in all_connected_graphs(5) if g.n >= 3]
    sources += [_randomly_labeled(rng, _relabeled(multi, rng)) for _ in range(12)]
    balls = [centered_ball(lg, v, r) for lg in sources for v in range(lg.graph.n) for r in (1, 2)]
    found = 0
    for i, j in _pairs_of_equal_shape([b.base.graph for b in balls]):
        a, b = balls[i], balls[j]
        phi = centered_isomorphism(a, b)
        assert (phi is None) == (reference_centered_isomorphism(a, b) is None)
        assert (centered_key(a) == centered_key(b)) == (phi is not None)
        if phi is not None:
            found += 1
            assert _is_centered_isomorphism(a, b, phi)
    assert found > 50


def test_view_isomorphisms_compare_node_keys_by_equality():
    # 1 == Fraction(1) although their reprs differ; the search compares by ==
    ints = extract_view(label_graph(path_graph(3), {v: 1 for v in range(3)}), [1], 1)
    fractions = extract_view(label_graph(path_graph(3), {v: Fraction(1) for v in range(3)}), [1], 1)
    assert {0: 0, 1: 1, 2: 2} in view_isomorphisms(ints, fractions)
    assert view_isomorphisms(fractions, ints) != []


@pytest.mark.parametrize("t", [0, 1, 2])
def test_radius_t_view_isomorphism_restricts_to_a_radius_0_one(t):
    # verify_non_signaling runs no radius-0 search on the strength of this
    pairs = list(zip(_views_up_to_five_nodes(t, 1), _views_up_to_five_nodes(0, 1)))
    for a, a0 in pairs:
        for b, b0 in pairs:
            restrictions = {phi[a.anchor_node()] for phi in view_isomorphisms(a, b)}
            if restrictions:
                zero = view_isomorphisms(a0, b0)
                assert restrictions <= {phi[a0.anchor_node()] for phi in zero}
