import itertools
import json
from collections.abc import Sequence
from dataclasses import replace

import pytest

from locallab.corpus import all_connected_graphs
from locallab.graphs import (
    INFINITY,
    CenteredGraph,
    InputError,
    View,
    canonical_key,
    cycle_graph,
    distance,
    distances_from,
    extract_view,
    graph_from_json,
    graph_to_json,
    label_graph,
    labeled_graph_from_json,
    labeled_graph_to_json,
    make_graph,
    neighborhood,
    path_graph,
    rational_from_json,
    rational_to_json,
    star_graph,
    to_dot,
    view_isomorphisms,
    views_isomorphic,
)
from locallab.lcl import centered_ball
from locallab.outcomes import SlocalContext


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
    assert views_isomorphic(v1, v2) is not None

    star = label_graph(star_graph(3))
    v3 = extract_view(star, [0], 1)
    assert views_isomorphic(v1, v3) is None

    c4 = label_graph(cycle_graph(4))
    c5 = label_graph(cycle_graph(5))
    phi = views_isomorphic(extract_view(c4, [0], 1), extract_view(c5, [0], 1))
    assert phi is not None and phi[0] == 0


def test_views_isomorphic_is_equivalence():
    graphs = [cycle_graph(5), path_graph(4), star_graph(3)]
    for g in graphs:
        lg = label_graph(g)
        for v in range(g.n):
            view = extract_view(lg, [v], 1)
            phi = views_isomorphic(view, view)
            assert phi is not None
    # symmetry: a found map inverts to a valid map the other way
    a = extract_view(label_graph(cycle_graph(6)), [0], 2)
    b = extract_view(label_graph(cycle_graph(6)), [3], 2)
    phi = views_isomorphic(a, b)
    assert phi is not None
    inv = {u: v for v, u in phi.items()}
    assert inv in view_isomorphisms(b, a, find_all=True)


def test_views_respect_labels():
    g = path_graph(3)
    red = label_graph(g, node_labels={0: "r", 1: "r", 2: "r"})
    blue = label_graph(g, node_labels={0: "b", 1: "b", 2: "b"})
    assert views_isomorphic(extract_view(red, [1], 1), extract_view(blue, [1], 1)) is None

    # half-edge labels matter too
    ha = label_graph(g, half_edge_labels={(1, 0): "x", (1, 1): "x"})
    hb = label_graph(g, half_edge_labels={(1, 0): "x", (1, 1): "y"})
    assert views_isomorphic(extract_view(ha, [1], 1), extract_view(ha, [1], 1)) is not None
    assert views_isomorphic(extract_view(ha, [1], 1), extract_view(hb, [1], 1)) is None


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


def test_dot_export():
    lg = label_graph(path_graph(2), node_labels={0: "A", 1: "B"}, half_edge_labels={(0, 0): "t"})
    dot = to_dot(lg)
    assert "0|A" in dot and 'taillabel="t"' in dot and "0 -- 1" in dot


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
