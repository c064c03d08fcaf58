import dataclasses
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from itertools import permutations
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import pytest

from locallab import gadgets, graphs
from locallab.cli import main
from locallab.corpus import all_connected_graphs, all_graphs, random_connected_graph
from locallab.graphs import (
    ContractError,
    Graph,
    InputError,
    ball_distances,
    bridges,
    centered_key,
    connected_components,
    distances_from,
    induced_labeled_subgraph,
    label_graph,
    make_graph,
    path_graph,
    star_graph,
)
from locallab.lcl import OK, centered_ball, check_constraints, fail, make_constraint_set
from locallab.linearize import (
    MATCHING_ENCODING,
    WHITE,
    BLACK,
    IncidenceGraph,
    decode_to_matching,
    incidence_graph_of,
    incidence_graph_to_json,
    is_maximal_matching,
    make_incidence_graph,
    make_linearizable_problem,
    multigraph_of_incidence,
    verify_linearizable,
)
from locallab.outcomes import Labeling, deterministic_outcome, make_outcome, success_probability
from locallab.gadgets import (
    BOTTOM,
    INTER,
    INTRA,
    OctopusGadget,
    OctopusWitness,
    PortMap,
    PortWitness,
    ProperInstance,
    _tree_coords,
    _tree_index,
    _tree_size,
    contract_octopi,
    default_port_height,
    edge_labels_of_pullback,
    family_constraint_set_for,
    gen_octopus,
    gen_proper_instance,
    gen_tree_like,
    lift_run,
    make_proper_instance,
    port_map_from_json,
    port_map_to_json,
    promise_labeling_of,
    proper_instance_from_json,
    proper_instance_to_json,
    pullback_outcome,
    recognize_octopus,
    recognize_proper_instance,
    recognize_tree_like,
    tree_like_assignments,
    verify_pi_promise,
)


def test_gen_tree_like_counts():
    assert (gen_tree_like(1).graph.n, gen_tree_like(1).graph.m) == (1, 0)
    assert (gen_tree_like(2).graph.n, gen_tree_like(2).graph.m) == (3, 3)
    assert (gen_tree_like(3).graph.n, gen_tree_like(3).graph.m) == (7, 10)
    with pytest.raises(InputError):
        gen_tree_like(0)


def test_recognize_tree_like():
    for height in range(1, 6):
        assert recognize_tree_like(gen_tree_like(height).graph) is not None
    assert recognize_tree_like(path_graph(4)) is None
    assert recognize_tree_like(make_graph(1, [])) == {0: (0, 0)}
    # wrong edge structure on the right node count
    seven_path = path_graph(7)
    assert recognize_tree_like(seven_path) is None


def test_gen_octopus_examples():
    o = gen_octopus(1, (1,), {(0, 1): 1})
    assert (o.graph.n, o.graph.m) == (2, 1)
    o = gen_octopus(1, (2,), {(0, 1): 1, (0, 2): 1})
    assert (o.graph.n, o.graph.m) == (3, 2)
    o = gen_octopus(2, (1, 1), {(0, 1): 1, (1, 1): 1})
    assert (o.graph.n, o.graph.m) == (5, 5)


def test_gen_octopus_validation():
    with pytest.raises(InputError):
        gen_octopus(1, (1, 1), {(0, 1): 1})  # eta length mismatch
    with pytest.raises(InputError):
        gen_octopus(1, (3,), {(0, 1): 1})
    with pytest.raises(InputError):
        gen_octopus(1, (2,), {(0, 1): 1})  # missing weight for (0, 2)


def test_recognize_octopus_roundtrip():
    for x, eta, weights in (
        (1, (1,), {(0, 1): 2}),
        (2, (2, 1), {(0, 1): 2, (0, 2): 1, (1, 1): 3}),
        (3, (1, 1, 1, 1), {(i, 1): 2 for i in range(4)}),
    ):
        gadget = gen_octopus(x, eta, weights)
        witness = recognize_octopus(gadget.graph)
        assert witness is not None
        assert witness.x == x


def test_gen_proper_instance_examples():
    ig = incidence_graph_of(path_graph(3))
    pi, pm = gen_proper_instance(ig, k=1)
    assert pi.graph.n == 9
    assert sorted(len(w.all_nodes()) for w in pi.octopi) == [2, 2, 3]
    assert len(pi.inters()) == 2

    # a black of degree 1 becomes an inter node with one attachment
    tiny = make_incidence_graph(make_graph(2, [(0, 1)]), [WHITE, BLACK])
    with pytest.raises(InputError, match="inter node 2 has 1 attachments in 1 octopi"):
        gen_proper_instance(tiny, k=1)


def test_port_map_is_a_bijection_onto_edges():
    ig = incidence_graph_of(path_graph(4))
    pi, pm = gen_proper_instance(ig, k=2)
    edges = sorted(e for _, e in pm.root_to_edge)
    assert edges == list(range(ig.graph.m))
    roots = [r for r, _ in pm.root_to_edge]
    assert len(set(roots)) == len(roots)
    # the i-th port root of each white's octopus maps to its i-th incident edge
    for white_index, w in enumerate(pi.octopi):
        white = ig.whites()[white_index]
        for r, port in enumerate(w.ports):
            if r < ig.graph.degree(white):
                assert dict(pm.root_to_edge)[port.root] == ig.graph.adjacency[white][r]


def test_size_law_default_k():
    import random

    from locallab.corpus import random_connected_graph

    rng = random.Random(2)
    for _ in range(10):
        src = random_connected_graph(rng, rng.randint(2, 6))
        ig = incidence_graph_of(src)
        pi, _ = gen_proper_instance(ig)
        assert ig.graph.n <= pi.graph.n <= ig.graph.n**3


def test_recognize_proper_instance_roundtrip_and_mutations():
    ig = incidence_graph_of(path_graph(3))
    pi, _ = gen_proper_instance(ig, k=2)
    assert recognize_proper_instance(pi.graph) is not None

    # deleting a connector breaks it
    w0 = pi.octopi[0]
    root = w0.ports[0].root
    conn = next(
        e for e in pi.graph.adjacency[root] if pi.graph.other(e, root) in w0.head_nodes
    )
    mutated = make_graph(
        pi.graph.n, [e for i, e in enumerate(pi.graph.edge_list) if i != conn]
    )
    assert recognize_proper_instance(mutated) is None

    # deleting an attachment breaks it too (a leaf loses its inter)
    leaf = w0.ports[0].leaf
    att = next(
        e for e in pi.graph.adjacency[leaf] if pi.lam[pi.graph.other(e, leaf)] == "inter-octopus"
    )
    mutated2 = make_graph(
        pi.graph.n, [e for i, e in enumerate(pi.graph.edge_list) if i != att]
    )
    assert recognize_proper_instance(mutated2) is None


def test_lone_octopus_is_proper():
    gadget = gen_octopus(2, (1, 1), {(0, 1): 1, (1, 1): 1})
    rec = recognize_proper_instance(gadget.graph)
    assert rec is not None and len(rec[1]) == 1


def test_the_empty_graph_is_a_proper_instance_without_octopi():
    empty = make_graph(0, [])
    assert recognize_proper_instance(empty) == ((), ())
    make_proper_instance(empty, (), ())


def _subdivided(k: Graph) -> tuple[Graph, list[tuple[int, int]]]:
    """The subdivision of k: node k.n + i subdivides edge i."""
    edges = [e for i, (u, v) in enumerate(k.edge_list) for e in ((u, k.n + i), (k.n + i, v))]
    return make_graph(k.n + k.m, edges), list(k.edge_list)


def test_subdivided_k4_is_not_proper():
    """Heads on a perfect matching of K4's subdividers, with K4's nodes as
    k = 1 ports hanging from them, would leave each port leaf with two
    attachments: the other two subdividers at it."""
    g, pairs = _subdivided(make_graph(4, list(itertools.combinations(range(4), 2))))
    assert recognize_proper_instance(g) is None
    assert reference_exhaustive_recognize(g) is None
    heads = [4 + pairs.index(e) for e in ((0, 1), (2, 3))]
    lam = [INTRA if v < 4 or v in heads else INTER for v in range(g.n)]
    octopi = [OctopusWitness(1, (2,), (h,), tuple(PortWitness(0, j + 1, 1, (u,)) for j, u in enumerate(pairs[h - 4]))) for h in heads]
    with pytest.raises(InputError, match="port leaf 0 carries 2 attachments"):
        make_proper_instance(g, lam, octopi)


def test_subdivided_petersen_graph_is_rejected_at_once():
    """Each of the Petersen graph's nodes has three neighbours and lies in no
    triangle, so it is neither inter nor in a one-node gadget."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    g, _ = _subdivided(make_graph(10, outer + spokes + inner))
    start = time.perf_counter()
    assert recognize_proper_instance(g) is None
    assert time.perf_counter() - start < 1


def test_recognize_55_node_k1_instance_at_once():
    """The k = 1 instance of this 6-node source has 55 nodes, 33 of them in
    no triangle with two neighbours; a search over subsets of those did not
    finish in 90 s.  It runs in a subprocess so that a regression fails by
    its timeout instead of hanging the suite."""
    code = """
import time
from locallab.gadgets import gen_proper_instance, lift_run, make_proper_instance, recognize_proper_instance
from locallab.graphs import make_graph
from locallab.linearize import incidence_graph_of
source = make_graph(6, [(0, 1), (2, 4), (1, 3), (0, 5), (3, 4), (2, 5), (1, 2), (1, 5), (2, 3), (0, 4), (0, 2)])
g = gen_proper_instance(incidence_graph_of(source), k=1)[0].graph
start = time.perf_counter()
found = recognize_proper_instance(g)
print(g.n, time.perf_counter() - start)
lift_run(make_proper_instance(g, *found))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(gadgets.__file__).resolve().parent.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30, check=True)
    n, seconds = run.stdout.split()
    assert int(n) == 55 and float(seconds) < 1


def test_recognize_every_rotation_of_the_k3_instance():
    """Recognition does not depend on node numbering: the k = 2 instance of
    K3 with its node ids rotated by 10, 18, 19 or 20 was once rejected."""
    g = gen_proper_instance(incidence_graph_of(make_graph(3, [(0, 1), (1, 2), (0, 2)])), k=2)[0].graph
    for r in range(g.n):
        rotated = make_graph(g.n, [((u + r) % g.n, (v + r) % g.n) for u, v in g.edge_list])
        found = recognize_proper_instance(rotated)
        assert found is not None, r
        lift_run(make_proper_instance(rotated, *found))


def test_make_proper_instance_validation():
    ig = incidence_graph_of(path_graph(3))
    pi, _ = gen_proper_instance(ig, k=2)
    lam = list(pi.lam)
    lam[pi.inters()[0]] = "intra-octopus"
    with pytest.raises(InputError):
        make_proper_instance(pi.graph, lam, pi.octopi)


def test_make_proper_instance_rejects_a_doubled_intra_edge():
    """The witnesses give each intra edge once, so a parallel copy of one is
    an edge no witness accounts for; the recognizer rejects the graph too."""
    pi, _ = gen_proper_instance(incidence_graph_of(path_graph(3)), k=2)
    intra_edge = next(e for e in pi.graph.edge_list if pi.lam[e[0]] == pi.lam[e[1]] == INTRA)
    g = make_graph(pi.graph.n, [*pi.graph.edge_list, intra_edge], multi=True)
    assert g.m == 21
    with pytest.raises(InputError, match="octopus witness edges do not match the graph"):
        make_proper_instance(g, pi.lam, pi.octopi)
    assert recognize_proper_instance(g) is None


def test_contract_octopi_matches_source():
    src = path_graph(3)
    ig = incidence_graph_of(src)
    pi, _ = gen_proper_instance(ig, k=2)
    ghat, maps = contract_octopi(pi)
    assert len(ghat.whites()) == 3 and len(ghat.blacks()) == 2
    mg, whites, edge_of_black = multigraph_of_incidence(ghat)
    assert mg.n == 3 and mg.m == 2
    assert sorted(sorted(mg.endpoints(e)) for e in range(mg.m)) == [[0, 1], [1, 2]]


def test_contract_preserves_parallel_edges():
    two = make_graph(2, [(0, 1), (0, 1)], multi=True)
    ig = incidence_graph_of(two)
    pi, _ = gen_proper_instance(ig, k=2)
    ghat, _ = contract_octopi(pi)
    assert ghat.graph.multi
    mg, _, _ = multigraph_of_incidence(ghat)
    assert mg.m == 2 and sorted(mg.endpoints(0)) == sorted(mg.endpoints(1))


def test_single_octopus_contracts_to_isolated_white():
    lone = make_incidence_graph(make_graph(1, []), [WHITE])
    pi, _ = gen_proper_instance(lone, k=1)
    ghat, _ = contract_octopi(pi)
    assert len(ghat.whites()) == 1 and len(ghat.blacks()) == 0 and ghat.graph.m == 0


def test_lift_run_path_instance():
    ig = incidence_graph_of(path_graph(3))
    pi, pm = gen_proper_instance(ig, k=2)
    result = lift_run(pi)
    assert verify_pi_promise(pi, result.labels, MATCHING_ENCODING).ok
    for w in pi.octopi:
        for v in w.head_nodes:
            assert result.labels[v] == BOTTOM
    for u in pi.inters():
        assert result.labels[u] == BOTTOM


def test_lift_isolated_white_gets_ptr():
    lone = make_incidence_graph(make_graph(1, []), [WHITE])
    pi, _ = gen_proper_instance(lone, k=1)
    result = lift_run(pi)
    port = pi.octopi[0].ports[0]
    assert all(result.labels[v] == "P" for v in port.nodes)
    assert verify_pi_promise(pi, result.labels, MATCHING_ENCODING).ok


def test_verify_pi_promise_violations():
    ig = incidence_graph_of(path_graph(3))
    pi, _ = gen_proper_instance(ig, k=2)
    result = lift_run(pi)
    labels = dict(result.labels)
    port = pi.octopi[0].ports[0]
    labels[port.nodes[0]] = "A" if labels[port.nodes[0]] != "A" else "B"
    verdict = verify_pi_promise(pi, labels, MATCHING_ENCODING)
    assert not verdict.ok
    assert any("uniform" in reason for _, reason in verdict.violations)

    labels2 = dict(result.labels)
    for v in port.nodes:
        labels2[v] = "A"  # "A" cannot start a white string
    verdict2 = verify_pi_promise(pi, labels2, MATCHING_ENCODING)
    assert not verdict2.ok

    labels3 = dict(result.labels)
    labels3[pi.octopi[0].head_nodes[0]] = "M"
    assert not verify_pi_promise(pi, labels3, MATCHING_ENCODING).ok


def test_lift_all_orders_small():
    src = path_graph(3)
    ig = incidence_graph_of(src)
    pi, pm = gen_proper_instance(ig, k=2)
    ghat, _ = contract_octopi(pi)
    mg, _, _ = multigraph_of_incidence(ghat)
    for order in permutations(range(mg.n)):
        result = lift_run(pi, order=list(order))
        assert verify_pi_promise(pi, result.labels, MATCHING_ENCODING).ok
        out = deterministic_outcome(label_graph(pi.graph), promise_labeling_of(pi, result.labels))
        pulled = pullback_outcome(out, pm)
        labeling = edge_labels_of_pullback(pulled.support[0][0], ig)
        assert verify_linearizable(MATCHING_ENCODING, ig, labeling).ok
        blacks = decode_to_matching(ig, labeling)
        assert is_maximal_matching(src, frozenset(b - src.n for b in blacks)).ok


def test_lift_locality_bound():
    src = path_graph(4)
    ig = incidence_graph_of(src)
    k = default_port_height(ig.graph.n)
    pi, _ = gen_proper_instance(ig)
    result = lift_run(pi)
    x_max = max(w.x for w in pi.octopi)
    greedy_locality = 2
    assert result.simulated_locality <= 8 * (k + x_max) * greedy_locality


def test_lift_stretch_is_the_largest_octopus_diameter():
    # each source gives octopi of two shapes with two diameters
    for source, k in ((path_graph(4), None), (path_graph(3), 2), (star_graph(3), 2)):
        pi, _ = gen_proper_instance(incidence_graph_of(source), k=k)
        diameters = set()
        for w in pi.octopi:
            sub = induced_labeled_subgraph(label_graph(pi.graph), w.all_nodes())[0].graph
            diameters.add(max(max(distances_from(sub, [v])) for v in range(sub.n)))
        result = lift_run(pi)
        assert len(diameters) == 2 and result.observed_ghat_locality > 0
        assert result.simulated_locality == result.observed_ghat_locality * (max(diameters) + 1)


def _octopi_with_ports_out_of_slot_order():
    """Two octopi with x = 3 and one tall port each, at slot 0 and at slot 1;
    the second lists its ports from slot 1, so both list port heights 3, 2,
    2, 2.  Returns their witnesses, their edges in one host numbering and
    the host's first free node id."""

    def octopus(tall_slot, offset):
        weights = {(i, 1): 3 if i == tall_slot else 2 for i in range(4)}
        w = gen_octopus(3, (1, 1, 1, 1), weights)
        ports = [
            PortWitness(p.slot, p.copy, p.height, tuple(v + offset for v in p.nodes))
            for p in w.witness.ports
        ]
        ports.insert(0, ports.pop(tall_slot))
        head = tuple(v + offset for v in w.witness.head_nodes)
        return w.graph, OctopusWitness(3, (1, 1, 1, 1), head, tuple(ports))

    g0, w0 = octopus(0, 0)
    g1, w1 = octopus(1, g0.n)
    edges = [*g0.edge_list, *((u + g0.n, v + g0.n) for u, v in g1.edge_list)]
    return w0, w1, edges, g0.n + g1.n


def test_lift_stretch_with_ports_listed_out_of_slot_order():
    # each port leaf of octopus 0 shares an inter node with the leaf at the
    # same position of octopus 1
    w0, w1, edges, inter = _octopi_with_ports_out_of_slot_order()
    for i, (p0, p1) in enumerate(zip(w0.ports, w1.ports)):
        edges += [(p0.leaf, inter + i), (p1.leaf, inter + i)]
    lam = [INTRA] * inter + [INTER] * len(w0.ports)
    data = proper_instance_to_json(make_proper_instance(make_graph(len(lam), edges), lam, [w0, w1]))
    pi = proper_instance_from_json(data)
    assert [[p.height for p in w.ports] for w in pi.octopi] == [[3, 2, 2, 2]] * 2
    diameters = []
    for w in pi.octopi:
        sub = induced_labeled_subgraph(label_graph(pi.graph), w.all_nodes())[0].graph
        diameters.append(max(max(distances_from(sub, [v])) for v in range(sub.n)))
    assert diameters[0] != diameters[1]
    result = lift_run(pi)
    assert result.observed_ghat_locality > 0
    assert result.simulated_locality == result.observed_ghat_locality * (max(diameters) + 1)


def test_make_proper_instance_rejects_an_unattached_port_leaf_beside_inter_nodes():
    """One inter node joins the first port leaves of two octopi; the other
    six port leaves carry no attachment, so `recognize_proper_instance`
    rejects the graph and `make_proper_instance` must too."""
    w0, w1, edges, inter = _octopi_with_ports_out_of_slot_order()
    edges += [(w0.ports[0].leaf, inter), (w1.ports[0].leaf, inter)]
    lam = [INTRA] * inter + [INTER]
    g = make_graph(inter + 1, edges)
    assert recognize_proper_instance(g) is None
    with pytest.raises(InputError, match=f"port leaf {w0.ports[1].leaf} carries no attachment"):
        make_proper_instance(g, lam, [w0, w1])


def test_lift_suite_fails_on_a_crash_in_the_pullback(monkeypatch):
    """Only InputError, the failure edge_labels_of_pullback documents, reads
    as an invalid labeling in the mass check; any other exception fails it."""
    from locallab import suites

    def crash(labeling, ig):
        raise RuntimeError("planted crash")

    monkeypatch.setattr(suites, "edge_labels_of_pullback", crash)
    checks = {c.name: c for c in suites.suite_lift(7)}
    mass = checks["success-probability-preserved-under-pullback"]
    assert mass.status == "fail"
    assert mass.detail == "exception: RuntimeError('planted crash')"


def test_pullback_mixture_linearity_and_mass():
    src = path_graph(3)
    ig = incidence_graph_of(src)
    pi, pm = gen_proper_instance(ig, k=2)
    ghat, _ = contract_octopi(pi)
    mg, _, _ = multigraph_of_incidence(ghat)
    a = lift_run(pi, order=[0, 1, 2])
    b = lift_run(pi, order=[2, 1, 0])
    mix = make_outcome(
        label_graph(pi.graph),
        [
            (promise_labeling_of(pi, a.labels), F(1, 2)),
            (promise_labeling_of(pi, b.labels), F(1, 2)),
        ],
    )
    pulled = pullback_outcome(mix, pm)
    assert pulled.probabilities_sum() == 1
    assert len(pulled.support) <= 2

    def source_ok(lab):
        return verify_linearizable(
            MATCHING_ENCODING, ig, edge_labels_of_pullback(lab, ig)
        ).ok

    assert success_probability(pulled, source_ok) == 1


def _reference_pullback_outcome(outcome, port_map):
    """Each labeling's source half-edges from a dict of its node labels,
    merged by `make_outcome`."""
    g = port_map.source.graph
    pairs = []
    for labeling, p in outcome.support:
        nodes = labeling.nodes()
        he = {(v, e): nodes[root] for root, e in port_map.root_to_edge for v in g.endpoints(e)}
        pairs.append((Labeling.of({}, he), p))
    return make_outcome(label_graph(g), pairs)


def test_pullback_outcome_matches_reference():
    rng = random.Random(3)
    for src in (path_graph(3), star_graph(3), make_graph(2, [(0, 1), (0, 1)], multi=True)):
        ig = incidence_graph_of(src)
        pi, pm = gen_proper_instance(ig, k=2)
        lg = label_graph(pi.graph)
        roots = [root for root, _ in pm.root_to_edge]
        mixes = [
            # whole lift labelings under random orders, some of them equal
            [(promise_labeling_of(pi, lift_run(pi, order=rng.sample(range(len(pi.octopi)), len(pi.octopi))).labels), F(1, 4))
             for _ in range(4)],
            # roots only, few labels, so equal pullbacks merge
            [(Labeling.of({r: rng.choice("MP") for r in roots}), F(1, 6)) for _ in range(6)],
            # every node, with labels of several types
            [(Labeling.of({v: rng.choice([0, F(1, 2), "A", None, ("t", 1)]) for v in range(pi.graph.n)}), F(1, 3))
             for _ in range(3)],
        ]
        for pairs in mixes:
            outcome = make_outcome(lg, pairs)
            got, want = pullback_outcome(outcome, pm), _reference_pullback_outcome(outcome, pm)
            assert got == want
            assert [repr(lab) for lab, _ in got.support] == [repr(lab) for lab, _ in want.support]
            assert got.denominator == outcome.denominator
            assert [F(w, got.denominator) for _, w in got.entries] == [p for _, p in want.support]


def test_pullback_outcome_unlabeled_root_is_input_error():
    """An outcome that labels only node 0 of the P3 instance leaves every
    port root unlabeled."""
    pi, pm = gen_proper_instance(incidence_graph_of(path_graph(3)), k=2)
    outcome = deterministic_outcome(label_graph(pi.graph), Labeling.of({0: "M"}))
    first_root = pm.root_to_edge[0][0]
    with pytest.raises(InputError, match=f"leaves port root {first_root} unlabeled"):
        pullback_outcome(outcome, pm)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda pairs: [(pairs[0][0], 99), *pairs[1:]], "edge 99 is not an edge of the source graph"),
        (lambda pairs: [(pairs[0][0], pairs[1][1]), *pairs[1:]], r"edge \d+ is named 2 times"),
        (lambda pairs: [(pairs[1][0], pairs[0][1]), *pairs[1:]], r"root \d+ is named 2 times"),
        (lambda pairs: pairs[:-1], "has no root"),
        (lambda pairs: [(99, pairs[0][1]), *pairs[1:]], "root 99 is not a node of the instance"),
    ],
    ids=["edge-outside", "edge-repeated", "root-repeated", "edge-missing", "root-outside"],
)
def test_port_map_built_directly_is_checked(edit, message):
    """The checks of port_map_from_json hold for a PortMap built in code, so
    pullback_outcome never meets edge 99 as an IndexError."""
    ig = incidence_graph_of(path_graph(3))
    _, pm = gen_proper_instance(ig, k=2)
    with pytest.raises(InputError, match=message):
        PortMap(source=ig, root_to_edge=tuple(edit(list(pm.root_to_edge))), graph=pm.graph)


def test_pullback_outcome_over_another_graph_is_input_error():
    """An outcome over a 60-node path labels every root of the 17-node P3
    instance's port map, but it is not an outcome over that instance."""
    _, pm = gen_proper_instance(incidence_graph_of(path_graph(3)), k=2)
    outcome = deterministic_outcome(label_graph(path_graph(60)), Labeling.of(dict.fromkeys(range(60), "M")))
    with pytest.raises(InputError, match="not over the port map's proper instance"):
        pullback_outcome(outcome, pm)
    assert port_map_from_json(json.loads(json.dumps(port_map_to_json(pm)))) == pm


@pytest.mark.parametrize("k", [None, 1, 2, 3])
def test_gen_proper_instance_rejects_an_isolated_white_beside_a_black(k):
    """Node 2's port leaf would have no attachment while an inter node
    exists, and recognize_proper_instance would reject the instance; with no
    black there is no inter node, and the instance is recognized."""
    with pytest.raises(InputError, match="white node 2 is isolated"):
        gen_proper_instance(incidence_graph_of(make_graph(3, [(0, 1)])), k)
    pi, _ = gen_proper_instance(incidence_graph_of(make_graph(2, [])), k)
    assert recognize_proper_instance(pi.graph) is not None


def test_lift_build_isolated_white_is_usage_error(tmp_path, capsys):
    path = tmp_path / "ig.json"
    path.write_text(json.dumps(incidence_graph_to_json(incidence_graph_of(make_graph(3, [(0, 1)])))))
    assert main(["lift", "build", "--incidence", str(path)]) == 2
    assert "white node 2 is isolated" in capsys.readouterr().err


def _p3_reattached(attachments: Sequence[Sequence[int]]):
    """The k = 2 instance of path_graph(3) with its two inter nodes replaced
    by one inter node per entry of `attachments`, each joined to the port
    leaves at those positions of the left-to-right leaf list."""
    pi, _ = gen_proper_instance(incidence_graph_of(path_graph(3)), k=2)
    leaves = [p.leaf for w in pi.octopi for p in w.ports]
    first = pi.graph.n - len(pi.inters())
    edges = [(u, v) for u, v in pi.graph.edge_list if max(u, v) < first]
    edges += [(leaves[i], first + a) for a, row in enumerate(attachments) for i in row]
    lam = [INTRA] * first + [INTER] * len(attachments)
    return make_graph(len(lam), edges), lam, pi.octopi


@pytest.mark.parametrize(
    "attachments, message",
    [
        ([(0, 1), (2, 3), (0, 3)], "port leaf 2 carries 2 attachments"),
        ([(0, 1), (2, 3), ()], "inter node 17 has 0 attachments in 0 octopi"),
        ([(0, 1), (2,), (3,)], "inter node 16 has 1 attachments in 1 octopi"),
        ([(0, 1, 3), (2,)], "inter node 15 has 3 attachments in 3 octopi"),
        ([(0, 3), (1, 2)], "inter node 16 has 2 attachments in 1 octopi"),
    ],
    ids=["leaf-twice", "inter-degree-0", "inter-degree-1", "inter-degree-3", "inter-in-one-octopus"],
)
def test_make_proper_instance_rejects_a_broken_attachment_rule(attachments, message):
    """Each inter node joins leaves of two octopi, and beside inter nodes
    each port leaf carries one attachment.  The P3 instance's port leaves
    2, 6, 9 and 13 (positions 0..3) lie in octopi 0, 1, 1 and 2."""
    g, lam, octopi = _p3_reattached(attachments)
    with pytest.raises(InputError, match=message):
        make_proper_instance(g, lam, octopi)
    assert recognize_proper_instance(g) is None


def test_make_proper_instance_accepts_the_rule_with_leaves_rewired():
    g, lam, octopi = _p3_reattached([(0, 2), (1, 3)])
    lift_run(make_proper_instance(g, lam, octopi))


def test_lift_run_on_a_lone_inter_node_is_usage_error(tmp_path, capsys):
    path = tmp_path / "pi.json"
    path.write_text(json.dumps({"graph": graphs.graph_to_json(make_graph(1, [])), "lambda": [INTER], "octopi": []}))
    assert main(["lift", "run", "--instance", str(path)]) == 2
    assert "inter node 0 has 0 attachments" in capsys.readouterr().err


def test_lift_build_black_of_degree_1_is_usage_error(tmp_path, capsys):
    path = tmp_path / "ig.json"
    path.write_text(json.dumps(incidence_graph_to_json(make_incidence_graph(make_graph(2, [(0, 1)]), [WHITE, BLACK]))))
    assert main(["lift", "build", "--incidence", str(path)]) == 2
    assert "inter node 2 has 1 attachments" in capsys.readouterr().err


def test_family_constraints_hold_and_break():
    src = path_graph(3)
    pi, _ = gen_proper_instance(incidence_graph_of(src), k=2)
    cs = family_constraint_set_for(pi)
    assert check_constraints(pi.labeling, cs).ok
    # keep the labels, break the structure: drop one connector edge
    w0 = pi.octopi[0]
    root = w0.ports[0].root
    conn = next(
        e for e in pi.graph.adjacency[root] if pi.graph.other(e, root) in w0.head_nodes
    )
    g = pi.graph
    broken = make_graph(g.n, [e for i, e in enumerate(g.edge_list) if i != conn])
    relabeled = label_graph(
        broken,
        {v: pi.labeling.node_labels[v] for v in range(g.n)},
        {
            (v, i2): pi.labeling.half_edge_label(v, e)
            for i2, e in enumerate([i for i in range(g.m) if i != conn])
            for v in g.endpoints(e)
        },
    )
    assert not check_constraints(relabeled, cs).ok


def test_proper_instance_json_roundtrip():
    ig = incidence_graph_of(path_graph(3))
    pi, pm = gen_proper_instance(ig, k=2)
    back = proper_instance_from_json(proper_instance_to_json(pi))
    assert back.graph == pi.graph and back.lam == pi.lam
    pm_back = port_map_from_json(port_map_to_json(pm))
    assert pm_back.root_to_edge == pm.root_to_edge


def test_recognize_all_height_one_octopus():
    # K2 is the smallest octopus: each node lies in no triangle and is a
    # one-node block, no reading with inter nodes passes, and the recognizer
    # must settle on the all-intra reading
    tiny = gen_octopus(1, (1,), {(0, 1): 1})
    rec = recognize_proper_instance(tiny.graph)
    assert rec is not None
    lam, octs = rec
    assert len(octs) == 1 and all(x == "intra-octopus" for x in lam)

    wide = gen_octopus(1, (2,), {(0, 1): 1, (0, 2): 1})
    rec2 = recognize_proper_instance(wide.graph)
    assert rec2 is not None and len(rec2[1]) == 1


def test_recognize_k1_port_instance_with_inters():
    # height-1 heads and ports put every node outside the triangles, so each
    # is a one-node block; a reading of the block graph must still find a
    # decomposition
    ig = incidence_graph_of(path_graph(2))
    pi, _ = gen_proper_instance(ig, k=1)
    rec = recognize_proper_instance(pi.graph)
    assert rec is not None
    lam, octs = rec
    # whatever witness is returned must re-validate independently
    make_proper_instance(pi.graph, lam, octs)


@pytest.mark.parametrize("g", [
    # a 2-node octopus beside a height-2 head with two 1-node ports
    make_graph(7, [(0, 4), (1, 5), (2, 5), (1, 6), (3, 6), (5, 6)]),
    # the default-k instance of path_graph(2) without its edge (6, 8)
    make_graph(9, [(1, 2), (2, 3), (1, 3), (1, 0), (5, 6), (6, 7), (5, 7), (5, 4), (2, 8)]),
], ids=["two-octopi", "p2-instance-cut"])
def test_recognize_several_octopi_with_no_inter_nodes(g):
    """Each component is an octopus, so every node is intra; a reading
    with inter nodes fails on some component, and the recognizer falls back
    to every component as an octopus on its own."""
    rec = recognize_proper_instance(g)
    assert rec is not None
    lam, octs = rec
    assert lam == (INTRA,) * g.n and len(octs) == len(connected_components(g))
    make_proper_instance(g, lam, octs)


def _reference_independent_neighborhood(g: Graph, v: int) -> bool:
    nbrs = list(dict.fromkeys(g.neighbors(v)))
    for i in range(len(nbrs)):
        for j in range(i + 1, len(nbrs)):
            if g.has_edge(nbrs[i], nbrs[j]):
                return False
    return True


def reference_exhaustive_recognize(g: Graph) -> Optional[tuple[tuple[str, ...], tuple[OctopusWitness, ...]]]:
    """Try every independent set I of candidates (nodes with an independent
    neighbourhood), smallest first: accept when each node of I has two
    neighbours, in two components of g - I, and every component C of g - I
    has an octopus witness whose port leaves include C's nodes adjacent to
    I, each with one neighbour in I, and, with I nonempty, every port leaf
    has a neighbour in I."""
    candidates = [v for v in range(g.n) if _reference_independent_neighborhood(g, v)]
    for size in range(len(candidates) + 1):
        for inter in itertools.combinations(candidates, size):
            if any(g.has_edge(a, b) for a, b in itertools.combinations(inter, 2)):
                continue
            comps = connected_components(g, set(range(g.n)) - set(inter))
            comp_of = {v: c for c in comps for v in c}
            if any(len(g.neighbors(u)) != 2 or len({comp_of[v] for v in g.neighbors(u)}) != 2 for u in inter):
                continue
            octopi = []
            for comp in comps:
                required = frozenset(v for v in comp if any(u in inter for u in g.neighbors(v)))
                w = recognize_octopus(g, required, comp)
                if (
                    w is None
                    or any(sum(u in inter for u in g.neighbors(v)) != 1 for v in required)
                    or inter and any(p.leaf not in required for p in w.ports)
                ):
                    break
                octopi.append(w)
            else:
                return tuple(INTER if v in inter else INTRA for v in range(g.n)), tuple(octopi)
    return None


def _recognized_and_lifted(graphs: Iterable[Graph]) -> int:
    """Check that the recognizer and the exhaustive oracle accept the same
    graphs, and that `make_proper_instance` and `lift_run` take each
    witness either gives; return how many graphs were accepted."""
    accepted = 0
    for g in graphs:
        rec = recognize_proper_instance(g)
        ref = reference_exhaustive_recognize(g)
        assert (rec is None) == (ref is None), g.edge_list
        for found in (rec, ref):
            if found is not None:
                lift_run(make_proper_instance(g, *found))
        accepted += rec is not None
    return accepted


def test_recognize_proper_instance_agrees_with_exhaustive_search_on_small_sources():
    """Every connected source up to 3 nodes at each port height, as an
    instance and with each single edge deleted; 22 of the 391 graphs are
    proper instances."""
    cases = []
    for source in all_connected_graphs(3):
        for k in (None, 1, 2, 3):
            g = gen_proper_instance(incidence_graph_of(source), k=k)[0].graph
            cases.append(g)
            cases += [make_graph(g.n, [e for i, e in enumerate(g.edge_list) if i != j]) for j in range(g.m)]
    assert len(cases) == 391
    assert _recognized_and_lifted(cases) == 22


def test_recognize_proper_instance_agrees_with_exhaustive_search_on_graphs_up_to_7_nodes():
    assert _recognized_and_lifted(all_graphs(7)) == 20


@pytest.mark.slow
def test_recognize_proper_instance_agrees_with_exhaustive_search_on_graphs_of_8_nodes():
    assert _recognized_and_lifted(all_graphs(8)) == 31


def _p3_instance_with_swapped_triangles() -> tuple[Graph, list[str], list[OctopusWitness]]:
    """The k = 2 instance of path_graph(3) plus the edge (8, 11), read with
    inter nodes 0, 4 and 11 and single-node heads 15 and 16: each height-2
    port triangle swaps its root and its leaf.  Inter node 0 has one
    attachment, and port leaf 8 carries two."""
    pi, _ = gen_proper_instance(incidence_graph_of(path_graph(3)), k=2)
    g = make_graph(pi.graph.n, [*pi.graph.edge_list, (8, 11)])
    lam = [INTER if v in (0, 4, 11) else INTRA for v in range(g.n)]
    octopi = [
        OctopusWitness(1, (2,), (15,), (PortWitness(0, 1, 2, (2, 1, 3)), PortWitness(0, 2, 2, (6, 5, 7)))),
        OctopusWitness(1, (2,), (16,), (PortWitness(0, 1, 2, (9, 8, 10)), PortWitness(0, 2, 2, (13, 12, 14)))),
    ]
    return g, lam, octopi


def test_p3_instance_with_swapped_triangles_is_not_proper():
    g, lam, octopi = _p3_instance_with_swapped_triangles()
    with pytest.raises(InputError, match="inter node 0 has 1 attachments"):
        make_proper_instance(g, lam, octopi)
    assert reference_exhaustive_recognize(g) is None


def test_recognize_p3_instance_with_swapped_triangles():
    g, _, _ = _p3_instance_with_swapped_triangles()
    assert recognize_proper_instance(g) is None


# ---------------------------------------------------------------------------
# the host-row recognizer against the earlier recognizer, which built a Graph
# per component and per repair trial; kept here as reference oracles


def _reference_tree_edge_predicate(a: tuple[int, int], b: tuple[int, int]) -> bool:
    (lu, ku), (lv, kv) = a, b
    if lu == lv and abs(ku - kv) == 1:
        return True
    if lv == lu - 1 and kv == ku // 2:
        return True
    if lu == lv - 1 and ku == kv // 2:
        return True
    return False


def reference_tree_like_assignments(g: Graph) -> Iterator[tuple[int, ...]]:
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
                if _reference_assignment_valid(g, candidate, height):
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


def _reference_assignment_valid(g: Graph, assignment: tuple[int, ...], height: int) -> bool:
    n = _tree_size(height)
    if len(assignment) != n or len(set(assignment)) != n or g.n != n:
        return False
    want = 0
    for i in range(n):
        for j in range(i + 1, n):
            if _reference_tree_edge_predicate(_tree_coords(i), _tree_coords(j)):
                want += 1
                if not g.has_edge(assignment[i], assignment[j]):
                    return False
    return g.m == want


def _reference_induced(g: Graph, nodes: Iterable[int]) -> tuple[Graph, list[int]]:
    keep = sorted(set(nodes))
    index = {v: i for i, v in enumerate(keep)}
    edges = [
        (index[u], index[v])
        for u, v in g.edge_list
        if u in index and v in index
    ]
    return make_graph(len(keep), edges, multi=g.multi), keep


def reference_recognize_octopus(g: Graph, leaf_required: frozenset[int] = frozenset()) -> Optional[OctopusWitness]:
    """Find an octopus witness of the standalone graph g, or None.

    `leaf_required` nodes must come out as the (w-1, 0) leaf of their port
    gadget (they carry inter-octopus attachments in a proper instance).
    Connectors are exactly the bridges: tree-like gadgets of height >= 2 are
    two-edge-connected, so the two-edge-component structure must be a star
    with the head in the middle.
    """
    if g.n < 2:
        return None
    comps = connected_components(g, cut=bridges(g))
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
        witness = _reference_try_octopus_center(g, comps, links, center, leaf_required)
        if witness is not None:
            return witness
    return None


def _reference_try_octopus_center(
    g: Graph,
    comps: list[frozenset[int]],
    links: Mapping[tuple[int, int], list[tuple[int, int]]],
    center: int,
    leaf_required: frozenset[int],
) -> Optional[OctopusWitness]:
    head_sub, head_nodes = _reference_induced(g, comps[center])
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

    for assignment in reference_tree_like_assignments(head_sub):
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
            port_sub, port_nodes = _reference_induced(g, comps[other])
            required_local = frozenset(
                port_nodes.index(v) for v in leaf_required if v in comps[other]
            )
            chosen: Optional[tuple[int, ...]] = None
            for pa in reference_tree_like_assignments(port_sub):
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


def _mutants(g, rng, count):
    """Single-edge deletions and additions, in turn."""
    existing = {frozenset(e) for e in g.edge_list}
    absent = [(u, v) for u, v in itertools.combinations(range(g.n), 2) if frozenset((u, v)) not in existing]
    out = []
    for i in range(count):
        edges = list(g.edge_list)
        if i % 2 == 0 and edges:
            del edges[rng.randrange(len(edges))]
        elif absent:
            edges.append(absent[rng.randrange(len(absent))])
        out.append(make_graph(g.n, edges))
    return out


def _shuffled(g, rng):
    """g with its node ids permuted and its edge list reordered."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edge_list]
    rng.shuffle(edges)
    return make_graph(g.n, edges)


def test_tree_like_assignments_match_reference():
    rng = random.Random(1)
    for height in range(1, 6):
        tree = gen_tree_like(height).graph
        for g in [tree, _shuffled(tree, rng), *_mutants(tree, rng, 50)]:
            assert list(tree_like_assignments(g)) == list(reference_tree_like_assignments(g))


def _hosted(g, rng, extra):
    """g inside a host with `extra` more nodes, every id shuffled, and up to
    three edges from each extra node to earlier nodes, g's included; returns
    the host and g's nodes in host ids."""
    n = g.n + extra
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edge_list]
    for u in range(g.n, n):
        edges += [(perm[u], perm[v]) for v in rng.sample(range(u), min(u, 3))]
    rng.shuffle(edges)
    return make_graph(n, edges), perm[: g.n]


def test_tree_like_assignments_in_host_match_reference():
    rng = random.Random(3)
    found = 0
    for height in range(1, 6):
        tree = gen_tree_like(height).graph
        for g in [tree, _shuffled(tree, rng), *_mutants(tree, rng, 20)]:
            for extra in (1, 4):
                host, nodes = _hosted(g, rng, extra)
                sub, keep = _reference_induced(host, nodes)
                want = [tuple(keep[i] for i in a) for a in reference_tree_like_assignments(sub)]
                assert list(tree_like_assignments(host, nodes)) == want
                found += bool(want)
    assert found >= 20


def _octopi():
    for x in (1, 2, 3):
        slots = 1 << (x - 1)
        for eta in sorted({(1,) * slots, (2,) * slots, tuple(1 + i % 2 for i in range(slots))}):
            for w in (2, 3):
                yield gen_octopus(x, eta, {(i, j): w for i in range(slots) for j in (1, 2) if j <= eta[i]})
    yield gen_octopus(2, (2, 1), {(0, 1): 3, (0, 2): 2, (1, 1): 3})


def test_recognize_octopus_matches_reference():
    rng = random.Random(2)
    for octopus in _octopi():
        leaves = frozenset(p.leaf for p in octopus.witness.ports)
        roots = frozenset(p.root for p in octopus.witness.ports)
        for g in [octopus.graph, _shuffled(octopus.graph, rng), *_mutants(octopus.graph, rng, 6)]:
            for required in (frozenset(), leaves, roots):
                assert recognize_octopus(g, required) == reference_recognize_octopus(g, required)


def _proper_instances():
    """Per generated instance: the instance, a shuffled copy and 4 mutants."""
    rng = random.Random(3)
    for n in range(2, 7):
        source = random_connected_graph(rng, n)
        for k in (None, 3):
            pi, _ = gen_proper_instance(incidence_graph_of(source), k=k)
            yield pi.graph, _shuffled(pi.graph, rng), _mutants(pi.graph, rng, 4)


def test_recognize_proper_instance_is_invariant_under_shuffling():
    """Every generated instance and its shuffled copy are accepted, a
    shuffled mutant gets its mutant's verdict, and every witness passes
    `make_proper_instance` and `lift_run`."""
    rng = random.Random(5)
    for g, shuffled, mutants in _proper_instances():
        pairs = [(g, shuffled), *((m, _shuffled(m, rng)) for m in mutants)]
        for i, (original, copy) in enumerate(pairs):
            verdicts = [recognize_proper_instance(h) for h in (original, copy)]
            assert (verdicts[0] is None) == (verdicts[1] is None), original.edge_list
            assert i or None not in verdicts, original.edge_list
            for h, found in zip((original, copy), verdicts):
                if found is not None:
                    lift_run(make_proper_instance(h, *found))


@pytest.mark.slow
def test_recognize_proper_instance_agrees_with_exhaustive_search_on_generated_instances():
    """60 graphs; the 10 instances and their 10 shuffled copies are the
    proper ones, and no mutant is."""
    graphs = [h for g, shuffled, mutants in _proper_instances() for h in (g, shuffled, *mutants)]
    assert _recognized_and_lifted(graphs) == 20


def test_recognize_proper_instance_builds_no_graph(monkeypatch):
    instances = [gen_proper_instance(incidence_graph_of(path_graph(4)), k=3)[0].graph]
    instances += _mutants(instances[0], random.Random(4), 2)
    instances.append(gen_proper_instance(incidence_graph_of(path_graph(2)), k=1)[0].graph)
    built = []

    def counting_make_graph(*args, **kwargs):
        built.append(args)
        return make_graph(*args, **kwargs)

    monkeypatch.setattr(graphs, "make_graph", counting_make_graph)
    monkeypatch.setattr(gadgets, "make_graph", counting_make_graph)
    assert [recognize_proper_instance(g) is not None for g in instances] == [True, False, False, True]
    assert built == []


# ---------------------------------------------------------------------------
# the family labeling and the promise check against coordinate-based oracles


def reference_family_labeling(g: Graph, lam: Sequence[str], octopi: Sequence[OctopusWitness]):
    """The family labeling with every edge's kind worked out from the
    coordinates of its ends."""
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


def reference_verify_pi_promise(pi: ProperInstance, out: Mapping[int, object], problem):
    """The five promise conditions, each port's label set rebuilt per use."""
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
            bad.append((head_id, f"first label {seq[0]!r} not in F"))
        if seq[-1] not in problem.last:
            bad.append((head_id, f"last label {seq[-1]!r} not in L"))
        for a, b in zip(seq, seq[1:]):
            if (a, b) not in problem.pairs:
                bad.append((head_id, f"consecutive pair ({a!r},{b!r}) not allowed"))
                break
    # make_proper_instance puts every inter node between two port leaves
    leaf_port: dict[int, PortWitness] = {}
    for w in pi.octopi:
        for p in w.ports:
            leaf_port[p.leaf] = p
    for u in pi.inters():
        labs = []
        ok_ms = True
        for v in g.neighbors(u):
            vals = {out[x] for x in leaf_port[v].nodes}
            if len(vals) != 1 or next(iter(vals)) not in problem.sigma:
                ok_ms = False
                break
            labs.append(next(iter(vals)))
        if not ok_ms:
            continue
        ms = tuple(sorted(labs))
        if ms not in problem.black:
            bad.append((u, f"inter configuration {ms} not allowed"))
    return OK if not bad else fail(bad)


def _family_instances() -> Iterator[ProperInstance]:
    """Every connected source with 2 to 5 nodes at k = 1, 2, 3, thirty random
    sources at the default k, and lone octopi with x = 1, 2, 3."""
    for source in all_connected_graphs(5):
        if source.n >= 2:
            for k in (1, 2, 3):
                yield gen_proper_instance(incidence_graph_of(source), k=k)[0]
    rng = random.Random(8)
    for _ in range(30):
        yield gen_proper_instance(incidence_graph_of(random_connected_graph(rng, rng.randint(2, 7))))[0]
    for x, eta in ((1, (2,)), (2, (2, 1)), (3, (1, 2, 2, 1))):
        slots = [(i, j) for i, c in enumerate(eta) for j in range(1, c + 1)]
        octopus = gen_octopus(x, eta, {s: 1 + n % 3 for n, s in enumerate(slots)})
        yield make_proper_instance(octopus.graph, [INTRA] * octopus.graph.n, [octopus.witness])


def test_family_labeling_matches_coordinate_reference():
    instances = list(_family_instances())
    assert len(instances) == 123
    for pi in instances:
        ref = reference_family_labeling(pi.graph, pi.lam, pi.octopi)
        assert pi.labeling.node_labels == ref.node_labels
        assert pi.labeling.port_labels == ref.port_labels


def _promise_labelings(pi: ProperInstance, rng: random.Random) -> Iterator[dict[int, object]]:
    """The lift's output and corruptions of it: a non-uniform port, a port
    relabeled uniformly with each sigma label and an off-sigma one (which
    breaks first/last/pair sequences and inter multisets), and a head node
    labeled off bottom."""
    labels = lift_run(pi).labels
    yield labels
    ports = [p for w in pi.octopi for p in w.ports]
    for p in rng.sample(ports, min(3, len(ports))):
        for lab in ("M", "B", "A", "P", "Z"):
            yield {**labels, **dict.fromkeys(p.nodes, lab)}
        if len(p.nodes) > 1:
            yield {**labels, p.leaf: "M" if labels[p.leaf] != "M" else "A"}
    yield {**labels, pi.octopi[0].head_nodes[0]: "M"}


def test_verify_pi_promise_matches_reference():
    rng = random.Random(9)
    reasons = set()
    for pi in _family_instances():
        for labels in _promise_labelings(pi, rng):
            verdict = verify_pi_promise(pi, labels, MATCHING_ENCODING)
            assert verdict == reference_verify_pi_promise(pi, labels, MATCHING_ENCODING)
            reasons.update(reason.split(" ")[0] + " " + reason.split(" ")[1] for _, reason in verdict.violations)
    assert reasons >= {"port gadget", "port node", "non-port node", "first label", "last label", "consecutive pair", "inter configuration"}


def test_make_proper_instance_rejects_an_inter_node_on_a_non_leaf():
    bent_graphs = 0
    for source in (path_graph(2), path_graph(3), star_graph(3)):
        pi, _ = gen_proper_instance(incidence_graph_of(source), k=2)
        for w in pi.octopi:
            for v in (w.head_nodes[0], w.ports[0].root):
                g = make_graph(pi.graph.n, [*pi.graph.edge_list, (pi.inters()[0], v)])
                with pytest.raises(InputError, match=f"^inter node {pi.inters()[0]} attaches to non-leaf intra node {v}$"):
                    make_proper_instance(g, pi.lam, pi.octopi)
                assert recognize_proper_instance(g) is None
                bent_graphs += 1
    assert bent_graphs == 18


@pytest.mark.parametrize("label", [None, 5])
def test_verify_pi_promise_names_a_port_labeled_off_sigma(label):
    pi, _ = gen_proper_instance(incidence_graph_of(path_graph(3)), k=2)
    port = pi.octopi[0].ports[0]
    labels = {**lift_run(pi).labels, **dict.fromkeys(port.nodes, label)}
    verdict = verify_pi_promise(pi, labels, MATCHING_ENCODING)
    assert verdict == fail((v, f"port node labeled {label!r}, not in sigma") for v in port.nodes)


def test_verify_pi_promise_accepts_what_the_source_accepts_through_the_port_map():
    """Pi' accepts a sigma-uniform labeling exactly when its pullback is a
    solution of Pi: the lift's output and six seeded relabelings of one or
    two ports, on every connected source with 2 to 5 nodes at k = 1, 2."""
    rng = random.Random(30)
    sigma = sorted(MATCHING_ENCODING.sigma)
    instances = accepted = labelings = 0
    for source in all_connected_graphs(5):
        if source.n < 2:
            continue
        ig = incidence_graph_of(source)
        for k in (1, 2):
            pi, pm = gen_proper_instance(ig, k=k)
            instances += 1
            lifted = lift_run(pi).labels
            ports = [p for w in pi.octopi for p in w.ports]
            candidates = [lifted]
            for _ in range(6):
                relabeled = dict(lifted)
                for p in rng.sample(ports, rng.randint(1, min(2, len(ports)))):
                    relabeled.update(dict.fromkeys(p.nodes, rng.choice(sigma)))
                candidates.append(relabeled)
            for labels in candidates:
                out = deterministic_outcome(label_graph(pi.graph), promise_labeling_of(pi, labels))
                pulled = edge_labels_of_pullback(pullback_outcome(out, pm).support[0][0], ig)
                verdict = verify_pi_promise(pi, labels, MATCHING_ENCODING)
                assert bool(verdict) == bool(verify_linearizable(MATCHING_ENCODING, ig, pulled))
                accepted += bool(verdict)
                labelings += 1
    assert (instances, labelings, accepted) == (60, 420, 122)


def test_make_proper_instance_rejects_eta_that_disagrees_with_the_ports():
    octopus = gen_octopus(2, (1, 1), {(0, 1): 2, (1, 1): 2})
    lam = [INTRA] * octopus.graph.n
    assert make_proper_instance(octopus.graph, lam, [octopus.witness]).octopi == (octopus.witness,)
    with pytest.raises(InputError, match="eta"):
        make_proper_instance(octopus.graph, lam, [dataclasses.replace(octopus.witness, eta=(2, 2))])


def test_make_proper_instance_rejects_port_copies_outside_one_to_eta():
    octopus = gen_octopus(2, (1, 1), {(0, 1): 2, (1, 1): 2})
    ports = tuple(dataclasses.replace(p, copy=2) for p in octopus.witness.ports)
    with pytest.raises(InputError, match="eta"):
        make_proper_instance(
            octopus.graph, [INTRA] * octopus.graph.n, [dataclasses.replace(octopus.witness, ports=ports)]
        )


# ---------------------------------------------------------------------------
# generators against their former implementation: one tree-like Graph per
# tree and one Graph per octopus, shifted into place


def reference_gen_octopus(x: int, eta: Sequence[int], weights: Mapping[tuple[int, int], int]) -> OctopusGadget:
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


def reference_gen_proper_instance(
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
        octo = reference_gen_octopus(x, eta, weights)
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
    port_map = PortMap(source=ig, root_to_edge=tuple(sorted(port_root_edge)), graph=graph)
    return pi, port_map


@pytest.mark.parametrize("k", [None, 1, 2, 3])
def test_gen_proper_instance_matches_reference_on_sources_up_to_5_nodes(k):
    sources = [g for g in all_connected_graphs(5) if g.n >= 2]
    for source in sources:
        ig = incidence_graph_of(source)
        assert gen_proper_instance(ig, k) == reference_gen_proper_instance(ig, k)


def test_gen_octopus_matches_reference_on_every_small_shape():
    shapes = 0
    for x in (1, 2, 3):
        slots = 1 << (x - 1)
        for eta in itertools.product((1, 2), repeat=slots):
            index = [(i, j) for i in range(slots) for j in range(1, eta[i] + 1)]
            for heights in itertools.product((1, 2, 3), repeat=len(index)):
                weights = dict(zip(index, heights))
                assert gen_octopus(x, eta, weights) == reference_gen_octopus(x, eta, weights)
                shapes += 1
    assert shapes == 12 + 12**2 + 12**4


def _error(make, *args) -> str:
    with pytest.raises(InputError) as err:
        make(*args)
    return str(err.value)


@pytest.mark.parametrize(
    "args",
    [
        (0, (), {}),
        (2, (1,), {(0, 1): 1}),
        (2, (1, 3), {(0, 1): 1, (1, 1): 1}),
        (2, (1, 1), {(0, 1): 1}),
        (2, (1, 1), {(0, 1): 1, (1, 1): 1, (1, 2): 1}),
        (2, (2, 1), {(0, 1): 1, (0, 2): 0, (1, 1): 1}),
        (1, (1,), {(0, 1): -1}),
    ],
    ids=["x", "eta-length", "eta-entry", "weights-missing", "weights-extra", "height", "negative-height"],
)
def test_gen_octopus_errors_match_reference(args):
    assert _error(gen_octopus, *args) == _error(reference_gen_octopus, *args)


def test_gen_proper_instance_port_height_error_matches_reference():
    ig = incidence_graph_of(path_graph(3))
    assert _error(gen_proper_instance, ig, 0) == _error(reference_gen_proper_instance, ig, 0)


def test_generators_build_one_graph_per_call(monkeypatch):
    ig = incidence_graph_of(star_graph(3))
    built = []

    def counting_make_graph(*args, **kwargs):
        built.append(args[0])
        return make_graph(*args, **kwargs)

    monkeypatch.setattr(graphs, "make_graph", counting_make_graph)
    monkeypatch.setattr(gadgets, "make_graph", counting_make_graph)
    octopus = gen_octopus(2, (2, 1), {(0, 1): 2, (0, 2): 3, (1, 1): 1})
    pi, _ = gen_proper_instance(ig, k=2)
    assert built == [octopus.graph.n, pi.graph.n]


# ---------------------------------------------------------------------------
# the lift's diameter per octopus shape and the calibration balls per port
# height, against the earlier per-call computations kept here as oracles


def reference_octopus_diameter(pi: ProperInstance, w: OctopusWitness) -> int:
    g = induced_labeled_subgraph(label_graph(pi.graph), w.all_nodes())[0].graph
    return max(max(ball_distances(g, [v], g.n).values()) for v in range(g.n))


def _shape_diameter_of(w: OctopusWitness) -> int:
    return gadgets._shape_diameter(w.x, tuple(sorted((p.slot, p.height) for p in w.ports)))


def test_shape_diameter_matches_reference_on_every_test_instance():
    lone = (
        make_proper_instance(o.graph, [INTRA] * o.graph.n, [o.witness]) for o in _octopi()
    )
    octopi = 0
    for pi in itertools.chain(_family_instances(), lone):
        for w in pi.octopi:
            assert _shape_diameter_of(w) == reference_octopus_diameter(pi, w)
            octopi += 1
    assert octopi > 500


def _octopus_shapes(max_x: int) -> Iterator[OctopusGadget]:
    for x in range(1, max_x + 1):
        slots = 1 << (x - 1)
        for eta in itertools.product((1, 2), repeat=slots):
            index = [(i, j) for i in range(slots) for j in range(1, eta[i] + 1)]
            for heights in itertools.product((1, 2, 3), repeat=len(index)):
                yield gen_octopus(x, eta, dict(zip(index, heights)))


def _check_shape_diameters(max_x: int) -> int:
    shapes = 0
    for octopus in _octopus_shapes(max_x):
        w = octopus.witness
        pi = make_proper_instance(octopus.graph, [INTRA] * octopus.graph.n, [w])
        assert _shape_diameter_of(w) == reference_octopus_diameter(pi, w)
        shapes += 1
    return shapes


def test_shape_diameter_matches_reference_on_every_shape_with_x_up_to_2():
    assert _check_shape_diameters(2) == 12 + 12**2


@pytest.mark.slow
def test_shape_diameter_matches_reference_on_every_shape_with_x_up_to_3():
    assert _check_shape_diameters(3) == 12 + 12**2 + 12**4


def reference_family_constraint_set(instances: Sequence[ProperInstance]):
    members = {}  # canonical key -> first ball with it
    node_alpha: set = set()
    he_alpha: set = set()
    delta = 1
    for pi in instances:
        lg = pi.labeling
        node_alpha.update(lg.node_labels)
        he_alpha.update(lab for _, lab in lg.half_edge_items())
        delta = max(delta, max((lg.graph.degree(v) for v in range(lg.graph.n)), default=1))
        for v in range(lg.graph.n):
            ball = centered_ball(lg, v, gadgets.FAMILY_RADIUS)
            members.setdefault(centered_key(ball), ball)
    return make_constraint_set(
        r=gadgets.FAMILY_RADIUS,
        delta=delta,
        node_alphabet=node_alpha,
        half_edge_alphabet=he_alpha,
        members=members.values(),
    )


def _reference_calibration_instances(k_values: Iterable[int]) -> list[ProperInstance]:
    out = []
    for k in sorted(set(k_values)):
        for source in (path_graph(2), path_graph(3), path_graph(4)):
            pi, _ = gen_proper_instance(incidence_graph_of(source), k=k)
            out.append(pi)
    return out


def reference_family_constraint_set_for(pi: ProperInstance):
    heights = {p.height for w in pi.octopi for p in w.ports} or {1}
    return reference_family_constraint_set([pi] + _reference_calibration_instances(heights))


@pytest.mark.parametrize("k, accepted", [(None, 8), (1, 31), (2, 31), (3, 31)])
def test_family_constraint_set_for_matches_reference_on_sources_up_to_5_nodes(k, accepted):
    checked = 0
    for source in all_connected_graphs(5):
        pi, _ = gen_proper_instance(incidence_graph_of(source), k=k)
        gadgets._calibration_balls.cache_clear()
        try:
            expected = reference_family_constraint_set_for(pi)
        except ContractError as err:
            # a calibration path breaks the size law at this port height
            for _ in ("cold", "warm"):
                with pytest.raises(ContractError, match=f"^{re.escape(str(err))}$"):
                    family_constraint_set_for(pi)
            continue
        cold = family_constraint_set_for(pi)
        warm = family_constraint_set_for(pi)
        # ConstraintSet's == compares r, delta, both alphabets and the members in order
        assert cold == expected and warm == expected
        checked += 1
    assert checked == accepted


def test_verify_pi_promise_on_a_mixed_type_sigma():
    """A port labeled "a" next to ports labeled 1: the inter multiset mixes
    label types and is compared without ordering an int against a str."""
    problem = make_linearizable_problem(
        sigma={1, "a"}, first={1, "a"}, last={1, "a"},
        pairs=[(1, 1), (1, "a"), ("a", 1), ("a", "a")], black=[(1, 1)], rank=2,
    )
    pi, _ = gen_proper_instance(incidence_graph_of(path_graph(2)), k=1)
    assert pi.graph.n == 5
    port = pi.octopi[0].ports[0]
    labels = {v: 1 for v in range(pi.graph.n)}
    labels.update(dict.fromkeys(port.nodes, "a"))
    verdict = verify_pi_promise(pi, labels, problem)
    (inter,) = pi.inters()
    assert (inter, "inter configuration (1, 'a') not allowed") in verdict.violations
    allowed = make_linearizable_problem(
        sigma=problem.sigma, first=problem.first, last=problem.last,
        pairs=problem.pairs, black=[(1, 1), ("a", 1)], rank=2,
    )
    assert not any("inter configuration" in reason for _, reason in verify_pi_promise(pi, labels, allowed).violations)
