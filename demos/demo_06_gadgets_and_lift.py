# The constructive heart: tree-like gadgets, octopus gadgets, proper
# instances, and the lift that embeds the matching problem into them.
#
# Every white node becomes an octopus (one port gadget per incident edge),
# every black node an inter-octopus node attached at left-most port leaves.
# Contracting the octopi recovers the source; solving matching on the
# contracted graph and writing the labels onto the ports solves the promise
# problem, and pulling the labels back through the port map solves the source.

from locallab import (
    MATCHING_ENCODING,
    contract_octopi,
    decode_to_matching,
    gen_proper_instance,
    gen_tree_like,
    incidence_graph_of,
    is_maximal_matching,
    label_graph,
    lift_run,
    pullback_outcome,
    recognize_proper_instance,
    recognize_tree_like,
    verify_pi_promise,
)
from locallab.gadgets import edge_labels_of_pullback, promise_labeling_of, proper_instance_dot
from locallab.graphs import path_graph
from locallab.linearize import multigraph_of_incidence, verify_linearizable
from locallab.outcomes import deterministic_outcome

# Tree-like gadget of height 3: a binary tree with same-layer consecutive
# edges; 7 nodes, 10 edges.
tree = gen_tree_like(3)
print("height-3 gadget:", tree.graph.n, "nodes,", tree.graph.m, "edges")
print("recognized coordinates:", recognize_tree_like(tree.graph) is not None)

# Build the proper instance of the path a-b-c (whites of degree 1, 2, 1).
source = path_graph(3)
ig = incidence_graph_of(source)
pi, port_map = gen_proper_instance(ig, k=2)
print("instance size:", pi.graph.n, "| octopi:", len(pi.octopi), "| inters:", len(pi.inters()))
print("recognized as proper:", recognize_proper_instance(pi.graph) is not None)

# Contraction recovers the source incidence structure.
ghat, _attachments = contract_octopi(pi)
mg, _, _ = multigraph_of_incidence(ghat)
print("contracted multigraph edges:", [mg.endpoints(e) for e in range(mg.m)])

# Run the lift: greedy matching on the contracted graph, labels onto ports.
result = lift_run(pi)
print("promise labels valid:", verify_pi_promise(pi, result.labels, MATCHING_ENCODING).ok)

# Pull the labels back to the source and decode the matching.
outcome = deterministic_outcome(label_graph(pi.graph), promise_labeling_of(pi, result.labels))
pulled = pullback_outcome(outcome, port_map)
edge_labels = edge_labels_of_pullback(pulled.support[0][0], ig)
print("pulled-back labels:", edge_labels)
print("valid on the source:", verify_linearizable(MATCHING_ENCODING, ig, edge_labels).ok)
blacks = decode_to_matching(ig, edge_labels)
matching = frozenset(b - source.n for b in blacks)
print("decoded matching:", sorted(matching), "| maximal:", is_maximal_matching(source, matching).ok)

# proper_instance_dot(pi) renders the gadget structure with role colors.
