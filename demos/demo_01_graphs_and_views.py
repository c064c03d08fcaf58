# Graphs, half-edge labels, and radius-T views.
#
# A view keeps the nodes within distance T of the anchor, but drops every edge
# whose endpoints are both at distance exactly T: that is exactly what T rounds
# of message passing can reveal.  Run as a script, read as a narrative.

from locallab import (
    cycle_graph,
    distance,
    extract_view,
    label_graph,
    neighborhood,
    path_graph,
    to_dot,
    view_isomorphisms,
)

g = path_graph(5)
print("distance between the endpoints of a 5-path:", distance(g, 0, 4))
print("radius-1 neighborhood of the center:", sorted(neighborhood(g, [2], 1)))

# A view of the center at radius 1: three nodes, both center edges.
lg = label_graph(g)
view = extract_view(lg, [2], 1)
print("view nodes:", view.nodes(), "| view edges:", view.view_edges())

# At radius 0 the view has no edges, but the anchor still sees the labels of
# its own half-edges (its ports).
labeled = label_graph(g, half_edge_labels={(2, 1): "left", (2, 2): "right"})
zero = extract_view(labeled, [2], 0)
print("radius-0 ports of the anchor:", zero.ports[2])

# Views of C4 and C5 at a single anonymous node are isomorphic at radius 1:
# both look like a 3-node path.  This is the seed of every
# indistinguishability argument in this package.
c4 = label_graph(cycle_graph(4))
c5 = label_graph(cycle_graph(5))
phi = view_isomorphisms(extract_view(c4, [0], 1), extract_view(c5, [0], 1))[0]
print("C4/C5 radius-1 views isomorphic via:", phi)

# DOT rendering for a quick look with graphviz.
print(to_dot(labeled))
