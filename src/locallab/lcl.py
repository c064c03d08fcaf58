"""LCL problems as data plus exhaustive solution verification.

A constraint set is a finite list of labeled centered graphs; a graph satisfies
it when every node's centered radius-r ball is isomorphic to some member.
Membership is one dict lookup of the ball's exact canonical key in an index of
the members' keys (`graphs.centered_key`), never a compiled automaton: r and
the degree bound are small constants at desk scale.

The checker builds no ball.  `graphs.ball_keys` encodes each node's ball
straight from the graph's rows and runs one canonical search per distinct
encoding in the call; over finite alphabets and bounded degree there are
finitely many, so on a large graph most balls cost an encoding and a lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .graphs import (
    CenteredGraph,
    InputError,
    LabeledGraph,
    _is_json_int,
    _label_from_json,
    _label_to_json,
    ball_keys,
    centered_key,
    induced_labeled_subgraph,
    json_decoding,
    label_graph,
    labeled_graph_from_json,
    labeled_graph_to_json,
    neighborhood,
)
from .outcomes import Labeling


def centered_ball(lg: LabeledGraph, v: int, r: int) -> CenteredGraph:
    """Induced subgraph on N_r[v] with all labels, centered at v."""
    lg.graph._check_node(v)
    nodes = neighborhood(lg.graph, [v], r)
    sub, node_map = induced_labeled_subgraph(lg, nodes)
    return CenteredGraph(base=sub, center=node_map[v])


@dataclass(frozen=True)
class ConstraintSet:
    """(r, delta)-set of constraints over declared finite alphabets."""

    r: int
    delta: int
    node_alphabet: frozenset
    half_edge_alphabet: frozenset
    members: tuple[CenteredGraph, ...]
    # canonical key -> member position; derived from members
    member_index: Mapping[tuple, int] = field(repr=False, compare=False)


def make_constraint_set(
    r: int,
    delta: int,
    node_alphabet: Iterable,
    half_edge_alphabet: Iterable,
    members: Iterable[CenteredGraph],
) -> ConstraintSet:
    """Validate the radius, the degree bound, and each member's eccentricity,
    degree and alphabets, key the members, and build the set."""
    for name, x in (("r", r), ("delta", delta)):
        if not (_is_json_int(x) and x >= 0):
            raise InputError(f"{name} must be a non-negative integer, not {x!r}")
    va = frozenset(node_alphabet)
    ea = frozenset(half_edge_alphabet)
    members = tuple(members)
    for i, member in enumerate(members):
        if member.eccentricity() > r:
            raise InputError(f"member {i} has eccentricity above r={r}")
        if member.max_degree() > delta:
            raise InputError(f"member {i} has degree above delta={delta}")
        for lab in member.base.node_labels:
            if lab not in va:
                raise InputError(f"member {i} uses node label {lab!r} outside the alphabet")
        for _, lab in member.base.half_edge_items():
            if lab not in ea:
                raise InputError(f"member {i} uses half-edge label {lab!r} outside the alphabet")
    return _keyed_constraint_set(r, delta, va, ea, [(centered_key(m), m) for m in members])


def _keyed_constraint_set(
    r: int,
    delta: int,
    node_alphabet: frozenset,
    half_edge_alphabet: frozenset,
    keyed_members: Iterable[tuple[tuple, CenteredGraph]],
) -> ConstraintSet:
    """The constraint set of members given with their canonical keys, which
    must fit r, delta and the alphabets; rejects a repeated key."""
    members = []
    index: dict[tuple, int] = {}
    for i, (key, member) in enumerate(keyed_members):
        if index.setdefault(key, i) != i:
            raise InputError(f"member {i} duplicates an earlier member up to isomorphism")
        members.append(member)
    return ConstraintSet(
        r=r,
        delta=delta,
        node_alphabet=node_alphabet,
        half_edge_alphabet=half_edge_alphabet,
        members=tuple(members),
        member_index=index,
    )


@dataclass(frozen=True)
class Verdict:
    """`ok` or the sorted list of violating nodes (with reasons)."""

    ok: bool
    violations: tuple[tuple[int, str], ...] = ()

    def violating_nodes(self) -> list[int]:
        return [v for v, _ in self.violations]

    def __bool__(self) -> bool:
        return self.ok


OK = Verdict(ok=True)


def fail(violations: Iterable[tuple[int, str]]) -> Verdict:
    ordered = tuple(sorted(violations))
    return Verdict(ok=False, violations=ordered)


def check_constraints(lg: LabeledGraph, constraints: ConstraintSet) -> Verdict:
    """Check every node's centered radius-r ball against the members."""
    for lab in lg.node_labels:
        if lab not in constraints.node_alphabet:
            raise InputError(f"node label {lab!r} outside the constraint alphabet")
    for _, lab in lg.half_edge_items():
        if lab not in constraints.half_edge_alphabet:
            raise InputError(f"half-edge label {lab!r} outside the constraint alphabet")
    index = constraints.member_index
    bad = [
        (v, "ball matches no constraint member")
        for v, key in enumerate(ball_keys(lg, constraints.r))
        if key not in index
    ]
    return OK if not bad else fail(bad)


@dataclass(frozen=True)
class LclProblem:
    """Input/output alphabets plus constraints over the product alphabets."""

    node_in: frozenset
    half_edge_in: frozenset
    node_out: frozenset
    half_edge_out: frozenset
    constraints: ConstraintSet


def verify_lcl_solution(problem: LclProblem, g_in: LabeledGraph, out: Labeling) -> Verdict:
    """Form product labels (input, output) and delegate to check_constraints;
    `out` must label every node and half-edge of the graph."""
    g = g_in.graph
    out_nodes, out_half_edges = out.nodes(), out.half_edges()
    for v in range(g.n):
        if g_in.node_labels[v] not in problem.node_in:
            raise InputError(f"input node label at {v} outside the declared alphabet")
        if v not in out_nodes:
            raise InputError(f"missing output label for node {v}")
        if out_nodes[v] not in problem.node_out:
            raise InputError(f"output node label at {v} outside the declared alphabet")
    for (v, e), lab in g_in.half_edge_items():
        if lab not in problem.half_edge_in:
            raise InputError(f"input half-edge label at ({v},{e}) outside the declared alphabet")
        if (v, e) not in out_half_edges:
            raise InputError(f"missing output label for half-edge ({v},{e})")
        if out_half_edges[(v, e)] not in problem.half_edge_out:
            raise InputError(f"output half-edge label at ({v},{e}) outside the declared alphabet")
    node_product = {v: (g_in.node_labels[v], out_nodes[v]) for v in range(g.n)}
    he_product = {
        (v, e): (g_in.half_edge_label(v, e), out_half_edges[(v, e)])
        for (v, e), _ in g_in.half_edge_items()
    }
    product = label_graph(g, node_product, he_product)
    return check_constraints(product, problem.constraints)


# ---------------------------------------------------------------------------
# JSON


def centered_graph_to_json(c: CenteredGraph) -> dict:
    data = labeled_graph_to_json(c.base)
    return {"graph": data, "center": c.center}


def centered_graph_from_json(data: Mapping) -> CenteredGraph:
    with json_decoding("centered graph"):
        base = labeled_graph_from_json(data["graph"])
        center = data["center"]
    if not (_is_json_int(center) and 0 <= center < base.graph.n):
        raise InputError(f"center {center!r} is not a node id of the graph")
    return CenteredGraph(base=base, center=center)


def constraint_set_to_json(cs: ConstraintSet) -> dict:
    return {
        "r": cs.r,
        "delta": cs.delta,
        "node_alphabet": sorted((_label_to_json(x) for x in cs.node_alphabet), key=repr),
        "half_edge_alphabet": sorted((_label_to_json(x) for x in cs.half_edge_alphabet), key=repr),
        "members": [centered_graph_to_json(m) for m in cs.members],
    }


def constraint_set_from_json(data: Mapping) -> ConstraintSet:
    with json_decoding("constraint set"):
        return make_constraint_set(
            r=data["r"],
            delta=data["delta"],
            node_alphabet=[_label_from_json(x) for x in data["node_alphabet"]],
            half_edge_alphabet=[_label_from_json(x) for x in data["half_edge_alphabet"]],
            members=[centered_graph_from_json(m) for m in data["members"]],
        )


def lcl_problem_to_json(problem: LclProblem) -> dict:
    return {
        "node_in": sorted((_label_to_json(x) for x in problem.node_in), key=repr),
        "half_edge_in": sorted((_label_to_json(x) for x in problem.half_edge_in), key=repr),
        "node_out": sorted((_label_to_json(x) for x in problem.node_out), key=repr),
        "half_edge_out": sorted((_label_to_json(x) for x in problem.half_edge_out), key=repr),
        "constraints": constraint_set_to_json(problem.constraints),
    }


def lcl_problem_from_json(data: Mapping) -> LclProblem:
    with json_decoding("LCL problem"):
        return LclProblem(
            node_in=frozenset(_label_from_json(x) for x in data["node_in"]),
            half_edge_in=frozenset(_label_from_json(x) for x in data["half_edge_in"]),
            node_out=frozenset(_label_from_json(x) for x in data["node_out"]),
            half_edge_out=frozenset(_label_from_json(x) for x in data["half_edge_out"]),
            constraints=constraint_set_from_json(data["constraints"]),
        )
