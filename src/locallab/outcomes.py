"""Finite outcome distributions, LOCAL/SLOCAL simulators, non-signaling checks.

Every distribution is an explicit finite support with exact rational
probabilities; there is no tolerance anywhere.  Randomized LOCAL replaces the
infinite per-node bit string with a declared finite seed alphabet so the full
output distribution can be enumerated exactly; a sampling mode exists for
larger instances and is excluded from exactness-critical suites.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress, product
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .graphs import (
    ContractError,
    InputError,
    LabeledGraph,
    View,
    extract_view,
    view_isomorphisms,
)

EXACT_SEED_SPACE_LIMIT = 2**24


# ---------------------------------------------------------------------------
# labelings and outcomes


@dataclass(frozen=True)
class Labeling:
    """Immutable assignment of labels to nodes and half-edges (possibly partial)."""

    node_items: tuple[tuple[int, object], ...]
    half_edge_items: tuple[tuple[tuple[int, int], object], ...]

    @staticmethod
    def of(nodes: Mapping[int, object] | None = None,
           half_edges: Mapping[tuple[int, int], object] | None = None) -> "Labeling":
        ni = tuple(sorted((nodes or {}).items()))
        hi = tuple(sorted((half_edges or {}).items()))
        return Labeling(node_items=ni, half_edge_items=hi)

    def nodes(self) -> dict[int, object]:
        return dict(self.node_items)

    def half_edges(self) -> dict[tuple[int, int], object]:
        return dict(self.half_edge_items)

    def node(self, v: int):
        return dict(self.node_items)[v]

    def half_edge(self, v: int, e: int):
        return dict(self.half_edge_items)[(v, e)]

    def domain(self) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
        return (tuple(map(itemgetter(0), self.node_items)),
                tuple(map(itemgetter(0), self.half_edge_items)))

    def restrict_to(self, nodes: frozenset[int], half_edges: frozenset[tuple[int, int]]) -> "Labeling":
        ni = tuple((v, lab) for v, lab in self.node_items if v in nodes)
        hi = tuple((k, lab) for k, lab in self.half_edge_items if k in half_edges)
        return Labeling(node_items=ni, half_edge_items=hi)

    def sort_key(self) -> str:
        return repr((self.node_items, self.half_edge_items))


@dataclass(frozen=True)
class Outcome:
    """Explicit probability distribution over output labelings of one network.

    Build it with `make_outcome` or a simulator: they check that every
    support labeling has one domain, which `restrict` relies on.
    """

    input: LabeledGraph
    support: tuple[tuple[Labeling, Fraction], ...]
    # restrict() results by node set; immutable, so handing them out is safe
    _marginals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def probabilities_sum(self) -> Fraction:
        return sum((p for _, p in self.support), Fraction(0))


def _support(
    weighted: Iterable[tuple[Labeling, int]], denominator: int
) -> tuple[tuple[Labeling, Fraction], ...]:
    """The one support validator, over integer weights with a common denominator.

    Rejects negative weights, drops zero ones and merges duplicate labelings
    (the first occurrence stays as the key), then requires the weights to sum
    to the denominator and every labeling to share one domain.  The support
    is sorted by `Labeling.sort_key`; a Fraction is made per entry only here.
    """
    merged: dict[Labeling, int] = {}
    for labeling, w in weighted:
        if w < 0:
            raise InputError("probabilities must be non-negative")
        if w:
            merged[labeling] = merged.get(labeling, 0) + w
    total = sum(merged.values())
    if total != denominator:
        raise InputError(f"probabilities sum to {Fraction(total, denominator)}, expected exactly 1")
    domains = {labeling.domain() for labeling in merged}
    if len(domains) > 1:
        raise InputError("support labelings do not share one node/half-edge domain")
    ordered = sorted(merged.items(), key=lambda kv: kv[0].sort_key())
    return tuple((labeling, Fraction(w, denominator)) for labeling, w in ordered)


def _common_denominator(weights: Iterable[Fraction]) -> int:
    return math.lcm(*{p.denominator for p in weights})


def make_outcome(lg: LabeledGraph, pairs: Iterable[tuple[Labeling, Fraction]]) -> Outcome:
    """Validate probabilities and domains, merging duplicate labelings."""
    pairs = [(labeling, Fraction(p)) for labeling, p in pairs]
    denominator = _common_denominator(p for _, p in pairs)
    weighted = ((labeling, p.numerator * (denominator // p.denominator)) for labeling, p in pairs)
    return Outcome(input=lg, support=_support(weighted, denominator))


def deterministic_outcome(lg: LabeledGraph, labeling: Labeling) -> Outcome:
    return make_outcome(lg, [(labeling, Fraction(1))])


@dataclass(frozen=True)
class RestrictedOutcome:
    """Marginal of an outcome on a node subset and its half-edges H(G)[S]."""

    scope_nodes: frozenset[int]
    scope_half_edges: frozenset[tuple[int, int]]
    support: tuple[tuple[Labeling, Fraction], ...]


def _scope_half_edges(g, nodes: frozenset[int]) -> frozenset[tuple[int, int]]:
    for v in nodes:
        g._check_node(v)
    return frozenset((v, e) for v in nodes for e in g.adjacency[v])


def restrict(outcome: Outcome, s: Iterable[int]) -> RestrictedOutcome:
    """Marginal distribution on S and H(G)[S]; duplicates merged.

    `make_outcome` gives every support labeling one domain, so the in-scope
    positions are read once from the first labeling and picked out of all.
    """
    nodes = frozenset(s)
    cached = outcome._marginals.get(nodes)
    if cached is not None:
        return cached
    scope_he = _scope_half_edges(outcome.input.graph, nodes)
    denominator = _common_denominator(p for _, p in outcome.support)
    first = outcome.support[0][0]
    node_keep = [v in nodes for v, _ in first.node_items]
    he_keep = [k in scope_he for k, _ in first.half_edge_items]
    merged: dict[tuple[tuple, tuple], int] = {}
    for labeling, p in outcome.support:
        key = (tuple(compress(labeling.node_items, node_keep)), tuple(compress(labeling.half_edge_items, he_keep)))
        merged[key] = merged.get(key, 0) + p.numerator * (denominator // p.denominator)
    support = _support(((Labeling(*key), w) for key, w in merged.items()), denominator)
    marginal = outcome._marginals[nodes] = RestrictedOutcome(nodes, scope_he, support)
    return marginal


def success_probability(outcome: Outcome, verifier: Callable[[Labeling], bool]) -> Fraction:
    """Total probability of support entries accepted by the verifier."""
    return sum((p for labeling, p in outcome.support if verifier(labeling)), Fraction(0))


def expectation(outcome: Outcome, value: Callable[[object], Fraction]) -> dict:
    """Coordinatewise expected value; keys are node ids and (node, edge) pairs."""
    out: dict = {}
    for labeling, p in outcome.support:
        for v, lab in labeling.node_items:
            out[v] = out.get(v, Fraction(0)) + p * Fraction(value(lab))
        for key, lab in labeling.half_edge_items:
            out[key] = out.get(key, Fraction(0)) + p * Fraction(value(lab))
    return out


# ---------------------------------------------------------------------------
# LOCAL model


@dataclass(frozen=True)
class NodeOutput:
    """One node's output: its node label and labels for its half-edges."""

    node_label: object = None
    half_edge_labels: Mapping[int, object] = field(default_factory=dict)


@dataclass(frozen=True)
class LocalAlgorithm:
    """T-round LOCAL rule: a total function of the anchored radius-T view.

    Deterministic: rule(view) -> NodeOutput.  Randomized: seed_alphabet is set
    and rule(view, seeds) additionally reads the seed symbols of all nodes in
    the view (per-node seeds are private, independent, and travel with the
    view as ordinary data).

    The rule must be pure: the simulators call it once per distinct seed
    assignment of its view and reuse that output for every seed vector that
    agrees on the view.
    """

    locality: int
    rule: Callable
    seed_alphabet: Optional[tuple] = None
    node_out_alphabet: Optional[frozenset] = None
    half_edge_out_alphabet: Optional[frozenset] = None

    @property
    def randomized(self) -> bool:
        return self.seed_alphabet is not None


def _check_node_output(
    lg: LabeledGraph,
    v: int,
    out: NodeOutput,
    node_alphabet: Optional[frozenset] = None,
    half_edge_alphabet: Optional[frozenset] = None,
) -> None:
    g = lg.graph
    incident = set(g.adjacency[v])
    for e in out.half_edge_labels:
        if e not in incident:
            raise ContractError(f"rule at node {v} labeled a half-edge of non-incident edge {e}")
    if node_alphabet is not None and out.node_label is not None:
        if out.node_label not in node_alphabet:
            raise ContractError(f"rule at node {v} produced node label {out.node_label!r} outside the alphabet")
    if half_edge_alphabet is not None:
        for e, lab in out.half_edge_labels.items():
            if lab not in half_edge_alphabet:
                raise ContractError(f"rule at node {v} produced half-edge label {lab!r} outside the alphabet")


def _assemble(lg: LabeledGraph, per_node: Mapping[int, NodeOutput]) -> Labeling:
    nodes: dict[int, object] = {}
    half_edges: dict[tuple[int, int], object] = {}
    for v, out in per_node.items():
        if out.node_label is not None:
            nodes[v] = out.node_label
        for e, lab in out.half_edge_labels.items():
            half_edges[(v, e)] = lab
    return Labeling.of(nodes, half_edges)


def run_local(alg: LocalAlgorithm, lg: LabeledGraph) -> Labeling:
    """Evaluate a deterministic rule on every node's radius-T view."""
    if alg.randomized:
        raise InputError("run_local needs a deterministic algorithm; use run_rand_local")
    per_node = {}
    for v in range(lg.graph.n):
        view = extract_view(lg, [v], alg.locality)
        out = alg.rule(view)
        _check_node_output(lg, v, out, alg.node_out_alphabet, alg.half_edge_out_alphabet)
        per_node[v] = out
    return _assemble(lg, per_node)


# A node's items of a labeling: (node items, half-edge items).  The
# randomized simulators count seed vectors per tuple of parts and build a
# Labeling only per distinct tuple.
_Part = tuple[tuple, tuple]


def _node_part(v: int, out: NodeOutput) -> _Part:
    """Node v's items: its node label and its half-edge labels sorted by edge."""
    node_items = ((v, out.node_label),) if out.node_label is not None else ()
    return node_items, tuple([((v, e), lab) for e, lab in sorted(out.half_edge_labels.items())])


def _join_parts(parts: Sequence[_Part]) -> Labeling:
    """Concatenate parts listed in node order; equals what `_assemble` builds."""
    return Labeling(
        node_items=tuple(chain.from_iterable(map(itemgetter(0), parts))),
        half_edge_items=tuple(chain.from_iterable(map(itemgetter(1), parts))),
    )


class _NodeTable(dict):
    """One node's randomized rule, memoised on the seeds of its radius-T view.

    `ball` is the view's node set in iteration order; a key is the tuple of
    those nodes' seeds, and the table maps it to the node's labeling part.
    The rule runs only when a key is first looked up.
    """

    def __init__(self, alg: LocalAlgorithm, lg: LabeledGraph, v: int):
        super().__init__()
        self.alg, self.lg, self.v = alg, lg, v
        self.view = extract_view(lg, [v], alg.locality)
        self.ball = tuple(self.view.node_set)

    def __missing__(self, key: tuple) -> _Part:
        alg = self.alg
        out = alg.rule(self.view, dict(zip(self.ball, key)))
        _check_node_output(self.lg, self.v, out, alg.node_out_alphabet, alg.half_edge_out_alphabet)
        part = self[key] = _node_part(self.v, out)
        return part


def _seed_space(alphabet: tuple, nodes: int) -> int:
    total = len(alphabet) ** nodes
    if total > EXACT_SEED_SPACE_LIMIT:
        raise InputError(
            f"exact mode refuses {total} seed assignments (limit {EXACT_SEED_SPACE_LIMIT})"
        )
    return total


def _seed_alphabet(alg: LocalAlgorithm) -> tuple:
    alphabet = tuple(alg.seed_alphabet or ())
    if not alphabet:
        raise InputError("randomized algorithm declares an empty seed alphabet")
    return alphabet


def _tables_support(
    tables: Sequence[_NodeTable],
    universe: Sequence[int],
    assignments: Iterable[tuple],
    denominator: int,
) -> tuple[tuple[Labeling, Fraction], ...]:
    """Distribution of the tables' labeling over the given seed vectors.

    An assignment lists one seed per node of `universe`, which must contain
    every table's ball; tables are in node order.  Seed vectors are counted
    per tuple of parts: equal part tuples are equal labelings, and the first
    occurrence stays as the key, as when merging whole labelings.
    """
    index = {u: i for i, u in enumerate(universe)}
    lookups = [(table, tuple(index[u] for u in table.ball)) for table in tables]
    counts: dict[tuple[_Part, ...], int] = {}
    for assignment in assignments:
        seeds = assignment.__getitem__
        key = tuple([table[tuple(map(seeds, ball))] for table, ball in lookups])
        counts[key] = counts.get(key, 0) + 1
    return _support(((_join_parts(parts), c) for parts, c in counts.items()), denominator)


def run_rand_local(
    alg: LocalAlgorithm,
    lg: LabeledGraph,
    exact: bool = True,
    samples: int = 0,
    seed: int = 0,
) -> Outcome:
    """Aggregate the exact output distribution over all seed assignments.

    Exact mode enumerates |alphabet|^n seed vectors (guarded at 2^24); the
    sampling mode draws `samples` vectors with a seeded RNG instead and is not
    exactness-preserving.  A node's output depends only on the seeds of its
    view, so the rule runs once per node and distinct view assignment: in
    exact mode, sum over v of |alphabet|^|ball_v| rule calls, plus one table
    lookup per node and seed vector (n * |alphabet|^n) to count labelings.
    """
    if not alg.randomized:
        labeling = run_local(
            LocalAlgorithm(
                locality=alg.locality,
                rule=alg.rule,
                node_out_alphabet=alg.node_out_alphabet,
                half_edge_out_alphabet=alg.half_edge_out_alphabet,
            ),
            lg,
        )
        return deterministic_outcome(lg, labeling)
    n = lg.graph.n
    alphabet = _seed_alphabet(alg)
    assignments: Iterable[tuple]
    if exact:
        denominator = _seed_space(alphabet, n)
        assignments = product(alphabet, repeat=n)
    else:
        if samples <= 0:
            raise InputError("sampling mode needs a positive sample count")
        denominator = samples
        rng = random.Random(seed)
        assignments = (tuple(rng.choice(alphabet) for _ in range(n)) for _ in range(samples))
    tables = [_NodeTable(alg, lg, v) for v in range(n)]
    return Outcome(input=lg, support=_tables_support(tables, range(n), assignments, denominator))


def rand_local_marginal(alg: LocalAlgorithm, lg: LabeledGraph, s: Iterable[int]) -> RestrictedOutcome:
    """Exact marginal of `run_rand_local(alg, lg)` on S and H(G)[S].

    The outputs on S depend only on the seeds of N_T[S], the union of the
    radius-T views of S, so only those |alphabet|^|N_T[S]| assignments are
    enumerated and the 2^24 guard applies to them rather than to all n
    nodes.  Equal to `restrict(run_rand_local(alg, lg), S)`.
    """
    if not alg.randomized:
        raise InputError("rand_local_marginal needs a randomized algorithm; use run_local")
    alphabet = _seed_alphabet(alg)
    nodes = frozenset(s)
    scope_he = _scope_half_edges(lg.graph, nodes)
    tables = [_NodeTable(alg, lg, v) for v in sorted(nodes)]
    universe = sorted(set().union(*(table.ball for table in tables)))
    denominator = _seed_space(alphabet, len(universe))
    assignments = product(alphabet, repeat=len(universe))
    support = _tables_support(tables, universe, assignments, denominator)
    return RestrictedOutcome(scope_nodes=nodes, scope_half_edges=scope_he, support=support)


# ---------------------------------------------------------------------------
# SLOCAL model


@dataclass(frozen=True)
class SlocalStep:
    """Result of processing one node: its output and its new stored state."""

    output: NodeOutput
    state: object


class SlocalContext:
    """Query interface handed to an SLOCAL step; tracks the radius actually used."""

    def __init__(self, lg: LabeledGraph, node: int, locality: int, states: Mapping[int, object]):
        self._lg = lg
        self.node = node
        self._locality = locality
        self._states = states
        self.max_queried = 0

    def query(self, r: int) -> tuple[View, dict[int, object]]:
        """Radius-r view of the current node plus states stored in it."""
        if r < 0:
            raise InputError("query radius must be non-negative")
        if r > self._locality:
            raise ContractError(f"step queried radius {r} beyond declared locality {self._locality}")
        self.max_queried = max(self.max_queried, r)
        view = extract_view(self._lg, [self.node], r)
        visible = {u: self._states[u] for u in view.node_set if u in self._states}
        return view, visible


@dataclass(frozen=True)
class SlocalAlgorithm:
    """Sequential-model algorithm: nodes are processed in an adversarial order.

    step(ctx) must label only the current node and its half-edges; it may
    query ctx.query(r) for any r up to the declared locality, and the largest
    r it actually uses is the observed locality of the run.
    """

    locality: int
    step: Callable[[SlocalContext], SlocalStep]


def run_slocal(
    alg: SlocalAlgorithm, lg: LabeledGraph, order: Sequence[int]
) -> tuple[Labeling, int]:
    """Process nodes in the given order; returns (labeling, observed locality)."""
    g = lg.graph
    if sorted(order) != list(range(g.n)):
        raise InputError("order must be a permutation of the node set")
    states: dict[int, object] = {}
    per_node: dict[int, NodeOutput] = {}
    observed = 0
    for v in order:
        ctx = SlocalContext(lg, v, alg.locality, states)
        step = alg.step(ctx)
        _check_node_output(lg, v, step.output)
        per_node[v] = step.output
        states[v] = step.state
        observed = max(observed, ctx.max_queried)
    return _assemble(lg, per_node), observed


# ---------------------------------------------------------------------------
# non-signaling certification


@dataclass(frozen=True)
class NsVerdict:
    status: str  # "ok" | "violation" | "precondition-unmet"
    detail: str = ""

    def __bool__(self) -> bool:
        return self.status == "ok"


def _transport_partial(
    labeling: Labeling,
    phi: Mapping[int, int],
    g_from,
    g_to,
) -> Labeling:
    """Carry a restricted labeling through a view isomorphism, port to port."""
    nodes = {phi[v]: lab for v, lab in labeling.node_items}
    half_edges = {}
    for (v, e), lab in labeling.half_edge_items:
        port = g_from.port_of(v, e)
        target = g_to.adjacency[phi[v]][port]
        half_edges[(phi[v], target)] = lab
    return Labeling.of(nodes, half_edges)


def verify_non_signaling(
    outcome_g: Outcome,
    outcome_h: Outcome,
    anchors_g: Iterable[int],
    anchors_h: Iterable[int],
    t: int,
) -> NsVerdict:
    """Compare marginals through every radius-t view isomorphism of the anchors.

    The definition quantifies over all isomorphisms between the radius-0 and
    radius-t views, so a fixed pair is certified only when every such phi maps
    one restriction exactly onto the other.  No isomorphism at all means the
    pair does not meet the precondition, which is distinct from a violation.
    """
    a_g = frozenset(anchors_g)
    a_h = frozenset(anchors_h)
    lg_g, lg_h = outcome_g.input, outcome_h.input
    view_g = extract_view(lg_g, a_g, t)
    view_h = extract_view(lg_h, a_h, t)
    isos = view_isomorphisms(view_g, view_h, find_all=True)
    if not isos:
        return NsVerdict(status="precondition-unmet", detail="no radius-t view isomorphism")
    zero_g = extract_view(lg_g, a_g, 0)
    zero_h = extract_view(lg_h, a_h, 0)
    if not view_isomorphisms(zero_g, zero_h, find_all=False):
        return NsVerdict(status="precondition-unmet", detail="no radius-0 view isomorphism")
    r_g = restrict(outcome_g, a_g)
    r_h = restrict(outcome_h, a_h)
    for phi in isos:
        transported: dict[Labeling, Fraction] = {}
        for labeling, p in r_g.support:
            moved = _transport_partial(labeling, phi, lg_g.graph, lg_h.graph)
            transported[moved] = transported.get(moved, Fraction(0)) + p
        if transported != dict(r_h.support):
            return NsVerdict(
                status="violation",
                detail=f"marginals differ under phi={dict(sorted(phi.items()))}",
            )
    return NsVerdict(status="ok", detail=f"checked {len(isos)} isomorphism(s)")


# ---------------------------------------------------------------------------
# JSON


def outcome_to_json(outcome: Outcome) -> dict:
    from .graphs import _label_to_json, labeled_graph_to_json

    entries = []
    for labeling, p in outcome.support:
        entries.append(
            {
                "p": f"{p.numerator}/{p.denominator}",
                "labels": {
                    "nodes": {str(v): _label_to_json(lab) for v, lab in labeling.node_items},
                    "half_edges": {
                        f"{v}:{e}": _label_to_json(lab)
                        for (v, e), lab in labeling.half_edge_items
                    },
                },
            }
        )
    return {"graph": labeled_graph_to_json(outcome.input), "support": entries}


def outcome_from_json(data: Mapping) -> Outcome:
    from .graphs import _label_from_json, labeled_graph_from_json

    if "graph" not in data or "support" not in data:
        raise InputError('outcome JSON needs "graph" and "support"')
    lg = labeled_graph_from_json(data["graph"])
    pairs = []
    for entry in data["support"]:
        try:
            nodes = {int(v): _label_from_json(lab) for v, lab in entry["labels"].get("nodes", {}).items()}
            half_edges = {}
            for key, lab in entry["labels"].get("half_edges", {}).items():
                v, e = key.split(":")
                half_edges[(int(v), int(e))] = _label_from_json(lab)
            p = Fraction(entry["p"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError, AttributeError) as err:
            raise InputError(f"malformed outcome support entry {entry!r}: {err!r}") from None
        pairs.append((Labeling.of(nodes, half_edges), p))
    return make_outcome(lg, pairs)
