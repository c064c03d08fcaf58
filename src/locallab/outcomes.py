"""Finite outcome distributions, LOCAL/SLOCAL simulators, non-signaling checks.

Every distribution is an explicit finite support with exact rational
probabilities; there is no tolerance anywhere.  Randomized LOCAL replaces the
infinite per-node bit string with a declared finite seed alphabet so the full
output distribution can be enumerated exactly; a sampling mode exists for
larger instances and is excluded from exactness-critical suites.

A marginal on a node set S is an `Outcome` whose labelings cover S and
H(G)[S]: it can be restricted again, compared and written to JSON.

An outcome stores its distribution once: `entries` pairs each labeling with
an integer weight over one `denominator`, and every reader in the package
works on those integers.  `support`, the same entries with Fraction
probabilities, is derived on first use for JSON, demos and callers.  The
entries keep the order in which their producer first made them, two
outcomes are equal when they give every labeling the same probability
(whatever their denominators), and only `outcome_to_json` orders them.  Each
producer merges and validates its entries where they come from:
`make_outcome` (the one generic merge, for labelings from users or JSON),
the randomized simulators, `restrict`, `lp.outcome_of_points` and
`gadgets.pullback_outcome`.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, islice, product, repeat
from operator import is_, itemgetter
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence

from .graphs import (
    ContractError,
    InputError,
    LabeledGraph,
    View,
    _label_to_json,
    _labels_from_json,
    check_radius,
    common_denominator,
    extract_view,
    half_edge_from_key,
    json_decoding,
    labeled_graph_from_json,
    labeled_graph_to_json,
    node_from_key,
    rational_from_json,
    rational_parts,
    rational_to_json,
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

    def domain(self) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
        return (tuple(map(itemgetter(0), self.node_items)),
                tuple(map(itemgetter(0), self.half_edge_items)))


@dataclass(frozen=True)
class Outcome:
    """Explicit probability distribution over partial output labelings of one network.

    Build it with `make_outcome`, a simulator or `restrict`: they give every
    labeling one domain, which `restrict` relies on.  `entries` holds
    distinct labelings with positive integer weights summing to
    `denominator`; `support` is the same distribution with Fraction
    probabilities, in entry order.
    """

    input: LabeledGraph
    entries: tuple[tuple[Labeling, int], ...]
    denominator: int
    # restrict() results by node set; immutable, so handing them out is safe
    _marginals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def support(self) -> tuple[tuple[Labeling, Fraction], ...]:
        d = self.denominator
        return tuple([(labeling, Fraction(w, d)) for labeling, w in self.entries])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Outcome):
            return NotImplemented
        return self.input == other.input and frozenset(self.support) == frozenset(other.support)

    def __hash__(self) -> int:
        return hash((self.input, frozenset(self.support)))

    def probabilities_sum(self) -> Fraction:
        return Fraction(sum(map(itemgetter(1), self.entries)), self.denominator)


def _merge(keys: Iterable[Hashable], probabilities: Iterable) -> tuple[dict, int]:
    """Probabilities merged by key, as integers over their common denominator.

    A probability must be exact, an int (not a bool) or a Fraction; anything
    else, or a negative one, is an InputError, a zero one is dropped, and the
    rest must sum to exactly 1.  Each key maps to [the index of its first
    nonzero probability, its total weight]; the denominator comes second.
    """
    probabilities = list(probabilities)
    for i, p in enumerate(probabilities):
        if rational_parts(p) is None:
            raise InputError(f"probability {i} is {p!r}, not an int or a Fraction")
    weights, denominator = common_denominator(probabilities)
    merged: dict = {}
    for i, (key, w) in enumerate(zip(keys, weights)):
        if w < 0:
            raise InputError("probabilities must be non-negative")
        if w:
            entry = merged.get(key)
            if entry is None:
                merged[key] = [i, w]
            else:
                entry[1] += w
    total = sum(map(itemgetter(1), merged.values()))
    if total != denominator:
        raise InputError(f"probabilities sum to {Fraction(total, denominator)}, expected exactly 1")
    return merged, denominator


def make_outcome(lg: LabeledGraph, pairs: Iterable[tuple[Labeling, Fraction]]) -> Outcome:
    """Validate labels, probabilities and domains, merging duplicate
    labelings (the first occurrence stays as the key); every label must be
    hashable, and the support's shared domain must lie within lg's nodes and
    half-edges.

    The one generic merge and domain check, for labelings from users or
    JSON; every other producer already holds distinct labelings of one
    domain and builds its `Outcome` directly.
    """
    pairs = list(pairs)
    for i, (labeling, _) in enumerate(pairs):
        try:
            hash(labeling)
        except TypeError as exc:
            raise InputError(f"support entry {i} has an unhashable label: {exc}") from None
    merged, denominator = _merge(map(itemgetter(0), pairs), map(itemgetter(1), pairs))
    domains = {labeling.domain() for labeling in merged}
    if len(domains) > 1:
        raise InputError("support labelings do not share one node/half-edge domain")
    g = lg.graph
    nodes, half_edges = domains.pop()
    for v in chain(nodes, map(itemgetter(0), half_edges)):
        g._check_node(v)
    for v, e in half_edges:
        g.port_of(v, e)
    entries = tuple([(labeling, w) for labeling, (_, w) in merged.items()])
    return Outcome(input=lg, entries=entries, denominator=denominator)


def deterministic_outcome(lg: LabeledGraph, labeling: Labeling) -> Outcome:
    return make_outcome(lg, [(labeling, Fraction(1))])


def restrict(outcome: Outcome, s: Iterable[int]) -> Outcome:
    """Marginal distribution on S and H(G)[S], over the same network, with
    duplicates merged; restricting it again to T within S gives T's marginal.

    Every support labeling of an outcome has one domain, so the in-scope
    positions are read once from the first labeling and picked out of all,
    and entries are merged on the picked item tuples.  That domain holds only
    half-edges of the graph, so a half-edge is in H(G)[S] exactly when its
    node is in S.
    """
    nodes = frozenset(s)
    cached = outcome._marginals.get(nodes)
    if cached is not None:
        return cached
    for v in nodes:
        outcome.input.graph._check_node(v)
    first = outcome.entries[0][0]
    node_keep = [v in nodes for v, _ in first.node_items]
    he_keep = [v in nodes for (v, _), _ in first.half_edge_items]
    merged: dict[tuple[tuple, tuple], int] = {}
    for labeling, w in outcome.entries:
        key = (tuple(compress(labeling.node_items, node_keep)), tuple(compress(labeling.half_edge_items, he_keep)))
        merged[key] = merged.get(key, 0) + w
    entries = tuple([(Labeling(*key), w) for key, w in merged.items()])
    marginal = outcome._marginals[nodes] = Outcome(input=outcome.input, entries=entries, denominator=outcome.denominator)
    return marginal


def success_probability(outcome: Outcome, verifier: Callable[[Labeling], bool]) -> Fraction:
    """Total probability of support entries accepted by the verifier."""
    return Fraction(sum(w for labeling, w in outcome.entries if verifier(labeling)), outcome.denominator)


def expectation(outcome: Outcome) -> dict:
    """Coordinatewise expected label; keys are node ids and (node, edge) pairs.

    Every label must be an int or a Fraction (anything else is an
    InputError naming its key).  Each key's sum is kept as an integer over
    the outcome's denominator times the lcm of the label denominators seen
    so far; one Fraction per key is made at the end.
    """
    denominator = outcome.denominator
    sums: dict = {}  # key -> [numerator, label denominator]
    for labeling, w in outcome.entries:
        for key, lab in chain(labeling.node_items, labeling.half_edge_items):
            parts = rational_parts(lab)
            if parts is None:
                raise InputError(f"expectation of {key!r}: {lab!r} is not an integer or a Fraction")
            a, b = parts
            acc = sums.get(key)
            if acc is None:
                sums[key] = [w * a, b]
                continue
            total, d = acc
            if d % b:
                scale = b // math.gcd(d, b)
                total, d = total * scale, d * scale
            acc[0], acc[1] = total + w * a * (d // b), d
    return {key: Fraction(total, denominator * d) for key, (total, d) in sums.items()}


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

    @property
    def randomized(self) -> bool:
        return self.seed_alphabet is not None


def _check_node_output(v: int, out: NodeOutput, incident: frozenset) -> None:
    """A rule's output must be a NodeOutput whose half-edge labels map edges
    incident to v (`incident`) and whose labels are hashable; anything else
    is a ContractError naming v.  The one check of a rule's output, for
    every simulator."""
    if not isinstance(out, NodeOutput):
        raise ContractError(f"rule at node {v} returned {out!r}, not a NodeOutput")
    labels = out.half_edge_labels
    try:
        edges = labels.keys()
    except AttributeError:
        raise ContractError(f"rule at node {v} returned half-edge labels {labels!r}, not a mapping") from None
    if not incident.issuperset(edges):
        e = next(e for e in edges if e not in incident)
        raise ContractError(f"rule at node {v} labeled a half-edge of non-incident edge {e}")
    try:
        hash(out.node_label)
        for lab in labels.values():
            hash(lab)
    except TypeError as exc:
        raise ContractError(f"rule at node {v} returned an unhashable label: {exc}") from None


# A node's items of a labeling: (node items, half-edge items).  Every
# simulator builds its labelings from parts; the randomized ones count seed
# vectors per tuple of part indices and build a Labeling only per distinct
# tuple.
_Part = tuple[tuple, tuple]


def _node_part(v: int, out: NodeOutput) -> _Part:
    """Node v's items: its node label and its half-edge labels sorted by edge."""
    node_items = ((v, out.node_label),) if out.node_label is not None else ()
    return node_items, tuple([((v, e), lab) for e, lab in sorted(out.half_edge_labels.items())])


def _join_parts(parts: Sequence[_Part]) -> Labeling:
    """Concatenate parts listed in node order: the labeling `Labeling.of`
    builds from the same labels, without sorting."""
    return Labeling(
        node_items=tuple(chain.from_iterable(map(itemgetter(0), parts))),
        half_edge_items=tuple(chain.from_iterable(map(itemgetter(1), parts))),
    )


def run_local(alg: LocalAlgorithm, lg: LabeledGraph) -> Labeling:
    """Evaluate a deterministic rule on every node's radius-T view; a
    malformed rule output is a ContractError naming its node."""
    if alg.randomized:
        raise InputError("run_local needs a deterministic algorithm; use run_rand_local")
    parts = []
    for v in range(lg.graph.n):
        out = alg.rule(extract_view(lg, [v], alg.locality))
        _check_node_output(v, out, frozenset(lg.graph.adjacency[v]))
        parts.append(_node_part(v, out))
    return _join_parts(parts)


# No value of one of these types equals a value of another, so values made
# of them (through tuples) are equal only when they agree in every type.
_PLAIN_TYPES = frozenset({str, int, type(None)})


def _exact_key(value) -> Hashable:
    """A key two values share exactly when they are equal and agree in type
    throughout (1, True and Fraction(1) get three keys).

    A plain value (made of `_PLAIN_TYPES` through tuples) is its own key;
    any other key is a pair whose second element is a type, which no plain
    value holds.  A bool or a Fraction is keyed by value and type, and any
    other non-tuple by identity, so it must be kept alive.
    """
    t = type(value)
    if t in _PLAIN_TYPES:
        return value
    if t is tuple:
        keys = tuple(map(_exact_key, value))
        return value if all(map(is_, keys, value)) else (keys, t)
    if t is bool or t is Fraction:
        return value, t
    return id(value), object


class _NodeTable(dict):
    """One node's randomized rule, memoised on the seeds of its radius-T view.

    `ball` is the view's node set in iteration order; a key is the tuple of
    those nodes' seeds (the seed itself for a one-node ball), and the table
    maps it to the index of the node's labeling part in `parts`.  The rule
    runs only when a key is first looked up, so once per ball assignment.

    Outputs that agree in value and type share one part, and every item
    (v, label) or ((v, e), label) of the table's parts is one object per
    `_exact_key`, so the labelings built from the parts, and their
    marginals, keep those objects alive and no per-call copies.  `mixed` is
    set once an output is not plain; only then can two parts be equal in
    value and differ in type, and the labelings built from them must be
    merged.  `domains` collects the parts' domains (node label present,
    half-edge keys); a table with more than one breaks the shared domain of
    the support.
    """

    def __init__(self, alg: LocalAlgorithm, lg: LabeledGraph, v: int):
        super().__init__()
        self.alg, self.v = alg, v
        self.incident = frozenset(lg.graph.adjacency[v])
        self.view = extract_view(lg, [v], alg.locality)
        self.ball = tuple(self.view.node_set)
        self.parts: list[_Part] = []
        self.mixed = False
        self.domains: set[tuple] = set()
        self._index: dict = {}  # exact key of an output -> its part's index in parts
        self._node_items: dict = {}  # exact key of a node label -> its item
        self._half_edge_items: dict = {}  # exact key of an (edge, label) pair -> its item

    def __missing__(self, key) -> int:
        seeds = dict(zip(self.ball, key)) if len(self.ball) > 1 else {self.v: key}
        out = self.alg.rule(self.view, seeds)
        _check_node_output(self.v, out, self.incident)
        node_label = out.node_label
        labels = sorted(out.half_edge_labels.items())
        output = (node_label, *labels)
        plain = _PLAIN_TYPES.issuperset(map(type, chain((node_label,), *labels)))
        if not plain:
            self.mixed = True
            output = _exact_key(output)
        index = self._index.get(output)
        if index is None:
            index = self._index[output] = len(self.parts)
            self.parts.append(self._new_part(node_label, labels, plain))
        self[key] = index
        return index

    def _new_part(self, node_label, labels: list, plain: bool) -> _Part:
        """The part of an output, made of the table's shared items; a plain
        output's node label and (edge, label) pairs are their own keys."""
        v, nodes, pairs = self.v, self._node_items, self._half_edge_items
        node_key = node_label if plain else _exact_key(node_label)
        pair_keys = labels if plain else map(_exact_key, labels)
        node_items = () if node_label is None else (nodes.get(node_key) or nodes.setdefault(node_key, (v, node_label)),)
        he_items = tuple([
            pairs.get(key) or pairs.setdefault(key, ((v, e), lab)) for key, (e, lab) in zip(pair_keys, labels)
        ])
        self.domains.add((len(node_items), tuple(map(itemgetter(0), labels))))
        return node_items, he_items


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


_CHUNK = 2**14


def _tables_entries(
    tables: Sequence[_NodeTable],
    universe: Sequence[int],
    assignments: Iterable[tuple],
) -> tuple[tuple[Labeling, int], ...]:
    """Entries of the tables' labeling's distribution over the given seed
    vectors: each distinct labeling with its count of vectors.

    An assignment lists one seed per node of `universe`, which must contain
    every table's ball; tables are in node order.  Seed vectors are counted
    per tuple of part indices, 2^14 vectors at a time: each table maps the
    seeds of its ball, picked out by one itemgetter, to its part's index.
    Distinct index tuples are distinct labelings unless a table holds two
    parts equal in value; only then are equal labelings merged, the first
    one seen standing for them, as a merge per seed vector would leave it.  The
    tables' own domain checks stand for the whole support's.
    """
    index = {u: i for i, u in enumerate(universe)}
    columns = [(table.__getitem__, itemgetter(*[index[u] for u in table.ball])) for table in tables]
    counts: Counter = Counter()
    assignments = iter(assignments)
    while chunk := list(islice(assignments, _CHUNK)):
        if columns:
            counts.update(zip(*[map(lookup, map(pick, chunk)) for lookup, pick in columns]))
        else:
            counts.update(repeat((), len(chunk)))
    if any(len(table.domains) > 1 for table in tables):
        raise InputError("support labelings do not share one node/half-edge domain")
    parts = [table.parts for table in tables]
    entries = [(_join_parts(list(map(list.__getitem__, parts, key))), c) for key, c in counts.items()]
    if any(table.mixed and len(set(table.parts)) < len(table.parts) for table in tables):
        merged: dict[Labeling, int] = {}
        for labeling, c in entries:
            merged[labeling] = merged.get(labeling, 0) + c
        entries = list(merged.items())
    return tuple(entries)


def run_rand_local(
    alg: LocalAlgorithm,
    lg: LabeledGraph,
    samples: int = 0,
    seed: int = 0,
) -> Outcome:
    """Aggregate the exact output distribution over all seed assignments.

    Exact mode (samples == 0) enumerates |alphabet|^n seed vectors (guarded
    at 2^24); with samples > 0 it draws that many vectors with a seeded RNG
    instead, which is not exactness-preserving.  A node's output depends
    only on the seeds of its view, so the rule runs once per node and
    distinct view assignment: in exact mode, sum over v of |alphabet|^|ball_v|
    rule calls, plus one table lookup per node and seed vector
    (n * |alphabet|^n) to count labelings.

    The outcome keeps alive one Labeling and its two item tuples per entry,
    and the items they hold: one object per node or half-edge and label
    (`_NodeTable`), shared by every entry and every `restrict` marginal,
    not one per rule call.  A malformed rule output (not a NodeOutput,
    half-edge labels that are not a mapping or name a non-incident edge,
    an unhashable label) is a ContractError naming its node.
    """
    if not alg.randomized:
        return deterministic_outcome(lg, run_local(alg, lg))
    n = lg.graph.n
    alphabet = _seed_alphabet(alg)
    assignments: Iterable[tuple]
    if samples < 0:
        raise InputError(f"sample count must be non-negative, got {samples}")
    if samples == 0:
        denominator = _seed_space(alphabet, n)
        assignments = product(alphabet, repeat=n)
    else:
        denominator = samples
        rng = random.Random(seed)
        assignments = (tuple(rng.choice(alphabet) for _ in range(n)) for _ in range(samples))
    tables = [_NodeTable(alg, lg, v) for v in range(n)]
    return Outcome(input=lg, entries=_tables_entries(tables, range(n), assignments), denominator=denominator)


def rand_local_marginal(alg: LocalAlgorithm, lg: LabeledGraph, s: Iterable[int]) -> Outcome:
    """Exact marginal of `run_rand_local(alg, lg)` on S and H(G)[S].

    The outputs on S depend only on the seeds of N_T[S], the union of the
    radius-T views of S, so only those |alphabet|^|N_T[S]| assignments are
    enumerated and the 2^24 guard applies to them rather than to all n
    nodes.  Equal to `restrict(run_rand_local(alg, lg), S)`.
    """
    if not alg.randomized:
        raise InputError("rand_local_marginal needs a randomized algorithm; use run_local")
    alphabet = _seed_alphabet(alg)
    tables = [_NodeTable(alg, lg, v) for v in sorted(frozenset(s))]
    universe = sorted(set().union(*(table.ball for table in tables)))
    denominator = _seed_space(alphabet, len(universe))
    assignments = product(alphabet, repeat=len(universe))
    return Outcome(input=lg, entries=_tables_entries(tables, universe, assignments), denominator=denominator)


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
        check_radius(r)
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
    parts: list[_Part] = [((), ())] * g.n
    observed = 0
    for v in order:
        ctx = SlocalContext(lg, v, alg.locality, states)
        step = alg.step(ctx)
        _check_node_output(v, step.output, frozenset(g.adjacency[v]))
        parts[v] = _node_part(v, step.output)
        states[v] = step.state
        observed = max(observed, ctx.max_queried)
    return _join_parts(parts), observed


# ---------------------------------------------------------------------------
# non-signaling certification


@dataclass(frozen=True)
class NsVerdict:
    status: str  # "ok" | "violation" | "precondition-unmet"
    detail: str = ""

    def __bool__(self) -> bool:
        return self.status == "ok"


def _sorted_move(keys: list) -> tuple[tuple, list[int]]:
    """Moved keys in sorted order, and the positions they were moved from."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return tuple([keys[i] for i in order]), order


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
    A radius-t isomorphism restricted to the anchors is a radius-0 one, so
    the radius-t search alone decides the precondition.

    Every entry of a marginal has one domain, so per phi the domain is moved
    once (a half-edge port to port) and its moved keys sorted once.  A moved
    labeling is then its labels picked in that order: it equals an entry of
    the other marginal exactly when the sorted keys are that marginal's
    domain and the labels agree, so the comparison runs on label tuples.

    Each outcome keeps its anchors' marginal alive (`restrict` caches it on
    the outcome); the marginal's items are the outcome's own objects.  The
    label tuples made for a phi are dropped after it.
    """
    a_g = frozenset(anchors_g)
    a_h = frozenset(anchors_h)
    lg_g, lg_h = outcome_g.input, outcome_h.input
    view_g = extract_view(lg_g, a_g, t)
    view_h = extract_view(lg_h, a_h, t)
    isos = view_isomorphisms(view_g, view_h)
    if not isos:
        return NsVerdict(status="precondition-unmet", detail="no radius-t view isomorphism")
    r_g = restrict(outcome_g, a_g)
    r_h = restrict(outcome_h, a_h)
    g_from, g_to = lg_g.graph, lg_h.graph
    nodes, half_edges = r_g.entries[0][0].domain()
    domain_h = r_h.entries[0][0].domain()
    # both sides' weights over the product of their denominators
    den_g, den_h = r_g.denominator, r_h.denominator
    target = {
        (tuple(map(itemgetter(1), labeling.node_items)), tuple(map(itemgetter(1), labeling.half_edge_items))):
        w * den_g for labeling, w in r_h.entries
    }
    for phi in isos:
        moved_nodes, node_order = _sorted_move([phi[v] for v in nodes])
        moved_half_edges, he_order = _sorted_move(
            [(phi[v], g_to.adjacency[phi[v]][g_from.port_of(v, e)]) for v, e in half_edges]
        )
        if (moved_nodes, moved_half_edges) == domain_h:
            transported: dict[tuple, int] = {}
            for labeling, w in r_g.entries:
                node_items, he_items = labeling.node_items, labeling.half_edge_items
                moved = (tuple([node_items[i][1] for i in node_order]), tuple([he_items[i][1] for i in he_order]))
                transported[moved] = transported.get(moved, 0) + w * den_h
            if transported == target:
                continue
        return NsVerdict(
            status="violation",
            detail=f"marginals differ under phi={dict(sorted(phi.items()))}",
        )
    return NsVerdict(status="ok", detail=f"checked {len(isos)} isomorphism(s)")


# ---------------------------------------------------------------------------
# JSON


def labeling_to_json(labeling: Labeling) -> dict:
    """The labeling object {"nodes": {"v": label}, "half_edges": {"v:e": label}}."""
    return {
        "nodes": {str(v): _label_to_json(lab) for v, lab in labeling.node_items},
        "half_edges": {f"{v}:{e}": _label_to_json(lab) for (v, e), lab in labeling.half_edge_items},
    }


def labeling_from_json(data: Mapping) -> Labeling:
    """Decode a labeling object; either part may be absent."""
    with json_decoding("labeling"):
        nodes = _labels_from_json(data.get("nodes", {}), node_from_key, "node")
        half_edges = _labels_from_json(data.get("half_edges", {}), half_edge_from_key, "half-edge")
        return Labeling.of(nodes, half_edges)


def outcome_to_json(outcome: Outcome) -> dict:
    """The one place a support is ordered: by repr((node_items, half_edge_items))."""
    support = sorted(outcome.support, key=lambda entry: repr((entry[0].node_items, entry[0].half_edge_items)))
    entries = [{"p": rational_to_json(p), "labels": labeling_to_json(labeling)} for labeling, p in support]
    return {"graph": labeled_graph_to_json(outcome.input), "support": entries}


def outcome_from_json(data: Mapping) -> Outcome:
    with json_decoding("outcome"):
        lg = labeled_graph_from_json(data["graph"])
        pairs = []
        for i, entry in enumerate(data["support"]):
            with json_decoding(f"support entry {i}"):
                pairs.append((labeling_from_json(entry["labels"]), rational_from_json(entry["p"])))
        return make_outcome(lg, pairs)
