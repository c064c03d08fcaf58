"""The four benchmark workloads, built from locallab's public API only.

A workload generates its inputs from the seed in `setup`, then yields its
operations for one pass.  Each operation verifies its own verdict and returns
True only when the verdict is the expected one.  `summary` describes what the
pass computed; its digest is compared between passes and with the value
recorded for the seed.  `oracle_checks` cross-checks results against
independent oracles after the timed phase.

The rules, mutant generator and mixture generator are defined here, so a
change to locallab's private helpers cannot change a workload.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import partial
from typing import Callable

from layers import Layers

Op = Callable[[], bool]


def _stratified_sample(rng: random.Random, items: list, count: int) -> list:
    """One item from each of `count` equal runs of `items`."""
    out = []
    for i in range(count):
        lo = i * len(items) // count
        hi = (i + 1) * len(items) // count
        out.append(items[rng.randrange(lo, hi)])
    return out


def _connected_graph(api: Layers, rng: random.Random, n: int, m: int):
    """Random spanning tree plus random extra edges up to exactly m edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    ordered = sorted(edges)
    rng.shuffle(ordered)
    return api.graphs.make_graph(n, ordered)


def _relabelled(api: Layers, rng: random.Random, g):
    """An isomorphic copy of g under a random node numbering and edge order."""
    perm = rng.sample(range(g.n), g.n)
    edges = [(perm[u], perm[v]) for u, v in g.edge_list]
    rng.shuffle(edges)
    return api.graphs.make_graph(g.n, edges)


def _random_tree(api: Layers, rng: random.Random, n: int):
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    rng.shuffle(edges)
    return api.graphs.make_graph(n, edges)


# ---------------------------------------------------------------------------
# certify-corpus: exact randomized LOCAL plus non-signaling certification


def _parity_rule(api: Layers, t: int):
    """Randomized t-round rule with seeds {0,1}.

    The node label is the parity of the seeds and retained edges in the view;
    the half-edge on port i carries (own seed + far seed + i) mod 2, with far
    seed 0 when the edge is not retained.  Both depend on the anchored view
    only, so the simulated outcome is non-signaling.
    """

    def rule(view, seeds):
        v = view.anchor_node()
        g = view.source.graph
        total = len(view.edge_set) + sum(int(seeds[u]) for u in view.node_set)
        half_edges = {}
        for i, (_label, e) in enumerate(view.ports[v]):
            edge = g.adjacency[v][i]
            far = int(seeds[g.other(e, v)]) if e is not None else 0
            half_edges[edge] = str((int(seeds[v]) + far + i) % 2)
        return api.outcomes.NodeOutput(node_label=str(total % 2), half_edge_labels=half_edges)

    return api.outcomes.LocalAlgorithm(locality=t, rule=rule, seed_alphabet=("0", "1"))


def _view_bucket(view) -> tuple:
    """Isomorphism invariant of a view: per node, the anchor flag and which
    ports carry a retained edge.  Views in one bucket are tested pairwise."""
    per_node = sorted(
        (v in view.anchor, tuple(e is not None for _, e in view.ports[v])) for v in view.node_set
    )
    return (len(view.node_set), len(view.edge_set), tuple(per_node))


class CertifyCorpus:
    name = "certify-corpus"
    SEVEN_NODE_SAMPLE = 12
    RADII = (0, 1, 2)

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self, api: Layers) -> None:
        corpus_graphs = api.corpus.all_connected_graphs(7)
        smaller = [g for g in corpus_graphs if g.n < 7]
        seven = sorted((g for g in corpus_graphs if g.n == 7), key=lambda g: (g.m, g.edge_list))
        picked = _stratified_sample(self.rng, seven, self.SEVEN_NODE_SAMPLE)
        self.networks = [api.graphs.label_graph(g) for g in smaller + picked]
        self.rules = {t: _parity_rule(api, t) for t in self.RADII}

    def begin_pass(self) -> None:
        self.reps = {t: {} for t in self.RADII}
        self.classes = {t: 0 for t in self.RADII}
        self.pairs = {t: 0 for t in self.RADII}
        self.support_sizes = {t: 0 for t in self.RADII}
        self.collisions = {t: Fraction(0) for t in self.RADII}
        self.p_all_ones = {t: Fraction(0) for t in self.RADII}
        self.iso_tests = 0
        self.iso_hits = 0

    def ops(self, api: Layers) -> list[Op]:
        return [partial(self._certify, api, lg, t) for t in self.RADII for lg in self.networks]

    def _certify(self, api: Layers, lg, t: int) -> bool:
        outcome = api.outcomes.run_rand_local(self.rules[t], lg)
        self._fingerprint(outcome, t)
        for v in range(lg.graph.n):
            view = api.graphs.extract_view(lg, [v], t)
            bucket = self.reps[t].setdefault(_view_bucket(view), [])
            rep = None
            for candidate in bucket:
                self.iso_tests += 1
                if api.graphs.view_isomorphisms(view, candidate[0]):
                    self.iso_hits += 1
                    rep = candidate
                    break
            if rep is None:
                bucket.append((view, outcome, v))
                self.classes[t] += 1
                continue
            verdict = api.outcomes.verify_non_signaling(outcome, rep[1], [v], [rep[2]], t)
            if verdict.status != "ok":
                return False
            self.pairs[t] += 1
        return True

    def _fingerprint(self, outcome, t: int) -> None:
        """Exact statistics of the simulated distribution, so the digest
        checks what run_rand_local returns and not only the views.  The
        parity rule gives every single label a uniform marginal, so these
        are joint: the support size, the collision probability (sum of p^2)
        and the probability that every node outputs "1"."""
        self.support_sizes[t] += len(outcome.support)
        all_ones = tuple((v, "1") for v in range(outcome.input.graph.n))
        collision = p_all_ones = Fraction(0)
        for labeling, p in outcome.support:
            collision += p * p
            if labeling.node_items == all_ones:
                p_all_ones += p
        self.collisions[t] += collision
        self.p_all_ones[t] += p_all_ones

    def summary(self) -> dict:
        return {
            "graphs": len(self.networks),
            "support_sizes": [self.support_sizes[t] for t in self.RADII],
            "collision_probability": [str(self.collisions[t]) for t in self.RADII],
            "p_all_nodes_one": [str(self.p_all_ones[t]) for t in self.RADII],
            "iso_classes": [self.classes[t] for t in self.RADII],
            "pairs_certified": [self.pairs[t] for t in self.RADII],
            "iso_tests": self.iso_tests,
            "iso_hits": self.iso_hits,
        }

    def hit_ratio(self) -> float:
        return self.iso_hits / self.iso_tests if self.iso_tests else 0.0

    def oracle_checks(self, locallab) -> list[tuple[str, bool, str]]:
        return []


# ---------------------------------------------------------------------------
# dequantize-lp: exact LP optima and dequantization of point mixtures


def _weighted(points: list, weights: list[int]) -> list:
    total = sum(weights)
    return [(pt, Fraction(w, total)) for pt, w in zip(points, weights)]


def _ratio(opt, value):
    """Approximation ratio of a point of a maximization LP with opt > 0."""
    return opt / value if value else math.inf


class DequantizeLp:
    name = "dequantize-lp"
    # (n, m) of the small band, 4 seeded graphs each.  Fixing the shapes keeps
    # the cost of a pass nearly independent of the seed.
    SMALL_SHAPES = (
        (2, 1), (3, 2), (3, 3), (4, 3), (4, 4), (4, 5), (5, 4), (5, 6),
        (5, 8), (6, 5), (6, 7), (6, 10), (7, 6), (7, 9), (7, 12),
    )
    SMALL_REPEATS = 4
    MIXTURES = 20
    # The medium band is one fixed ladder, the same for every seed: the exact
    # simplex's time on one graph varies by a factor of three with its
    # structure, so seeded medium graphs would make the tail a draw.  Node
    # counts n, with m = 30 + 5 (n - 16) edges: 30..90.  There are more than
    # ten, so the tail operation comes from this band; most sit at the cheap
    # end to keep a pass short.
    MEDIUM_SIZES = (16, 16, 17, 17, 18, 18, 19, 19, 20, 20, 21, 22, 25, 28)
    GREEDY_ORDERS = 4

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self, api: Layers) -> None:
        rng = self.rng
        self.small = []
        for n, m in self.SMALL_SHAPES * self.SMALL_REPEATS:
            g = _connected_graph(api, rng, n, m)
            names = [api.lp.edge_var(e) for e in range(g.m)]
            mixtures = [self._mixture(api, rng, g, names, 1 + j % 4) for j in range(self.MIXTURES)]
            self.small.append((g, mixtures))
        ladder_rng = random.Random(f"{self.name}:medium")
        self.medium = []
        for n in self.MEDIUM_SIZES:
            g = _connected_graph(api, ladder_rng, n, 30 + 5 * (n - 16))
            orders = [rng.sample(range(n), n) for _ in range(self.GREEDY_ORDERS)]
            weights = [rng.randint(1, 9) for _ in orders]
            self.medium.append((g, orders, weights))

    @staticmethod
    def _mixture(api: Layers, rng: random.Random, g, names: list[str], count: int) -> list:
        points = [DequantizeLp._point(api, rng, g, names) for _ in range(count)]
        return _weighted(points, [rng.randint(1, 9) for _ in range(count)])

    @staticmethod
    def _point(api: Layers, rng: random.Random, g, names: list[str]):
        """A feasible point: a greedy maximal matching under a random edge
        order (one time in three) or random sixths scaled under the loads."""
        if rng.random() < 1 / 3:
            blocked: set[int] = set()
            matching = []
            for e in rng.sample(range(g.m), g.m):
                u, v = g.endpoints(e)
                if u not in blocked and v not in blocked:
                    matching.append(e)
                    blocked.update((u, v))
            return api.lp.maximal_matching_to_fractional(g, matching)
        raw = [Fraction(rng.randint(0, 6), 6) for _ in range(g.m)]
        load = [Fraction(0)] * g.n
        for e, val in enumerate(raw):
            u, v = g.endpoints(e)
            load[u] += val
            load[v] += val
        scale = max([Fraction(1)] + load)
        return api.lp.LpPoint.of({names[e]: raw[e] / scale for e in range(g.m)})

    def begin_pass(self) -> None:
        self.optima: list = [None] * len(self.small)
        self.medium_optima: list = [None] * len(self.medium)
        self.mixtures_checked = 0
        self.matched_edges = 0

    def ops(self, api: Layers) -> list[Op]:
        return [partial(self._small, api, i) for i in range(len(self.small))] + [
            partial(self._medium, api, i) for i in range(len(self.medium))
        ]

    def _check_mixture(self, api: Layers, lp, opt, pairs) -> bool:
        """Dequantize one mixture: feasible, objective equal to the expected
        objective, ratio at most the support maximum."""
        x_hat = api.lp.dequantize(api.lp.outcome_of_points(lp, pairs), lp)
        if not api.lp.check_feasible(lp, x_hat):
            return False
        values = [api.lp.objective_value(lp, pt) for pt, _ in pairs]
        value_hat = api.lp.objective_value(lp, x_hat)
        if value_hat != sum((p * val for (_, p), val in zip(pairs, values)), Fraction(0)):
            return False
        if _ratio(opt, value_hat) > max(_ratio(opt, val) for val in values):
            return False
        self.mixtures_checked += 1
        return True

    def _small(self, api: Layers, i: int) -> bool:
        g, mixtures = self.small[i]
        lp = api.lp.build_fractional_matching_lp(g)
        opt = api.lp.exact_opt(lp)
        if opt.status != "optimal":
            return False
        self.optima[i] = opt.value
        return all(self._check_mixture(api, lp, opt.value, pairs) for pairs in mixtures)

    def _medium(self, api: Layers, i: int) -> bool:
        g, orders, weights = self.medium[i]
        lp = api.lp.build_fractional_matching_lp(g)
        opt = api.lp.exact_opt(lp)
        if opt.status != "optimal":
            return False
        self.medium_optima[i] = opt.value
        points = []
        for order in orders:
            matching, _observed = api.linearize.greedy_matching(g, order)
            if not api.linearize.is_maximal_matching(g, matching):
                return False
            self.matched_edges += len(matching)
            points.append(api.lp.maximal_matching_to_fractional(g, matching))
        return all(
            self._check_mixture(api, lp, opt.value, _weighted(points[:k], weights[:k]))
            for k in (2, len(points))
        )

    def summary(self) -> dict:
        optima = self.optima + self.medium_optima
        return {
            "graphs": [len(self.small), len(self.medium)],
            "mixtures_checked": self.mixtures_checked,
            "lp_optima_sum": str(sum((v for v in optima if v is not None), Fraction(0))),
            "greedy_matched_edges": self.matched_edges,
        }

    def oracle_checks(self, locallab) -> list[tuple[str, bool, str]]:
        """Small band: optimum against the best half-integral point and, on
        bipartite graphs, against the maximum matching size (Konig)."""
        half_ok = konig_ok = True
        bipartite = 0
        detail = ""
        for (g, _), opt in zip(self.small, self.optima):
            half = locallab.corpus.best_half_integral_matching_value(g)
            if opt != half:
                half_ok = False
                detail = f"exact_opt {opt} != half-integral {half} on {g.edge_list}"
            if locallab.graphs.is_bipartite(g) is not None:
                bipartite += 1
                size = locallab.corpus.maximum_matching_size(g)
                if opt != size:
                    konig_ok = False
                    detail = f"exact_opt {opt} != matching size {size} on {g.edge_list}"
        return [
            (f"exact_opt == best half-integral value ({len(self.small)} graphs)", half_ok, detail),
            (f"exact_opt == maximum matching size ({bipartite} bipartite)", konig_ok, detail),
        ]


# ---------------------------------------------------------------------------
# gadget-lift: proper-instance recognition and the lift


class GadgetLift:
    name = "gadget-lift"
    # (n, m) of the sources, 2 graphs each.  The sources and the mutants'
    # places are the same for every seed, and the seed numbers their nodes and
    # orders their edges: the recognizer's time varies severalfold between
    # graphs of one shape and between mutants of one graph, so seeded
    # structures would make wall_s and the tail a draw.
    SOURCE_SHAPES = ((2, 1), (3, 2), (4, 3), (4, 4), (5, 5), (5, 6), (6, 7), (6, 8))
    SOURCE_REPEATS = 2
    MUTANTS = 3
    LIFTS = 20
    RIGID_PORT_HEIGHT = 3  # tree roots are unique, so mutants cannot re-decompose
    FAMILY_PORT_HEIGHT = 2  # calibration instances for every source size

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self, api: Layers) -> None:
        rng = self.rng
        shapes_rng = random.Random(f"{self.name}:sources")
        self.sources = []
        for n, m in self.SOURCE_SHAPES * self.SOURCE_REPEATS:
            base = _connected_graph(api, shapes_rng, n, m)
            source = _relabelled(api, rng, base)
            ig = api.linearize.incidence_graph_of(source)
            pi, port_map = api.gadgets.gen_proper_instance(ig)
            k_rigid = max(api.gadgets.default_port_height(ig.graph.n), self.RIGID_PORT_HEIGHT)
            rigid, _ = api.gadgets.gen_proper_instance(ig, k=k_rigid)
            base_rigid, _ = api.gadgets.gen_proper_instance(
                api.linearize.incidence_graph_of(base), k=k_rigid
            )
            mutants = self._mutants(api, shapes_rng, base_rigid)
            family, _ = api.gadgets.gen_proper_instance(ig, k=self.FAMILY_PORT_HEIGHT)
            ghat, _ = api.gadgets.contract_octopi(pi)
            contracted, _, _ = api.linearize.multigraph_of_incidence(ghat)
            self.sources.append(
                {
                    "source": source,
                    "ig": ig,
                    "pi": pi,
                    "port_map": port_map,
                    "network": api.graphs.label_graph(pi.graph),
                    "rigid": rigid,
                    "family": family,
                    "mutants": [_relabelled(api, rng, g) for g in mutants],
                    "orders": [
                        rng.sample(range(contracted.n), contracted.n) for _ in range(self.LIFTS)
                    ],
                }
            )

    def _mutants(self, api: Layers, rng: random.Random, rigid) -> list:
        """Single-edge deletions and additions, in turn.  Additions between a
        port corner (leaf or last node) and an inter node are excluded: they
        can form another proper instance."""
        g = rigid.graph
        corners = {v for w in rigid.octopi for p in w.ports for v in (p.leaf, p.nodes[-1])}
        inters = set(rigid.inters())
        existing = {frozenset(e) for e in g.edge_list}
        additions = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if frozenset((u, v)) not in existing
            and not (u in corners and v in inters)
            and not (v in corners and u in inters)
        ]
        out = []
        for i in range(self.MUTANTS):
            if i % 2 == 0:
                drop = rng.randrange(g.m)
                edges = [e for i, e in enumerate(g.edge_list) if i != drop]
            else:
                edges = list(g.edge_list) + [additions[rng.randrange(len(additions))]]
            out.append(api.graphs.make_graph(g.n, edges))
        return out

    def begin_pass(self) -> None:
        self.round_trips = 0
        self.mutants_rejected = 0
        self.lift_runs = 0
        self.matched_edges = 0
        self.lcl_violations = 0
        self.family_members = 0

    def ops(self, api: Layers) -> list[Op]:
        out: list[Op] = []
        for s in self.sources:
            out.append(partial(self._round_trip_and_lcl, api, s))
            out.append(partial(self._round_trip, api, s["rigid"].graph))
            out.extend(partial(self._reject, api, m) for m in s["mutants"])
            out.extend(partial(self._lift, api, s, order) for order in s["orders"])
        return out

    def _round_trip(self, api: Layers, g) -> bool:
        if api.gadgets.recognize_proper_instance(g) is None:
            return False
        self.round_trips += 1
        return True

    def _round_trip_and_lcl(self, api: Layers, s: dict) -> bool:
        """Recognize the proper instance, then check a family labeling of the
        same source against its calibrated constraint set."""
        if not self._round_trip(api, s["pi"].graph):
            return False
        constraints = api.gadgets.family_constraint_set_for(s["family"])
        verdict = api.lcl.check_constraints(s["family"].labeling, constraints)
        self.lcl_violations += len(verdict.violations)
        self.family_members += len(constraints.members)
        return verdict.ok

    def _reject(self, api: Layers, mutant) -> bool:
        if api.gadgets.recognize_proper_instance(mutant) is not None:
            return False
        self.mutants_rejected += 1
        return True

    def _lift(self, api: Layers, s: dict, order: list[int]) -> bool:
        """Lift, verify the promise, pull back, decode, check maximality."""
        pi, ig, source = s["pi"], s["ig"], s["source"]
        encoding = api.linearize.MATCHING_ENCODING
        result = api.gadgets.lift_run(pi, order)
        if not api.gadgets.verify_pi_promise(pi, result.labels, encoding):
            return False
        labeling = api.gadgets.promise_labeling_of(pi, result.labels)
        pulled = api.gadgets.pullback_outcome(
            api.outcomes.deterministic_outcome(s["network"], labeling), s["port_map"]
        )
        edge_labels = api.gadgets.edge_labels_of_pullback(pulled.support[0][0], ig)
        if not api.linearize.verify_linearizable(encoding, ig, edge_labels):
            return False
        blacks = api.linearize.decode_to_matching(ig, edge_labels)
        matching = frozenset(b - source.n for b in blacks)
        if not api.linearize.is_maximal_matching(source, matching):
            return False
        self.lift_runs += 1
        self.matched_edges += len(matching)
        return True

    def summary(self) -> dict:
        return {
            "sources": len(self.sources),
            "round_trips": self.round_trips,
            "mutants_rejected": self.mutants_rejected,
            "lift_runs": self.lift_runs,
            "lift_matched_edges": self.matched_edges,
            "family_members": self.family_members,
            "lcl_violations": self.lcl_violations,
        }

    def oracle_checks(self, locallab) -> list[tuple[str, bool, str]]:
        return []


# ---------------------------------------------------------------------------
# local-scale: per-node views and balls on large sparse graphs

COLOURS = ("1", "2", "3")


def proper_colouring_constraints(api: Layers):
    """Radius-1 constraint set of proper 3-colourings of cycles: a centred
    path a-b-c with a != b != c, one member per isomorphism class."""
    members = []
    for b in COLOURS:
        others = [c for c in COLOURS if c != b]
        for a, c in ((others[0], others[0]), (others[1], others[1]), (others[0], others[1])):
            base = api.graphs.label_graph(api.graphs.path_graph(3), {0: a, 1: b, 2: c})
            members.append(api.graphs.CenteredGraph(base=base, center=1))
    return api.lcl.make_constraint_set(1, 2, COLOURS, (None,), members)


def _random_colouring(rng: random.Random, n: int) -> dict[int, str]:
    """Proper 3-colouring of the cycle 0..n-1."""
    colour = [rng.choice(COLOURS)]
    for v in range(1, n):
        banned = {colour[v - 1], colour[0]} if v == n - 1 else {colour[v - 1]}
        colour.append(rng.choice([c for c in COLOURS if c not in banned]))
    return dict(enumerate(colour))


def _view_size_rule(api: Layers, r: int):
    """Deterministic r-round rule: (nodes, retained edges) of the view."""

    def rule(view):
        return api.outcomes.NodeOutput(node_label=(len(view.node_set), len(view.edge_set)))

    return api.outcomes.LocalAlgorithm(locality=r, rule=rule)


class LocalScale:
    name = "local-scale"
    # Each algorithm runs on a ladder of sizes a factor sqrt(2) apart, so the
    # latencies of its rungs are a factor 2 apart (costs grow with n^2 today).
    # The ladders are offset so that the four algorithms' latencies
    # interleave about a factor 2^(1/4) apart: the median and the tail
    # operation then fall between close neighbours, not at a jump.
    RUN_LOCAL_SIZES = {
        1: (71, 100, 141, 200, 283, 400, 566, 800, 1131),
        2: (55, 77, 109, 154, 218, 308, 436, 617),
    }
    GREEDY_SIZES = (64, 90, 127, 180, 254, 359, 508, 718)
    COLOURING_SIZES = (50, 71, 100, 141, 200, 283, 400, 566, 800)

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self, api: Layers) -> None:
        rng = self.rng
        self.rules = {r: _view_size_rule(api, r) for r in (1, 2)}
        self.cycles = {
            n: api.graphs.label_graph(api.graphs.cycle_graph(n))
            for sizes in self.RUN_LOCAL_SIZES.values()
            for n in sizes
        }
        self.trees = []
        for n in self.GREEDY_SIZES:
            self.trees.append((_random_tree(api, rng, n), rng.sample(range(n), n)))
        self.constraints = proper_colouring_constraints(api)
        self.colourings = [
            api.graphs.label_graph(api.graphs.cycle_graph(n), _random_colouring(rng, n))
            for n in self.COLOURING_SIZES
        ]

    def begin_pass(self) -> None:
        self.labelled_nodes = 0
        self.matched_edges = 0
        self.balls_checked = 0
        self.lcl_violations = 0

    def ops(self, api: Layers) -> list[Op]:
        out: list[Op] = []
        for r, sizes in self.RUN_LOCAL_SIZES.items():
            out.extend(partial(self._run_local, api, r, self.cycles[n]) for n in sizes)
        out.extend(partial(self._greedy, api, g, order) for g, order in self.trees)
        out.extend(partial(self._colouring, api, lg) for lg in self.colourings)
        return out

    def _run_local(self, api: Layers, r: int, lg) -> bool:
        labeling = api.outcomes.run_local(self.rules[r], lg)
        expected = (2 * r + 1, 2 * r)
        if len(labeling.node_items) != lg.graph.n:
            return False
        if any(label != expected for _, label in labeling.node_items):
            return False
        self.labelled_nodes += lg.graph.n
        return True

    def _greedy(self, api: Layers, g, order: list[int]) -> bool:
        matching, observed = api.linearize.greedy_matching(g, order)
        if observed > 2 or not api.linearize.is_maximal_matching(g, matching):
            return False
        self.matched_edges += len(matching)
        return True

    def _colouring(self, api: Layers, lg) -> bool:
        verdict = api.lcl.check_constraints(lg, self.constraints)
        self.lcl_violations += len(verdict.violations)
        self.balls_checked += lg.graph.n
        return verdict.ok

    def summary(self) -> dict:
        return {
            "labelled_nodes": self.labelled_nodes,
            "greedy_matched_edges": self.matched_edges,
            "balls_checked": self.balls_checked,
            "lcl_violations": self.lcl_violations,
        }

    def oracle_checks(self, locallab) -> list[tuple[str, bool, str]]:
        return []


WORKLOADS = {w.name: w for w in (CertifyCorpus, DequantizeLp, GadgetLift, LocalScale)}


# ---------------------------------------------------------------------------
# planted failures: the gate must reject each of these


def planted_cases(api: Layers) -> list[tuple[str, Op]]:
    """Known-bad inputs, each run as an operation that must fail."""

    def parity_pair() -> bool:
        # C4 and C5 look alike at radius 1 but every node outputs n mod 2.
        outcomes = []
        for n in (4, 5):
            lg = api.graphs.label_graph(api.graphs.cycle_graph(n))
            labeling = api.outcomes.Labeling.of({v: n % 2 for v in range(n)}, {})
            outcomes.append(api.outcomes.deterministic_outcome(lg, labeling))
        verdict = api.outcomes.verify_non_signaling(outcomes[0], outcomes[1], [0], [0], 1)
        return verdict.status != "violation"

    def infeasible_point() -> bool:
        # Both edges of the path 0-1-2 at 1 overload the middle node.
        g = api.graphs.path_graph(3)
        lp = api.lp.build_fractional_matching_lp(g)
        point = api.lp.LpPoint.of({api.lp.edge_var(e): 1 for e in range(g.m)})
        return bool(api.lp.check_feasible(lp, point))

    def improper_colouring() -> bool:
        colours = {v: COLOURS[v % 3] for v in range(12)}
        colours[5] = colours[4]
        lg = api.graphs.label_graph(api.graphs.cycle_graph(12), colours)
        return bool(api.lcl.check_constraints(lg, proper_colouring_constraints(api)))

    return [
        ("C4/C5 parity outcome pair is a violation", parity_pair),
        ("infeasible LP point fails check_feasible", infeasible_point),
        ("improper colouring fails check_constraints", improper_colouring),
    ]
