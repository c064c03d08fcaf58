"""Acceptance suites: one named suite per acceptance criterion, exact checks,
deterministic reports.

Every quantity is an exact rational compared with ==; the corpus is the only
seeded ingredient.  report.json is deterministic for a fixed seed (timings are
kept out of it and live in the human-readable report.txt only).
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from . import corpus
from .graphs import (
    ContractError,
    Graph,
    InputError,
    cycle_graph,
    extract_view,
    is_bipartite,
    label_graph,
    make_graph,
    view_key,
)
from .lcl import check_constraints
from .linearize import (
    MATCHING_ENCODING,
    decode_to_matching,
    encode_matching,
    greedy_matching,
    incidence_graph_of,
    is_maximal_matching,
    label_multiset,
    multigraph_of_incidence,
    verify_linearizable,
)
from .lp import (
    LpPoint,
    approximation_ratio,
    build_fractional_matching_lp,
    check_feasible,
    cycle_family,
    dequantize,
    edge_var,
    exact_opt,
    labeling_from_point,
    local_expectation_algorithm,
    maximal_matching_to_fractional,
    objective_value,
    oriented_cycle_graph,
    outcome_of_points,
    ratio_to_opt,
    whole_graph_family,
)
from .outcomes import (
    Labeling,
    LocalAlgorithm,
    NodeOutput,
    deterministic_outcome,
    make_outcome,
    rand_local_marginal,
    restrict,
    run_local,
    run_rand_local,
    success_probability,
    verify_non_signaling,
)
from .gadgets import (
    contract_octopi,
    default_port_height,
    family_constraint_set_for,
    gen_octopus,
    gen_proper_instance,
    gen_tree_like,
    lift_run,
    make_proper_instance,
    promise_labeling_of,
    pullback_outcome,
    recognize_proper_instance,
    recognize_tree_like,
    edge_labels_of_pullback,
    verify_pi_promise,
)


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail"
    quantities: dict[str, str] = field(default_factory=dict)
    detail: str = ""
    wall_ms: float = 0.0


@dataclass
class RunReport:
    suite: str
    seed: int
    checks: list[CheckResult]
    environment: dict[str, object]

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "environment": dict(sorted(self.environment.items())),
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "quantities": dict(sorted(c.quantities.items())),
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }

    def to_text(self) -> str:
        lines = [f"suite {self.suite} (seed {self.seed})"]
        for c in self.checks:
            lines.append(f"  [{c.status.upper():4}] {c.name} ({c.wall_ms:.0f} ms)")
            for k, v in sorted(c.quantities.items()):
                lines.append(f"         {k} = {v}")
            if c.detail:
                lines.append(f"         {c.detail}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines) + "\n"


def _check(checks: list[CheckResult], name: str, fn: Callable[[], tuple[bool, dict, str]]) -> None:
    start = time.perf_counter()
    try:
        ok, quantities, detail = fn()
    except Exception as err:  # a crashed check is a failed check
        ok, quantities, detail = False, {}, f"exception: {err!r}"
    ms = (time.perf_counter() - start) * 1000
    checks.append(
        CheckResult(
            name=name,
            status="pass" if ok else "fail",
            quantities={k: str(v) for k, v in quantities.items()},
            detail=detail,
            wall_ms=ms,
        )
    )


# ---------------------------------------------------------------------------
# criterion 1: dequantization soundness


def _random_feasible_point(rng: random.Random, g: Graph, matchings: list) -> LpPoint:
    """A maximal matching of g (one time in three) or random sixths scaled
    under the node loads; `matchings` is `corpus.all_maximal_matchings(g)`."""
    if rng.random() < 1 / 3:
        return maximal_matching_to_fractional(g, matchings[rng.randrange(len(matchings))])
    sixths = [rng.randint(0, 6) for _ in range(g.m)]
    load = [0] * g.n  # in sixths
    for e, val in enumerate(sixths):
        u, v = g.endpoints(e)
        load[u] += val
        load[v] += val
    scale = max([6] + load)
    return LpPoint.of({edge_var(e): Fraction(sixths[e], scale) for e in range(g.m)})


def suite_dequantize(seed: int) -> list[CheckResult]:
    rng = random.Random(seed)
    checks: list[CheckResult] = []
    graphs = [g for g in corpus.all_connected_graphs(6) if g.m > 0]

    def run() -> tuple[bool, dict, str]:
        mixtures = 0
        ratio_checks = 0
        for g in graphs:
            lp = build_fractional_matching_lp(g)
            opt = exact_opt(lp)
            assert opt.status == "optimal" and opt.value is not None
            matchings = corpus.all_maximal_matchings(g)
            for trial in range(200):
                count = rng.randint(1, 4)
                points = [_random_feasible_point(rng, g, matchings) for _ in range(count)]
                weights = [rng.randint(1, 9) for _ in range(count)]
                total = sum(weights)
                pairs = [(pt, Fraction(w, total)) for pt, w in zip(points, weights)]
                outcome = outcome_of_points(lp, pairs)
                x_hat = dequantize(outcome, lp)
                if not check_feasible(lp, x_hat):
                    return False, {"graph_edges": g.edge_list, "trial": trial}, "dequantized point infeasible"
                expected_obj = sum(
                    (p * objective_value(lp, pt) for pt, p in pairs), Fraction(0)
                )
                val_hat = objective_value(lp, x_hat)
                if val_hat != expected_obj:
                    return False, {
                        "graph_edges": g.edge_list,
                        "trial": trial,
                        "objective": val_hat,
                        "expected_objective": expected_obj,
                    }, "objective does not equal the expected objective"
                ratios = [ratio_to_opt(lp.sense, opt.value, objective_value(lp, pt)) for pt, _p in pairs]
                ratio_hat = ratio_to_opt(lp.sense, opt.value, val_hat)
                if not (ratio_hat <= max(ratios)):
                    return False, {
                        "graph_edges": g.edge_list,
                        "trial": trial,
                        "ratio": ratio_hat,
                        "support_max_ratio": max(ratios),
                    }, "ratio exceeds the support maximum"
                if trial == 0:
                    direct = approximation_ratio(lp, x_hat)
                    if direct != ratio_hat:
                        return False, {
                            "graph_edges": g.edge_list,
                            "trial": trial,
                            "approximation_ratio": direct,
                            "ratio": ratio_hat,
                        }, "approximation_ratio disagrees with cached optimum"
                    ratio_checks += 1
                mixtures += 1
        return True, {"graphs": len(graphs), "mixtures": mixtures, "op_ties": ratio_checks}, ""

    _check(checks, "dequantize-soundness-upto-6-nodes", run)
    return checks


# ---------------------------------------------------------------------------
# criterion 2: local-expectation equivalence


def _uniform_maximal_matching_oracle(g: Graph, lp):
    matchings = corpus.all_maximal_matchings(g)
    p = Fraction(1, len(matchings))
    return outcome_of_points(lp, [(maximal_matching_to_fractional(g, m), p) for m in matchings])


def _cycle_parity_algorithm() -> LocalAlgorithm:
    def rule(view, seeds):
        v = view.anchor_node()
        g = view.source.graph
        total = Fraction(int(seeds[v]))
        he = {}
        for lab_e in view.ports[v]:
            e = lab_e[1]
            if e is None:
                continue
            u = g.other(e, v)
            he[e] = Fraction((int(seeds[v]) + int(seeds[u])) % 2)
        for u in view.node_set:
            if u != v:
                total += Fraction(int(seeds[u]), 2)
        return NodeOutput(node_label=total, half_edge_labels=he)

    return LocalAlgorithm(locality=1, rule=rule, seed_alphabet=("0", "1"))


def suite_local_expectation(seed: int) -> list[CheckResult]:
    checks: list[CheckResult] = []
    graphs = [g for g in corpus.all_connected_graphs(6) if g.m > 0]

    def whole_graph_part() -> tuple[bool, dict, str]:
        for g in graphs:
            lp = build_fractional_matching_lp(g)
            lg = label_graph(g)
            outcome = _uniform_maximal_matching_oracle(g, lp)

            def oracle(network, nodes, _outcome=outcome, _lg=lg):
                if network != _lg:
                    raise ContractError("oracle asked about a foreign network")
                return restrict(_outcome, nodes)

            alg = local_expectation_algorithm(oracle, 1, whole_graph_family(lg))
            labeling = run_local(alg, lg)
            expected = labeling_from_point(lp, dequantize(outcome, lp))
            if labeling.half_edges() != expected.half_edges():
                return False, {"graph_edges": g.edge_list}, "coordinatewise mismatch"
        return True, {"graphs": len(graphs)}, ""

    _check(checks, "whole-graph-completion-equals-dequantize", whole_graph_part)

    def cycle_part() -> tuple[bool, dict, str]:
        alg = _cycle_parity_algorithm()

        def oracle(network, nodes):
            return rand_local_marginal(alg, network, nodes)

        rules = [
            local_expectation_algorithm(oracle, 1, cycle_family(9)),
            local_expectation_algorithm(oracle, 1, cycle_family(11)),
        ]
        compared = 0
        for source_len in (8, 13):
            lg = oriented_cycle_graph(source_len)
            for v in range(source_len):
                view = extract_view(lg, [v], 1)
                outs = [r.rule(view) for r in rules]
                if outs[0].node_label != outs[1].node_label:
                    return False, {"cycle": source_len, "node": v}, "completions disagree on the node value"
                for e in lg.graph.adjacency[v]:
                    if outs[0].half_edge_labels.get(e) != outs[1].half_edge_labels.get(e):
                        return False, {"cycle": source_len, "node": v}, "completions disagree on a half-edge"
                compared += 1
        return True, {"anchors_compared": compared}, ""

    _check(checks, "two-completions-agree-on-cycles", cycle_part)
    return checks


# ---------------------------------------------------------------------------
# criterion 3: non-signaling of the randomized simulator


def _invariant_algorithm(t: int) -> LocalAlgorithm:
    def rule(view, seeds):
        v = view.anchor_node()
        g = view.source.graph
        if t == 0:
            he = {e: seeds[v] for _, e in view.ports[v] if e is not None}
            return NodeOutput(node_label=seeds[v], half_edge_labels=he)
        if t == 1:
            total = int(seeds[v])
            he = {}
            for lab_e in view.ports[v]:
                e = lab_e[1]
                if e is None:
                    continue
                u = g.other(e, v)
                total += int(seeds[u])
                he[e] = str((int(seeds[v]) + int(seeds[u])) % 2)
            return NodeOutput(node_label=str(total % 2), half_edge_labels=he)
        total = sum(int(seeds[u]) for u in view.node_set)
        return NodeOutput(node_label=str(total % 2))

    return LocalAlgorithm(locality=t, rule=rule, seed_alphabet=("0", "1"))


def suite_non_signaling(seed: int) -> list[CheckResult]:
    rng = random.Random(seed)
    checks: list[CheckResult] = []
    graphs = list(corpus.all_connected_graphs(7))

    def simulator_part() -> tuple[bool, dict, str]:
        pairs_checked = 0
        classes_total = 0
        direct_samples = 0
        for t in (0, 1, 2):
            alg = _invariant_algorithm(t)
            outcomes = []
            # anchored views classed by view key: equal keys iff port-isomorphic
            classes: dict[tuple, list[tuple[int, int]]] = {}
            for gi, g in enumerate(graphs):
                lg = label_graph(g)
                outcomes.append(run_rand_local(alg, lg))
                for v in range(g.n):
                    classes.setdefault(view_key(extract_view(lg, [v], t)), []).append((gi, v))
            for members in classes.values():
                rep_gi, rep_v = members[0]
                for gi, v in members[1:]:
                    verdict = verify_non_signaling(outcomes[gi], outcomes[rep_gi], [v], [rep_v], t)
                    if not verdict:
                        return (
                            False,
                            {"t": t, "graph": gi, "node": v},
                            f"simulator violated non-signaling: {verdict.detail}",
                        )
                    pairs_checked += 1
            classes_total += len(classes)
            big = [m for m in classes.values() if len(m) >= 2]
            for _ in range(min(40, len(big))):
                members = big[rng.randrange(len(big))]
                a = members[rng.randrange(len(members))]
                b = members[rng.randrange(len(members))]
                verdict = verify_non_signaling(outcomes[a[0]], outcomes[b[0]], [a[1]], [b[1]], t)
                if not verdict:
                    return False, {"t": t}, "direct pair sample violated non-signaling"
                direct_samples += 1
        return (
            True,
            {
                "graphs": len(graphs),
                "iso_classes": classes_total,
                "pairs_via_representatives": pairs_checked,
                "direct_pair_samples": direct_samples,
            },
            "",
        )

    _check(checks, "rand-local-is-non-signaling-upto-7-nodes", simulator_part)

    def planted_part() -> tuple[bool, dict, str]:
        c4 = label_graph(cycle_graph(4))
        c5 = label_graph(cycle_graph(5))
        o4 = deterministic_outcome(c4, Labeling.of({v: 4 % 2 for v in range(4)}, {}))
        o5 = deterministic_outcome(c5, Labeling.of({v: 5 % 2 for v in range(5)}, {}))
        verdict = verify_non_signaling(o4, o5, [0], [0], 1)
        if verdict.status != "violation":
            return False, {"status": verdict.status}, "planted signaling outcome was not rejected"
        return True, {"status": verdict.status}, ""

    _check(checks, "planted-parity-outcome-rejected", planted_part)
    return checks


# ---------------------------------------------------------------------------
# criterion 4: matching encoding round trip


def suite_matching_roundtrip(seed: int) -> list[CheckResult]:
    checks: list[CheckResult] = []

    def roundtrip_part() -> tuple[bool, dict, str]:
        total = 0
        for g in corpus.all_graphs(6):
            ig = incidence_graph_of(g)
            for m in corpus.all_maximal_matchings(g):
                blacks = frozenset(g.n + e for e in m)
                labeling = encode_matching(ig, blacks)
                if not verify_linearizable(MATCHING_ENCODING, ig, labeling):
                    return False, {"edges": g.edge_list}, "encoding fails verification"
                if decode_to_matching(ig, labeling) != blacks:
                    return False, {"edges": g.edge_list}, "decode(encode(M)) != M"
                total += 1
        return True, {"matchings": total}, ""

    _check(checks, "encode-decode-roundtrip-upto-6-nodes", roundtrip_part)

    def soundness_part() -> tuple[bool, dict, str]:
        accepted = 0
        for g in corpus.all_graphs(4):
            ig = incidence_graph_of(g)
            for labeling in _accepted_labelings(ig):
                if not verify_linearizable(MATCHING_ENCODING, ig, labeling):
                    return False, {"edges": g.edge_list}, "enumerator produced a rejected labeling"
                accepted += 1
                blacks = decode_to_matching(ig, labeling)  # asserts maximality
                mg, _, edge_of_black = multigraph_of_incidence(ig)
                verdict = is_maximal_matching(mg, frozenset(edge_of_black[b] for b in blacks))
                if not verdict:
                    return False, {"edges": g.edge_list}, verdict.reason
        return True, {"accepted_labelings": accepted}, ""

    _check(checks, "accepted-labelings-decode-to-maximal-upto-4-nodes", soundness_part)
    return checks


def _accepted_labelings(ig):
    """Every labeling that verify_linearizable accepts, in lexicographic
    order of the whites' strings: the product of each white's allowed
    strings, filtered by the black multisets."""
    problem = MATCHING_ENCODING
    g = ig.graph
    sigma = sorted(problem.sigma)
    whites = [w for w in ig.whites() if g.adjacency[w]]
    edges = [e for w in whites for e in g.adjacency[w]]
    strings = [[s for s in itertools.product(sigma, repeat=g.degree(w)) if not problem.string_violations(s)]
               for w in whites]
    out = []
    for choice in itertools.product(*strings):
        labeling = dict(zip(edges, itertools.chain.from_iterable(choice)))
        if all(label_multiset([labeling[e] for e in g.adjacency[b]]) in problem.black
               for b in ig.blacks() if g.adjacency[b]):
            out.append(labeling)
    return out


# ---------------------------------------------------------------------------
# criterion 5: factor-3 bound and Konig cross-check


def suite_factor3(seed: int) -> list[CheckResult]:
    rng = random.Random(seed)
    checks: list[CheckResult] = []
    graphs = corpus.random_graph_corpus(seed, 500, 8)

    def factor3_part() -> tuple[bool, dict, str]:
        runs = 0
        worst = Fraction(0)
        for g in graphs:
            lp = build_fractional_matching_lp(g)
            opt = exact_opt(lp)
            assert opt.status == "optimal" and opt.value is not None
            for _ in range(20):
                order = list(range(g.n))
                rng.shuffle(order)
                matching, _observed = greedy_matching(g, order)
                verdict = is_maximal_matching(g, matching)
                if not verdict:
                    return False, {"edges": g.edge_list, "order": order}, verdict.reason
                point = maximal_matching_to_fractional(g, matching)
                if not check_feasible(lp, point):
                    return False, {}, "matching point infeasible"
                ratio = ratio_to_opt(lp.sense, opt.value, objective_value(lp, point))
                if not (ratio <= 3):
                    return False, {"edges": g.edge_list, "ratio": ratio}, "factor-3 violated"
                worst = max(worst, ratio)
                runs += 1
        sample = graphs[0]
        lp0 = build_fractional_matching_lp(sample)
        m0, _ = greedy_matching(sample, list(range(sample.n)))
        tie = approximation_ratio(lp0, maximal_matching_to_fractional(sample, m0))
        if not (tie <= 3):
            return False, {}, "approximation_ratio op disagrees"
        return True, {"greedy_runs": runs, "worst_ratio": worst}, ""

    _check(checks, "greedy-maximal-matching-ratio-at-most-3", factor3_part)

    def konig_part() -> tuple[bool, dict, str]:
        count = 0
        for g in graphs:
            if is_bipartite(g) is None:
                continue
            lp = build_fractional_matching_lp(g)
            opt = exact_opt(lp)
            integral = corpus.maximum_matching_size(g)
            if opt.value != integral:
                return (
                    False,
                    {"edges": g.edge_list, "opt": opt.value, "integral": integral},
                    "fractional and integral optima differ on a bipartite graph",
                )
            count += 1
        return True, {"bipartite_members": count}, ""

    _check(checks, "konig-exact-opt-equals-integral-on-bipartite", konig_part)
    return checks


# ---------------------------------------------------------------------------
# criterion 6: gadget laws


def _mutations(rng: random.Random, g: Graph, count: int, forbidden_additions: frozenset = frozenset()):
    """Up to `count` single-edge mutations (delete or add one edge)."""
    existing = {frozenset(e) for e in g.edge_list}
    non_edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if frozenset((u, v)) not in existing and frozenset((u, v)) not in forbidden_additions
    ]
    out = []
    for _ in range(count):
        if g.m > 0 and (not non_edges or rng.random() < 0.5):
            drop = rng.randrange(g.m)
            out.append(make_graph(g.n, [e for i, e in enumerate(g.edge_list) if i != drop]))
        elif non_edges:
            u, v = non_edges[rng.randrange(len(non_edges))]
            out.append(make_graph(g.n, list(g.edge_list) + [(u, v)]))
    return out


def suite_gadgets(seed: int) -> list[CheckResult]:
    rng = random.Random(seed)
    checks: list[CheckResult] = []

    def tree_part() -> tuple[bool, dict, str]:
        rejected = 0
        for height in range(1, 6):
            gadget = gen_tree_like(height)
            if recognize_tree_like(gadget.graph) is None:
                return False, {"height": height}, "round trip failed"
            for mutant in _mutations(rng, gadget.graph, 50):
                if recognize_tree_like(mutant) is not None:
                    return False, {"height": height}, "mutant accepted"
                rejected += 1
        return True, {"mutants_rejected": rejected}, ""

    _check(checks, "tree-like-roundtrip-and-mutations-h1-5", tree_part)

    def octopus_part() -> tuple[bool, dict, str]:
        rejected = 0
        cases = 0
        for x in (1, 2, 3):
            slots = 1 << (x - 1)
            for _ in range(4):
                eta = tuple(rng.choice((1, 2)) for _ in range(slots))
                weights = {
                    (i, j): rng.choice((2, 3))
                    for i in range(slots)
                    for j in (1, 2)
                    if j <= eta[i]
                }
                gadget = gen_octopus(x, eta, weights)
                if recognize_proper_instance(gadget.graph) is None:
                    return False, {"x": x, "eta": eta}, "octopus round trip failed"
                cases += 1
                for mutant in _mutations(rng, gadget.graph, 50):
                    if recognize_proper_instance(mutant) is not None:
                        return False, {"x": x, "eta": eta}, "octopus mutant accepted"
                    rejected += 1
        return True, {"octopi": cases, "mutants_rejected": rejected}, ""

    _check(checks, "octopus-roundtrip-and-mutations-x1-3", octopus_part)

    def proper_part() -> tuple[bool, dict, str]:
        rejected = 0
        for trial in range(50):
            source = corpus.random_connected_graph(rng, rng.randint(2, 6))
            ig = incidence_graph_of(source)
            pi, _pm = gen_proper_instance(ig)
            n, big_n = ig.graph.n, pi.graph.n
            if not (n <= big_n <= n**3):
                return False, {"n": n, "N": big_n}, "size law violated"
            if recognize_proper_instance(pi.graph) is None:
                return False, {"trial": trial, "edges": source.edge_list}, "round trip failed"
            # mutation rejection on rigid instances (port height >= 3: tree
            # roots are unique, so single-edge mutations cannot re-decompose)
            k_rigid = max(default_port_height(ig.graph.n), 3)
            pi_rigid, _ = gen_proper_instance(ig, k=k_rigid)
            if recognize_proper_instance(pi_rigid.graph) is None:
                return False, {"trial": trial}, "rigid round trip failed"
            corners = set()
            for w in pi_rigid.octopi:
                for p in w.ports:
                    corners.add(p.leaf)
                    corners.add(p.nodes[-1])
            forbidden = frozenset(
                frozenset((c, u)) for c in corners for u in pi_rigid.inters()
            )
            for mutant in _mutations(rng, pi_rigid.graph, 50, forbidden_additions=forbidden):
                rec = recognize_proper_instance(mutant)
                if rec is not None:
                    # an accept must at least be sound: the witness has to pass
                    # the independent validator
                    lam, octs = rec
                    try:
                        make_proper_instance(mutant, lam, octs)
                    except Exception as err:
                        return False, {"trial": trial}, f"unsound accept: {err}"
                    return False, {"trial": trial}, "rigid proper-instance mutant accepted"
                rejected += 1
        return True, {"instances": 50, "mutants_rejected": rejected}, ""

    _check(checks, "proper-instance-roundtrip-size-law-mutations", proper_part)

    def family_label_part() -> tuple[bool, dict, str]:
        source = corpus.random_connected_graph(random.Random(seed + 1), 4)
        pi, _ = gen_proper_instance(incidence_graph_of(source), k=2)
        cs = family_constraint_set_for(pi)
        verdict = check_constraints(pi.labeling, cs)
        if not verdict:
            return False, {"violations": len(verdict.violations)}, "family labeling rejected"
        return True, {"members": len(cs.members)}, ""

    _check(checks, "family-labeling-satisfies-its-constraints", family_label_part)
    return checks


# ---------------------------------------------------------------------------
# criterion 7: lift end to end


def _lift_sources() -> list[Graph]:
    return [g for g in corpus.all_connected_graphs(5) if g.n >= 2]


def suite_lift(seed: int) -> list[CheckResult]:
    checks: list[CheckResult] = []

    def end_to_end() -> tuple[bool, dict, str]:
        runs = 0
        for source in _lift_sources():
            ig = incidence_graph_of(source)
            pi, pm = gen_proper_instance(ig)
            mg, _, _ = multigraph_of_incidence(contract_octopi(pi)[0])
            for order in itertools.permutations(range(mg.n)):
                result = lift_run(pi, order=list(order))
                if not verify_pi_promise(pi, result.labels, MATCHING_ENCODING):
                    return False, {"edges": source.edge_list, "order": order}, "promise verification failed"
                out = deterministic_outcome(
                    label_graph(pi.graph), promise_labeling_of(pi, result.labels)
                )
                pulled = pullback_outcome(out, pm)
                labeling = edge_labels_of_pullback(pulled.entries[0][0], ig)
                if not verify_linearizable(MATCHING_ENCODING, ig, labeling):
                    return False, {"edges": source.edge_list, "order": order}, "pullback invalid"
                blacks = decode_to_matching(ig, labeling)
                matching = frozenset(b - source.n for b in blacks)
                verdict = is_maximal_matching(source, matching)
                if not verdict:
                    return False, {"edges": source.edge_list, "order": order}, verdict.reason
                runs += 1
        return True, {"lift_runs": runs}, ""

    _check(checks, "lift-valid-for-every-order-upto-5-whites", end_to_end)

    def mass_preservation() -> tuple[bool, dict, str]:
        for source in (corpus.all_connected_graphs(4)[-4:]):
            if source.n < 2:
                continue
            ig = incidence_graph_of(source)
            pi, pm = gen_proper_instance(ig)
            mg, _, _ = multigraph_of_incidence(contract_octopi(pi)[0])
            labelings = []
            for order in [list(range(mg.n)), list(reversed(range(mg.n)))]:
                result = lift_run(pi, order=order)
                labelings.append(promise_labeling_of(pi, result.labels))
            corrupted_nodes = dict(labelings[0].nodes())
            first_port = pi.octopi[0].ports[0]
            for v in first_port.nodes:
                corrupted_nodes[v] = "A"  # A cannot start a white string
            corrupted = Labeling.of(corrupted_nodes, {})
            support = [
                (labelings[0], Fraction(1, 2)),
                (labelings[1], Fraction(1, 4)),
                (corrupted, Fraction(1, 4)),
            ]
            outcome = make_outcome(label_graph(pi.graph), support)

            def promise_ok(lab: Labeling) -> bool:
                return bool(verify_pi_promise(pi, lab.nodes(), MATCHING_ENCODING))

            pulled = pullback_outcome(outcome, pm)

            def source_ok(lab: Labeling) -> bool:
                try:
                    edge_lab = edge_labels_of_pullback(lab, ig)
                except InputError:  # inconsistent half-edge labels: not a valid labeling
                    return False
                return bool(verify_linearizable(MATCHING_ENCODING, ig, edge_lab))

            before = success_probability(outcome, promise_ok)
            after = success_probability(pulled, source_ok)
            if after < before:
                return False, {"before": before, "after": after}, "mass lost in pullback"
            if before != after:
                return (
                    False,
                    {"before": before, "after": after},
                    "mass not preserved for a stay-invalid corruption",
                )
        return True, {}, ""

    _check(checks, "success-probability-preserved-under-pullback", mass_preservation)
    return checks


# ---------------------------------------------------------------------------
# criterion 8: greedy observed locality (known spec defect; see notes)


def suite_slocal_locality(seed: int) -> list[CheckResult]:
    rng = random.Random(seed)
    checks: list[CheckResult] = []

    def locality_part() -> tuple[bool, dict, str]:
        observed_values = set()
        graphs = corpus.random_graph_corpus(seed, 60, 8)
        for g in graphs:
            for _ in range(5):
                order = list(range(g.n))
                rng.shuffle(order)
                _, observed = greedy_matching(g, order)
                observed_values.add(observed)
        for source in _lift_sources()[:8]:
            pi, _pm = gen_proper_instance(incidence_graph_of(source))
            result = lift_run(pi)
            observed_values.add(result.observed_ghat_locality)
        ok = observed_values == {1}
        detail = (
            ""
            if ok
            else (
                "observed locality is 2: a correct greedy needs radius 2 with node "
                "units (claims on a neighbour live at the claimer, two hops away); "
                "locality 1 admits no maximal-matching algorithm for all orders"
            )
        )
        return ok, {"observed_values": sorted(observed_values)}, detail

    _check(checks, "greedy-observed-locality-equals-1", locality_part)
    return checks


# ---------------------------------------------------------------------------
# runner


# in acceptance-criterion order, which SUITE_NAMES and CRITERION_OF_SUITE keep
_SUITE_FUNCTIONS = {
    "dequantize": suite_dequantize,
    "local-expectation": suite_local_expectation,
    "non-signaling": suite_non_signaling,
    "matching-roundtrip": suite_matching_roundtrip,
    "factor3": suite_factor3,
    "gadgets": suite_gadgets,
    "lift": suite_lift,
    "slocal-locality": suite_slocal_locality,
}

SUITE_NAMES = tuple(_SUITE_FUNCTIONS)

CRITERION_OF_SUITE = {name: i + 1 for i, name in enumerate(SUITE_NAMES)}


def run_suite(name: str, seed: int = 0, out_dir: Optional[str] = None) -> RunReport:
    """Execute one named suite (or "all"); optionally write report.json/.txt."""
    if name == "all":
        checks = []
        for sub in SUITE_NAMES:
            checks.extend(_SUITE_FUNCTIONS[sub](seed))
    elif name in _SUITE_FUNCTIONS:
        checks = _SUITE_FUNCTIONS[name](seed)
    else:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)} or 'all'")
    report = RunReport(
        suite=name,
        seed=seed,
        checks=checks,
        environment={"package": "locallab", "version": "0.1.0", "corpus_seed": seed},
    )
    if out_dir is not None:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / "report.json").write_text(
            json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
        )
        (path / "report.txt").write_text(report.to_text())
    return report
