"""Command-line entry point: thin adapters over the library.

Exit codes: 0 success/verified, 1 verification failure, 2 usage error.
All randomness flows from --seed (corpus generation only; the math is
deterministic).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .graphs import (
    InputError,
    _label_to_json,
    _labels_from_json,
    graph_from_json,
    json_decoding,
    label_graph,
    labeled_graph_from_json,
    labeled_graph_to_json,
    node_from_key,
    to_dot,
)
from .lcl import check_constraints, constraint_set_from_json, lcl_problem_from_json, verify_lcl_solution
from .linearize import (
    MATCHING_ENCODING,
    decode_to_matching,
    edge_labeling_from_json,
    edge_labeling_to_json,
    encode_matching,
    greedy_matching,
    incidence_graph_from_json,
    linearizable_from_json,
    verify_linearizable,
)
from .lp import (
    INFEASIBLE,
    approximation_ratio,
    build_fractional_matching_lp,
    check_feasible,
    dequantize,
    exact_opt,
    lp_from_json,
    point_from_json,
    point_to_json,
)
from .outcomes import (
    LocalAlgorithm,
    NodeOutput,
    labeling_from_json,
    labeling_to_json,
    outcome_from_json,
    outcome_to_json,
    rand_local_marginal,
    run_local,
    run_rand_local,
    verify_non_signaling,
)
from .gadgets import (
    gen_octopus,
    gen_proper_instance,
    gen_tree_like,
    lift_run,
    port_map_from_json,
    port_map_to_json,
    proper_instance_dot,
    proper_instance_from_json,
    proper_instance_to_json,
    pullback_outcome,
    recognize_proper_instance,
    recognize_tree_like,
    verify_pi_promise,
)
from .suites import SUITE_NAMES, run_suite


def _load(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise InputError(f"{path} is not valid JSON: {err}") from None


def _dump(data, args) -> None:
    print(json.dumps(data, indent=None if getattr(args, "json", False) else 2, sort_keys=True))


def _ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise InputError(f"expected comma-separated integers, got {text!r}") from None


def _builtin_local_algorithm(name: str, locality: int, seeds: int) -> LocalAlgorithm:
    if name == "degree":
        return LocalAlgorithm(
            locality=max(locality, 1),
            rule=lambda view: NodeOutput(node_label=view.view_degree(view.anchor_node())),
        )
    if name.startswith("constant:"):
        token = name.split(":", 1)[1]
        return LocalAlgorithm(locality=locality, rule=lambda view: NodeOutput(node_label=token))
    if name == "seed-echo":
        return LocalAlgorithm(
            locality=locality,
            rule=lambda view, s: NodeOutput(node_label=s[view.anchor_node()]),
            seed_alphabet=tuple(str(i) for i in range(max(seeds, 2))),
        )
    if name == "seed-parity":
        def rule(view, s):
            total = sum(int(s[u]) for u in view.node_set)
            return NodeOutput(node_label=str(total % 2))

        return LocalAlgorithm(
            locality=locality,
            rule=rule,
            seed_alphabet=tuple(str(i) for i in range(max(seeds, 2))),
        )
    raise InputError(
        f"unknown algorithm {name!r}; use degree, constant:<label>, seed-echo, or seed-parity"
    )


def _cmd_lcl_verify(args) -> int:
    problem_data = _load(args.problem)
    graph = labeled_graph_from_json(_load(args.graph))
    if isinstance(problem_data, dict) and "node_in" in problem_data:
        problem = lcl_problem_from_json(problem_data)
        if args.output is None:
            raise InputError("an LCL problem needs --output, the output labeling to verify")
        verdict = verify_lcl_solution(problem, graph, labeling_from_json(_load(args.output)))
    else:
        with json_decoding("constraint problem"):
            constraints = constraint_set_from_json(problem_data["constraints"])
        verdict = check_constraints(graph, constraints)
    _dump({"ok": verdict.ok, "violations": list(verdict.violations)}, args)
    return 0 if verdict.ok else 1


def _cmd_sim_local(args) -> int:
    lg = labeled_graph_from_json(_load(args.graph))
    alg = _builtin_local_algorithm(args.algorithm, args.locality, 2)
    if alg.randomized:
        raise InputError("randomized algorithm: use `sim rand-local`")
    _dump(labeling_to_json(run_local(alg, lg)), args)
    return 0


def _cmd_sim_rand_local(args) -> int:
    lg = labeled_graph_from_json(_load(args.graph))
    alg = _builtin_local_algorithm(args.algorithm, args.locality, args.seeds)
    if not alg.randomized:
        raise InputError("deterministic algorithm: use `sim local`")
    outcome = run_rand_local(alg, lg) if args.nodes is None else rand_local_marginal(alg, lg, _ints(args.nodes))
    _dump(outcome_to_json(outcome), args)
    return 0


def _cmd_ns_verify(args) -> int:
    out_g = outcome_from_json(_load(args.g))
    out_h = outcome_from_json(_load(args.h))
    verdict = verify_non_signaling(out_g, out_h, _ints(args.ag), _ints(args.ah), args.t)
    _dump({"status": verdict.status, "detail": verdict.detail}, args)
    return 0 if verdict.status == "ok" else 1


def _load_lp(args):
    if args.lp:
        return lp_from_json(_load(args.lp))
    if args.graph:
        return build_fractional_matching_lp(graph_from_json(_load(args.graph)))
    raise InputError("provide --lp or --graph (fractional matching LP)")


def _cmd_lp_opt(args) -> int:
    lp = _load_lp(args)
    result = exact_opt(lp)
    data = {"status": result.status}
    if result.status == "optimal":
        assert result.value is not None and result.point is not None
        data["value"] = str(result.value)
        data["point"] = point_to_json(result.point)
    _dump(data, args)
    return 0 if result.status == "optimal" else 1


def _cmd_lp_check(args) -> int:
    lp = _load_lp(args)
    verdict = check_feasible(lp, point_from_json(_load(args.point)))
    _dump({"ok": verdict.ok, "violated": list(verdict.violated)}, args)
    return 0 if verdict.ok else 1


def _cmd_lp_ratio(args) -> int:
    lp = _load_lp(args)
    ratio = approximation_ratio(lp, point_from_json(_load(args.point)))
    if ratio == INFEASIBLE:
        _dump({"ratio": "infeasible"}, args)
        return 1
    _dump({"ratio": str(ratio)}, args)
    return 0


def _cmd_lp_dequantize(args) -> int:
    lp = _load_lp(args)
    outcome = outcome_from_json(_load(args.outcome))
    point = dequantize(outcome, lp)
    _dump(point_to_json(point), args)
    return 0


def _load_linearizable(spec: str):
    if spec == "builtin:matching":
        return MATCHING_ENCODING
    return linearizable_from_json(_load(spec))


def _cmd_lin_verify(args) -> int:
    problem = _load_linearizable(args.problem)
    ig = incidence_graph_from_json(_load(args.incidence))
    labeling = edge_labeling_from_json(_load(args.labels))
    verdict = verify_linearizable(problem, ig, labeling)
    _dump({"ok": verdict.ok, "violations": list(verdict.violations)}, args)
    return 0 if verdict.ok else 1


def _cmd_lin_encode(args) -> int:
    ig = incidence_graph_from_json(_load(args.incidence))
    labeling = encode_matching(ig, _ints(args.matching))
    _dump(edge_labeling_to_json(labeling), args)
    return 0


def _cmd_lin_decode(args) -> int:
    ig = incidence_graph_from_json(_load(args.incidence))
    blacks = decode_to_matching(ig, edge_labeling_from_json(_load(args.labels)))
    _dump({"matched_blacks": sorted(blacks)}, args)
    return 0


def _cmd_greedy(args) -> int:
    """`sim slocal` and `lin greedy`: the greedy SLOCAL matcher in a given order."""
    g = graph_from_json(_load(args.graph))
    order = _ints(args.order) if args.order else list(range(g.n))
    matching, observed = greedy_matching(g, order)
    _dump({"matching_edges": sorted(matching), "observed_locality": observed}, args)
    return 0


def _cmd_gadget_tree(args) -> int:
    gadget = gen_tree_like(args.height)
    data = {"graph": labeled_graph_to_json(label_graph(gadget.graph)), "height": gadget.height}
    if args.dot:
        Path(args.dot).write_text(to_dot(label_graph(gadget.graph)))
    _dump(data, args)
    return 0


def _cmd_gadget_octopus(args) -> int:
    eta = tuple(_ints(args.eta))
    weights = {}
    for part in args.weights.split(";"):
        try:
            key, value = part.split(":")
            i, j = _ints(key)
            weights[(i, j)] = int(value)
        except ValueError:
            raise InputError(f"--weights entry {part!r} is not of the form i,j:w") from None
    gadget = gen_octopus(args.x, eta, weights)
    _dump({"graph": labeled_graph_to_json(label_graph(gadget.graph))}, args)
    return 0


def _cmd_gadget_recognize(args) -> int:
    g = graph_from_json(_load(args.graph))
    if args.kind == "tree":
        coords = recognize_tree_like(g)
        _dump({"tree_like": coords is not None,
               "coords": None if coords is None else {str(v): list(c) for v, c in sorted(coords.items())}}, args)
        return 0 if coords is not None else 1
    rec = recognize_proper_instance(g)
    _dump({"proper": rec is not None}, args)
    return 0 if rec is not None else 1


def _cmd_lift_build(args) -> int:
    ig = incidence_graph_from_json(_load(args.incidence))
    pi, pm = gen_proper_instance(ig, k=args.k)
    if args.dot:
        Path(args.dot).write_text(proper_instance_dot(pi))
    _dump({"instance": proper_instance_to_json(pi), "port_map": port_map_to_json(pm)}, args)
    return 0


def _payload(data, key: str, what: str):
    """The document's `key` entry when it has one (`lift build` writes the
    instance and the port map into one file), else the document itself."""
    with json_decoding(what):
        return data[key] if key in data else data


def _cmd_lift_run(args) -> int:
    pi = proper_instance_from_json(_payload(_load(args.instance), "instance", "proper instance"))
    order = _ints(args.order) if args.order else None
    result = lift_run(pi, order=order)
    _dump(
        {
            "labels": {str(v): _label_to_json(lab) for v, lab in sorted(result.labels.items())},
            "observed_ghat_locality": result.observed_ghat_locality,
            "simulated_locality": result.simulated_locality,
        },
        args,
    )
    return 0


def _cmd_lift_verify(args) -> int:
    pi = proper_instance_from_json(_payload(_load(args.instance), "instance", "proper instance"))
    labels_data = _load(args.labels)
    with json_decoding("lift labels"):
        labels = _labels_from_json(labels_data["labels"], node_from_key, "node")
    verdict = verify_pi_promise(pi, labels, MATCHING_ENCODING)
    _dump({"ok": verdict.ok, "violations": list(verdict.violations)}, args)
    return 0 if verdict.ok else 1


def _cmd_lift_pullback(args) -> int:
    outcome = outcome_from_json(_load(args.outcome))
    pm = port_map_from_json(_payload(_load(args.portmap), "port_map", "port map"))
    pulled = pullback_outcome(outcome, pm)
    _dump(outcome_to_json(pulled), args)
    return 0


def _cmd_suite(args) -> int:
    report = run_suite(args.name, seed=args.seed, out_dir=args.out)
    sys.stdout.write(report.to_text())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="locallab")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="compact machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    lcl = sub.add_parser("lcl", parents=[common]).add_subparsers(dest="verb", required=True)
    p = lcl.add_parser("verify", parents=[common])
    p.add_argument("--problem", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_lcl_verify)

    sim = sub.add_parser("sim", parents=[common]).add_subparsers(dest="verb", required=True)
    p = sim.add_parser("local", parents=[common])
    p.add_argument("--graph", required=True)
    p.add_argument("--algorithm", default="degree")
    p.add_argument("--locality", type=int, default=1)
    p.set_defaults(func=_cmd_sim_local)
    p = sim.add_parser("rand-local", parents=[common])
    p.add_argument("--graph", required=True)
    p.add_argument("--algorithm", default="seed-echo")
    p.add_argument("--locality", type=int, default=1)
    p.add_argument("--seeds", type=int, default=2, help="seed alphabet size")
    p.add_argument("--nodes", help="comma-separated nodes: write the exact marginal on them")
    p.set_defaults(func=_cmd_sim_rand_local)
    p = sim.add_parser("slocal", parents=[common])
    p.add_argument("--graph", required=True)
    p.add_argument("--order", help="comma-separated node permutation")
    p.set_defaults(func=_cmd_greedy)

    ns = sub.add_parser("ns", parents=[common]).add_subparsers(dest="verb", required=True)
    p = ns.add_parser("verify", parents=[common])
    p.add_argument("--g", required=True, help="outcome JSON for the first network")
    p.add_argument("--h", required=True, help="outcome JSON for the second network")
    p.add_argument("--ag", required=True, help="anchor nodes in G, comma-separated")
    p.add_argument("--ah", required=True, help="anchor nodes in H, comma-separated")
    p.add_argument("-T", dest="t", type=int, required=True)
    p.set_defaults(func=_cmd_ns_verify)

    lp = sub.add_parser("lp", parents=[common]).add_subparsers(dest="verb", required=True)
    for verb, func, extra in (
        ("opt", _cmd_lp_opt, ()),
        ("check", _cmd_lp_check, ("point",)),
        ("ratio", _cmd_lp_ratio, ("point",)),
        ("dequantize", _cmd_lp_dequantize, ("outcome",)),
    ):
        p = lp.add_parser(verb, parents=[common])
        p.add_argument("--lp")
        p.add_argument("--graph", help="build the fractional matching LP of this graph")
        for name in extra:
            p.add_argument(f"--{name}", required=True)
        p.set_defaults(func=func)

    lin = sub.add_parser("lin", parents=[common]).add_subparsers(dest="verb", required=True)
    p = lin.add_parser("verify", parents=[common])
    p.add_argument("--problem", default="builtin:matching")
    p.add_argument("--incidence", required=True)
    p.add_argument("--labels", required=True)
    p.set_defaults(func=_cmd_lin_verify)
    p = lin.add_parser("encode", parents=[common])
    p.add_argument("--incidence", required=True)
    p.add_argument("--matching", required=True, help="comma-separated black node ids")
    p.set_defaults(func=_cmd_lin_encode)
    p = lin.add_parser("decode", parents=[common])
    p.add_argument("--incidence", required=True)
    p.add_argument("--labels", required=True)
    p.set_defaults(func=_cmd_lin_decode)
    p = lin.add_parser("greedy", parents=[common])
    p.add_argument("--graph", required=True)
    p.add_argument("--order")
    p.set_defaults(func=_cmd_greedy)

    gadget = sub.add_parser("gadget", parents=[common]).add_subparsers(dest="verb", required=True)
    p = gadget.add_parser("tree", parents=[common])
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--dot")
    p.set_defaults(func=_cmd_gadget_tree)
    p = gadget.add_parser("octopus", parents=[common])
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--eta", required=True, help="comma-separated entries in {1,2}")
    p.add_argument("--weights", required=True, help="i,j:w pairs separated by ';'")
    p.set_defaults(func=_cmd_gadget_octopus)
    p = gadget.add_parser("recognize", parents=[common])
    p.add_argument("--graph", required=True)
    p.add_argument("--kind", choices=("tree", "proper"), default="proper")
    p.set_defaults(func=_cmd_gadget_recognize)

    lift = sub.add_parser("lift", parents=[common]).add_subparsers(dest="verb", required=True)
    p = lift.add_parser("build", parents=[common])
    p.add_argument("--incidence", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--dot")
    p.set_defaults(func=_cmd_lift_build)
    p = lift.add_parser("run", parents=[common])
    p.add_argument("--instance", required=True)
    p.add_argument("--order")
    p.set_defaults(func=_cmd_lift_run)
    p = lift.add_parser("verify", parents=[common])
    p.add_argument("--instance", required=True)
    p.add_argument("--labels", required=True)
    p.set_defaults(func=_cmd_lift_verify)
    p = lift.add_parser("pullback", parents=[common])
    p.add_argument("--outcome", required=True)
    p.add_argument("--portmap", required=True)
    p.set_defaults(func=_cmd_lift_pullback)

    suite = sub.add_parser("suite", parents=[common])
    suite.add_argument("name", choices=SUITE_NAMES + ("all",))
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("--out", help="directory for report.json and report.txt")
    suite.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
