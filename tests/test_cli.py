import json
import re
from fractions import Fraction

import pytest

from locallab.cli import build_parser, main
from locallab.graphs import InputError, complete_graph, label_graph, labeled_graph_to_json, path_graph
from locallab.linearize import (
    MATCHING_ENCODING,
    edge_labeling_from_json,
    incidence_graph_of,
    incidence_graph_to_json,
    linearizable_to_json,
)
from locallab.lp import (
    LpConstraint,
    LpVariable,
    build_fractional_matching_lp,
    exact_opt,
    lp_to_json,
    make_dist_lp,
)


@pytest.fixture
def fixtures(tmp_path):
    g = path_graph(3)
    graph_path = tmp_path / "p3.json"
    graph_path.write_text(json.dumps(labeled_graph_to_json(label_graph(g))))
    ig_path = tmp_path / "p3_ig.json"
    ig_path.write_text(json.dumps(incidence_graph_to_json(incidence_graph_of(g))))
    return tmp_path, graph_path, ig_path


def test_lp_opt_matches_library(fixtures, capsys):
    _, graph_path, _ = fixtures
    assert main(["lp", "opt", "--graph", str(graph_path)]) == 0
    data = json.loads(capsys.readouterr().out)
    lib = exact_opt(build_fractional_matching_lp(path_graph(3)))
    assert data["value"] == str(lib.value)


def test_lin_encode_decode_roundtrip(fixtures, tmp_path, capsys):
    _, _, ig_path = fixtures
    assert main(["lin", "encode", "--incidence", str(ig_path), "--matching", "3"]) == 0
    encoded = capsys.readouterr().out
    labels_path = tmp_path / "labels.json"
    labels_path.write_text(encoded)
    assert main(["lin", "verify", "--incidence", str(ig_path), "--labels", str(labels_path)]) == 0
    capsys.readouterr()
    assert main(["lin", "decode", "--incidence", str(ig_path), "--labels", str(labels_path)]) == 0
    decoded = json.loads(capsys.readouterr().out)
    assert decoded["matched_blacks"] == [3]


def test_lin_verify_fails_on_bad_labels(fixtures, tmp_path, capsys):
    _, _, ig_path = fixtures
    labels_path = tmp_path / "bad.json"
    labels_path.write_text(json.dumps({"0": "P", "1": "P", "2": "P", "3": "P"}))
    assert main(["lin", "verify", "--incidence", str(ig_path), "--labels", str(labels_path)]) == 1


def test_sim_local_degree(fixtures, capsys):
    _, graph_path, _ = fixtures
    assert main(["sim", "local", "--graph", str(graph_path), "--algorithm", "degree"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["nodes"] == {"0": 1, "1": 2, "2": 1}


def test_sim_rand_local_exact(fixtures, capsys):
    _, graph_path, _ = fixtures
    assert main(["sim", "rand-local", "--graph", str(graph_path), "--algorithm", "seed-echo"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["support"]) == 8  # 2^3 distinct seed echoes


def test_gadget_tree_and_dot(tmp_path, capsys):
    dot_path = tmp_path / "tree.dot"
    assert main(["gadget", "tree", "--height", "2", "--dot", str(dot_path)]) == 0
    assert "--" in dot_path.read_text()


def test_lift_pipeline(fixtures, tmp_path, capsys):
    _, _, ig_path = fixtures
    assert main(["lift", "build", "--incidence", str(ig_path), "--k", "2"]) == 0
    built = capsys.readouterr().out
    lift_path = tmp_path / "lift.json"
    lift_path.write_text(built)
    assert main(["lift", "run", "--instance", str(lift_path)]) == 0
    run_out = capsys.readouterr().out
    labels_path = tmp_path / "labels.json"
    labels_path.write_text(run_out)
    assert main(["lift", "verify", "--instance", str(lift_path), "--labels", str(labels_path)]) == 0


def test_lcl_verify_full_problem(tmp_path, capsys):
    from locallab.graphs import cycle_graph, labeled_graph_to_json as lg_json
    from locallab.lcl import lcl_problem_to_json
    from test_lcl import make_trivial_problem, uniform

    g_in = uniform(cycle_graph(4))
    problem, out = make_trivial_problem(g_in)
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(json.dumps(lcl_problem_to_json(problem)))
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(json.dumps(lg_json(g_in)))
    out_path = tmp_path / "out.json"
    out_path.write_text(
        json.dumps(
            {
                "nodes": {str(v): "0" for v in range(4)},
                "half_edges": {f"{v}:{e}": "0" for v, e in g_in.graph.half_edges()},
            }
        )
    )
    assert (
        main(
            [
                "lcl",
                "verify",
                "--problem",
                str(problem_path),
                "--graph",
                str(graph_path),
                "--output",
                str(out_path),
            ]
        )
        == 0
    )
    capsys.readouterr()


def _ns_verify_exit_code(tmp_path, entry):
    data = {"graph": labeled_graph_to_json(label_graph(path_graph(2)))}
    if entry is not None:
        data["support"] = [entry]
    path = tmp_path / "outcome.json"
    path.write_text(json.dumps(data))
    return main(["ns", "verify", "--g", str(path), "--h", str(path), "--ag", "0", "--ah", "0", "-T", "0"])


def _entry(p="1/1", nodes=None, half_edges=None):
    entry = {"labels": {"nodes": nodes or {"0": "a", "1": "a"}, "half_edges": half_edges or {}}}
    if p is not None:
        entry["p"] = p
    return entry


def test_ns_verify_well_formed_outcome_passes(tmp_path, capsys):
    assert _ns_verify_exit_code(tmp_path, _entry()) == 0


def test_ns_verify_outcome_without_support_is_usage_error(tmp_path, capsys):
    assert _ns_verify_exit_code(tmp_path, None) == 2


def test_ns_verify_entry_without_probability_is_usage_error(tmp_path, capsys):
    assert _ns_verify_exit_code(tmp_path, _entry(p=None)) == 2


def test_ns_verify_zero_denominator_is_usage_error(tmp_path, capsys):
    assert _ns_verify_exit_code(tmp_path, _entry(p="1/0")) == 2


def test_ns_verify_non_integer_node_key_is_usage_error(tmp_path, capsys):
    assert _ns_verify_exit_code(tmp_path, _entry(nodes={"x": "a", "1": "a"})) == 2


def test_ns_verify_half_edge_key_without_colon_is_usage_error(tmp_path, capsys):
    assert _ns_verify_exit_code(tmp_path, _entry(half_edges={"00": "a"})) == 2


def test_ns_verify_float_probability_is_usage_error(tmp_path, capsys):
    assert _ns_verify_exit_code(tmp_path, _entry(p=1.0)) == 2


def test_ns_verify_graph_without_node_count_is_usage_error(tmp_path, capsys):
    data = {"graph": labeled_graph_to_json(label_graph(path_graph(2))), "support": [_entry()]}
    del data["graph"]["n"]
    path = tmp_path / "outcome.json"
    path.write_text(json.dumps(data))
    assert main(["ns", "verify", "--g", str(path), "--h", str(path), "--ag", "0", "--ah", "0", "-T", "0"]) == 2


def _graph_exit_code(tmp_path, edit):
    data = labeled_graph_to_json(label_graph(path_graph(3)))
    edit(data)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(data))
    return main(["sim", "local", "--graph", str(path), "--algorithm", "degree"])


def test_graph_half_edge_key_with_dash_is_usage_error(tmp_path, capsys):
    assert _graph_exit_code(tmp_path, lambda d: d["half_edge_labels"].update({"0-0": "a"})) == 2


def test_graph_string_endpoints_are_usage_error(tmp_path, capsys):
    assert _graph_exit_code(tmp_path, lambda d: d.update(edges=[["0", "1"], ["1", "2"]])) == 2


def _lp_opt_exit_code(tmp_path, edit):
    data = lp_to_json(build_fractional_matching_lp(path_graph(3)))
    edit(data)
    path = tmp_path / "lp.json"
    path.write_text(json.dumps(data))
    return main(["lp", "opt", "--lp", str(path)])


def test_lp_opt_roundtrips_through_lp_json(tmp_path, capsys):
    assert _lp_opt_exit_code(tmp_path, lambda d: None) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "1"


def test_lp_opt_solves_an_lp_with_a_redundant_equality(tmp_path, capsys):
    """maximize x1 s.t. x0 - x1 = 0, x0 = 0, x0 + 2*x1 = 0: the third row is
    a combination of the first two, and the optimum 0 comes with a dual that
    passes its certificate."""
    rows = [({"x0": 1, "x1": -1}, "a"), ({"x0": 1}, "b"), ({"x0": 1, "x1": 2}, "c")]
    lp = make_dist_lp(
        "node-based", "maximize", complete_graph(2),
        [LpVariable("x0", ("node", 0), Fraction(0)), LpVariable("x1", ("node", 1), Fraction(1))],
        [LpConstraint(name, tuple((x, Fraction(a)) for x, a in coeffs.items()), "==", Fraction(0), 0)
         for coeffs, name in rows],
    )
    path = tmp_path / "lp.json"
    path.write_text(json.dumps(lp_to_json(lp)))
    assert main(["lp", "opt", "--lp", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "0"


def test_lp_opt_without_sense_is_usage_error(tmp_path, capsys):
    assert _lp_opt_exit_code(tmp_path, lambda d: d.pop("sense")) == 2


def test_lp_opt_zero_denominator_bound_is_usage_error(tmp_path, capsys):
    assert _lp_opt_exit_code(tmp_path, lambda d: d["constraints"][0].update(bound="1/0")) == 2


def test_lp_check_float_point_is_usage_error(fixtures, tmp_path, capsys):
    _, graph_path, _ = fixtures
    point_path = tmp_path / "point.json"
    point_path.write_text(json.dumps({"e0": 0.1, "e1": 0}))
    assert main(["lp", "check", "--graph", str(graph_path), "--point", str(point_path)]) == 2


def test_invalid_json_is_usage_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 3,')
    assert main(["lp", "opt", "--graph", str(path)]) == 2


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["suite", "nosuch"])
    assert err.value.code == 2


def test_missing_file_is_usage_error(tmp_path):
    assert main(["lp", "opt", "--graph", str(tmp_path / "absent.json")]) == 2


def test_suite_reports_are_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["suite", "matching-roundtrip", "--seed", "7", "--out", str(out1)]) == 0
    assert main(["suite", "matching-roundtrip", "--seed", "7", "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_text() == (out2 / "report.json").read_text()
    report = json.loads((out1 / "report.json").read_text())
    assert report["passed"] is True
    capsys.readouterr()


def _lcl_verify_exit_code(tmp_path, edit):
    """`lcl verify` on P3 with a one-member constraint set edited by `edit`."""
    from locallab.lcl import centered_ball, constraint_set_to_json, make_constraint_set

    lg = label_graph(path_graph(3), {v: "n" for v in range(3)})
    ball = centered_ball(lg, 1, 1)
    problem = {"constraints": constraint_set_to_json(make_constraint_set(1, 2, {"n"}, {None}, [ball]))}
    edit(problem)
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(json.dumps(problem))
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(json.dumps(labeled_graph_to_json(lg)))
    return main(["lcl", "verify", "--problem", str(problem_path), "--graph", str(graph_path)])


def test_lcl_verify_reports_unmatched_balls(tmp_path, capsys):
    assert _lcl_verify_exit_code(tmp_path, lambda d: None) == 1
    assert json.loads(capsys.readouterr().out)["violations"] == [
        [0, "ball matches no constraint member"],
        [2, "ball matches no constraint member"],
    ]


def test_lcl_verify_problem_without_constraints_is_usage_error(tmp_path, capsys):
    assert _lcl_verify_exit_code(tmp_path, lambda d: d.clear()) == 2


def test_lcl_verify_string_center_is_usage_error(tmp_path, capsys):
    assert _lcl_verify_exit_code(tmp_path, lambda d: d["constraints"]["members"][0].update(center="x")) == 2


def test_lcl_verify_float_center_is_usage_error(tmp_path, capsys):
    assert _lcl_verify_exit_code(tmp_path, lambda d: d["constraints"]["members"][0].update(center=1.5)) == 2


def test_lcl_verify_negative_radius_is_usage_error(tmp_path, capsys):
    assert _lcl_verify_exit_code(tmp_path, lambda d: d["constraints"].update(r=-1, members=[])) == 2


def test_lift_run_instance_without_graph_is_usage_error(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text("{}")
    assert main(["lift", "run", "--instance", str(path)]) == 2


def test_lin_verify_incidence_without_roles_is_usage_error(fixtures, tmp_path, capsys):
    _, _, ig_path = fixtures
    data = json.loads(ig_path.read_text())
    del data["roles"]
    ig_path.write_text(json.dumps(data))
    labels_path = tmp_path / "labels.json"
    labels_path.write_text(json.dumps({"0": "P"}))
    assert main(["lin", "verify", "--incidence", str(ig_path), "--labels", str(labels_path)]) == 2


def test_gadget_octopus_non_integer_eta_is_usage_error(capsys):
    assert main(["gadget", "octopus", "--x", "1", "--eta", "a", "--weights", "0,1:1"]) == 2


def test_gadget_octopus_weight_without_height_is_usage_error(capsys):
    assert main(["gadget", "octopus", "--x", "1", "--eta", "1", "--weights", "0,1"]) == 2


def _lp_dequantize(tmp_path, label):
    """`lp dequantize` on P2 with one support entry labelling edge 0 by `label`."""
    graph = labeled_graph_to_json(label_graph(path_graph(2)))
    graph_path = tmp_path / "p2.json"
    graph_path.write_text(json.dumps(graph))
    entry = {"labels": {"half_edges": {"0:0": label, "1:0": label}}, "p": "1"}
    outcome_path = tmp_path / "outcome.json"
    outcome_path.write_text(json.dumps({"graph": graph, "support": [entry]}))
    return main(["lp", "dequantize", "--graph", str(graph_path), "--outcome", str(outcome_path)])


def test_lp_dequantize_rational_labels(tmp_path, capsys):
    assert _lp_dequantize(tmp_path, {"fraction": "1/2"}) == 0
    assert json.loads(capsys.readouterr().out) == {"e0": "1/2"}
    assert _lp_dequantize(tmp_path, 1) == 0
    assert json.loads(capsys.readouterr().out) == {"e0": "1/1"}


@pytest.mark.parametrize("label", [0.1, "x", None, True], ids=["float", "string", "null", "bool"])
def test_lp_dequantize_non_rational_label_is_usage_error(tmp_path, capsys, label):
    assert _lp_dequantize(tmp_path, label) == 2
    err = capsys.readouterr().err
    assert "support entry 0" in err and "'e0'" in err


def test_lp_dequantize_list_label_is_usage_error(tmp_path, capsys):
    assert _lp_dequantize(tmp_path, [1]) == 2
    err = capsys.readouterr().err
    assert "malformed label JSON [1]" in err
    assert "; in half-edge '0:0' label JSON; in labeling JSON; in support entry 0 JSON; in outcome JSON" in err


def test_sim_rand_local_samples_when_given_a_sample_count(fixtures, capsys):
    _, graph_path, _ = fixtures
    args = ["sim", "rand-local", "--graph", str(graph_path), "--algorithm", "seed-echo"]
    assert main(args + ["--samples", "3", "--seed", "1"]) == 0
    probabilities = [Fraction(entry["p"]) for entry in json.loads(capsys.readouterr().out)["support"]]
    assert len(probabilities) <= 3 and sum(probabilities) == 1
    assert all((3 * p).denominator == 1 for p in probabilities)


def test_lp_verbs_accept_json_flag(fixtures, capsys):
    _, graph_path, _ = fixtures
    assert main(["lp", "opt", "--graph", str(graph_path), "--json"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and json.loads(out)["value"] == "1"


def test_sim_slocal_and_lin_greedy_share_one_handler():
    parser = build_parser()
    slocal = parser.parse_args(["sim", "slocal", "--graph", "g.json"])
    greedy = parser.parse_args(["lin", "greedy", "--graph", "g.json"])
    assert slocal.func is greedy.func


def test_lp_opt_fractional_constraint_owner_is_usage_error(tmp_path, capsys):
    assert _lp_opt_exit_code(tmp_path, lambda d: d["constraints"][0].update(owner=0.9)) == 2


def test_lp_opt_boolean_variable_owner_is_usage_error(tmp_path, capsys):
    assert _lp_opt_exit_code(tmp_path, lambda d: d["variables"][1].update(owner=["edge", True])) == 2


@pytest.mark.parametrize("owner, name", [
    pytest.param(["edge", 99], "extra", id="edge-outside-the-graph"),
    pytest.param(["node", 9], "extra", id="node-outside-the-graph"),
    pytest.param(["banana", 0], "extra", id="unknown-owner-kind"),
    pytest.param(["node", 0], 5, id="integer-name"),
])
def test_lp_opt_malformed_variable_is_usage_error(tmp_path, capsys, owner, name):
    """A variable that no constraint uses is still checked: its owner must be
    a node or an edge of the graph and its name a string."""
    variable = {"name": name, "owner": owner, "objective": "1"}
    assert _lp_opt_exit_code(tmp_path, lambda d: d["variables"].append(variable)) == 2


def _lift_instance(fixtures, tmp_path, capsys):
    _, _, ig_path = fixtures
    assert main(["lift", "build", "--incidence", str(ig_path), "--k", "2"]) == 0
    return json.loads(capsys.readouterr().out)


def test_lift_run_fractional_port_height_is_usage_error(fixtures, tmp_path, capsys):
    data = _lift_instance(fixtures, tmp_path, capsys)
    data["instance"]["octopi"][0]["ports"][0]["height"] = 2.5
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    assert main(["lift", "run", "--instance", str(path)]) == 2


@pytest.mark.parametrize("labels", [{}, {"labels": {"x": "P"}}], ids=["no-labels", "string-node"])
def test_lift_verify_malformed_labels_are_usage_errors(fixtures, tmp_path, capsys, labels):
    instance_path = tmp_path / "instance.json"
    instance_path.write_text(json.dumps(_lift_instance(fixtures, tmp_path, capsys)))
    labels_path = tmp_path / "labels.json"
    labels_path.write_text(json.dumps(labels))
    assert main(["lift", "verify", "--instance", str(instance_path), "--labels", str(labels_path)]) == 2


def test_lin_verify_fractional_rank_is_usage_error(fixtures, tmp_path, capsys):
    _, _, ig_path = fixtures
    problem = linearizable_to_json(MATCHING_ENCODING)
    problem["rank"] = 2.9
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(json.dumps(problem))
    labels_path = tmp_path / "labels.json"
    labels_path.write_text(json.dumps({"0": "M", "1": "M", "2": "A", "3": "A"}))
    args = ["lin", "verify", "--problem", str(problem_path), "--incidence", str(ig_path)]
    assert main(args + ["--labels", str(labels_path)]) == 2


def test_lcl_verify_decodes_tuple_output_labels(tmp_path, capsys):
    from locallab.lcl import lcl_problem_to_json
    from test_lcl import make_trivial_problem, uniform

    g_in = uniform(path_graph(3))
    problem, _ = make_trivial_problem(g_in)
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(json.dumps(lcl_problem_to_json(problem)))
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(json.dumps(labeled_graph_to_json(g_in)))
    out_path = tmp_path / "out.json"
    out_path.write_text(
        json.dumps(
            {
                "nodes": {str(v): {"tuple": ["0"]} for v in range(3)},
                "half_edges": {f"{v}:{e}": "0" for v, e in g_in.graph.half_edges()},
            }
        )
    )
    args = ["lcl", "verify", "--problem", str(problem_path), "--graph", str(graph_path)]
    assert main(args + ["--output", str(out_path)]) == 2
    assert "output node label at 0 outside the declared alphabet" in capsys.readouterr().err


def test_ns_verify_labels_outside_the_network_are_usage_errors(tmp_path, capsys):
    assert _ns_verify_exit_code(tmp_path, _entry(nodes={"0": "a", "1": "a", "7": "a"})) == 2
    assert "unknown node id 7" in capsys.readouterr().err
    assert _ns_verify_exit_code(tmp_path, _entry(half_edges={"0:9": "a"})) == 2
    assert "edge 9 is not incident to node 0" in capsys.readouterr().err


def test_lp_dequantize_outcome_over_another_graph_is_usage_error(fixtures, tmp_path, capsys):
    from locallab.graphs import cycle_graph

    _, graph_path, _ = fixtures  # P3: its half-edges are half-edges of C4 too
    half = {"fraction": "1/2"}
    entry = {"labels": {"half_edges": {"0:0": half, "1:0": half, "1:1": half, "2:1": half}}, "p": "1"}
    outcome_path = tmp_path / "outcome.json"
    outcome_path.write_text(
        json.dumps({"graph": labeled_graph_to_json(label_graph(cycle_graph(4))), "support": [entry]})
    )
    assert main(["lp", "dequantize", "--graph", str(graph_path), "--outcome", str(outcome_path)]) == 2
    assert "LP's graph" in capsys.readouterr().err


def _lcl_verify_trivial_problem(tmp_path, edit_graph, edit_output):
    """`lcl verify` of a problem admitting every output "0" on P3, with the
    graph file and the output labeling edited by the given functions."""
    from locallab.lcl import lcl_problem_to_json
    from test_lcl import make_trivial_problem, uniform

    g_in = uniform(path_graph(3))
    problem, _ = make_trivial_problem(g_in)
    graph = labeled_graph_to_json(g_in)
    out = {
        "nodes": {str(v): "0" for v in range(3)},
        "half_edges": {f"{v}:{e}": "0" for v, e in g_in.graph.half_edges()},
    }
    edit_graph(graph)
    edit_output(out)
    paths = []
    for name, data in (("problem", lcl_problem_to_json(problem)), ("graph", graph), ("output", out)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        paths += [f"--{name}", str(path)]
    return main(["lcl", "verify", *paths])


def test_lcl_verify_list_labels_are_usage_errors(tmp_path, capsys):
    def keep(data):
        pass

    def list_node_label(graph):
        graph["node_labels"][0] = ["n"]

    def list_output_label(out):
        out["nodes"]["0"] = ["0"]

    assert _lcl_verify_trivial_problem(tmp_path, keep, keep) == 0
    assert _lcl_verify_trivial_problem(tmp_path, list_node_label, keep) == 2
    assert _lcl_verify_trivial_problem(tmp_path, keep, list_output_label) == 2
    assert capsys.readouterr().err.count("malformed label JSON") == 2


def test_lin_verify_list_label_is_usage_error(fixtures, tmp_path, capsys):
    _, _, ig_path = fixtures
    labels_path = tmp_path / "labels.json"
    labels_path.write_text(json.dumps({"0": ["M"], "1": "M", "2": "A", "3": "A"}))
    assert main(["lin", "verify", "--incidence", str(ig_path), "--labels", str(labels_path)]) == 2
    assert "malformed label JSON" in capsys.readouterr().err


def test_lift_verify_list_label_is_usage_error(fixtures, tmp_path, capsys):
    data = _lift_instance(fixtures, tmp_path, capsys)
    instance_path = tmp_path / "instance.json"
    instance_path.write_text(json.dumps(data))
    n = data["instance"]["graph"]["n"]
    labels_path = tmp_path / "labels.json"
    labels_path.write_text(json.dumps({"labels": {str(v): [1] for v in range(n)}}))
    assert main(["lift", "verify", "--instance", str(instance_path), "--labels", str(labels_path)]) == 2
    assert "malformed label JSON" in capsys.readouterr().err


def test_lift_verify_reads_node_keys_strictly(fixtures, tmp_path, capsys):
    """Node keys are decimal ids: each edit below leaves every node labeled
    as `lift run` wrote it, and each is still a usage error."""
    data = _lift_instance(fixtures, tmp_path, capsys)
    instance_path = tmp_path / "instance.json"
    instance_path.write_text(json.dumps(data))
    assert main(["lift", "run", "--instance", str(instance_path)]) == 0
    written = json.loads(capsys.readouterr().out)["labels"]
    assert int(max(written, key=int)) >= 10

    def verify(labels):
        labels_path = tmp_path / "labels.json"
        labels_path.write_text(json.dumps({"labels": labels}))
        return main(["lift", "verify", "--instance", str(instance_path), "--labels", str(labels_path)])

    def renamed(old, new):
        return {new if key == old else key: lab for key, lab in written.items()}

    assert verify(written) == 0
    capsys.readouterr()
    edits = {
        "1_0": renamed("10", "1_0"),
        " +2 ": renamed("2", " +2 "),
        "-1": {**written, "-1": written["0"]},
        "1.0": {**written, "1.0": written["1"]},
    }
    for key, labels in edits.items():
        assert verify(labels) == 2
        assert f"node key {key!r} is not a decimal node id; in lift labels JSON" in capsys.readouterr().err
    assert verify({**written, "02": written["2"]}) == 2
    assert "node keys '2' and '02' name one node" in capsys.readouterr().err


def test_lin_verify_rejects_malformed_edge_keys(fixtures, tmp_path, capsys):
    """An edge key is a decimal edge id: "1_0", " +2 ", "-1" and "1.0" are
    not read with int(), and two keys that name one edge are an error."""
    with pytest.raises(InputError, match="edge key '1_0' is not a decimal edge id"):
        edge_labeling_from_json({"1_0": "M", " +2 ": "A", "3": "P", "03": "Q"})
    _, _, ig_path = fixtures
    labels_path = tmp_path / "labels.json"
    written = {"0": "M", "1": "M", "2": "A", "3": "P"}

    def verify(labels):
        labels_path.write_text(json.dumps(labels))
        return main(["lin", "verify", "--incidence", str(ig_path), "--labels", str(labels_path)])

    assert verify(written) == 0
    capsys.readouterr()
    for key, old in (("1_0", "1"), (" +2 ", "2"), ("-1", "0"), ("1.0", "1")):
        assert verify({key if k == old else k: lab for k, lab in written.items()}) == 2
        assert f"edge key {key!r} is not a decimal edge id; in edge labeling JSON" in capsys.readouterr().err
    assert verify({**written, "03": "P"}) == 2
    assert "edge keys '3' and '03' name one edge" in capsys.readouterr().err


def test_lcl_verify_rejects_malformed_half_edge_keys(tmp_path, capsys):
    """A key with a third part is not read as its first two ("0:0:7" is not
    half-edge (0, 0)); the graph and outcome decoders reject it too."""

    def keep(data):
        pass

    def rename(key):
        def edit(out):
            out["half_edges"][key] = out["half_edges"].pop("0:0")

        return edit

    for key in ("0:0:7", "0", "0:x", " 0:0"):
        assert _lcl_verify_trivial_problem(tmp_path, keep, rename(key)) == 2
        assert f"half-edge key {key!r}" in capsys.readouterr().err
    assert _lcl_verify_trivial_problem(tmp_path, keep, rename("0:0")) == 0


def test_lcl_verify_of_an_lcl_problem_without_output_is_usage_error(tmp_path, capsys):
    def keep(data):
        pass

    assert _lcl_verify_trivial_problem(tmp_path, keep, keep) == 0
    capsys.readouterr()
    args = ["lcl", "verify", "--problem", str(tmp_path / "problem.json"), "--graph", str(tmp_path / "graph.json")]
    assert main(args) == 2
    assert "needs --output" in capsys.readouterr().err


def test_sim_local_writes_labels_through_the_label_codec(fixtures, monkeypatch, capsys):
    from locallab import cli
    from locallab.outcomes import LocalAlgorithm, NodeOutput, labeling_from_json

    def rule(view):
        v = view.anchor_node()
        g = view.source.graph
        return NodeOutput(node_label=Fraction(v, 3), half_edge_labels={e: ("h", v) for e in g.adjacency[v]})

    monkeypatch.setattr(cli, "_builtin_local_algorithm", lambda *args: LocalAlgorithm(locality=1, rule=rule))
    _, graph_path, _ = fixtures
    assert main(["sim", "local", "--graph", str(graph_path)]) == 0
    labeling = labeling_from_json(json.loads(capsys.readouterr().out))
    assert labeling.nodes() == {v: Fraction(v, 3) for v in range(3)}
    assert labeling.half_edges() == {(v, e): ("h", v) for v, e in path_graph(3).half_edges()}


def test_lift_run_writes_labels_through_the_codec_lift_verify_reads(fixtures, tmp_path, monkeypatch, capsys):
    from types import SimpleNamespace

    from locallab import cli
    from locallab.graphs import _label_from_json

    labels = {0: ("t", Fraction(1, 2)), 1: Fraction(2, 3), 2: "M"}
    result = SimpleNamespace(labels=labels, observed_ghat_locality=0, simulated_locality=0)
    monkeypatch.setattr(cli, "lift_run", lambda pi, order=None: result)
    data = _lift_instance(fixtures, tmp_path, capsys)
    instance_path = tmp_path / "instance.json"
    instance_path.write_text(json.dumps(data))
    assert main(["lift", "run", "--instance", str(instance_path)]) == 0
    written = json.loads(capsys.readouterr().out)["labels"]
    assert {int(v): _label_from_json(lab) for v, lab in written.items()} == labels


def _pullback_files(fixtures, tmp_path, capsys, labels, edit_port_map=None):
    """Write the P3 lift's port map (edited in place by `edit_port_map`) and
    the deterministic outcome with the given node labels on its instance."""
    from locallab.gadgets import proper_instance_from_json
    from locallab.outcomes import Labeling, deterministic_outcome, outcome_to_json

    data = _lift_instance(fixtures, tmp_path, capsys)
    pi = proper_instance_from_json(data["instance"])
    if edit_port_map is not None:
        edit_port_map(data["port_map"])
    portmap_path = tmp_path / "portmap.json"
    portmap_path.write_text(json.dumps(data))
    outcome = deterministic_outcome(label_graph(pi.graph), Labeling.of(labels(pi), {}))
    outcome_path = tmp_path / "outcome.json"
    outcome_path.write_text(json.dumps(outcome_to_json(outcome)))
    return ["lift", "pullback", "--outcome", str(outcome_path), "--portmap", str(portmap_path)]


def _lift_labels(pi):
    from locallab.gadgets import lift_run

    return dict(lift_run(pi).labels)


def test_lift_pullback_writes_the_source_outcome(fixtures, tmp_path, capsys):
    from locallab.gadgets import port_map_from_json, pullback_outcome
    from locallab.outcomes import outcome_from_json, outcome_to_json

    args = _pullback_files(fixtures, tmp_path, capsys, _lift_labels)
    assert main(args) == 0
    written = json.loads(capsys.readouterr().out)
    outcome = outcome_from_json(json.loads((tmp_path / "outcome.json").read_text()))
    port_map = port_map_from_json(json.loads((tmp_path / "portmap.json").read_text())["port_map"])
    assert written == outcome_to_json(pullback_outcome(outcome, port_map))
    assert sorted(written["support"][0]["labels"]["half_edges"]) == ["0:0", "1:1", "1:2", "2:3", "3:0", "3:1", "4:2", "4:3"]


def test_lift_pullback_unlabeled_root_is_usage_error(fixtures, tmp_path, capsys):
    args = _pullback_files(fixtures, tmp_path, capsys, lambda pi: {0: "M"})
    assert main(args) == 2
    assert "leaves port root" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda pm: pm["root_to_edge"][0].__setitem__(1, 99), "edge 99 is not an edge of the source graph"),
        (lambda pm: pm["root_to_edge"][0].__setitem__(1, pm["root_to_edge"][1][1]), r"edge \d+ is named 2 times"),
        (lambda pm: pm["root_to_edge"][0].__setitem__(0, pm["root_to_edge"][1][0]), r"root \d+ is named 2 times"),
        (lambda pm: pm["root_to_edge"].pop(), "has no root"),
    ],
    ids=["edge-outside", "edge-repeated", "root-repeated", "edge-missing"],
)
def test_lift_pullback_malformed_port_map_is_usage_error(fixtures, tmp_path, capsys, edit, message):
    args = _pullback_files(fixtures, tmp_path, capsys, _lift_labels, edit)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert re.search(message, err) and "in port map JSON" in err
