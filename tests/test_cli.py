import json

import pytest

from locallab.cli import main
from locallab.graphs import label_graph, labeled_graph_to_json, path_graph
from locallab.linearize import incidence_graph_of, incidence_graph_to_json
from locallab.lp import build_fractional_matching_lp, exact_opt


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
