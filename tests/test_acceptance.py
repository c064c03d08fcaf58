"""Acceptance suite: one test per criterion, exact quantities, zero tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion.  The four long suites are marked `slow`; `pytest -m "not slow"`
skips them for a quick loop.  Criterion 8 is a faithful implementation of
the stated check and is expected to fail: with node-granular sequential
processing, a greedy matcher that is correct for every order needs observed
locality 2 (claims on a neighbour are stored at the claimer, two hops away);
locality 1 admits no such algorithm.  See the repository notes for the counterexample.

Each suite's report must also equal its golden copy, `tests/golden/<suite>.json`
(`run_suite(name, seed=7).to_json()`), so a change to any reported quantity
fails until the golden file is updated with it.  Criterion 8 compares its
golden in a test of its own, outside the strict xfail.
"""

import functools
import json
from pathlib import Path

import pytest

from locallab import corpus
from locallab.graphs import cycle_graph, extract_view, label_graph, view_key
from locallab.suites import CRITERION_OF_SUITE, RunReport, run_suite, suite_non_signaling

SEED = 7
GOLDEN = Path(__file__).parent / "golden"


@functools.cache
def _report(name: str) -> RunReport:
    return run_suite(name, seed=SEED)


def _golden(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text())


def _run(name: str) -> RunReport:
    """The suite's report, with one line per check printed."""
    report = _report(name)
    number = CRITERION_OF_SUITE[name]
    status = "PASS" if report.passed else "FAIL"
    print(f"criterion {number} ({name}): {status}")
    for check in report.checks:
        line = f"  [{check.status}] {check.name}"
        if check.quantities:
            line += " " + " ".join(f"{k}={v}" for k, v in sorted(check.quantities.items()))
        print(line)
        if check.detail:
            print(f"    {check.detail}")
    return report


def _check(name: str) -> None:
    report = _run(name)
    assert report.to_json() == _golden(name)
    assert report.passed


@pytest.mark.slow
def test_criterion_1_dequantization_soundness():
    _check("dequantize")


def test_criterion_2_local_expectation_equivalence():
    _check("local-expectation")


@pytest.mark.slow
def test_criterion_3_simulators_are_non_signaling():
    _check("non-signaling")


def test_criterion_3_classes_views_by_view_key(monkeypatch):
    """On C6 alone the classes are the distinct view keys at t = 0, 1 and 2,
    1 + 4 + 6 = 11: port numbers tell apart views that a relation which is
    not port-exact merges, such as the radius-2 views at 0 and 3."""
    c6 = cycle_graph(6)
    monkeypatch.setattr(corpus, "all_connected_graphs", lambda n: (c6,))
    lg = label_graph(c6)
    keys = [len({view_key(extract_view(lg, [v], t)) for v in c6.nodes()}) for t in (0, 1, 2)]
    assert keys == [1, 4, 6]
    simulator, _ = suite_non_signaling(SEED)
    assert simulator.status == "pass"
    assert simulator.quantities["iso_classes"] == "11"
    assert simulator.quantities["pairs_via_representatives"] == str(3 * 6 - 11)


def test_criterion_4_matching_encoding_roundtrip():
    _check("matching-roundtrip")


def test_criterion_5_factor_3_bound_and_konig():
    _check("factor3")


@pytest.mark.slow
def test_criterion_6_gadget_laws():
    _check("gadgets")


@pytest.mark.slow
def test_criterion_7_lift_end_to_end():
    _check("lift")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "criterion 8 as stated is unattainable: no locality-1 SLOCAL rule "
        "yields a maximal matching for every order (path 0-1-2-3, order "
        "(0,2,1,3) defeats the stated smallest-id rule); the correct "
        "claim-based greedy observes locality 2"
    ),
)
def test_criterion_8_slocal_greedy_locality():
    assert _run("slocal-locality").passed


def test_criterion_8_report_matches_golden():
    assert _report("slocal-locality").to_json() == _golden("slocal-locality")
