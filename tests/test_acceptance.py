"""Acceptance suite: one test per criterion, exact quantities, zero tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion.  The four long suites are marked `slow`; `pytest -m "not slow"`
skips them for a quick loop.  Criterion 8 is a faithful implementation of
the stated check and is expected to fail: with node-granular sequential
processing, a greedy matcher that is correct for every order needs observed
locality 2 (claims on a neighbour are stored at the claimer, two hops away);
locality 1 admits no such algorithm.  See the repository notes for the counterexample.
"""

import pytest

from locallab.suites import CRITERION_OF_SUITE, run_suite

SEED = 7


def _run(name: str) -> bool:
    report = run_suite(name, seed=SEED)
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
    return report.passed


@pytest.mark.slow
def test_criterion_1_dequantization_soundness():
    assert _run("dequantize")


def test_criterion_2_local_expectation_equivalence():
    assert _run("local-expectation")


@pytest.mark.slow
def test_criterion_3_simulators_are_non_signaling():
    assert _run("non-signaling")


def test_criterion_4_matching_encoding_roundtrip():
    assert _run("matching-roundtrip")


def test_criterion_5_factor_3_bound_and_konig():
    assert _run("factor3")


@pytest.mark.slow
def test_criterion_6_gadget_laws():
    assert _run("gadgets")


@pytest.mark.slow
def test_criterion_7_lift_end_to_end():
    assert _run("lift")


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
    assert _run("slocal-locality")
