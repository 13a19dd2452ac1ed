"""tools/tier1.py: how it reads a pytest -q summary and what it accepts."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "tier1.py"
spec = importlib.util.spec_from_file_location("tier1", TOOL)
tier1 = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tier1)

ACCEPTANCE = "tests/test_acceptance.py::test_criterion_"

EXPECTED_RUN = f"""\
........................................................................ [ 13%]
..F...F.F............................................................... [ 27%]
=================================== FAILURES ===================================
___________________ test_criterion_2_vertex_cover_equivalence __________________
E   AssertionError: 156 forward counterexamples
----------------------------- Captured stdout call -----------------------------
CRITERION 2 FAIL: fwd equiv fails 156, bwd 0, shortness fails 0+0, 0.1s
___________________ test_criterion_6_matching_gadget_forward ___________________
----------------------------- Captured stdout call -----------------------------
CRITERION 6 FAIL: equiv fails 132/200, struct fails 0, m_set exact 200/200
__________________ test_criterion_7_matching_gadget_backward ___________________
----------------------------- Captured stdout call -----------------------------
CRITERION 7 FAIL: disagreements 132/200, per-query ratio 1.0, fig3 BFS=True turing=True (170 queries) oracle=False
=========================== short test summary info ============================
FAILED {ACCEPTANCE}2_vertex_cover_equivalence - AssertionError: 156 forward counterexamples
FAILED {ACCEPTANCE}6_matching_gadget_forward - AssertionError: 132 of 200
FAILED {ACCEPTANCE}7_matching_gadget_backward - assert 132 == 0
3 failed, 524 passed in 35.12s
"""


def test_expected_run_is_accepted():
    failed, errors = tier1.parse_summary(EXPECTED_RUN)
    assert failed == tier1.EXPECTED_FAILURES and errors == set()
    assert tier1.problems(EXPECTED_RUN, 1) == []


def test_extra_and_missing_failures_are_named():
    text = EXPECTED_RUN.replace(
        f"FAILED {ACCEPTANCE}7_matching_gadget_backward - assert 132 == 0",
        "FAILED tests/test_oracles.py::TestLin::test_geq_yes - assert (1, 0) == (0, 1)")
    failed, errors = tier1.parse_summary(text)
    assert "tests/test_oracles.py::TestLin::test_geq_yes" in failed
    assert tier1.problems(text, 1) == [
        "unexpected failure: tests/test_oracles.py::TestLin::test_geq_yes",
        f"missing failure: {ACCEPTANCE}7_matching_gadget_backward",
    ]


def test_errors_fail_the_run():
    text = EXPECTED_RUN.replace(
        "3 failed, 524 passed in 35.12s",
        "ERROR tests/test_cli.py - ImportError: cannot import name 'x'\n"
        "ERROR tests/test_harness.py::TestFit::test_fit - RuntimeError\n"
        "3 failed, 500 passed, 2 errors in 30.00s")
    failed, errors = tier1.parse_summary(text)
    assert failed == tier1.EXPECTED_FAILURES
    assert errors == {"tests/test_cli.py", "tests/test_harness.py::TestFit::test_fit"}
    assert tier1.problems(text, 1) == [
        "error: tests/test_cli.py", "error: tests/test_harness.py::TestFit::test_fit"]


def test_clean_run_misses_all_three():
    assert tier1.problems("527 passed in 35.00s\n", 0) == [
        *[f"missing failure: {n}" for n in sorted(tier1.EXPECTED_FAILURES)],
        *[f"missing count: {c}" for c in tier1.EXPECTED_COUNTS]]


def test_moved_count_fails_the_run():
    """Criterion 6 still fails, but with another count."""
    text = EXPECTED_RUN.replace("CRITERION 6 FAIL: equiv fails 132/200,", "CRITERION 6 FAIL: equiv fails 131/200,")
    failed, _ = tier1.parse_summary(text)
    assert failed == tier1.EXPECTED_FAILURES
    assert tier1.problems(text, 1) == ["missing count: CRITERION 6 FAIL: equiv fails 132/200,"]


def test_interrupted_run_fails():
    assert tier1.problems(EXPECTED_RUN, 2) == ["pytest exited with code 2"]


def test_expected_ids_name_the_three_criteria():
    assert sorted(tier1.EXPECTED_FAILURES) == [
        f"{ACCEPTANCE}2_vertex_cover_equivalence",
        f"{ACCEPTANCE}6_matching_gadget_forward",
        f"{ACCEPTANCE}7_matching_gadget_backward",
    ]
    source = (Path(__file__).resolve().parent / "test_acceptance.py").read_text()
    for node in tier1.EXPECTED_FAILURES:
        assert f"def {node.split('::')[1]}(" in source
