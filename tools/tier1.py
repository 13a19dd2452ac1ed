"""Run the Tier-1 suite and accept only its by-design failures.

    python3 tools/tier1.py

Runs the Tier-1 command of ROADMAP.md from the repository root,

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

prints pytest's output, and reads the FAILED and ERROR lines of its short
test summary and the captured output of the failures. It exits 0 only if
the failed tests are exactly EXPECTED_FAILURES, they print the counts of
EXPECTED_COUNTS, and nothing errored; otherwise it prints each unexpected
and each missing node id or count and exits 1. It passes pytest no
selection, so it skips and deselects nothing.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Acceptance criteria 2, 6 and 7 fail by design: the gadgets do not preserve
# membership (README, "Known gadget defects").
EXPECTED_FAILURES = frozenset({
    "tests/test_acceptance.py::test_criterion_2_vertex_cover_equivalence",
    "tests/test_acceptance.py::test_criterion_6_matching_gadget_forward",
    "tests/test_acceptance.py::test_criterion_7_matching_gadget_backward",
})
# The start of the line each of them prints, through its first count: a
# change that moves a count changes a finding, which README and ROADMAP.md
# then restate.
EXPECTED_COUNTS = (
    "CRITERION 2 FAIL: fwd equiv fails 156,",
    "CRITERION 6 FAIL: equiv fails 132/200,",
    "CRITERION 7 FAIL: disagreements 132/200,",
)


def parse_summary(text: str) -> tuple[set[str], set[str]]:
    """The node ids of the FAILED and of the ERROR lines of a pytest -q
    summary; a collection error names its file."""
    failed: set[str] = set()
    errors: set[str] = set()
    for line in text.splitlines():
        kind, _, rest = line.partition(" ")
        if kind in ("FAILED", "ERROR") and rest:
            (failed if kind == "FAILED" else errors).add(rest.split(" - ", 1)[0].strip())
    return failed, errors


def problems(text: str, returncode: int) -> list[str]:
    """One line per way the run that printed `text` differs from the
    expected one; empty if it matches."""
    failed, errors = parse_summary(text)
    lines = text.splitlines()
    out = [f"unexpected failure: {n}" for n in sorted(failed - EXPECTED_FAILURES)]
    out += [f"missing failure: {n}" for n in sorted(EXPECTED_FAILURES - failed)]
    out += [f"missing count: {c}" for c in EXPECTED_COUNTS if not any(l.startswith(c) for l in lines)]
    out += [f"error: {n}" for n in sorted(errors)]
    if returncode not in (0, 1):
        out.append(f"pytest exited with code {returncode}")
    return out


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                         cwd=ROOT, env=env, capture_output=True, text=True)
    sys.stdout.write(run.stdout)
    sys.stderr.write(run.stderr)
    found = problems(run.stdout, run.returncode)
    for line in found:
        print(line)
    print("TIER1", "FAIL" if found else "OK")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
