"""README "Command line" names what the code registers: the generator
classes, `gen`'s options and fixed bounds, the reductions `reduce` takes,
the corrupted fixtures and the oracle budgets; and its claim that runs are
reproducible from flags alone holds because no module reads the
environment. README "File formats" gives the header shapes `parse` checks,
and the reference routes README places in tests/references.py live there,
outside the library. The `EQUIV_FAILURES` counts README "Known gadget
defects" quotes are those of the runs it names, and defect 2 fails on
exactly the unsatisfiable sources."""

import argparse
import functools
import re
from pathlib import Path

import pytest

import redlab
import references
from redlab import cli, harness, instances, oracles, reductions

README = Path(__file__).resolve().parent.parent / "README.md"


def _command_line() -> str:
    text = README.read_text()
    start = text.index("## Command line")
    return " ".join(text[start:text.index("\n## ", start + 1)].split())


def _names(sentence: str) -> list[str]:
    return re.findall(r"`([^`]+)`", sentence)


def test_generator_classes():
    section = _command_line()
    listed = re.search(r"Generator classes for `gen`/`verify`: (.*?)\. ", section).group(1)
    assert _names(listed) == list(harness.GENERATORS)


def test_gen_options_and_fixed_bounds():
    section = _command_line()
    match = re.search(r"`gen` takes (.*?); every other bound .*? at most (\d+) times, .*? "
                      r"`ap2dm` instance is (\d+)-overlapping, .*? declares (\d+) nonzeros per "
                      r"column, .*? probability ([\d.]+) ", section)
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = [a.option_strings[0] for a in sub.choices["gen"]._actions
               if a.option_strings and a.dest != "help"]
    assert _names(match.group(1)) == options
    assert (int(match.group(2)), int(match.group(3)), int(match.group(4)), float(match.group(5))) == (
        harness.OCC_BOUND, harness.OVERLAP_BOUND, harness.COL_BOUND, harness.EXEMPTION_DENSITY)


def test_reduce_takes_every_reduction():
    section = _command_line()
    match = re.search(r"`reduce` takes the (\d+) many-one reductions: (.*?)\. ", section)
    assert int(match.group(1)) == len(reductions.REDUCTIONS)
    assert _names(match.group(2)) == list(reductions.REDUCTIONS)


def test_corrupted_fixtures():
    section = _command_line()
    listed = re.search(r"the four corrupted fixtures .*?\((.*?)\)", section).group(1)
    assert len(harness.CORRUPTED) == 4
    assert _names(listed) == list(harness.CORRUPTED)


def test_oracle_budgets():
    section = _command_line()
    match = re.search(r"Only the AP2DM4 oracle, which enumerates, runs within a fixed budget: "
                      r"(\d+) elements", section)
    assert int(match.group(1)) == oracles.AP2DM_BUDGET


def test_runs_depend_on_flags_alone():
    assert "Runs are reproducible from flags alone" in _command_line()
    readers = [path.name for path in sorted(Path(redlab.__file__).parent.glob("*.py"))
               if re.search(r"\benviron\b|getenv", path.read_text())]
    assert readers == []


def test_file_format_headers():
    text = README.read_text()
    start = text.index("```", text.index("## File formats")) + 3
    block = text[start:text.index("```", start)]
    shapes = [re.split(r"\s{2,}", line)[0] for line in block.strip().splitlines()]
    assert shapes == [problem.usage for problem in instances.PROBLEMS.values()]


def test_reference_routes_live_in_the_tests():
    text = " ".join(README.read_text().split())
    named = {name for part in re.split(r"(?<=\.) | - ", text) if "`tests/references.py`" in part
             for name in _names(part) if name.isidentifier()}
    assert {"first_hit", "solve_2cvc_enum", "solve_xce_enum", "linked_by_chain"} <= named
    for name in named:
        assert callable(getattr(references, name, None)) and not hasattr(oracles, name), name


@functools.cache
def _run(name: str, trials: int, max_size: int | None) -> harness.VerifyResult:
    """The seed-1 `verify` run, shared by the tests that read it."""
    return harness.verify(name, harness.resolve(name, max_size=max_size), trials)


@pytest.mark.parametrize("trials,max_size,failures", [(1000, None, 156), (1000, 30, 246),
                                                      (200, 1000, 54)])
def test_defect_2_fails_on_every_unsatisfiable_source(trials, max_size, failures):
    """`sat2_to_2cvc3` maps every normalized formula to YES (the cover
    `references.checkered_cover`), so its counterexamples are exactly the
    unsatisfiable sources."""
    spec = harness.resolve("sat2_to_2cvc3", max_size=max_size).genspec
    unsat = [spec.seed + t for t in range(trials)
             if not oracles.solve_2sat(harness.generate(spec, t))[0]]
    r = _run("sat2_to_2cvc3", trials, max_size)
    assert [seed for seed, _ in r.equiv_failures] == unsat and not r.skipped
    assert len(unsat) == failures


def test_quoted_defect_counts():
    """Each `EQUIV_FAILURES` count README quotes is that of the run it
    names, at the CLI's default seed 1."""
    text = README.read_text()
    start = text.index("## Known gadget defects")
    section = " ".join(text[start:text.index("\n## ", start + 1)].split())
    m = re.search(r"`redlab verify (\w+) --trials (\d+) --max-size N` reports `EQUIV_FAILURES` "
                  r"(\d+), (\d+) and (\d+) of \d+ trials for N = (\d+), (\d+) and (\d+)", section)
    name, trials = m.group(1), int(m.group(2))
    counts, sizes = m.groups()[2:5], m.groups()[5:]
    quoted = [(name, trials, int(n), int(c)) for n, c in zip(sizes, counts)]
    m = re.search(r"`redlab verify (\w+)` reports one `EQUIV_FAILURES` per unsatisfiable "
                  r"source: (.*?), which", section)
    for count, trials, max_size in re.findall(
            r"(\d+) with `--trials (\d+)(?: --max-size (\d+))?`", m.group(2)):
        quoted.append((m.group(1), int(trials), int(max_size) if max_size else None, int(count)))
    assert [q[:3] for q in quoted] == [
        ("dstcon_to_ap2dm", 200, 10), ("dstcon_to_ap2dm", 200, 11), ("dstcon_to_ap2dm", 200, 12),
        ("sat2_to_2cvc3", 1000, None), ("sat2_to_2cvc3", 1000, 30), ("sat2_to_2cvc3", 200, 1000)]
    for name, trials, max_size, count in quoted:
        assert len(_run(name, trials, max_size).equiv_failures) == count, (name, max_size)
