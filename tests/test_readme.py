"""README "Command line" names what the code registers: the generator
classes, `gen`'s options and fixed bounds, the reductions `reduce` takes,
the corrupted fixtures and the oracle budgets; and its claim that runs are
reproducible from flags alone holds because no module reads the
environment."""

import argparse
import re
from pathlib import Path

import redlab
from redlab import cli, harness, oracles, reductions

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
