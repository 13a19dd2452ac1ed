"""README "Command line" names what the code registers: the generator
classes, the reductions `reduce` takes, the corrupted fixtures and the
oracle budgets; and its claim that runs are reproducible from flags alone
holds because no module reads the environment."""

import re
from pathlib import Path

import redlab
from redlab import harness, oracles, reductions

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
    match = re.search(r"(\d+) vertices for 2CVC3, (\d+) sets for 3XCE2, (\d+) columns for "
                      r"the LP family, and (\d+) elements for AP2DM4", section)
    assert tuple(map(int, match.groups())) == (
        oracles.CVC_BUDGET, oracles.XCE_BUDGET, oracles.LIN_BUDGET, oracles.AP2DM_BUDGET)


def test_runs_depend_on_flags_alone():
    assert "Runs are reproducible from flags alone" in _command_line()
    readers = [path.name for path in sorted(Path(redlab.__file__).parent.glob("*.py"))
               if re.search(r"\benviron\b|getenv", path.read_text())]
    assert readers == []
