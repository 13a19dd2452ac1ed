"""README "Command line" names what the code registers: the generator
classes, `gen`'s options and fixed bounds, the reductions `reduce` takes,
the corrupted fixtures and the oracle budgets; and its claim that runs are
reproducible from flags alone holds because no module reads the
environment. README "File formats" gives the header shapes `parse` checks,
and the reference routes README places in tests/references.py live there,
outside the library. The `EQUIV_FAILURES` counts README "Known gadget
defects" quotes are those of the runs it names, as are the shares and
sizes it gives of them, and defect 2 fails on exactly the unsatisfiable
sources. The memo counts README "Command line" gives are those of the
draws it names, the benchmark's `matching` chunks included."""

import argparse
import functools
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import redlab
import references
from redlab import cli, harness, instances, oracles, reductions

README = Path(__file__).resolve().parent.parent / "README.md"
BENCH = README.parent / "bench"


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


@functools.cache
def _sources(name: str, trials: int, max_size: int | None) -> tuple:
    """The raw instances of that run, trial t's drawn from seed 1 + t."""
    spec = harness.resolve(name, max_size=max_size).genspec
    return tuple(harness.generate(spec, t) for t in range(trials))


@pytest.mark.parametrize("trials,max_size,failures", [(1000, None, 156), (1000, 30, 246),
                                                      (200, 1000, 54)])
def test_defect_2_fails_on_every_unsatisfiable_source(trials, max_size, failures):
    """`sat2_to_2cvc3` maps every normalized formula to YES (the cover
    `references.checkered_cover`), so its counterexamples are exactly the
    unsatisfiable sources."""
    unsat = [1 + t for t, f in enumerate(_sources("sat2_to_2cvc3", trials, max_size))
             if not oracles.solve_2sat(f)[0]]
    r = _run("sat2_to_2cvc3", trials, max_size)
    assert [seed for seed, _ in r.equiv_failures] == unsat and not r.skipped
    assert len(unsat) == failures


def _defects() -> str:
    text = README.read_text()
    start = text.index("## Known gadget defects")
    return " ".join(text[start:text.index("\n## ", start + 1)].split())


def test_quoted_defect_counts():
    """Each `EQUIV_FAILURES` count README quotes is that of the run it
    names, at the CLI's default seed 1."""
    section = _defects()
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


def test_defect_1_shares_and_gadget_sizes():
    """README defect 1's runs: the largest gadget of each, and its failures,
    every one a YES source mapped to NO, as a share of the YES sources."""
    m = re.search(r"for N = (\d+), (\d+) and (\d+) \(gadgets of up to (\d+), (\d+) and (\d+) "
                  r"elements, none skipped\)\. Every failure is a YES source mapped to a NO gadget: "
                  r"(\d+)%, (\d+)% and (\d+)% of the YES sources \((\d+) of (\d+), (\d+) of (\d+) "
                  r"and (\d+) of (\d+)\)", _defects())
    quoted = [int(v) for v in m.groups()]
    sizes, largest, shares, counts = quoted[:3], quoted[3:6], quoted[6:9], quoted[9:]
    for i, max_size in enumerate(sizes):
        plan = harness.resolve("dstcon_to_ap2dm", max_size=max_size)
        raws = _sources("dstcon_to_ap2dm", 200, max_size)
        yes = [1 + t for t, g in enumerate(raws) if oracles.solve_dstcon(g)[0]]
        r = _run("dstcon_to_ap2dm", 200, max_size)
        failing = [seed for seed, _ in r.equiv_failures]
        assert set(failing) <= set(yes) and not r.skipped
        assert [len(failing), len(yes)] == counts[2 * i:2 * i + 2]
        assert round(100 * len(failing) / len(yes)) == shares[i]
        assert max(plan.reduce(plan.prepare(g))[0].universe_size for g in raws) == largest[i]


def test_defect_2_sizes():
    """README defect 2's largest run: its largest graph, and how many of its
    normalized formulas have clauses."""
    m = re.search(r"`--trials (\d+) --max-size (\d+)`, which decides every trial, on graphs of "
                  r"up to (\d+) vertices; (\d+) of those \d+ normalized formulas have clauses",
                  _defects())
    trials, max_size, largest, nonempty = map(int, m.groups())
    plan = harness.resolve("sat2_to_2cvc3", max_size=max_size)
    formulas = [plan.prepare(f) for f in _sources("sat2_to_2cvc3", trials, max_size)]
    assert not _run("sat2_to_2cvc3", trials, max_size).skipped
    assert sum(bool(f.clauses) for f in formulas) == nonempty
    assert max(plan.reduce(f)[0].num_vertices for f in formulas) == largest


@functools.cache
def _draws(spec: harness.GenSpec, trials: int) -> frozenset:
    """The distinct instances of `trials` trials drawn from spec."""
    return frozenset(harness.generate(spec, t) for t in range(trials))


def _distinct(name: str, trials: int, seed: int, prepared: bool = False) -> int:
    """How many distinct instances the run of `name` at seed draws, or with
    `prepared` how many distinct instances its plan prepares them to."""
    plan = harness.resolve(name, seed)
    raws = _draws(plan.genspec, trials)
    return len({plan.prepare(g) for g in raws}) if prepared else len(raws)


def test_memo_counts(monkeypatch):
    """The memo paragraph's counts: its bound, the default matching run's
    draws and gadgets, the benchmark's `matching` chunks (each a run, so
    each counts its own distinct draws), the `verify_mix` plans' shares,
    and the sat2 plans' draws and normal forms."""
    section = _command_line()
    m = re.search(r"Each of the run's two memos, .*?, holds at most (\d+) instances", section)
    assert int(m.group(1)) == harness.MEMO_ENTRIES
    m = re.search(r"`verify (\w+) --trials (\d+) --seed (\d+)` draws (\d+) distinct instances, "
                  r"which normalize to (\d+) distinct digraphs, so it builds and decides (\d+) "
                  r"gadgets", section)
    name, trials, seed, raw, prepared, gadgets = m.group(1), *map(int, m.groups()[1:])
    assert (_distinct(name, trials, seed), _distinct(name, trials, seed, True)) == (raw, prepared)
    assert gadgets == prepared

    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports its sibling `scale`
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    m = re.search(r"`matching` chunks at workload seed (\d+), each a run of its own, draw (\d+) "
                  r"distinct instances in (\d+) trials for `(\w+)` and for `(\w+)` and (\d+) in "
                  r"(\d+) for `(\w+)`", section)
    quoted = {m.group(4): (int(m.group(2)), int(m.group(3))),
              m.group(5): (int(m.group(2)), int(m.group(3))),
              m.group(8): (int(m.group(6)), int(m.group(7)))}
    counted: dict[str, tuple[int, int]] = {}
    for op in workloads.WORKLOADS["matching"].ops(int(m.group(1))):
        name, trials, seed = op.argv[1], int(op.argv[3]), int(op.argv[5])
        raw, total = counted.get(name, (0, 0))
        counted[name] = (raw + _distinct(name, trials, seed), total + trials)
    assert counted == quoted

    m = re.search(r"at seed (\d+), (\d+) trials of a `verify_mix` plan are ([\d.]+)–([\d.]+)% "
                  r"distinct", section)
    seed, trials = int(m.group(1)), int(m.group(2))
    shares = [100 * _distinct(name, trials, seed) / trials for name in workloads.MIX_VERIFY]
    assert (f"{min(shares):.1f}", f"{max(shares):.1f}") == m.groups()[2:]

    m = re.search(r"at seed (\d+), (\d+) trials of `(\w+)` draw (\d+) distinct formulas that "
                  r"normalize to (\d+) distinct ones, and those of `(\w+)` draw (\d+) that "
                  r"normalize to (\d+)\.", section)
    seed, trials = int(m.group(1)), int(m.group(2))
    for name, raw, prepared in (m.groups()[2:5], m.groups()[5:]):
        assert _distinct(name, trials, seed) == int(raw)
        assert _distinct(name, trials, seed, True) == int(prepared)
