"""tools/bench_pairs.py: its decision rule (wins, quartiles and bounds) and
how it names the two sides it compares."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_spread_quartiles():
    assert bench_pairs.spread([4.0]) == {"median": 4.0, "q1": 4.0, "q3": 4.0}
    assert bench_pairs.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}


def test_gain_needs_nine_in_ten_wins_and_a_gap_beyond_the_base_spread():
    base = [10.0, 11.0, 12.0, 10.5, 11.5, 10.0, 11.0, 12.0, 10.5, 11.5]
    faster = [b + 3 for b in base]
    got = bench_pairs.compare(base, faster, "higher", 0.25)
    assert (got["wins"], got["pairs"], got["gain"], got["within_bound"]) == (10, 10, True, True)
    # one tie and one loss: 8 of 10 wins is no gain
    mixed = faster[:8] + [base[8], base[9] - 1]
    assert bench_pairs.compare(base, mixed, "higher", 0.25)["gain"] is False
    # every pair won, but by less than the base's quartile distance
    assert bench_pairs.compare(base, [b + 0.1 for b in base], "higher", 0.25)["gain"] is False


def test_direction_and_bound_for_lower_is_better():
    base = [40.0] * 5
    assert bench_pairs.compare(base, [43.0] * 5, "lower", 0.1)["within_bound"] is True
    worse = bench_pairs.compare(base, [45.0] * 5, "lower", 0.1)
    assert (worse["wins"], worse["within_bound"]) == (0, False)
    assert bench_pairs.compare(base, [30.0] * 5, "lower", 0.1)["gain"] is True


def test_resolved_unless_the_base_spread_exceeds_the_bound():
    base = [10.0, 11.0, 12.0, 10.5, 11.5]  # quartile distance 1.0, median 11.0
    assert bench_pairs.compare(base, base, "higher", 0.1)["resolved"] is True
    # a spread over 5% of the median hides a 5% move
    unresolved = bench_pairs.compare(base, [b - 0.2 for b in base], "higher", 0.05)
    assert (unresolved["within_bound"], unresolved["resolved"]) == (True, False)
    # unless every change run beats every base run
    dominant = bench_pairs.compare(base, [12.5, 13.0, 12.1, 13.5, 12.8], "higher", 0.05)
    assert dominant["resolved"] is True
    assert bench_pairs.compare(base, [9.9, 9.0, 9.5, 9.2, 9.8], "lower", 0.05)["resolved"] is True
    assert bench_pairs.compare(base, [9.9, 9.0, 10.0, 9.2, 9.8], "lower", 0.05)["resolved"] is False


def _git(root: Path, *args: str) -> str:
    done = subprocess.run(["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t",
                           "-c", "commit.gpgsign=false", *args],
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def _tree(root: Path, text: str = "x = 1\n") -> Path:
    (root / "src" / "redlab").mkdir(parents=True)
    (root / "src" / "redlab" / "a.py").write_text(text)
    (root / "src" / "redlab" / "b.py").write_text("y = 2\n")
    return root


def test_sources_digest_names_the_sources_alone(tmp_path):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    (b / "README.md").write_text("other files do not count\n")
    (b / "src" / "redlab" / "notes.txt").write_text("nor do non-Python files\n")
    assert bench_pairs.sources_digest(a) == bench_pairs.sources_digest(b)
    (b / "src" / "redlab" / "a.py").write_text("x = 2\n")
    assert bench_pairs.sources_digest(a) != bench_pairs.sources_digest(b)
    # moving bytes from one file to the next changes the digest
    c = _tree(tmp_path / "c", "x = 1\ny = 2\n")
    (c / "src" / "redlab" / "b.py").write_text("")
    assert bench_pairs.sources_digest(a) != bench_pairs.sources_digest(c)


def test_git_head_only_for_a_clean_checkout_top(tmp_path):
    root = _tree(tmp_path / "repo")
    assert bench_pairs.git_head(root) is None  # not a checkout
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "one")
    head = _git(root, "rev-parse", "HEAD")
    assert bench_pairs.git_head(root) == head
    # a directory inside the checkout holds other sources than its HEAD names
    assert bench_pairs.git_head(root / "src") is None
    # an edit outside src leaves the sources as committed
    (root / "README.md").write_text("notes\n")
    assert bench_pairs.git_head(root) == head
    # a copy with an uncommitted edit under src, new file or changed file
    (root / "src" / "redlab" / "c.py").write_text("z = 3\n")
    assert bench_pairs.git_head(root) is None
    (root / "src" / "redlab" / "c.py").unlink()
    (root / "src" / "redlab" / "a.py").write_text("x = 5\n")
    assert bench_pairs.git_head(root) is None


def test_pairs_must_be_positive(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(tmp_path), str(tmp_path), "--label", "x", "--pairs", "0"])
    assert exc.value.code == 2 and "0 is not a positive integer" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
