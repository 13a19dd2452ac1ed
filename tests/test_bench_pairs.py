"""The decision rule of tools/bench_pairs.py: wins, quartiles and bounds."""

import importlib.util
from pathlib import Path

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
