"""Alternating benchmark pairs of two checkouts, summed up in one file.

    python3 tools/bench_pairs.py BASE CHANGE --label NAME --pairs N [--seed 9001]

BASE and CHANGE are the roots of two source checkouts, usually a parent
commit and a change on top of it. Pair i runs

    python3 bench/run.py --workload W --seed SEED+i --seconds S --trace 0

once in each checkout, each with its own bench/run.py, for every workload
W of BASE's BENCHMARK.json in turn, S being its `run_seconds`. The base
runs first in even pairs and the change in odd ones, so a drift in the
machine's speed falls on both sides alike.

BENCH_<label>.json, written to the current directory after every pair, names
each side by `sources`, a sha256 over the sorted relative paths and bytes of
its src/redlab/*.py, and by `heads`, its git commit, or null unless the side
is the top of a git checkout with no uncommitted change under src. It holds
for each workload and end-to-end metric of that BENCHMARK.json:

- every run of both sides, in pair order;
- each side's median and quartiles (q1, q3);
- the pairs the change wins, by the metric's direction (ties count for
  neither), and the change's median over the base's;
- `gain`: the change won at least 9 of every 10 pairs and the medians differ
  by more than the base's quartile distance;
- `within_bound`: the change's median is no worse than the base's by more
  than the metric's bound;
- `resolved`: false when the base's quartile distance exceeds the bound
  times the base's median, unless every change run is better than every
  base run. An unresolved metric's spread hides a move of its bound's size,
  so it reads as unresolved, not as unchanged.

A run that exits non-zero, prints no JSON or reports a wrong output stops
the tool with its stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        raise SystemExit(f"error: {' '.join(argv[1:])} in {root} exited {done.returncode}:\n"
                         f"{done.stderr}")
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"error: {workload} seed {seed} in {root} failed "
                         f"{result['failed']} of {result['attempted']} operations")
    return result


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(base: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    b, c = spread(base), spread(change)
    return {
        "base": {**b, "runs": base},
        "change": {**c, "runs": change},
        "change_over_base": c["median"] / b["median"],
        "wins": wins,
        "pairs": len(base),
        "gain": 10 * wins >= 9 * len(base) and sign * (c["median"] - b["median"]) > b["q3"] - b["q1"],
        "within_bound": sign * (c["median"] - b["median"]) >= -bound * b["median"],
        "resolved": (b["q3"] - b["q1"] <= bound * b["median"]
                     or min(sign * x for x in change) > max(sign * x for x in base)),
    }


def sources_digest(root: Path) -> str:
    """sha256 over the sorted relative paths and bytes of root's src/redlab/*.py."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "redlab").glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def git_head(root: Path) -> str | None:
    """root's HEAD commit if root is the top of a git checkout whose src has
    no uncommitted change, else None: a repository that merely encloses root,
    or an edited src, would name other sources."""
    def git(*args: str) -> str | None:
        done = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != root.resolve():
        return None
    if git("status", "--porcelain", "--", "src") != "":
        return None
    return git("rev-parse", "HEAD") or None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--label", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=9001)
    args = p.parse_args(argv)
    if args.pairs <= 0:
        p.error(f"--pairs {args.pairs} is not a positive integer")

    benchmark = json.loads((args.base / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    metrics = benchmark["end_to_end"]
    runs = {w["name"]: {"base": [], "change": []} for w in benchmark["workloads"]}
    out = Path(f"BENCH_{args.label}.json")
    sources = {side: sources_digest(getattr(args, side)) for side in ("base", "change")}
    heads = {side: git_head(getattr(args, side)) for side in ("base", "change")}
    for i in range(args.pairs):
        for workload in runs:
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for side in order:
                result = run_bench(getattr(args, side), workload, args.seed + i, seconds)
                runs[workload][side].append(result["metrics"])
                print(f"pair {i} {workload} {side}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      flush=True)
        summary = {
            "label": args.label,
            "command": f"bench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
            "seeds": [args.seed, args.seed + i],
            "host": {"machine": platform.machine(), "python": platform.python_version(),
                     "cpus": len(os.sched_getaffinity(0))},
            "sources": sources,
            "heads": heads,
            "workloads": {
                w: {m["name"]: compare([r[m["name"]]["value"] for r in sides["base"]],
                                       [r[m["name"]]["value"] for r in sides["change"]],
                                       m["better"], m["bound"])
                    for m in metrics}
                for w, sides in runs.items()
            },
        }
        out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
