"""The three workloads: which operations one round runs, and how to run them.

An operation is either an in-process `redlab` command line (`cli.main`)
whose stdout is captured, or one `scale` pipeline. Every operation is
deterministic in the workload seed, so its output text is compared with
the golden hash recorded for that seed.

Workload seeds: the benchmark's `--seed` is hashed onto one of `SEED_COUNT`
recorded workload seeds 1, 1 + 7919, 1 + 2*7919, ... Consecutive workload
seeds are far enough apart that their trial seeds (seed + trial) never
overlap, so each gives a disjoint set of instances.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass
from pathlib import Path

from redlab import cli, harness

import scale

SEED_COUNT = 32
SEED_STRIDE = 7919


def workload_seed(seed: int) -> int:
    idx = int(hashlib.sha256(str(seed).encode()).hexdigest(), 16) % SEED_COUNT
    return 1 + SEED_STRIDE * idx


def all_workload_seeds() -> list[int]:
    return [1 + SEED_STRIDE * i for i in range(SEED_COUNT)]


@dataclass(frozen=True)
class Op:
    key: str  # golden key: the operation and its seed
    trials: int
    argv: tuple = ()  # cli operation
    task: tuple = ()  # scale pipeline (name, size, workload seed)


def _verify(name: str, trials: int, seed: int) -> Op:
    return Op(f"verify {name} {trials} {seed}", trials,
              argv=("verify", name, "--trials", str(trials), "--seed", str(seed), "--no-timing"))


def _fit(name: str, trials: int, seed: int) -> Op:
    return Op(f"fit {name} {trials} {seed}", trials,
              argv=("fit", name, "--trials", str(trials), "--seed", str(seed)))


def _pipelines(sizes, seed: int) -> list[Op]:
    return [Op(f"pipeline {name} {size} {seed}", 1, task=(name, size, seed))
            for size in sizes for name in scale.PIPELINES]


# The default plans, minus the exponential matching gadget, plus the three
# cheap mutation fixtures: small instances, many trials, no dominant layer.
MIX_PLANS = [n for n in harness.default_plans() if n != "dstcon_to_ap2dm"]
MIX_VERIFY = MIX_PLANS + ["bad_sat2_to_2cvc3", "bad_cvc3_to_sat2", "bad_xce2_to_2lp"]
MIX_TRIALS = 1000
# The matching plans run in chunks over consecutive trial seeds so that a
# round is many short operations (see speed.py for why that matters). A
# round needs many trials: a few large gadgets dominate its time, so the
# time of a small round depends on how many it happens to draw. Traced
# runs use the first chunks only, to stay short.
MATCHING_VERIFY = [("dstcon_to_ap2dm", 40), ("bad_dstcon_to_ap2dm", 40),
                   ("ap2dm_to_dstcon_queries", 16)]
MATCHING_CHUNKS = 24
MATCHING_TRACE_CHUNKS = 4
FIT_TRIALS = 1000
# The warm-up runs at one fixed seed, so set-up time does not depend on the
# workload seed (matching trials differ in cost by orders of magnitude).
WARMUP_SEED = 1
WARMUP_TRIALS = 10


@dataclass(frozen=True)
class Workload:
    name: str

    def ops(self, seed: int, traced: bool = False) -> list[Op]:
        if self.name == "verify_mix":
            return [_verify(n, MIX_TRIALS, seed) for n in MIX_VERIFY]
        if self.name == "matching":
            chunks = MATCHING_TRACE_CHUNKS if traced else MATCHING_CHUNKS
            return [_verify(n, t, seed + k * t)
                    for k in range(chunks) for n, t in MATCHING_VERIFY]
        return _pipelines(scale.SIZES, seed)

    def fit_ops(self, seed: int) -> list[Op]:
        if self.name == "verify_mix":
            names = MIX_PLANS
        elif self.name == "matching":
            names = ["dstcon_to_ap2dm"]
        else:
            names = list(harness.default_plans())
        return [_fit(n, FIT_TRIALS, seed) for n in names]

    def warmup_ops(self) -> list[Op]:
        if self.name == "verify_mix":
            return [_verify(n, WARMUP_TRIALS, WARMUP_SEED) for n in MIX_VERIFY]
        if self.name == "matching":
            return [_verify(n, WARMUP_TRIALS, WARMUP_SEED) for n, _ in MATCHING_VERIFY]
        return _pipelines((scale.WARMUP_SIZE,), WARMUP_SEED)


WORKLOADS = {name: Workload(name) for name in ("verify_mix", "matching", "scale")}


def run_cli(argv: tuple, workers: int, run_dir: Path) -> str:
    """One in-process `redlab` command; returns its stdout.

    Raises RuntimeError on a non-zero exit code, so a command that failed
    counts as a failed operation.
    """
    os.environ["REDLAB_WORKERS"] = str(workers)
    buf, err = io.StringIO(), io.StringIO()
    full = list(argv)
    if argv[0] == "verify":
        full += ["--run-dir", str(run_dir)]
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = cli.main(full)
    if code != 0:
        raise RuntimeError(f"redlab {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return buf.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
