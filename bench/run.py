"""redlab benchmark: one run of one workload.

    python3 bench/run.py --workload {verify_mix,matching,scale} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; redlab is imported from ./src.
Each run sets up (import, plan construction, warm-up), then runs fixed
rounds of operations for about S seconds, checks every operation's output
against its golden hash (bench/goldens, written by bench/record.py), and
prints the metrics as the last stdout line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (tracing off). With
--trace 1 the run installs span tracing around the public functions of
cli, harness, reductions, oracles and instances for part of the rounds and
reports per-layer self times, slopes and exact work counters instead; the
spans go to .bench_out/trace_<workload>.csv.gz. Lines before the last one
are a human-readable report of the same numbers.

A trial is one generate -> prepare -> reduce -> decide -> postcheck pass
of `redlab verify` (or of `redlab fit`, which skips the oracles), or one
large-instance pipeline of the `scale` workload.
"""

from __future__ import annotations

import time

import procs
import speed

CLOCK = speed.Clock()
T0 = time.perf_counter()  # set-up time runs from here to the end of the warm-up

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 6
# Shares of --seconds spent in each phase.
PHASES_UNTRACED = {"serial": 0.8, "fit": 0.2}
PHASES_TRACED = {"serial": 0.2, "pool": 0.2, "traced": 0.4, "traced_fit": 0.2}
CAPACITY_LIMIT_S = 2.0  # per-instance time limit of the solve_ap2dm capacity probe


def usable_cores() -> int:
    return max(1, len(os.sched_getaffinity(0)))


def import_redlab():
    src = ROOT / "src"
    if not (src / "redlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no redlab sources under {src}; run from a checkout root")
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import redlab

    if Path(redlab.__file__).resolve().parent != (src / "redlab").resolve():
        raise SystemExit(f"error: redlab imported from {redlab.__file__}, not {src}")


class Runner:
    """Runs operations, checks each output against its golden hash, and
    counts attempted and failed operations."""

    def __init__(self, workload, wseed: int, run_dir: Path):
        import workloads

        self.wl = workloads
        self.workload = workload
        self.wseed = wseed
        self.run_dir = run_dir
        path = BENCH_DIR / "goldens" / f"{workload.name}.json"
        self.goldens = json.loads(path.read_text())["outputs"]
        self.attempted = 0
        self.failed = 0
        self.counterexamples = 0  # COUNTEREXAMPLE lines of the last round

    def _fail(self, op, why: str):
        self.failed += 1
        print(f"# FAILED {op.key}: {why}", file=sys.stderr)

    def check(self, op, text: str | None):
        self.attempted += 1
        if text is None:
            return self._fail(op, "raised")
        want = self.goldens.get(op.key, {}).get("sha256")
        if self.wl.digest(text) != want:
            return self._fail(op, "output differs from the golden")
        if op.argv and op.argv[0] == "verify":
            files = [line.split("\t")[2] for line in text.splitlines()
                     if line.startswith("COUNTEREXAMPLE\t")]
            self.counterexamples += len(files)
            missing = [f for f in files if not (self.run_dir / f).is_file()]
            if missing:
                self._fail(op, f"{len(missing)} counterexample files missing")

    def round(self, ops, workers: int = 1, executor=None) -> tuple[float, float]:
        """Run every op once; returns (scaled, wall) trials per second.

        Ops run one at a time, or in a process pool one batch of equal size
        at a time, with a speed probe between them (see speed.py).
        """
        self.counterexamples = 0
        if executor is None:
            batches = [[op] for op in ops]
        else:
            sizes = list(dict.fromkeys(op.task[1] for op in ops))
            batches = [[op for op in ops if op.task[1] == size] for size in sizes]
        texts, wall, scaled = [], 0.0, 0.0
        for batch in batches:
            start = time.perf_counter()
            if executor is None:
                texts.append(run_op(batch[0], workers, self.run_dir))
            else:
                futures = [executor.submit(run_op, op, 1, self.run_dir) for op in batch]
                texts += [f.result() for f in futures]
            elapsed = time.perf_counter() - start
            wall += elapsed
            scaled += CLOCK.lap(elapsed)
        for op, text in zip([op for batch in batches for op in batch], texts):
            self.check(op, text)
        trials = sum(op.trials for op in ops)
        return trials / scaled, trials / wall


def run_op(op, workers: int, run_dir: Path) -> str | None:
    """Output text of one operation, or None if it raised."""
    import scale
    import workloads

    try:
        if op.task:
            return scale.run_task(op.task)
        return workloads.run_cli(op.argv, workers, run_dir)
    except Exception:  # a failed operation is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        return None


def _pool_warm():
    time.sleep(0.05)  # hold this worker so the next warm-up task starts another


def timed_rounds(budget_s: float, min_rounds: int, one_round) -> list[tuple[float, float]]:
    """Repeat `one_round` while the next round is expected to end in budget."""
    samples: list[tuple[float, float]] = []
    start = time.perf_counter()
    last = 0.0
    while len(samples) < min_rounds or time.perf_counter() - start + last <= budget_s:
        t = time.perf_counter()
        samples.append(one_round())
        last = time.perf_counter() - t
    return samples


def pool_rounds(runner, ops, budget_s: float, min_rounds: int, workers: int) -> list[tuple]:
    """Rounds at `workers` processes: REDLAB_WORKERS for cli operations, a
    process pool of the same size for scale pipelines."""
    if not ops[0].task:
        return timed_rounds(budget_s, min_rounds, lambda: runner.round(ops, workers))
    # Forked workers share this process's imported redlab. Unlike "spawn" and
    # "forkserver", "fork" starts no helper process (resource tracker or fork
    # server) that would outlive the pool and this run.
    with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork")) as pool:
        warm = [pool.submit(_pool_warm) for _ in range(workers)]  # start every worker
        for f in warm:
            f.result()
        return timed_rounds(budget_s, min_rounds, lambda: runner.round(ops, executor=pool))


def setup(workload_name: str, seed: int, run_dir: Path):
    """Import, plan construction and warm-up; returns (runner, scaled set-up seconds)."""
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    wseed = workloads.workload_seed(seed)
    runner = Runner(workload, wseed, run_dir)
    scaled = CLOCK.lap(time.perf_counter() - T0)
    warmup = workload.warmup_ops()
    tps, _ = runner.round(warmup)
    return runner, scaled + sum(op.trials for op in warmup) / tps


def setup_probes(args, runner) -> list[float]:
    """Set-up times of fresh interpreters, each importing redlab anew; the
    probes' warm-up operations count as attempted operations of this run."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
            preexec_fn=procs.preexec)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        runner.attempted += probe["attempted"]
        runner.failed += probe["failed"]
        out.append(probe["setup_s"])
    return out


class _Timeout(Exception):
    pass


def max_elements_settled(wseed: int) -> tuple[int, list]:
    """Largest matching-gadget instance solve_ap2dm decides without
    BudgetError within CAPACITY_LIMIT_S, ascending the dstcon_raw size knob.

    At each knob the largest gadget among 50 seeded trials is tried.
    """
    from redlab import BudgetError, harness, oracles, reductions

    def alarm(signum, frame):
        raise _Timeout

    previous = signal.signal(signal.SIGALRM, alarm)
    best, log = 0, []
    try:
        for knob in range(3, 16):
            spec = harness.GenSpec("dstcon_raw", max_size=knob, seed=wseed)
            gadgets = [reductions.dstcon_to_ap2dm(
                reductions.normalize_dstcon(harness.generate(spec, t))[0])[0]
                for t in range(50)]
            a = max(gadgets, key=lambda g: (g.universe_size, len(g.pairs)))
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, CAPACITY_LIMIT_S)
            try:
                oracles.solve_ap2dm(a)
                outcome = "settled"
            except BudgetError:
                outcome = "budget"
            except _Timeout:
                outcome = "timeout"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            log.append((knob, a.universe_size, outcome, time.perf_counter() - start))
            if outcome != "settled":
                break
            best = max(best, a.universe_size)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return best, log


def metric(value, unit):
    return {"value": value, "unit": unit}


def scaled_median(samples) -> float:
    return statistics.median(x[0] for x in samples)


def report_rounds(label: str, samples):
    """Per-round scaled and wall figures for the human-readable report."""
    print(f"# {label}: {len(samples)} rounds, scaled "
          + " ".join(f"{x[0]:.6g}" for x in samples)
          + "; wall " + " ".join(f"{x[1]:.6g}" for x in samples))


def untraced_metrics(args, runner, ops, fit_ops, setup_samples) -> dict:
    s = args.seconds
    serial = timed_rounds(PHASES_UNTRACED["serial"] * s, 2, lambda: runner.round(ops))
    fit = timed_rounds(PHASES_UNTRACED["fit"] * s, 2, lambda: runner.round(fit_ops))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    report_rounds("trials/s at 1 worker", serial)
    report_rounds("fit trials/s", fit)
    print("# set-up s (this process, then fresh interpreters), scaled "
          + " ".join(f"{x:.4g}" for x in setup_samples))
    print(f"# peak RSS of set-up probes: {rss_children:.1f} MB")
    return {
        "trials_per_s": metric(scaled_median(serial), "1/s"),
        "fit_trials_per_s": metric(scaled_median(fit), "1/s"),
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }


def traced_metrics(args, runner, ops, fit_ops, out_dir: Path) -> tuple[dict, bool]:
    import spans

    s = args.seconds
    workers = usable_cores()
    serial = timed_rounds(PHASES_TRACED["serial"] * s, 1, lambda: runner.round(ops))
    pool = pool_rounds(runner, ops, PHASES_TRACED["pool"] * s, 1, workers)

    def traced_phase(tracer, phase_ops, budget):
        def one():
            tps = runner.round(phase_ops)
            tracer.end_round({"cli.counterexample_files": runner.counterexamples})
            return tps
        tracer.install()
        try:
            return timed_rounds(budget, 2, one)
        finally:
            tracer.uninstall()

    main = spans.Tracer()
    traced = traced_phase(main, ops, PHASES_TRACED["traced"] * s)
    fitter = spans.Tracer()
    traced_phase(fitter, fit_ops, PHASES_TRACED["traced_fit"] * s)
    settled, capacity_log = max_elements_settled(runner.wseed)
    main.write(out_dir / f"trace_{runner.workload.name}.csv.gz")

    repeat_ok = main.counters_repeat() and fitter.counters_repeat()
    if not repeat_ok:
        print("# FAILED: work counters differ between identical rounds", file=sys.stderr)
    per_call = main.self_times()
    fit_calls = fitter.self_times()
    fit_layers = ("cli.fit", "harness.fit_shortness")
    counts = dict(main.rounds[0])
    for layer in fit_layers:
        per_call[layer] = fit_calls.get(layer, [])
        counts[layer + ".calls"] = fitter.rounds[0].get(layer + ".calls", 0)

    m = {}
    print("# layer self times: per-call p50 and tail percentile (ms), calls per round")
    ranked = []
    for layer in spans.LAYERS:
        st = spans.layer_stats(per_call.get(layer, []))
        m[f"{layer}.self_ms"] = metric(st["p50_ms"], "ms")
        m[f"{layer}.self_ms_tail"] = metric(st["tail_ms"], "ms")
        m[f"{layer}.calls"] = metric(counts.get(layer + ".calls", 0), "count")
        ranked.append((st["self_total_ms"], layer, st))
    for total, layer, st in sorted(ranked, reverse=True):
        if st["n"]:
            print(f"#   {layer:40s} self total {total:10.1f} ms  p50 {st['p50_ms']:.4f}"
                  f"  p{st['tail_level']:g} {st['tail_ms']:.4f}  n={st['n']}")
    for suffix, layer, group in spans.SLOPES:
        m[f"slope.{suffix}"] = metric(spans.slope_of(per_call.get(layer, []), group), "ratio")
    for name in spans.REDUCTION_NAMES:
        for kind in ("in_size", "out_size"):
            m[f"reductions.{name}.{kind}"] = metric(
                counts.get(f"reductions.{name}.{kind}", 0), "count")
    m["reductions.ap2dm_to_dstcon_queries.queries"] = metric(
        counts.get("reductions.ap2dm_to_dstcon_queries.queries", 0), "count")
    m["oracles.perfect_matchings.matchings"] = metric(
        counts.get("oracles.perfect_matchings.matchings", 0), "count")
    m["cli.counterexample_files"] = metric(counts.get("cli.counterexample_files", 0), "count")
    m["harness.verify.self_share"] = metric(
        spans.layer_stats(per_call.get("harness.verify", []))["self_share"], "ratio")
    m["harness.fit_shortness.self_share"] = metric(
        spans.layer_stats(per_call.get("harness.fit_shortness", []))["self_share"], "ratio")
    speedup = scaled_median(pool) / scaled_median(serial)
    m["harness.pool.speedup"] = metric(speedup, "ratio")
    m["harness.pool.trials_per_s"] = metric(scaled_median(pool), "1/s")
    m["oracles.solve_ap2dm.max_elements_settled"] = metric(settled, "count")
    m["tracing.trials_per_s_untraced"] = metric(scaled_median(serial), "1/s")
    m["tracing.trials_per_s_traced"] = metric(scaled_median(traced), "1/s")
    report_rounds("untraced trials/s at 1 worker", serial)
    report_rounds(f"untraced trials/s at {workers} workers", pool)
    report_rounds("traced trials/s at 1 worker", traced)
    print(f"# harness.pool.speedup = harness.pool.trials_per_s / trials_per_s at {workers} workers"
          f" = {scaled_median(pool):.6g} / {scaled_median(serial):.6g}")
    print(f"# traced rounds: {len(traced)}; capacity probe (knob, |X|, outcome, s): "
          + "; ".join(f"{k} {n} {o} {t:.3f}" for k, n, o, t in capacity_log))
    return m, repeat_ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("verify_mix", "matching", "scale"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    # redlab's own verify pool uses the default start method; make it "fork"
    # for the reason given in pool_rounds.
    multiprocessing.set_start_method("fork", force=True)
    procs.install()
    try:
        return run(args)
    finally:
        left = procs.reap()
        if left:
            print(f"# killed {left} child processes still alive at the end of the run",
                  file=sys.stderr)


def run(args) -> int:
    import_redlab()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run_", dir=out_dir))
    try:
        runner, setup_s = setup(args.workload, args.seed, run_dir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s, "attempted": runner.attempted,
                              "failed": runner.failed}))
            return 0
        import numpy

        ops = runner.workload.ops(runner.wseed, traced=bool(args.trace))
        fit_ops = runner.workload.fit_ops(runner.wseed)
        print(f"# workload {args.workload} seed {args.seed} -> workload seed {runner.wseed};"
              f" {len(ops)} ops, {sum(o.trials for o in ops)} trials per round;"
              f" nproc {usable_cores()}; python {platform.python_version()};"
              f" numpy {numpy.__version__}")
        if args.trace:
            metrics, repeat_ok = traced_metrics(args, runner, ops, fit_ops, out_dir)
        else:
            samples = [setup_s] + setup_probes(args, runner)
            metrics = untraced_metrics(args, runner, ops, fit_ops, samples)
            repeat_ok = True
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    error_rate = runner.failed / runner.attempted
    print(f"# error_rate {error_rate:.6f} ({runner.failed} of {runner.attempted} operations"
          " raised or differ from the golden)")
    for name, v in metrics.items():
        print(f"# metric {name} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": runner.failed == 0 and repeat_ok,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
