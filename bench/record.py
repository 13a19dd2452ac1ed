"""Record the golden outputs the benchmark checks against.

    python3 bench/record.py [workload ...]

For every workload, runs the warm-up operations and, at every workload
seed, each round and fit operation once at one worker, and stores the
SHA-256 of each output text in bench/goldens/<workload>.json. For reading,
it also keeps the summary lines of each `verify` and `fit` output and, at
the warm-up seed, the full text of each `scale` pipeline, which holds the
instance sizes. Run it only on a tree whose outputs are known to be right:
a later change whose output differs by one byte fails the benchmark's
correctness check.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def head(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith(("COUNTEREXAMPLE", "HIST")))


def main(names: list[str]) -> int:
    run.import_redlab()
    import workloads

    out_dir = run.BENCH_DIR / "goldens"
    out_dir.mkdir(exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        ops = wl.warmup_ops()
        for wseed in workloads.all_workload_seeds():
            ops += wl.ops(wseed) + wl.fit_ops(wseed)
        outputs = {}
        with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_out") as tmp:
            for op in ops:
                text = (workloads.scale.run_task(op.task) if op.task
                        else workloads.run_cli(op.argv, 1, Path(tmp)))
                outputs[op.key] = {"sha256": workloads.digest(text)}
                if not op.task or op.task[2] == workloads.WARMUP_SEED:
                    outputs[op.key]["head"] = head(text)
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps({"workload": name, "outputs": outputs}, indent=1) + "\n")
        print(f"{name}: {len(outputs)} outputs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    (run.ROOT / ".bench_out").mkdir(exist_ok=True)
    sys.exit(main(sys.argv[1:]))
