"""Command-line entry point.

Exit codes: 0 = YES/success, 1 = NO, 2 = usage, I/O or invalid-input
error. Every run depends on its flags alone: no subcommand reads the
environment.

`reduce` takes the many-one reductions of `reductions.REDUCTIONS`. `verify`
and `fit` take every name `harness.resolve` knows: those reductions, the
`bad_*` mutation fixtures and the oracle reduction `ap2dm_to_dstcon_queries`.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import figures, harness, oracles, reductions
from .instances import Ap2dmInstance, Digraph, UGraph, parse, serialize


def _read(path: str):
    return parse(Path(path).read_text())


def _checked(convert, accept, wanted: str):
    """An argparse type: convert the text, and reject a value accept refuses."""
    def check(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{text} is not {wanted}")
        return value
    check.__name__ = convert.__name__  # argparse: "invalid int value: 'x'"
    return check


_positive = _checked(int, lambda v: v > 0, "a positive integer")
_non_negative = _checked(int, lambda v: v >= 0, "a non-negative integer")
_probability = _checked(float, lambda v: 0 <= v <= 1, "a number in [0, 1]")  # nan fails too


# gen's optional knobs: the option, its GenSpec field (the option's dest)
# and the classes whose generator reads that field; any other class rejects it
_GEN_KNOBS = (("--clauses", "clauses", {"2sat3"}),
              ("--deg-bound", "deg_bound", {"ugraph3", "digraph4"}),
              ("--bias", "sat_bias", set(harness.GENERATORS) - {"ap2dm"}))


def cmd_gen(args) -> int:
    knobs = {}
    for option, field, readers in _GEN_KNOBS:
        value = getattr(args, field)
        if value is not None:
            if args.problem not in readers:
                raise ValueError(f"the {args.problem} generator does not read {option}")
            knobs[field] = value
    instance = harness.generate(harness.GenSpec(args.problem, args.size, args.seed, **knobs))
    text = serialize(instance)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_solve(args) -> int:
    instance = _read(args.file)
    yes, witness, _ = oracles.decide(instance)
    print("YES" if yes else "NO")
    if witness is not None:
        print(oracles.DECIDERS[type(instance)][2](witness))
    return 0 if yes else 1


def cmd_reduce(args) -> int:
    if args.name not in reductions.REDUCTIONS:
        known = ", ".join(sorted(reductions.REDUCTIONS))
        raise ValueError(f"unknown reduction {args.name!r}; known: {known}")
    instance = _read(args.input)
    out, report = reductions.REDUCTIONS[args.name](instance)
    Path(args.output).write_text(serialize(out))
    if report is not None:
        if args.report:
            Path(args.report).write_text(report.to_text())
        else:
            sys.stdout.write(report.to_text())
    return 0


def _holds(path: str, data: bytes) -> bool:
    """Whether the file at path holds exactly data. One read asks for one
    byte more than data, so a longer file differs; a short read only costs a
    needless rewrite. A missing file or a directory does not hold data, and
    any other error propagates."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except FileNotFoundError:
        return False
    try:
        return os.read(fd, len(data) + 1) == data
    except IsADirectoryError:
        return False  # the write then fails with the path in its message
    finally:
        os.close(fd)


def cmd_verify(args) -> int:
    # the name first, then --run-dir, then the trials: a bad name leaves no
    # directory behind, and a bad path costs no trial
    plan = harness.resolve(args.name, args.seed, args.max_size)
    Path(args.run_dir).mkdir(parents=True, exist_ok=True)
    result = harness.verify(args.name, plan, args.trials)
    for seed, text in result.equiv_failures:
        path = f"{args.run_dir}/{result.name}_seed{seed}.txt"
        data = text.encode()
        if not _holds(path, data):  # a rerun leaves an equal file untouched
            Path(path).write_bytes(data)
    sys.stdout.write(result.to_text(include_timing=not args.no_timing))
    return 0


def cmd_fit(args) -> int:
    fit = harness.fit_shortness(args.name, args.trials, seed=args.seed)
    k1, k2 = fit["declared"]
    print(f"FIT {fit['name']}")
    print(f"DECLARED K1 {k1} K2 {k2}")
    print(f"OBSERVED_PAIRS {fit['observed_pairs']}")
    print(f"MAX_RATIO {fit['max_ratio']:.6f}")
    print(f"FIT_K1 {fit['fit_k1_with_k2_0']:.6f} (with k2=0)")
    print(f"FIT_K2 {fit['fit_k2_with_declared_k1']} (with declared k1)")
    for bucket, count in fit["histogram"].items():
        print(f"HIST {bucket} {count}")
    return 0


def cmd_example(args) -> int:
    sys.stdout.write(figures.example_text(args.which))
    return 0


def cmd_dot(args) -> int:
    instance = _read(args.file)
    if isinstance(instance, Digraph):
        lines = ["digraph G {"]
        lines.append(f'  s [label="s={instance.s}"]; t [label="t={instance.t}"];')
        for u, v in instance.edges:
            lines.append(f"  {u} -> {v};")
        lines.append("}")
    elif isinstance(instance, UGraph):
        lines = ["graph G {"]
        for u, v in instance.edges:
            lines.append(f"  {u} -- {v};")
        lines.append("}")
    elif isinstance(instance, Ap2dmInstance):
        lines = ["digraph M {"]
        exempt = set(instance.exempt)
        for v in range(1, instance.universe_size + 1):
            shape = "box" if v in exempt else "ellipse"
            lines.append(f"  {v} [shape={shape}];")
        for u, v in instance.pairs:
            lines.append(f"  {u} -> {v};")
        lines.append("}")
    else:
        raise ValueError(f"{type(instance).__name__} is not graph-shaped")
    Path(args.output).write_text("\n".join(lines) + "\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The redlab argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="redlab",
        description="generate, solve, reduce, and verify parameterized reachability/cover instances")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("problem", choices=sorted(harness.GENERATORS))
    p.add_argument("--size", type=_positive, required=True, help="primary size knob")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clauses", type=int, default=None)
    p.add_argument("--deg-bound", type=_non_negative, default=None, help="default 3")
    p.add_argument("--bias", type=_probability, default=None, dest="sat_bias",
                   help="planted-witness fraction, default 0.5")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("solve", help="decide an instance file, exit 0=YES 1=NO")
    p.add_argument("file")

    p = sub.add_parser("reduce", help="apply a named reduction to a file")
    p.add_argument("name")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--report", default=None)

    p = sub.add_parser("verify", help="run the verification harness")
    p.add_argument("name")
    p.add_argument("--trials", type=_positive, default=200)
    p.add_argument("--max-size", type=_positive, default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--run-dir", default=".")
    p.add_argument("--no-timing", action="store_true", help="omit the WALLTIME line")

    p = sub.add_parser("fit", help="fit observed shortness constants")
    p.add_argument("name")
    p.add_argument("--trials", type=_positive, default=200)
    p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("example", help="emit a worked figure instance end to end")
    p.add_argument("which", choices=("fig1", "fig2", "fig3"))

    p = sub.add_parser("dot", help="write a DOT rendering of a graph-shaped instance")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # looked up when called, so a wrapper put on a cmd_* function after
        # the cached parser was built still runs
        return globals()[f"cmd_{args.command}"](args)
    except (OSError, ValueError) as exc:  # ParseError, BudgetError and PreconditionError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
