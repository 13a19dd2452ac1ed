"""Command-line entry point.

Exit codes: 0 = YES/success, 1 = NO, 2 = usage or I/O error. All subcommands
are reproducible from their flags; the only environment dependence is the
optional REDLAB_WORKERS worker count used by `verify` (the oracle-reduction
run included) and `fit`, which changes no output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import figures, harness, oracles, reductions
from .instances import (
    Ap2dmInstance,
    CnfFormula,
    Digraph,
    LinSystem,
    ParseError,
    UGraph,
    XceInstance,
    XorSystem,
    parse,
    serialize,
)


def _read(path: str):
    return parse(Path(path).read_text())


def _positive(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


_TAG_TYPES = {
    "occ_bound": int,
    "deg_bound": int,
    "overlap_bound": int,
    "col_bound": int,
    "exemption_density": float,
}


def _parse_tags(text: str) -> dict:
    tags = {}
    for item in text.split(","):
        if not item:
            continue
        key, _, value = item.partition("=")
        if key not in _TAG_TYPES:
            raise ValueError(f"unknown tag {key!r} (known: {', '.join(_TAG_TYPES)})")
        tags[key] = _TAG_TYPES[key](value)
    return tags


def cmd_gen(args) -> int:
    tags = _parse_tags(args.tags) if args.tags else {}
    spec = harness.GenSpec(
        problem=args.problem,
        max_size=args.size,
        seed=args.seed,
        clauses=args.clauses,
        occ_bound=tags.get("occ_bound", args.occ_bound),
        deg_bound=tags.get("deg_bound", args.deg_bound),
        overlap_bound=tags.get("overlap_bound", args.overlap_bound),
        col_bound=tags.get("col_bound", args.col_bound),
        exemption_density=tags.get("exemption_density", args.exemption_density),
        sat_bias=args.bias,
    )
    instance = harness.generate(spec)
    text = serialize(instance)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


_SOLVERS = {
    CnfFormula: ("2sat", oracles.solve_2sat),
    Digraph: ("dstcon", oracles.solve_dstcon),
    UGraph: ("2cvc", oracles.solve_2cvc),
    XceInstance: ("xce", oracles.solve_xce),
    Ap2dmInstance: ("ap2dm", oracles.solve_ap2dm),
    LinSystem: ("lin", oracles.solve_lin),
}


def cmd_solve(args) -> int:
    instance = _read(args.file)
    if isinstance(instance, XorSystem):
        yes = oracles.solve_xor2sat(instance)
        print("YES" if yes else "NO")
        return 0 if yes else 1
    kind, solver = _SOLVERS[type(instance)]
    yes, witness = solver(instance)
    print("YES" if yes else "NO")
    if witness is not None and len(witness) > 0:
        if isinstance(instance, CnfFormula):
            print("v " + " ".join(str(v if witness[v] else -v) for v in sorted(witness)))
        elif isinstance(instance, Digraph):
            print("path " + " ".join(str(v) for v in witness))
        elif isinstance(instance, UGraph):
            print("cover " + " ".join(str(v) for v in sorted(witness)))
        elif isinstance(instance, XceInstance):
            print("sets " + " ".join(str(i) for i in witness))
        elif isinstance(instance, LinSystem):
            print("x " + " ".join(str(b) for b in witness))
        elif isinstance(instance, Ap2dmInstance) and not yes:
            print(f"pair {witness[0]} {witness[1]}")
    return 0 if yes else 1


def cmd_reduce(args) -> int:
    if args.name not in reductions.REDUCTIONS:
        known = ", ".join(sorted(reductions.REDUCTIONS))
        print(f"unknown reduction {args.name!r}; known: {known}", file=sys.stderr)
        return 2
    instance = _read(args.input)
    out, report = reductions.REDUCTIONS[args.name](instance)
    Path(args.output).write_text(serialize(out))
    if report is not None:
        if args.report:
            Path(args.report).write_text(report.to_text())
        else:
            sys.stdout.write(report.to_text())
    return 0


def cmd_verify(args) -> int:
    if args.name == "ap2dm_to_dstcon_queries":
        result = harness.verify_T_reduction(args.trials, seed=args.seed, max_size=args.max_size)
    else:
        result = harness.verify_m_reduction(args.name, args.trials, max_size=args.max_size,
                                            seed=args.seed)
    run_dir = Path(args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    for seed, text in result.equiv_failures:
        (run_dir / f"{result.name}_seed{seed}.txt").write_text(text)
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
        print(f"{type(instance).__name__} is not graph-shaped", file=sys.stderr)
        return 2
    Path(args.output).write_text("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redlab",
        description="generate, solve, reduce, and verify parameterized reachability/cover instances")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("problem", choices=sorted(harness.GENERATORS))
    p.add_argument("--size", type=_positive, required=True, help="primary size knob")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clauses", type=int, default=None)
    p.add_argument("--occ-bound", type=int, default=3)
    p.add_argument("--deg-bound", type=int, default=3)
    p.add_argument("--overlap-bound", type=int, default=4)
    p.add_argument("--col-bound", type=int, default=3)
    p.add_argument("--exemption-density", type=float, default=0.3)
    p.add_argument("--bias", type=float, default=0.5, help="planted-witness fraction")
    p.add_argument("--tags", default=None,
                   help="comma-separated tag overrides, e.g. occ_bound=3,deg_bound=4")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="decide an instance file, exit 0=YES 1=NO")
    p.add_argument("file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="apply a named reduction to a file")
    p.add_argument("name")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="run the verification harness")
    p.add_argument("name")
    p.add_argument("--trials", type=_positive, default=200)
    p.add_argument("--max-size", type=_positive, default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--run-dir", default=".")
    p.add_argument("--no-timing", action="store_true", help="omit the WALLTIME line")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fit", help="fit observed shortness constants")
    p.add_argument("name")
    p.add_argument("--trials", type=_positive, default=200)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("example", help="emit a worked figure instance end to end")
    p.add_argument("which", choices=("fig1", "fig2", "fig3"))
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("dot", help="write a DOT rendering of a graph-shaped instance")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_dot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, FileNotFoundError, oracles.BudgetError,
            reductions.PreconditionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
