"""The three worked example instances, pinned as regression fixtures.

The reductions number gadget vertices and elements densely and build no
labels; `gadget_labels` derives each worked figure's labels from the id
layout its reduction's docstring states.
"""

from __future__ import annotations

from collections import Counter

from . import oracles, reductions
from .instances import CnfFormula, Digraph, serialize

# Worked example 1: four clauses over u1..u3 and its 14-vertex cover graph.
FIG1_FORMULA = CnfFormula(3, ((1, -2), (2, 1), (-1, 3), (2, -3)))
# The cover induced by the all-true assignment, as named in the figure.
FIG1_COVER_NAMES = ("u1(2)", "u2(2)", "u3(2)", "c1[1]", "c2[1]", "c2[2]", "c3[2]", "c4[1]")

# Worked example 2: four clauses over x1..x3 feeding the exact-cover gadget.
FIG2_FORMULA = CnfFormula(3, ((1, -2), (1, 3), (2, -3), (-1, -3)))

# Worked example 3: six vertices (v1..v4, s=5, t=6) and five edges, feeding
# the three-layer matching gadget (14 elements). The graph already satisfies
# the gadget preconditions, so it is reduced directly.
FIG3_GRAPH = Digraph(6, ((5, 2), (3, 2), (2, 4), (4, 3), (3, 6)), 5, 6)


def gadget_labels(which: str, x) -> list[str]:
    """The labels of the ids 1, 2, ... of the gadget that figure `which`
    reduces x to, from the id layout of its reduction."""
    if which == "fig1":  # sat2_to_2cvc3: variable pairs, then clause grips
        return ([f"u{i}({k})" for i in range(1, x.num_vars + 1) for k in (1, 2)]
                + [f"c{j}[{k}]" for j in range(1, len(x.clauses) + 1) for k in (1, 2)])
    if which == "fig2":  # sat2_to_3xce2: occurrences, clauses, then tags
        occurs = Counter(abs(lit) for c in x.clauses for lit in c)
        return ([f"{'x' if lit > 0 else '~x'}{abs(lit)}[{j}]"
                 for j, c in enumerate(x.clauses, 1) for lit in c]
                + [f"s{j}" for j in range(1, len(x.clauses) + 1)]
                + [f"t{i}[{k}]" for i in range(1, x.num_vars + 1) for k in range(1, occurs[i])])
    # fig3, dstcon_to_ap2dm: s, t, then each layer of the internal vertices
    inner = [v for v in range(1, x.num_vertices + 1) if v not in (x.s, x.t)]
    return ["s", "t"] + [f"v{v}[{layer}]" for layer in range(3) for v in inner]


def fig1():
    """(formula, graph, report, cover-vertex-ids)"""
    g, report = reductions.sat2_to_2cvc3(FIG1_FORMULA)
    by_name = {name: vid for vid, name in enumerate(gadget_labels("fig1", FIG1_FORMULA), 1)}
    cover = {by_name[n] for n in FIG1_COVER_NAMES}
    return FIG1_FORMULA, g, report, cover


def fig2():
    """(formula, exact-cover instance, report)"""
    x, report = reductions.sat2_to_3xce2(FIG2_FORMULA)
    return FIG2_FORMULA, x, report


def fig3():
    """(graph, matching instance, report)"""
    a, report = reductions.dstcon_to_ap2dm(FIG3_GRAPH)
    return FIG3_GRAPH, a, report


def example_text(which: str) -> str:
    """Printable block for the `example` subcommand: the worked instance,
    its reduction output and labels, and both oracle verdicts."""
    def yes(answer) -> str:
        return "YES" if answer else "NO"

    if which == "fig1":
        f, g, report, cover = fig1()
        shown = (("formula", f), ("graph", g))
        tail = ["COVER " + " ".join(sorted(FIG1_COVER_NAMES)),
                f"COVER_VALID {'yes' if oracles.check_cover(g, cover) else 'NO'}",
                f"ORACLE_2SAT {yes(oracles.solve_2sat(f)[0])}",
                f"ORACLE_2CVC {yes(oracles.solve_2cvc(g)[0])}"]
    elif which == "fig2":
        f, x, report = fig2()
        shown = (("formula", f), ("exact-cover instance", x))
        tail = [f"ORACLE_2SAT {yes(oracles.solve_2sat(f)[0])}",
                f"ORACLE_XCE {yes(oracles.solve_xce(x)[0])}"]
    elif which == "fig3":
        g, a, report = fig3()
        turing, treport = reductions.ap2dm_to_dstcon_queries(a, oracles.dstcon_oracle)
        shown = (("graph", g), ("matching instance", a))
        tail = [f"ORACLE_DSTCON {yes(oracles.solve_dstcon(g)[0])}",
                f"ORACLE_AP2DM {yes(oracles.solve_ap2dm(a)[0])}",
                f"TURING {yes(turing)} QUERIES {len(treport.queries)}"]
    else:
        raise ValueError(f"unknown example {which!r} (expected fig1, fig2, or fig3)")
    labels = gadget_labels(which, shown[0][1])
    lines = [line for title, x in shown for line in (f"# {title}", serialize(x).rstrip())]
    lines += [report.to_text().rstrip(),
              "NAMES " + " ".join(f"{v}={name}" for v, name in enumerate(labels, 1)), *tail]
    return "\n".join(lines) + "\n"
