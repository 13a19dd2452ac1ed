"""The three worked example instances, pinned as regression fixtures."""

from __future__ import annotations

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


def fig1():
    """(formula, graph, report, cover-vertex-ids)"""
    g, report = reductions.sat2_to_2cvc3(FIG1_FORMULA)
    by_name = {name: vid for vid, name in report.notes["names"].items()}
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
    its reduction output, and both oracle verdicts."""
    lines: list[str] = []
    if which == "fig1":
        f, g, report, cover = fig1()
        sat, _ = oracles.solve_2sat(f)
        cvc, _ = oracles.solve_2cvc(g)
        lines.append("# formula")
        lines.append(serialize(f).rstrip())
        lines.append("# graph")
        lines.append(serialize(g).rstrip())
        lines.append(report.to_text().rstrip())
        names = report.notes["names"]
        lines.append("NAMES " + " ".join(f"{v}={names[v]}" for v in sorted(names)))
        lines.append("COVER " + " ".join(sorted(FIG1_COVER_NAMES)))
        lines.append(f"COVER_VALID {'yes' if oracles.check_cover(g, cover) else 'NO'}")
        lines.append(f"ORACLE_2SAT {'YES' if sat else 'NO'}")
        lines.append(f"ORACLE_2CVC {'YES' if cvc else 'NO'}")
    elif which == "fig2":
        f, x, report = fig2()
        sat, _ = oracles.solve_2sat(f)
        xce, _ = oracles.solve_xce(x)
        lines.append("# formula")
        lines.append(serialize(f).rstrip())
        lines.append("# exact-cover instance")
        lines.append(serialize(x).rstrip())
        lines.append(report.to_text().rstrip())
        names = report.notes["names"]
        lines.append("NAMES " + " ".join(f"{v}={names[v]}" for v in sorted(names)))
        lines.append(f"ORACLE_2SAT {'YES' if sat else 'NO'}")
        lines.append(f"ORACLE_XCE {'YES' if xce else 'NO'}")
    elif which == "fig3":
        g, a, report = fig3()
        dst, _ = oracles.solve_dstcon(g)
        apm, _ = oracles.solve_ap2dm(a)
        turing, treport = reductions.ap2dm_to_dstcon_queries(a, oracles.dstcon_oracle)
        lines.append("# graph")
        lines.append(serialize(g).rstrip())
        lines.append("# matching instance")
        lines.append(serialize(a).rstrip())
        lines.append(report.to_text().rstrip())
        names = report.notes["names"]
        lines.append("NAMES " + " ".join(f"{v}={names[v]}" for v in sorted(names)))
        lines.append(f"ORACLE_DSTCON {'YES' if dst else 'NO'}")
        lines.append(f"ORACLE_AP2DM {'YES' if apm else 'NO'}")
        lines.append(f"TURING {'YES' if turing else 'NO'} QUERIES {len(treport.queries)}")
    else:
        raise ValueError(f"unknown example {which!r} (expected fig1, fig2, or fig3)")
    return "\n".join(lines) + "\n"
