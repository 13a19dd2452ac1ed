"""`serialize` against the generator-based writers it replaced.

The writers build each body as one list, format a two-literal clause as one
f-string and map `str` over ids. The earlier writers, which yielded a line at
a time and joined a generator per clause or set, are kept here as
references: `serialize` must write their bytes exactly, for generated
instances and for hand-built edge shapes, invalid ones included, since
failure texts serialize what `validate` rejects.
"""

from __future__ import annotations

import pytest

from redlab.harness import GENERATORS, GenSpec, generate
from redlab.instances import (
    PROBLEMS,
    Ap2dmInstance,
    CnfFormula,
    Digraph,
    LinSystem,
    Parity,
    UGraph,
    Unit,
    XceInstance,
    XorSystem,
    serialize,
)

# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def _write_cnf(f):
    return [f"{f.num_vars} {len(f.clauses)}",
            *(" ".join(str(l) for l in clause) + " 0" for clause in f.clauses)]


def _write_digraph(g):
    return [*_write_ugraph(g), f"s {g.s}", f"t {g.t}"]


def _write_ugraph(g):
    return [f"{g.num_vertices} {len(g.edges)}", *(f"e {u} {v}" for u, v in g.edges)]


def _write_xce(x):
    return [f"{x.universe_size} {len(x.sets)}", " ".join(["r", *map(str, x.exempt)]),
            *("c " + " ".join(str(e) for e in s) for s in x.sets)]


def _write_ap2dm(a):
    return [str(a.universe_size), " ".join(["r", *map(str, a.exempt)]),
            *(f"m {u} {v}" for u, v in a.pairs)]


def _write_lin(s):
    yield f"{s.mode} {s.num_rows} {s.num_cols} {s.col_bound}"
    for r, c, v in s.entries:
        yield f"a {r} {c} {v}"
    for r, v in enumerate(s.lower, 1):
        yield f"b {r} {v}"
    if s.mode == "band":
        for r, v in enumerate(s.upper, 1):
            yield f"B {r} {v}"


def _write_xor(x):
    yield f"{x.num_vars} {len(x.constraints)}"
    for con in x.constraints:
        if isinstance(con, Parity):
            yield f"x {con.u} {con.v} {con.c}"
        else:
            yield f"u {con.u} {con.c}"


REFERENCE_WRITERS = {CnfFormula: _write_cnf, Digraph: _write_digraph, UGraph: _write_ugraph,
                     XceInstance: _write_xce, Ap2dmInstance: _write_ap2dm, LinSystem: _write_lin,
                     XorSystem: _write_xor}


def serialize_reference(instance) -> str:
    header = PROBLEMS[type(instance)].header
    return f"p {header} " + "\n".join(REFERENCE_WRITERS[type(instance)](instance)) + "\n"


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def test_references_cover_every_class():
    assert set(REFERENCE_WRITERS) == set(PROBLEMS)


@pytest.mark.parametrize("problem", list(GENERATORS))
def test_generated_instances(problem):
    for seed in (1, 7, 2024):
        for max_size in (6, 40):
            for t in range(8):
                inst = generate(GenSpec(problem, max_size=max_size, seed=seed), t)
                assert serialize(inst) == serialize_reference(inst)


EDGE_SHAPES = {
    "one_literal_clause": CnfFormula(2, ((1,), (-2, 1), (2,))),
    "clauseless": CnfFormula(3, ()),
    "empty_and_wide_clauses": CnfFormula(3, ((), (1, -2, 3))),  # invalid
    "edgeless_digraph": Digraph(1, (), 1, 1),
    "digraph": Digraph(3, ((1, 2), (3, 1)), 3, 2),
    "edgeless_graph": UGraph(2, ()),
    "empty_r_and_c_lines": XceInstance(3, (), ((), (1, 2, 3), (2,))),
    "xce_exempt": XceInstance(4, (4, 1), ((3, 1),)),
    "ap2dm_empty_r": Ap2dmInstance(3, (), ((1, 2), (3, 1))),
    "ap2dm_pairless": Ap2dmInstance(2, (2,), ()),
    "lin_geq": LinSystem("geq", 2, 2, 3, ((1, 1, 2), (2, 2, -1)), (0, -1)),
    "lin_band": LinSystem("band", 2, 2, 3, ((1, 1, 2), (1, 2, -3), (2, 1, 1)), (0, 1), (5, 1)),
    "lin_eq": LinSystem("eq", 1, 2, 3, ((1, 2, 1),), (1,)),
    "lin_empty": LinSystem("geq", 0, 0, 0, (), ()),
    "xor_unit_and_parity": XorSystem(3, (Parity(1, 2, 1), Unit(3, 0), Unit(1, 1), Parity(2, 3, 0))),
    "xor_empty": XorSystem(0, ()),
}


@pytest.mark.parametrize("name", list(EDGE_SHAPES))
def test_edge_shapes(name):
    inst = EDGE_SHAPES[name]
    assert serialize(inst) == serialize_reference(inst)
