"""Problem instance types, size parameters, validation, and text formats.

Literals are signed 1-based integers (+i / -i), matching the text format.
All instance types are immutable after construction; parsing,
serialization, and validation are pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

# A wire-format limit on LinSystem coefficients (redlab computes with Python
# ints): a reader in another language can hold an entry, a two-entry row sum
# and `twolp_to_lp`'s negation of either in int64.
MAX_LIN_ENTRY = 2 ** 62 - 1


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SizeParamError(ValueError):
    """Invalid size-parameter name for the given instance type."""


class SizeParam(NamedTuple):
    name: str
    value: int


class Violation(NamedTuple):
    """One violated invariant with a locating witness."""

    rule: str
    witness: tuple
    detail: str
    line: int | None = None  # the named record's line, set only by `parse`


# ---------------------------------------------------------------------------
# Instance types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CnfFormula:
    """2CNF formula: clauses are tuples of 1-2 signed literals."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))


@dataclass(frozen=True)
class Digraph:
    """Directed graph with designated source s and target t."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    s: int
    t: int

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))


@dataclass(frozen=True)
class UGraph:
    """Undirected graph; each edge is stored as (u, v) with u < v."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))

    def degrees(self) -> list[int]:
        deg = [0] * (self.num_vertices + 1)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def is_grip(self, edge: tuple[int, int], deg: list[int]) -> bool:
        """An edge both of whose endpoints have degree at most 2 in `degrees()`."""
        u, v = edge
        return deg[u] <= 2 and deg[v] <= 2


@dataclass(frozen=True)
class XceInstance:
    """Exact-cover-with-exemption instance: universe 1..universe_size."""

    universe_size: int
    exempt: tuple[int, ...]
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "exempt", tuple(sorted(set(self.exempt))))
        object.__setattr__(self, "sets", tuple(tuple(sorted(s)) for s in self.sets))


@dataclass(frozen=True)
class Ap2dmInstance:
    """Matching universe 1..universe_size; only non-trivial pairs are stored.

    Trivial pairs (v, v) are definitionally present for every element and are
    never materialized.
    """

    universe_size: int
    exempt: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "exempt", tuple(sorted(set(self.exempt))))
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))


@dataclass(frozen=True)
class LinSystem:
    """Sparse integer {0,1}-feasibility system.

    mode "geq":  Ax >= lower        mode "band":  upper >= Ax >= lower
    mode "eq":   Ax == lower
    Entries are (row, col, value) triplets with value != 0; each row holds at
    most 2 of them. col_bound is the declared per-column nonzero bound carried
    by the wire format.
    """

    mode: str
    num_rows: int
    num_cols: int
    col_bound: int
    entries: tuple[tuple[int, int, int], ...]
    lower: tuple[int, ...]
    upper: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(tuple(e) for e in self.entries))
        object.__setattr__(self, "lower", tuple(self.lower))
        if self.upper is not None:
            object.__setattr__(self, "upper", tuple(self.upper))

    def rows(self) -> list[list[tuple[int, int]]]:
        """Per-row list of (col, value) pairs."""
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.num_rows + 1)]
        for r, c, v in self.entries:
            out[r].append((c, v))
        return out


class Parity(NamedTuple):
    """x_u xor x_v = c"""

    u: int
    v: int
    c: int


class Unit(NamedTuple):
    """x_u = c"""

    u: int
    c: int


@dataclass(frozen=True)
class XorSystem:
    num_vars: int
    constraints: tuple

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))


# ---------------------------------------------------------------------------
# Size parameters
# ---------------------------------------------------------------------------

def size_param(instance, name: str) -> int:
    """Return the named size parameter, clamped into N+ (empty instances map to 1)."""
    problem = PROBLEMS.get(type(instance))
    if problem is None or name not in problem.size_params:
        raise SizeParamError(f"size parameter {name!r} is not defined for {type(instance).__name__}")
    return max(1, problem.size_params[name](instance))


def size_param_names(instance) -> tuple[str, ...]:
    problem = PROBLEMS.get(type(instance))
    if problem is None:
        raise SizeParamError(f"no size parameters for {type(instance).__name__}")
    return tuple(problem.size_params)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

# A violation that names a record, the i-th of a kind, carries its line
# `at(kind, i)` when `parse` validates; `validate` leaves it None.


def _validate_cnf(f: CnfFormula, tags: dict, out: list[Violation], at):
    bound = tags.get("occ_bound")
    normal = tags.get("normal_form")
    counted = bound is not None or normal
    # each variable's positive and negative occurrences, counted only under a tag
    size = f.num_vars + 1 if counted else 0
    pos, neg = [0] * size, [0] * size
    for j, clause in enumerate(f.clauses, 1):
        if not 1 <= len(clause) <= 2:
            out.append(Violation("clause_width", (j,), f"clause {j} has {len(clause)} literals", at("clause", j)))
        for lit in clause:
            if lit == 0 or abs(lit) > f.num_vars:
                out.append(Violation("literal_range", (j, lit), f"literal {lit} out of range in clause {j}",
                                     at("clause", j)))
            elif counted:
                if lit > 0:
                    pos[lit] += 1
                else:
                    neg[-lit] += 1
    if bound is not None:
        for var in range(1, f.num_vars + 1):
            if pos[var] + neg[var] > bound:
                out.append(Violation("occ_bound", (var, pos[var] + neg[var]),
                                     f"variable {var} occurs {pos[var] + neg[var]} times, bound {bound}"))
    # The normal form of 2SAT3: exact clean clauses, and every variable with
    # both polarities and at most 3 occurrences
    if normal:
        for j, clause in enumerate(f.clauses, 1):
            if len(clause) != 2 or abs(clause[0]) == abs(clause[1]):
                out.append(Violation("normal_form", (j,), f"clause {j} is not two literals of distinct variables",
                                     at("clause", j)))
        for var in range(1, f.num_vars + 1):
            p, q = pos[var], neg[var]
            if not p or not q or p + q > 3:
                out.append(Violation("normal_form", (var, p, q),
                                     f"variable {var} occurs {p} times positive and {q} negative, "
                                     "normal form needs both and at most 3"))


# Neither graph validator tests Lemma 1's size relation for connected graphs
# of degree at most k (m_ver <= 2*m_edg and m_edg <= k*m_ver/2): a connected
# graph with an edge has m_edg >= m_ver - 1, and each edge either adds 2 to
# the degree sum or is reported as vertex_range or self_loop, so a graph with
# 2*m_edg > k*m_ver already has a violation.
def _validate_digraph(g: Digraph, tags: dict, out: list[Violation], at):
    k = tags.get("deg_bound")
    normal = tags.get("normal_form")
    inout = tags.get("inout_bound")
    counted = k is not None or normal or inout is not None
    seen = set()
    indeg = [0] * (g.num_vertices + 1)  # counted only under a tag
    outdeg = [0] * (g.num_vertices + 1)
    for i, e in enumerate(g.edges, 1):
        u, v = e
        if not (1 <= u <= g.num_vertices and 1 <= v <= g.num_vertices):
            out.append(Violation("vertex_range", (u, v), f"edge ({u},{v}) out of range", at("edge", i)))
            continue
        if u == v:
            out.append(Violation("self_loop", (u,), f"self-loop at {u}", at("edge", i)))
        if e in seen:
            out.append(Violation("duplicate_edge", (u, v), f"duplicate edge ({u},{v})", at("edge", i)))
        seen.add(e)
        if counted:
            outdeg[u] += 1
            indeg[v] += 1
    for name, w in (("s", g.s), ("t", g.t)):
        if not 1 <= w <= g.num_vertices:
            out.append(Violation("endpoint_range", (name, w), f"{name}={w} out of range", at(name, 1)))
    if k is not None:
        for v in range(1, g.num_vertices + 1):
            if indeg[v] + outdeg[v] > k:
                out.append(Violation("deg_bound", (v, indeg[v] + outdeg[v]),
                                     f"vertex {v} has degree {indeg[v] + outdeg[v]}, bound {k}"))
    # The normal form that the matching gadget needs: distinct endpoints, no
    # s->t edge, s a source and t a sink of degree at most 1 (an endpoint may
    # be isolated), and in- and outdegree at most 2 everywhere
    if normal:
        s, t, n = g.s, g.t, g.num_vertices
        if s == t:
            out.append(Violation("normal_form", ("s", "t"), "s and t must be distinct"))
        if (s, t) in seen:
            out.append(Violation("normal_form", (s, t), "direct s->t edge must be subdivided"))
        if 1 <= s <= n and (indeg[s] or outdeg[s] > 1):
            out.append(Violation("normal_form", ("s", s), "s must have outdegree at most 1 and indegree 0"))
        if 1 <= t <= n and (outdeg[t] or indeg[t] > 1):
            out.append(Violation("normal_form", ("t", t), "t must have indegree at most 1 and outdegree 0"))
        for v in range(1, n + 1):
            if indeg[v] > 2 or outdeg[v] > 2:
                out.append(Violation("normal_form", (v, indeg[v], outdeg[v]),
                                     f"vertex {v} has indegree {indeg[v]} / outdegree {outdeg[v]}, bound 2"))
    if inout is not None:
        for v in range(1, g.num_vertices + 1):
            if indeg[v] > inout or outdeg[v] > inout:
                out.append(Violation("inout_bound", (v, indeg[v], outdeg[v]),
                                     f"vertex {v} has indegree {indeg[v]} / outdegree {outdeg[v]}, "
                                     f"componentwise bound {inout}"))


def _validate_ugraph(g: UGraph, tags: dict, out: list[Violation], at):
    k = tags.get("deg_bound")
    seen = set()
    deg = [0] * (g.num_vertices + 1)  # counted only under deg_bound
    for i, e in enumerate(g.edges, 1):
        u, v = e
        if not (1 <= u <= g.num_vertices and 1 <= v <= g.num_vertices):
            out.append(Violation("vertex_range", (u, v), f"edge {{{u},{v}}} out of range", at("edge", i)))
            continue
        if u == v:
            out.append(Violation("self_loop", (u,), f"self-loop at {u}", at("edge", i)))
            continue
        if u > v:
            out.append(Violation("edge_order", (u, v), f"edge ({u},{v}) must satisfy u < v", at("edge", i)))
        if e in seen:
            out.append(Violation("duplicate_edge", (u, v), f"duplicate edge {{{u},{v}}}", at("edge", i)))
        seen.add(e)
        if k is not None:
            deg[u] += 1
            deg[v] += 1
    if k is not None:
        for v in range(1, g.num_vertices + 1):
            if deg[v] > k:
                out.append(Violation("deg_bound", (v, deg[v]), f"vertex {v} has degree {deg[v]}, bound {k}"))


def _validate_xce(x: XceInstance, tags: dict, out: list[Violation], at):
    for e in x.exempt:
        if not 1 <= e <= x.universe_size:
            out.append(Violation("exempt_range", (e,), f"exempt element {e} out of range", at("exempt", 1)))
    cost = [0] * (x.universe_size + 1)
    for i, s in enumerate(x.sets, 1):
        if len(s) > 3:
            out.append(Violation("set_size", (i, len(s)), f"set {i} has {len(s)} elements, bound 3", at("set", i)))
        if len(set(s)) != len(s):
            out.append(Violation("set_repeat", (i,), f"set {i} repeats an element", at("set", i)))
        for e in s:
            if not 1 <= e <= x.universe_size:
                out.append(Violation("element_range", (i, e), f"element {e} out of range in set {i}",
                                     at("set", i)))
            else:
                cost[e] += 1
    for e in range(1, x.universe_size + 1):
        if cost[e] > 2:
            out.append(Violation("overlap", (e, cost[e]), f"element {e} has overlapping cost {cost[e]}, bound 2"))
    if tags.get("exactly_2"):  # the 3XCE2 form: every element in exactly two sets
        for e in range(1, x.universe_size + 1):
            if cost[e] != 2:
                out.append(Violation("exactly_2", (e, cost[e]),
                                     f"element {e} covered by {cost[e]} sets, expected exactly 2"))


def _validate_ap2dm(a: Ap2dmInstance, tags: dict, out: list[Violation], at):
    for e in a.exempt:
        if not 1 <= e <= a.universe_size:
            out.append(Violation("exempt_range", (e,), f"exempt element {e} out of range", at("exempt", 1)))
    n_out = [0] * (a.universe_size + 1)
    n_in = [0] * (a.universe_size + 1)
    # each exempt element's non-exempt partners over all stored pairs, malformed ones too
    n_outs = dict.fromkeys(a.exempt, 0)
    n_ins = dict.fromkeys(a.exempt, 0)
    seen = set()
    for i, e in enumerate(a.pairs, 1):
        u, v = e
        if u in n_outs:
            if v not in n_outs:
                n_outs[u] += 1
        elif v in n_ins:
            n_ins[v] += 1
        if not (1 <= u <= a.universe_size and 1 <= v <= a.universe_size):
            out.append(Violation("pair_range", (u, v), f"pair ({u},{v}) out of range", at("pair", i)))
            continue
        if u == v:
            out.append(Violation("trivial_pair_stored", (u,), f"trivial pair ({u},{u}) must stay implicit",
                                 at("pair", i)))
            continue
        if e in seen:
            out.append(Violation("duplicate_pair", (u, v), f"duplicate pair ({u},{v})", at("pair", i)))
        seen.add(e)
        n_out[u] += 1
        n_in[v] += 1
    k = tags.get("overlap_bound")
    if k is not None:
        for v in range(1, a.universe_size + 1):
            # +1 for the implicit trivial pair on each side
            if n_out[v] + 1 > k:
                out.append(Violation("overlap_out", (v, n_out[v] + 1),
                                     f"element {v} has {n_out[v] + 1} right partners, bound {k}"))
            if n_in[v] + 1 > k:
                out.append(Violation("overlap_in", (v, n_in[v] + 1),
                                     f"element {v} has {n_in[v] + 1} left partners, bound {k}"))
    # Connectivity promise for exempt elements: at least one partner on each
    # side outside the exemption set.
    for v in a.exempt:
        outs, ins = n_outs[v], n_ins[v]
        if outs == 0 or ins == 0:
            out.append(Violation("uniquely_connected", (v, outs, ins),
                                 f"exempt element {v} lacks a non-exempt partner (out={outs}, in={ins})"))


def _validate_lin(s: LinSystem, tags: dict, out: list[Violation], at):
    if s.mode not in ("geq", "band", "eq"):
        out.append(Violation("mode", (s.mode,), f"unknown mode {s.mode!r}"))
    row_nnz = [0] * (s.num_rows + 1)
    col_nnz = [0] * (s.num_cols + 1)
    seen = set()
    third = {}  # row -> index of its third entry, which breaks the row bound
    for i, (r, c, v) in enumerate(s.entries, 1):
        if not (1 <= r <= s.num_rows and 1 <= c <= s.num_cols):
            out.append(Violation("entry_range", (r, c), f"entry ({r},{c}) out of range", at("entry", i)))
            continue
        if v == 0:
            out.append(Violation("zero_entry", (r, c), f"explicit zero entry at ({r},{c})", at("entry", i)))
        if abs(v) > MAX_LIN_ENTRY:
            out.append(Violation("entry_width", (r, c, v), f"entry at ({r},{c}) exceeds 63-bit budget",
                                 at("entry", i)))
        if (r, c) in seen:
            out.append(Violation("duplicate_entry", (r, c), f"duplicate entry at ({r},{c})", at("entry", i)))
        seen.add((r, c))
        row_nnz[r] += 1
        if row_nnz[r] == 3:
            third[r] = i
        col_nnz[c] += 1
    for r, i in sorted(third.items()):
        out.append(Violation("row_nonzeros", (r, row_nnz[r]), f"row {r} has {row_nnz[r]} nonzeros, bound 2",
                             at("entry", i)))
    for c in range(1, s.num_cols + 1):
        if col_nnz[c] > s.col_bound:
            out.append(Violation("col_bound", (c, col_nnz[c]),
                                 f"column {c} has {col_nnz[c]} nonzeros, bound {s.col_bound}"))
    if len(s.lower) != s.num_rows:
        out.append(Violation("bounds_shape", (len(s.lower),), f"{len(s.lower)} lower bounds for {s.num_rows} rows"))
    if s.mode == "band":
        if s.upper is None or len(s.upper) != s.num_rows:
            out.append(Violation("bounds_shape", ("upper",), "band mode requires one upper bound per row"))
    elif s.upper is not None:
        out.append(Violation("bounds_shape", ("upper",), f"mode {s.mode!r} must not carry upper bounds"))
    want = tags.get("mode")
    if want is not None and s.mode != want:
        out.append(Violation("mode", (s.mode,), f"mode {s.mode!r}, expected {want!r}"))


def _validate_xor(x: XorSystem, tags: dict, out: list[Violation], at):
    for i, con in enumerate(x.constraints, 1):
        if isinstance(con, Parity):
            if con.u == con.v:
                out.append(Violation("parity_repeat", (i, con.u),
                                     f"parity constraint {i} needs two distinct variables", at("constraint", i)))
            ok = 1 <= con.u <= x.num_vars and 1 <= con.v <= x.num_vars
        elif isinstance(con, Unit):
            ok = 1 <= con.u <= x.num_vars
        else:
            out.append(Violation("constraint_type", (i,), f"constraint {i} is not Parity or Unit",
                                 at("constraint", i)))
            continue
        if not ok:
            out.append(Violation("variable_range", (i,), f"constraint {i} references an out-of-range variable",
                                 at("constraint", i)))
        if con.c not in (0, 1):
            out.append(Violation("constant_range", (i, con.c), f"constraint {i} constant must be 0 or 1",
                                 at("constraint", i)))


def validate(instance, tags: dict | None = None) -> list[Violation]:
    """Check all type invariants plus the requested tags.

    Returns every violated invariant with a locating witness; an empty list
    means the instance is valid. Violations are data, never exceptions. The
    tags state the restrictions that the reductions need, each only here:
    `occ_bound` (k) and `normal_form` for a CnfFormula, `deg_bound` (k) for
    both graph classes, `normal_form` and `inout_bound` (k, on in- and
    outdegree apart) for a Digraph, `exactly_2` for an XceInstance,
    `overlap_bound` (k) for an Ap2dmInstance and `mode` ("geq", "band" or
    "eq") for a LinSystem. A tag's violations follow the untagged ones,
    which `parse` checks alone.
    """
    out: list[Violation] = []
    PROBLEMS[type(instance)].validate(instance, tags or {}, out, lambda kind, i: None)
    return out


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------

# Each class has a writer and a reader. A writer gives the header's fields
# after "p <word>", then the body lines. A reader gets the header tokens,
# which `parse` has checked against the usage string, and the numbered body
# lines. It checks only the format (each line's letter, token count and
# integers, the record count, the writer's order of lines and of ids) and
# returns the instance and its record lines by kind; the validator judges.
# Readers convert a line's integers with `int`; when that raises, they convert
# them again with `_int`, which raises the ParseError naming the bad token.


def serialize(instance) -> str:
    problem = PROBLEMS.get(type(instance))
    if problem is None:
        raise TypeError(f"cannot serialize {type(instance).__name__}")
    return f"p {problem.header} " + "\n".join(problem.write(instance)) + "\n"


def _content_lines(text: str) -> list[tuple[int, list[str]]]:
    return [(no, toks) for no, toks in enumerate(map(str.split, text.splitlines()), 1)
            if toks and toks[0][0] != "#"]


def _int(tok: str, no: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"expected integer {what}, got {tok!r}", no) from None


def _count(tok: str, no: int, what: str) -> int:
    """A header count, which must not be negative."""
    value = _int(tok, no, what)
    if value < 0:
        raise ParseError(f"header count {what} must not be negative, got {value}", no)
    return value


def parse(text: str):
    """Parse the instance that `serialize` writes as `text`, up to comments,
    blank lines and spacing, if `validate` accepts it. A ParseError gives the
    detail of the malformed line or first violation, and its record's line."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty input")
    no, toks = lines[0]
    if toks[0] != "p" or len(toks) < 2:
        raise ParseError("missing problem header", no)
    cls = _BY_HEADER.get(toks[1])
    if cls is None:
        raise ParseError(f"unknown problem kind {toks[1]!r}", no)
    problem = PROBLEMS[cls]
    # the header has the usage string's tokens; a <a|b> token takes a or b
    shape = problem.usage.split()
    if len(toks) != len(shape) or any(
            "|" in want and tok not in want[1:-1].split("|") for tok, want in zip(toks, shape)):
        raise ParseError(f"header must be '{problem.usage}'", no)
    instance, where = problem.read(toks, no, lines[1:])
    bad: list[Violation] = []
    problem.validate(instance, {}, bad, lambda kind, i: where[kind][i - 1][0])
    if bad:
        raise ParseError(bad[0].detail, bad[0].line)
    # `int` also reads `+3`, `1_0`, `03`, `-0` and `٣`, which `str(int)` never
    # writes, so a text holding one of these is compared line by line. The
    # pattern starts at its 0, which `re` finds by a fast scan.
    if not text.isascii() or "+" in text or "_" in text or "-0" in text or re.search(r"0(?<=\s0)\d", text):
        for (lno, toks), want in zip(lines, serialize(instance).splitlines()):
            if toks != want.split():
                raise ParseError(f"expected {want!r}, got {' '.join(toks)!r}", lno)
    return instance


def _read_exempt(body: list) -> list[int]:
    """The strictly ascending ids of the exemption line 'r ...' that opens the body."""
    if not body or body[0][1][0] != "r":
        raise ParseError("first body line must be the exemption line 'r ...'", body[0][0] if body else None)
    rno, rtoks = body[0]
    try:
        exempt = [int(x) for x in rtoks[1:]]
    except ValueError:
        exempt = [_int(x, rno, "exempt id") for x in rtoks[1:]]
    if any(a >= b for a, b in zip(exempt, exempt[1:])):
        raise ParseError(f"exempt ids must be strictly ascending, got {' '.join(rtoks)!r}", rno)
    return exempt


def _write_cnf(f: CnfFormula) -> list[str]:
    return [f"{f.num_vars} {len(f.clauses)}",
            *[f"{c[0]} {c[1]} 0" if len(c) == 2 else " ".join(map(str, c)) + " 0" for c in f.clauses]]


def _read_cnf(toks, no, body) -> tuple[CnfFormula, dict]:
    n, m = _count(toks[2], no, "n"), _count(toks[3], no, "m")
    clauses = []
    for lno, t in body:
        try:
            lits = [int(x) for x in t]
        except ValueError:
            lits = [_int(x, lno, "literal") for x in t]
        if lits[-1] != 0:
            raise ParseError("clause line must end with 0", lno)
        if not 2 <= len(lits) <= 3:
            raise ParseError(f"clause must have 1 or 2 literals, got {len(lits) - 1}", lno)
        clauses.append(tuple(lits[:-1]))
    if len(clauses) != m:
        raise ParseError(f"header declares {m} clauses, found {len(clauses)}")
    return CnfFormula(n, tuple(clauses)), {"clause": body}


def _write_digraph(g: Digraph) -> list[str]:
    return [*_write_ugraph(g), f"s {g.s}", f"t {g.t}"]


def _read_digraph(toks, no, body) -> tuple[Digraph, dict]:
    """The header's m edge lines, then one s line and one t line."""
    m = _count(toks[3], no, "m")
    g, where = _read_ugraph(toks, no, body[:m])
    ends = body[m:]
    if [tks[0] for _, tks in ends] != ["s", "t"] or any(len(tks) != 2 for _, tks in ends):
        raise ParseError("expected the edge lines, then one s and one t line", ends[0][0] if ends else None)
    s, t = (_int(tks[1], lno, tks[0]) for lno, tks in ends)
    return Digraph(g.num_vertices, g.edges, s, t), {**where, "s": ends[:1], "t": ends[1:]}


def _write_ugraph(g: UGraph | Digraph) -> list[str]:
    return [f"{g.num_vertices} {len(g.edges)}", *[f"e {u} {v}" for u, v in g.edges]]


def _read_ugraph(toks, no, body) -> tuple[UGraph, dict]:
    n, m = _count(toks[2], no, "n"), _count(toks[3], no, "m")
    edges = []
    for lno, tks in body:
        if tks[0] != "e" or len(tks) != 3:
            raise ParseError(f"unexpected line {' '.join(tks)!r}", lno)
        try:
            edges.append((int(tks[1]), int(tks[2])))
        except ValueError:
            edges.append((_int(tks[1], lno, "u"), _int(tks[2], lno, "v")))
    if len(edges) != m:
        raise ParseError(f"header declares {m} edges, found {len(edges)}")
    return UGraph(n, tuple(edges)), {"edge": body}


def _write_xce(x: XceInstance) -> list[str]:
    return [f"{x.universe_size} {len(x.sets)}", " ".join(["r", *map(str, x.exempt)]),
            *["c " + " ".join(map(str, s)) for s in x.sets]]


def _read_xce(toks, no, body) -> tuple[XceInstance, dict]:
    nx, nc = _count(toks[2], no, "nx"), _count(toks[3], no, "nc")
    exempt = _read_exempt(body)
    sets = []
    for lno, tks in body[1:]:
        if tks[0] != "c" or len(tks) > 4:
            raise ParseError(f"set line must be 'c [<id> [<id> [<id>]]]', got {' '.join(tks)!r}", lno)
        try:
            sets.append(tuple(map(int, tks[1:])))
        except ValueError:
            sets.append(tuple(_int(x, lno, "element") for x in tks[1:]))
    if len(sets) != nc:
        raise ParseError(f"header declares {nc} sets, found {len(sets)}")
    x = XceInstance(nx, tuple(exempt), tuple(sets))
    for (lno, tks), read, kept in zip(body[1:], sets, x.sets):
        if read != kept:  # the instance keeps each set sorted
            raise ParseError(f"set ids must be ascending, got {' '.join(tks)!r}", lno)
    return x, {"exempt": body, "set": body[1:]}


def _write_ap2dm(a: Ap2dmInstance) -> list[str]:
    return [str(a.universe_size), " ".join(["r", *map(str, a.exempt)]),
            *[f"m {u} {v}" for u, v in a.pairs]]


def _read_ap2dm(toks, no, body) -> tuple[Ap2dmInstance, dict]:
    nx = _count(toks[2], no, "nx")
    exempt = _read_exempt(body)
    pairs = []
    for lno, tks in body[1:]:
        if tks[0] != "m" or len(tks) != 3:
            raise ParseError(f"pair line must be 'm <u> <v>', got {' '.join(tks)!r}", lno)
        try:
            pairs.append((int(tks[1]), int(tks[2])))
        except ValueError:
            pairs.append((_int(tks[1], lno, "u"), _int(tks[2], lno, "v")))
    return (Ap2dmInstance(nx, tuple(exempt), tuple(pairs)),
            {"exempt": body, "pair": body[1:]})


def _write_lin(s: LinSystem) -> list[str]:
    return [f"{s.mode} {s.num_rows} {s.num_cols} {s.col_bound}", *[f"a {r} {c} {v}" for r, c, v in s.entries],
            *[f"b {r} {v}" for r, v in enumerate(s.lower, 1)],
            *([f"B {r} {v}" for r, v in enumerate(s.upper, 1)] if s.mode == "band" else [])]


def _read_lin(toks, no, body) -> tuple[LinSystem, dict]:
    """The entry lines, then b 1 .. b m, then in band mode B 1 .. B m; the bounds follow the last a line."""
    mode = toks[2]
    m, n, k = (_count(tok, no, what) for tok, what in zip(toks[3:], "mnk"))
    rows = [(letter, str(r)) for letter in ("bB" if mode == "band" else "b") for r in range(1, m + 1)]
    split = len(body) - next((i for i, (_, tks) in enumerate(reversed(body)) if tks[0] == "a"), len(body))
    entries = []
    for lno, tks in body[:split]:
        if tks[0] != "a" or len(tks) != 4:
            raise ParseError(f"unexpected line {' '.join(tks)!r}", lno)
        try:
            entries.append((int(tks[1]), int(tks[2]), int(tks[3])))
        except ValueError:
            entries.append(tuple(_int(x, lno, "entry") for x in tks[1:]))
    bounds = []  # too few leave a bounds_shape violation
    for (lno, tks), (letter, row) in zip(body[split:], rows):
        if len(tks) != 3 or tks[0] != letter or tks[1] != row:
            raise ParseError(f"expected '{letter} {row} <bound>', got {' '.join(tks)!r}", lno)
        try:
            bounds.append(int(tks[2]))
        except ValueError:
            bounds.append(_int(tks[2], lno, "bound"))
    for lno, tks in body[split + len(rows):split + len(rows) + 1]:  # a line after the last bound
        raise ParseError(f"unexpected line {' '.join(tks)!r}", lno)
    s = LinSystem(mode, m, n, k, tuple(entries), tuple(bounds[:m]), tuple(bounds[m:]) if mode == "band" else None)
    return s, {"entry": body[:split]}


def _write_xor(x: XorSystem) -> list[str]:
    return [f"{x.num_vars} {len(x.constraints)}",
            *[f"x {c.u} {c.v} {c.c}" if isinstance(c, Parity) else f"u {c.u} {c.c}" for c in x.constraints]]


def _read_xor(toks, no, body) -> tuple[XorSystem, dict]:
    n, m = _count(toks[2], no, "n"), _count(toks[3], no, "m")
    cons = []
    for lno, tks in body:
        if not (tks[0] == "x" and len(tks) == 4 or tks[0] == "u" and len(tks) == 3):
            raise ParseError(f"unexpected line {' '.join(tks)!r}", lno)
        try:
            cons.append(Parity(int(tks[1]), int(tks[2]), int(tks[3])) if tks[0] == "x"
                        else Unit(int(tks[1]), int(tks[2])))
        except ValueError:
            cons.append(Parity(*(_int(x, lno, "field") for x in tks[1:])) if tks[0] == "x"
                        else Unit(_int(tks[1], lno, "var"), _int(tks[2], lno, "const")))
    if len(cons) != m:
        raise ParseError(f"header declares {m} constraints, found {len(cons)}")
    return XorSystem(n, tuple(cons)), {"constraint": body}


# ---------------------------------------------------------------------------
# Problem table
# ---------------------------------------------------------------------------


class Problem(NamedTuple):
    """What the format and the checks know of one instance class."""

    header: str  # the word after "p"
    usage: str  # the header line's shape, which `parse` checks
    size_params: dict  # name -> getter
    validate: Callable  # (instance, tags, out, at) -> None, appends Violations
    write: Callable  # instance -> header fields, then body lines
    read: Callable  # (header tokens, header line number, body) -> (instance, record lines)


PROBLEMS = {
    CnfFormula: Problem(
        "cnf2", "p cnf2 <n> <m>",
        {"m_vbl": lambda f: f.num_vars, "m_cls": lambda f: len(f.clauses)},
        _validate_cnf, _write_cnf, _read_cnf),
    Digraph: Problem(
        "digraph", "p digraph <n> <m>",
        {"m_ver": lambda g: g.num_vertices, "m_edg": lambda g: len(g.edges)},
        _validate_digraph, _write_digraph, _read_digraph),
    UGraph: Problem(
        "graph", "p graph <n> <m>",
        {"m_ver": lambda g: g.num_vertices, "m_edg": lambda g: len(g.edges)},
        _validate_ugraph, _write_ugraph, _read_ugraph),
    XceInstance: Problem(
        "xce", "p xce <nx> <nc>",
        {"m_set": lambda x: len(x.sets)},
        _validate_xce, _write_xce, _read_xce),
    Ap2dmInstance: Problem(
        "ap2dm", "p ap2dm <nx>",
        {"m_set": lambda a: a.universe_size},
        _validate_ap2dm, _write_ap2dm, _read_ap2dm),
    # Deliberately swapped-looking: m_row counts the columns (variables) of A
    # and m_col the rows. These are the established names for these problems.
    LinSystem: Problem(
        "lin", "p lin <geq|band|eq> <m> <n> <k>",
        {"m_row": lambda s: s.num_cols, "m_col": lambda s: s.num_rows},
        _validate_lin, _write_lin, _read_lin),
    XorSystem: Problem(
        "xor", "p xor <n> <m>",
        {"m_vbl": lambda x: x.num_vars, "m_cls": lambda x: len(x.constraints)},
        _validate_xor, _write_xor, _read_xor),
}

_BY_HEADER = {problem.header: cls for cls, problem in PROBLEMS.items()}
