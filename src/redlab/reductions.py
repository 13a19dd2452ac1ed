"""Constructive transformations between the problem classes.

Every transformation returns (output instance, ReductionReport); the report
carries the declared shortness constants (k1, k2) and the observed size
parameters, and derives from them SHORT (output <= k1 * input + k2) and the
ratio that `verify` and `fit` aggregate. Gadget vertices and universe
elements get dense integer identifiers in the layout each gadget's docstring
states; `figures` derives the worked figures' labels from it.

Each transformation's contract is stated once, in its `_contract(cls,
tags, src_param, dst_param, k1, k2)` line: the input class, the `validate`
tags that state its restriction (a normalized formula or digraph, a degree
or overlap bound, an LP mode) and the shortness constants on the named size
parameters. The decorator checks the input with `_require` and builds the
report; the body returns the output. An input of another class, or one
`validate` rejects under the tags, raises PreconditionError with the first
violation's detail. `normalize_2sat3` (no report) and the oracle reduction
`ap2dm_to_dstcon_queries` (a bool output, and a report that logs each
query's answer) call `_require` themselves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .instances import (
    Ap2dmInstance,
    CnfFormula,
    Digraph,
    LinSystem,
    Parity,
    SizeParam,
    UGraph,
    Unit,
    XceInstance,
    XorSystem,
    size_param,
    validate,
)


class PreconditionError(ValueError):
    """Input violates a reduction's precondition."""


def _require(instance, cls, tags: dict | None = None):
    """Raise PreconditionError unless instance is a cls, then with the first
    violation `validate` reports under tags."""
    if not isinstance(instance, cls):
        raise PreconditionError(f"expected a {cls.__name__}, got a {type(instance).__name__}")
    bad = validate(instance, tags)
    if bad:
        raise PreconditionError(bad[0].detail)


@dataclass(frozen=True)
class ReductionReport:
    """Declared shortness contract, observed size parameters, and an oracle
    reduction's query answers in issue order."""

    name: str
    input_param: SizeParam
    output_param: SizeParam
    k1: int
    k2: int
    queries: tuple[bool, ...] = ()

    @property
    def shortness_ok(self) -> bool:
        """output <= k1 * input + k2, compared exactly on the integers."""
        return self.output_param.value <= self.k1 * self.input_param.value + self.k2

    @property
    def ratio(self) -> float:
        """At most 1 when short, up to float rounding; sizes and k1 are >= 1."""
        return (self.output_param.value - self.k2) / (self.k1 * self.input_param.value)

    def to_text(self) -> str:
        lines = [
            "REDUCE {}\tIN {}={}\tOUT {}={}\tK1 {}\tK2 {}\tSHORT {}".format(
                self.name,
                self.input_param.name, self.input_param.value,
                self.output_param.name, self.output_param.value,
                self.k1, self.k2,
                "ok" if self.shortness_ok else "FAIL",
            )
        ]
        for i, answer in enumerate(self.queries, 1):
            lines.append(f"QUERY {i}\tANSWER {'y' if answer else 'n'}")
        return "\n".join(lines) + "\n"


def _contract(cls, tags: dict | None, src_param: str, dst_param: str, k1: int, k2: int):
    """Decorate a reduction body x -> output: the reduction requires a
    cls input that `validate` accepts under tags, and returns the output with
    a report of the input's src_param and the output's dst_param under the
    constants k1, k2."""
    def decorate(body):
        @functools.wraps(body)
        def reduction(x):
            _require(x, cls, tags)
            out = body(x)
            return out, ReductionReport(body.__name__, SizeParam(src_param, size_param(x, src_param)),
                                        SizeParam(dst_param, size_param(out, dst_param)), k1, k2)
        return reduction
    return decorate


# ---------------------------------------------------------------------------
# 2-CNF normalization
# ---------------------------------------------------------------------------

# Fixed unsatisfiable formula in normalized shape (exact, clean, both
# polarities of every variable present, every variable in <= 3 literals).
# Returned when unit propagation derives a contradiction, since the empty
# formula is reserved for trivially-satisfiable inputs.
UNSAT_2SAT3_CANONICAL = CnfFormula(
    6, ((-1, 2), (-2, -3), (3, -1), (1, 4), (-4, 5), (-5, -6), (6, -4))
)


def normalize_2sat3(f: CnfFormula) -> CnfFormula:
    """Equisatisfiable normal form in one pass: drop tautologies, collapse
    (x v x) to a unit, propagate units, delete the clauses holding a true or
    a removable literal (one whose negation no longer occurs), then renumber
    the surviving variables densely.

    Unit propagation and removable-literal deletion commute: any order of
    the two reaches the same clauses, or a conflict in every order. So one
    pass gives the normal form, and occurrence lists make it linear: each
    literal is set true once and each clause deleted once.

    The input is a 2SAT3 formula: every variable occurs at most 3 times,
    (x v x) and (x v !x) counting twice. Outside that bound the output could
    leave the normal form, so such a formula raises PreconditionError. The
    empty output encodes trivially-satisfiable; a propagation conflict
    yields the fixed canonical unsatisfiable formula.
    """
    _require(f, CnfFormula, {"occ_bound": 3})
    # (x v x) becomes (x) and tautologies go; no later step makes either again
    clauses = [c[:1] if c[0] == c[-1] else c for c in f.clauses if c[0] != -c[-1]]
    occurs: dict[int, list[int]] = {}  # literal -> indices of the clauses holding it
    for i, c in enumerate(clauses):
        for l in c:
            occurs.setdefault(l, []).append(i)
    true: set[int] = set()
    forced = [c[0] for c in clauses if len(c) == 1]
    while forced:
        l = forced.pop()
        if -l in true:
            return UNSAT_2SAT3_CANONICAL
        if l not in true:
            true.add(l)
            for i in occurs.get(-l, ()):
                forced.extend(m for m in clauses[i] if m != -l)
    # With no conflict, every clause holding an assigned variable holds a
    # true literal: a false literal's clause forced its other one.
    count = {l: len(ix) for l, ix in occurs.items()}  # occurrences in live clauses
    alive = [True] * len(clauses)
    doomed = [*true, *(l for l in occurs if -l not in occurs)]
    while doomed:
        for i in occurs[doomed.pop()]:
            if alive[i]:
                alive[i] = False
                for m in clauses[i]:
                    count[m] -= 1
                    if not count[m] and count.get(-m):
                        doomed.append(-m)  # -m became removable
    clauses = [c for c, keep in zip(clauses, alive) if keep]
    if not clauses:
        return CnfFormula(0, ())
    renum: dict[int, int] = {}
    for var in sorted({abs(l) for c in clauses for l in c}):
        renum[var] = len(renum) + 1
    remapped = tuple(
        tuple((1 if l > 0 else -1) * renum[abs(l)] for l in c) for c in clauses
    )
    return CnfFormula(len(renum), remapped)


# ---------------------------------------------------------------------------
# 2SAT3 <-> degree-3 2-checkered vertex cover
# ---------------------------------------------------------------------------


@_contract(CnfFormula, {"normal_form": True}, "m_vbl", "m_ver", 8, 0)
def sat2_to_2cvc3(f: CnfFormula) -> UGraph:
    """Variable pairs, clause grips, and one edge per represented literal.

    Vertex ids: variable i is the pair (2i-1, 2i), whose first vertex stands
    for the literal x_i and second for !x_i; clause j is the grip (2n+2j-1,
    2n+2j), one vertex per slot. The pairs come first, variables then
    clauses, and the slot edges follow in clause order.
    """
    n, m = f.num_vars, len(f.clauses)
    edges = [(2 * i - 1, 2 * i) for i in range(1, n + m + 1)]
    for j, clause in enumerate(f.clauses, 1):
        for slot, lit in enumerate(clause, 1):
            lit_vertex = 2 * abs(lit) - (1 if lit > 0 else 0)
            slot_vertex = 2 * n + 2 * j - (2 - slot)
            u, v = min(lit_vertex, slot_vertex), max(lit_vertex, slot_vertex)
            edges.append((u, v))
    return UGraph(2 * (n + m), tuple(edges))


def cover_from_assignment(f: CnfFormula, assignment: dict[int, bool]) -> set[int]:
    """Witness transport: the 2-checkered cover induced by a satisfying
    assignment (false literal vertices plus the true clause slots)."""
    n = f.num_vars
    cover: set[int] = set()
    for var in range(1, n + 1):
        cover.add(2 * var if assignment[var] else 2 * var - 1)
    for j, clause in enumerate(f.clauses, 1):
        for slot, lit in enumerate(clause, 1):
            if assignment[abs(lit)] == (lit > 0):
                cover.add(2 * n + 2 * j - (2 - slot))
    return cover


@_contract(UGraph, {"deg_bound": 3}, "m_ver", "m_vbl", 1, 0)
def cvc3_to_sat2(g: UGraph) -> CnfFormula:
    """One variable per vertex; (u v v) on grip-eligible edges, the
    exclusive pair (u v v) & (!u v !v) where an endpoint has degree over 2."""
    deg = g.degrees()
    clauses: list[tuple[int, int]] = []
    for u, v in g.edges:
        clauses.append((u, v))
        if deg[u] > 2 or deg[v] > 2:
            clauses.append((-u, -v))
    return CnfFormula(g.num_vertices, tuple(clauses))


# ---------------------------------------------------------------------------
# 2SAT3 -> 3XCE2
# ---------------------------------------------------------------------------


@_contract(CnfFormula, {"normal_form": True}, "m_vbl", "m_set", 6, 0)
def sat2_to_3xce2(f: CnfFormula) -> XceInstance:
    """Occurrence elements (exempt), clause elements, and tag elements glued
    by per-clause 2-sets and per-variable occurrence gadgets.

    Tag elements are restricted to the ones the gadgets actually reference:
    t_i[1], t_i[2] for variables with three occurrences, t_i[1] alone for
    variables with one occurrence of each polarity.

    Element ids, for m clauses: occurrence k of clause j is 2j-2+k, so the
    exemption set is 1..2m; clause element s_j is 2m+j; the tag elements
    follow from 3m+1 in variable order, t_i[1] before t_i[2]. The sets are
    {2j-2+k, 2m+j} for each slot in clause order, then each variable's
    gadget in variable order.
    """
    n, m = f.num_vars, len(f.clauses)
    occ: dict[int, list[int]] = {}  # literal -> its occurrence elements, ascending
    sets: list[tuple[int, ...]] = []
    # clause gadgets A_j
    for j, clause in enumerate(f.clauses, 1):
        for k, lit in enumerate(clause, 1):
            occ.setdefault(lit, []).append(2 * j - 2 + k)
            sets.append((2 * j - 2 + k, 2 * m + j))
    # variable gadgets B_i; a normalized formula gives each variable the
    # occurrence profile (1,1), (2,1) or (1,2)
    tag = 3 * m  # the last tag element so far
    for i in range(1, n + 1):
        p, q = occ[i], occ[-i]
        if len(p) == len(q) == 1:
            sets += [(p[0], tag + 1), (q[0], tag + 1)]
            tag += 1
        else:
            (major1, major2), (minor,) = (p, q) if len(p) == 2 else (q, p)
            sets += [(major1, tag + 1), (major2, tag + 2), (minor, tag + 1, tag + 2)]
            tag += 2
    return XceInstance(tag, tuple(range(1, 2 * m + 1)), tuple(sets))


# ---------------------------------------------------------------------------
# 3XCE2 -> bidirectional {0,1}-LP
# ---------------------------------------------------------------------------


@_contract(XceInstance, None, "m_set", "m_row", 1, 0)
def xce2_to_2lp(x: XceInstance) -> LinSystem:
    """One indicator column per set (x_j = 1 iff the set is selected), one
    row per element over its <= 2 covering sets; non-exempt rows pinned to
    [1,1], exempt rows to [0,1].

    A non-exempt element no set covers yields a zero-entry row with bounds
    [1,1]: the natural immediate-NO short circuit.
    """
    exempt = set(x.exempt)
    # the sets covering each element, ascending (at most 2 once valid)
    covering: list[list[int]] = [[] for _ in range(x.universe_size + 1)]
    for j, s in enumerate(x.sets, 1):
        for e in s:
            covering[e].append(j)
    entries: list[tuple[int, int, int]] = []
    lower: list[int] = []
    upper: list[int] = []
    for e in range(1, x.universe_size + 1):
        for j in covering[e]:
            entries.append((e, j, 1))
        if e in exempt:
            lower.append(0)
        else:
            lower.append(1)
        upper.append(1)
    # a column holds one entry per element of its set, so at most 3
    return LinSystem("band", x.universe_size, len(x.sets), 3,
                     tuple(entries), tuple(lower), tuple(upper))


# ---------------------------------------------------------------------------
# GEQ-LP <-> BAND-LP
# ---------------------------------------------------------------------------


@_contract(LinSystem, {"mode": "geq"}, "m_col", "m_col", 1, 0)
def lp_to_2lp(s: LinSystem) -> LinSystem:
    """Same matrix; the new upper bound of each row is its absolute
    coefficient sum, a ceiling no {0,1}-vector can exceed."""
    rowsum = [0] * (s.num_rows + 1)
    for r, _, v in s.entries:
        rowsum[r] += abs(v)
    return LinSystem("band", s.num_rows, s.num_cols, s.col_bound,
                     s.entries, s.lower, tuple(rowsum[1:]))


@_contract(LinSystem, {"mode": "band"}, "m_col", "m_col", 6, 0)
def twolp_to_lp(s: LinSystem) -> LinSystem:
    """Doubled-variable elimination of the upper bounds.

    Used columns are pruned and duplicated (y_j and y_{n+j} both standing for
    x_j); m rows keep Ax >= lower on the first copy, m rows put -Ax >= -upper
    on the second, and per column a pair of two-variable rows pins
    y_j = y_{n+j}. Coupling whole copies in single rows would put n nonzeros
    in one row and break the 2-nonzeros format; the per-column pair is all
    the equality argument needs. Dimensions (2m + 2n') x 2n' over n' used
    columns; every column gains at most 2 nonzeros. Pruning keeps n' <= 2m,
    so the output has at most 6m rows.
    """
    used = sorted({c for _, c, _ in s.entries})
    colmap = {c: i + 1 for i, c in enumerate(used)}
    np_ = len(used)
    m = s.num_rows
    entries: list[tuple[int, int, int]] = []
    lower: list[int] = []
    for r, c, v in s.entries:
        entries.append((r, colmap[c], v))
    lower.extend(s.lower)
    for r, c, v in s.entries:
        entries.append((m + r, np_ + colmap[c], -v))
    lower.extend(-u for u in s.upper)
    for j in range(1, np_ + 1):
        r1 = 2 * m + 2 * j - 1
        r2 = 2 * m + 2 * j
        entries.extend([(r1, j, 1), (r1, np_ + j, -1), (r2, j, -1), (r2, np_ + j, 1)])
        lower.extend([0, 0])
    return LinSystem("geq", 2 * m + 2 * np_, 2 * np_, s.col_bound + 2,
                     tuple(entries), tuple(lower))


# ---------------------------------------------------------------------------
# {0,1} linear equations -> XOR-2-SAT
# ---------------------------------------------------------------------------

# Canonical contradictory system standing for the UNSAT-marker.
def _xor_unsat_marker(num_vars: int) -> XorSystem:
    return XorSystem(max(1, num_vars), (Unit(1, 0), Unit(1, 1)))


@_contract(LinSystem, {"mode": "eq"}, "m_row", "m_vbl", 1, 0)
def le_to_xor2sat(s: LinSystem) -> XorSystem:
    """Per row, classify the exact {0,1} solution set of the 1- or
    2-variable integer equation and emit the equivalent parity/unit
    constraints; an empty solution set makes the whole instance the
    UNSAT-marker (encoded as a contradictory unit pair).
    """
    cons: list = []
    for r, row in enumerate(s.rows()[1:], 1):
        b = s.lower[r - 1]
        if len(row) == 0:
            if b != 0:
                return _xor_unsat_marker(s.num_cols)
            continue
        if len(row) == 1:
            (c1, a1), = row
            sols = [v for v in (0, 1) if a1 * v == b]
            if not sols:
                return _xor_unsat_marker(s.num_cols)
            if len(sols) == 1:
                cons.append(Unit(c1, sols[0]))
            continue
        (c1, a1), (c2, a2) = row
        sols = [(v1, v2) for v1 in (0, 1) for v2 in (0, 1) if a1 * v1 + a2 * v2 == b]
        if not sols:
            return _xor_unsat_marker(s.num_cols)
        if len(sols) == 1:
            cons.append(Unit(c1, sols[0][0]))
            cons.append(Unit(c2, sols[0][1]))
        elif len(sols) == 2:
            (p1, q1), (p2, q2) = sols
            if p1 == p2:
                cons.append(Unit(c1, p1))
            elif q1 == q2:
                cons.append(Unit(c2, q1))
            else:
                cons.append(Parity(c1, c2, p1 ^ q1))
        # len(sols) in (3, 4) cannot occur with two nonzero coefficients
    return XorSystem(s.num_cols, tuple(cons))


# ---------------------------------------------------------------------------
# Reachability preprocessing and the three-layer matching gadget
# ---------------------------------------------------------------------------


@_contract(Digraph, {"inout_bound": 3}, "m_ver", "m_ver", 4, 4)
def normalize_dstcon(g: Digraph) -> Digraph:
    """Prepare a reachability instance for the matching gadget: subdivide a
    direct s->t edge, attach fresh degree-1 endpoints s' and t', and split
    every vertex with indegree or outdegree 3 or more through relay
    vertices until both are at most 2. Reachability is preserved.
    """
    nxt = g.num_vertices

    def fresh() -> int:
        nonlocal nxt
        nxt += 1
        return nxt

    edges = list(g.edges)
    # subdivide the direct s->t edge
    if (g.s, g.t) in edges:
        mid = fresh()
        edges.remove((g.s, g.t))
        edges.extend([(g.s, mid), (mid, g.t)])
    # fresh degree-1 endpoints
    new_s = fresh()
    new_t = fresh()
    edges.append((new_s, g.s))
    edges.append((g.t, new_t))
    # Relay splitting until indegree <= 2 and outdegree <= 2 everywhere, one
    # vertex at a time in ascending order: a split moves the first two in-
    # (or out-) edges of v, in list order, onto a fresh relay and adds one
    # edge between the relay and v, so only v's degree changes. Relay, mid,
    # s' and t' vertices never exceed 2; s and t can need two splits on one
    # side.
    n_in: dict[int, int] = {}
    n_out: dict[int, int] = {}
    for u, v in edges:
        n_out[u] = n_out.get(u, 0) + 1
        n_in[v] = n_in.get(v, 0) + 1
    crowded = {v for v, d in n_in.items() if d > 2} | {v for v, d in n_out.items() if d > 2}
    # ins[v] / outs[v]: the positions of a crowded v's edges, ascending
    ins: dict[int, list[int]] = {v: [] for v in crowded}
    outs: dict[int, list[int]] = {v: [] for v in crowded}
    if crowded:
        for pos, (u, v) in enumerate(edges):
            if u in outs:
                outs[u].append(pos)
            if v in ins:
                ins[v].append(pos)
    for v in sorted(crowded):
        while len(ins[v]) > 2:
            relay = fresh()
            for pos in ins[v][:2]:
                edges[pos] = (edges[pos][0], relay)
            del ins[v][:2]
            ins[v].append(len(edges))
            edges.append((relay, v))
        while len(outs[v]) > 2:
            relay = fresh()
            for pos in outs[v][:2]:
                edges[pos] = (relay, edges[pos][1])
            del outs[v][:2]
            outs[v].append(len(edges))
            edges.append((v, relay))
    return Digraph(nxt, tuple(edges), new_s, new_t)


@_contract(Digraph, {"normal_form": True}, "m_ver", "m_set", 3, 2)
def dstcon_to_ap2dm(g: Digraph) -> Ap2dmInstance:
    """Three-layer matching gadget over the internal vertices: layer 0
    copies the edges, layers 1 and 2 are bidirectional chains anchored to s
    and t, per-vertex couplings tie the layers, and layer-0 elements form
    the exemption set. |X| = 3|V - {s,t}| + 2.

    Element ids: s is 1, t is 2, and the i-th internal vertex (0-based, in
    vertex order) is 3 + L*n + i in layer L, for n internal vertices. No
    pair repeats: the input has no duplicate edge or self-loop, and being
    normalized, no s->t edge, no edge into s and none out of t. The one
    exception is n = 1, where both chain ends are the same vertex, so its
    anchors are taken once.
    """
    inner = [v for v in range(1, g.num_vertices + 1) if v not in (g.s, g.t)]
    n = len(inner)
    pos = {v: i for i, v in enumerate(inner)}
    l0, l1, l2 = 3, 3 + n, 3 + 2 * n  # first element of each layer

    # M0: layer-0 copy of the internal edges
    pairs = [(l0 + pos[u], l0 + pos[v]) for u, v in g.edges if u in pos and v in pos]
    # M1/M2: bidirectional chains along the inner vertex order
    for i in range(n - 1):
        pairs += [(l1 + i, l1 + i + 1), (l1 + i + 1, l1 + i)]
    for i in range(n - 1):
        pairs += [(l2 + i + 1, l2 + i), (l2 + i, l2 + i + 1)]
    # M3: per-vertex layer couplings
    for i in range(n):
        pairs += [(l2 + i, l0 + i), (l0 + i, l1 + i)]
    # M4: chain anchors (absent when there are no internal vertices)
    ends = dict.fromkeys((0, n - 1) if n else ())
    pairs += [(l1 + i, 1) for i in ends] + [(2, l2 + i) for i in ends]
    # M5: endpoint attachments
    for u, v in g.edges:
        if u == g.s:
            pairs.append((1, l0 + pos[v]))
        if v == g.t:
            pairs.append((l0 + pos[u], 2))
    # M6 (trivial pairs) stays implicit.

    return Ap2dmInstance(3 * n + 2, tuple(range(l0, l1)), tuple(pairs))


def ap2dm_to_dstcon_queries(a, oracle) -> tuple[bool, ReductionReport]:
    """Oracle (Turing) reduction: per unordered qualifying pair, ask for
    reachability in both directions on one query graph; YES iff every query
    is answered affirmatively.

    The query graph has vertex set X and one edge per stored non-trivial
    pair. `oracle(n, edges)` is called once with it and returns
    `ask(s, t)`, a reachability decider whose truthy answer is YES; each
    `ask` call is one query. Queries are issued for v < w, (v, w) before
    (w, v), skipping pairs of two exempt elements. The report logs the
    answers in issue order; every query graph has m_ver = |X| = m_set, its
    output parameter when a query is issued (0 otherwise), under the
    declared per-query shortness k1=1, k2=0 on m_set -> m_ver.
    """
    _require(a, Ap2dmInstance, {"overlap_bound": 4})
    n = a.universe_size
    exempt = set(a.exempt)
    ask = oracle(n, a.pairs)
    queries = tuple(bool(ask(src, dst))
                    for v in range(1, n + 1) for w in range(v + 1, n + 1) if not (v in exempt and w in exempt)
                    for src, dst in ((v, w), (w, v)))
    size = size_param(a, "m_set")
    report = ReductionReport("ap2dm_to_dstcon_queries", SizeParam("m_set", size),
                             SizeParam("m_ver", size if queries else 0), 1, 0, queries)
    return all(queries), report


@_contract(Digraph, None, "m_ver", "m_ver", 2, 0)
def reduce_degree_dstcon(g: Digraph) -> Digraph:
    """Folklore vertex splitting down to total degree <= 3: a vertex of
    degree d > 3 becomes a directed path of d-2 copies whose in-edges attach
    before its out-edges, preserving reachability exactly. Its k1 = 2 is
    tight for inputs of total degree <= 4, where each vertex yields at most
    2 copies.
    """
    # each vertex's in- and out-edges by index, in ascending order
    ins: list[list[int]] = [[] for _ in range(g.num_vertices + 1)]
    outs: list[list[int]] = [[] for _ in range(g.num_vertices + 1)]
    for idx, (u, v) in enumerate(g.edges):
        outs[u].append(idx)
        ins[v].append(idx)

    copies: dict[int, list[int]] = {}
    nxt = 0
    for v in range(1, g.num_vertices + 1):
        k = max(1, len(ins[v]) + len(outs[v]) - 2)
        copies[v] = list(range(nxt + 1, nxt + k + 1))
        nxt += k

    edges: list[tuple[int, int]] = []
    in_copy: dict[int, int] = {}   # edge index -> head copy
    out_copy: dict[int, int] = {}  # edge index -> tail copy
    for v in range(1, g.num_vertices + 1):
        chain = copies[v]
        edges.extend(zip(chain, chain[1:]))
        # slots along the path: 2 on the first copy, 1 on middles, 2 on the
        # last; in-edges fill from the front, out-edges from the back
        slots = [chain[0]] + chain + [chain[-1]]
        for i, idx in enumerate(ins[v]):
            in_copy[idx] = slots[i]
        for i, idx in enumerate(outs[v]):
            out_copy[idx] = slots[len(slots) - 1 - i]
    for idx in range(len(g.edges)):
        edges.append((out_copy[idx], in_copy[idx]))
    return Digraph(nxt, tuple(edges), copies[g.s][0], copies[g.t][-1])


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _normalize_2sat3_op(f: CnfFormula) -> tuple[CnfFormula, None]:
    """Registry adapter: normalization declares no shortness constants."""
    return normalize_2sat3(f), None


# Many-one transformations invocable by name (CLI `reduce`, harness).
REDUCTIONS = {
    "normalize_2sat3": _normalize_2sat3_op,
    "sat2_to_2cvc3": sat2_to_2cvc3,
    "cvc3_to_sat2": cvc3_to_sat2,
    "sat2_to_3xce2": sat2_to_3xce2,
    "xce2_to_2lp": xce2_to_2lp,
    "lp_to_2lp": lp_to_2lp,
    "twolp_to_lp": twolp_to_lp,
    "le_to_xor2sat": le_to_xor2sat,
    "normalize_dstcon": normalize_dstcon,
    "dstcon_to_ap2dm": dstcon_to_ap2dm,
    "reduce_degree_dstcon": reduce_degree_dstcon,
}
