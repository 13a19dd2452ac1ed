"""Constructive transformations between the problem classes.

Every transformation returns (output instance, ReductionReport); the report
carries the declared shortness constants (k1, k2) and whether the invocation
obeyed output <= k1 * input + k2 on its size parameters. Gadget vertices and
universe elements get dense integer identifiers in construction order, with
a name table in report.notes["names"] for debugging.

Outputs are emitted record by record in construction order; the builders keep
only counters and the current gadget index between emissions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class QueryRecord:
    summary: str
    size: int
    answer: bool


@dataclass
class ReductionReport:
    """Declared shortness contract and the observed size parameters."""

    name: str
    input_param: SizeParam
    output_param: SizeParam
    k1: int
    k2: int
    shortness_ok: bool
    queries: list[QueryRecord] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

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
        for i, q in enumerate(self.queries, 1):
            lines.append(f"QUERY {i}\tSIZE {q.size}\tANSWER {'y' if q.answer else 'n'}")
        return "\n".join(lines) + "\n"


def _report(name: str, src, src_param: str, dst, dst_param: str, k1: int, k2: int,
            **notes) -> ReductionReport:
    iv = size_param(src, src_param)
    ov = size_param(dst, dst_param)
    return ReductionReport(
        name=name,
        input_param=SizeParam(src_param, iv),
        output_param=SizeParam(dst_param, ov),
        k1=k1,
        k2=k2,
        shortness_ok=ov <= k1 * iv + k2,
        notes=dict(notes),
    )


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


def is_normalized_2sat3(f: CnfFormula) -> bool:
    """Exact clean clauses, every variable used with both polarities, occ <= 3."""
    pos = [0] * (f.num_vars + 1)
    neg = [0] * (f.num_vars + 1)
    for clause in f.clauses:
        if len(clause) != 2 or abs(clause[0]) == abs(clause[1]):
            return False
        for l in clause:
            if l > 0:
                pos[l] += 1
            else:
                neg[-l] += 1
    return all(pos[v] >= 1 and neg[v] >= 1 and pos[v] + neg[v] <= 3
               for v in range(1, f.num_vars + 1))


def normalize_2sat3(f: CnfFormula) -> CnfFormula:
    """Equisatisfiable normal form: drop tautologies, collapse (x v x) to a
    unit, propagate units, delete clauses holding a removable literal, repeat
    to fixpoint, then renumber the surviving variables densely.

    The empty output encodes trivially-satisfiable; a propagation conflict
    yields the fixed canonical unsatisfiable formula.
    """
    clauses = [tuple(c) for c in f.clauses]
    while True:
        changed = False
        # tautologies and within-clause duplicates
        cleaned = []
        for c in clauses:
            if len(c) == 2:
                if c[0] == -c[1]:
                    changed = True
                    continue  # tautology
                if c[0] == c[1]:
                    c = (c[0],)  # collapse to unit
                    changed = True
            cleaned.append(c)
        clauses = cleaned
        # unit propagation
        units = {c[0] for c in clauses if len(c) == 1}
        if any(-l in units for l in units):
            return UNSAT_2SAT3_CANONICAL
        if units:
            nxt = []
            for c in clauses:
                if any(l in units for l in c):
                    continue
                reduced = tuple(l for l in c if -l not in units)
                if not reduced:
                    return UNSAT_2SAT3_CANONICAL
                nxt.append(reduced)
            if nxt != clauses:
                changed = True
            clauses = nxt
        # removable literals: negation occurs nowhere
        present = {l for c in clauses for l in c}
        removable = {l for l in present if -l not in present}
        if removable:
            clauses = [c for c in clauses if not any(l in removable for l in c)]
            changed = True
        if not changed:
            break
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


def sat2_to_2cvc3(f: CnfFormula) -> tuple[UGraph, ReductionReport]:
    """Variable pairs, clause grips, and one edge per represented literal.

    Declared shortness k1=8, k2=0 on m_vbl -> m_ver.
    """
    if f.clauses and not is_normalized_2sat3(f):
        raise PreconditionError("sat2_to_2cvc3 requires a normalized formula")
    n, m = f.num_vars, len(f.clauses)
    # ids: variable pair (2i-1, 2i), clause pair (2n+2j-1, 2n+2j)
    names: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    for i in range(1, n + 1):
        names[2 * i - 1] = f"u{i}(1)"
        names[2 * i] = f"u{i}(2)"
        edges.append((2 * i - 1, 2 * i))
    for j in range(1, m + 1):
        a, b = 2 * n + 2 * j - 1, 2 * n + 2 * j
        names[a] = f"c{j}[1]"
        names[b] = f"c{j}[2]"
        edges.append((a, b))
    for j, clause in enumerate(f.clauses, 1):
        for slot, lit in enumerate(clause, 1):
            lit_vertex = 2 * abs(lit) - (1 if lit > 0 else 0)
            slot_vertex = 2 * n + 2 * j - (2 - slot)
            u, v = min(lit_vertex, slot_vertex), max(lit_vertex, slot_vertex)
            edges.append((u, v))
    g = UGraph(2 * (n + m), tuple(edges))
    report = _report("sat2_to_2cvc3", f, "m_vbl", g, "m_ver", 8, 0, names=names)
    return g, report


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


def cvc3_to_sat2(g: UGraph) -> tuple[CnfFormula, ReductionReport]:
    """One variable per vertex; (u v v) on grip-eligible edges, the
    exclusive pair (u v v) & (!u v !v) where an endpoint has degree over 2.

    Declared shortness k1=1, k2=0 on m_ver -> m_vbl.
    """
    deg = g.degrees()
    for v in range(1, g.num_vertices + 1):
        if deg[v] > 3:
            raise PreconditionError(f"vertex {v} has degree {deg[v]}, bound 3")
    clauses: list[tuple[int, int]] = []
    for u, v in g.edges:
        clauses.append((u, v))
        if deg[u] > 2 or deg[v] > 2:
            clauses.append((-u, -v))
    f = CnfFormula(g.num_vertices, tuple(clauses))
    occ = [0] * (g.num_vertices + 1)
    for c in clauses:
        for l in c:
            occ[abs(l)] += 1
    max_occ = max(occ) if g.num_vertices else 0
    report = _report("cvc3_to_sat2", g, "m_ver", f, "m_vbl", 1, 0,
                     max_occurrence=max_occ, occ_bound_3=max_occ <= 3)
    return f, report


# ---------------------------------------------------------------------------
# 2SAT3 -> 3XCE2
# ---------------------------------------------------------------------------


def sat2_to_3xce2(f: CnfFormula) -> tuple[XceInstance, ReductionReport]:
    """Occurrence elements (exempt), clause elements, and tag elements glued
    by per-clause 2-sets and per-variable occurrence gadgets.

    Tag elements are restricted to the ones the gadgets actually reference:
    t_i[1], t_i[2] for variables with three occurrences, t_i[1] alone for
    variables with one occurrence of each polarity.
    Declared shortness k1=6, k2=0 on m_vbl -> m_set.
    """
    if f.clauses and not is_normalized_2sat3(f):
        raise PreconditionError("sat2_to_3xce2 requires a normalized formula")
    n, m = f.num_vars, len(f.clauses)
    names: dict[int, str] = {}
    ids: dict[str, int] = {}

    def element(name: str) -> int:
        if name not in ids:
            ids[name] = len(ids) + 1
            names[ids[name]] = name
        return ids[name]

    def occ_name(lit: int, j: int) -> str:
        return f"{'x' if lit > 0 else '~x'}{abs(lit)}[{j}]"

    # X1: one element per literal occurrence, in clause order
    for j, clause in enumerate(f.clauses, 1):
        for lit in clause:
            element(occ_name(lit, j))
    # X2: one element per clause
    for j in range(1, m + 1):
        element(f"s{j}")
    # occurrence positions per literal polarity
    pos_occ: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    neg_occ: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for j, clause in enumerate(f.clauses, 1):
        for lit in clause:
            (pos_occ if lit > 0 else neg_occ)[abs(lit)].append(j)

    sets: list[tuple[int, ...]] = []
    # clause gadgets A_j
    for j, clause in enumerate(f.clauses, 1):
        sj = element(f"s{j}")
        for lit in clause:
            sets.append((element(occ_name(lit, j)), sj))
    # variable gadgets B_i
    for i in range(1, n + 1):
        p, q = pos_occ[i], neg_occ[i]
        if len(p) == 2 and len(q) == 1:
            major, minor, major_lit, minor_lit = p, q, i, -i
        elif len(q) == 2 and len(p) == 1:
            major, minor, major_lit, minor_lit = q, p, -i, i
        elif len(p) == 1 and len(q) == 1:
            t1 = element(f"t{i}[1]")
            sets.append((element(occ_name(i, p[0])), t1))
            sets.append((element(occ_name(-i, q[0])), t1))
            continue
        else:  # unreachable on normalized input
            raise PreconditionError(f"variable {i} has occurrence profile ({len(p)},{len(q)})")
        j1, j2 = sorted(major)
        t1, t2 = element(f"t{i}[1]"), element(f"t{i}[2]")
        sets.append((element(occ_name(major_lit, j1)), t1))
        sets.append((element(occ_name(major_lit, j2)), t2))
        sets.append((element(occ_name(minor_lit, minor[0])), t1, t2))

    exempt = tuple(ids[occ_name(lit, j)]
                   for j, clause in enumerate(f.clauses, 1) for lit in clause)
    x = XceInstance(len(ids), exempt, tuple(sets))
    report = _report("sat2_to_3xce2", f, "m_vbl", x, "m_set", 6, 0, names=names)
    return x, report


# ---------------------------------------------------------------------------
# 3XCE2 -> bidirectional {0,1}-LP
# ---------------------------------------------------------------------------


def xce2_to_2lp(x: XceInstance) -> tuple[LinSystem, ReductionReport]:
    """One indicator column per set (x_j = 1 iff the set is selected), one
    row per element over its <= 2 covering sets; non-exempt rows pinned to
    [1,1], exempt rows to [0,1].

    A non-exempt element no set covers yields a zero-entry row with bounds
    [1,1]: the natural immediate-NO short circuit.
    Declared shortness k1=1, k2=0 on m_set -> m_row.
    """
    cost = x.overlap_costs()
    for e in range(1, x.universe_size + 1):
        if cost[e] > 2:
            raise PreconditionError(f"element {e} has overlapping cost {cost[e]}, bound 2")
    exempt = set(x.exempt)
    entries: list[tuple[int, int, int]] = []
    lower: list[int] = []
    upper: list[int] = []
    for e in range(1, x.universe_size + 1):
        for j, s in enumerate(x.sets, 1):
            if e in s:
                entries.append((e, j, 1))
        if e in exempt:
            lower.append(0)
        else:
            lower.append(1)
        upper.append(1)
    # a column holds one entry per element of its set, so at most 3
    out = LinSystem("band", x.universe_size, len(x.sets), 3,
                    tuple(entries), tuple(lower), tuple(upper))
    report = _report("xce2_to_2lp", x, "m_set", out, "m_row", 1, 0)
    return out, report


# ---------------------------------------------------------------------------
# GEQ-LP <-> BAND-LP
# ---------------------------------------------------------------------------


def lp_to_2lp(s: LinSystem) -> tuple[LinSystem, ReductionReport]:
    """Same matrix; the new upper bound of each row is its absolute
    coefficient sum, a ceiling no {0,1}-vector can exceed.

    Declared shortness k1=1, k2=0 on m_col.
    """
    if s.mode != "geq":
        raise PreconditionError("lp_to_2lp expects a GEQ system")
    rowsum = [0] * (s.num_rows + 1)
    for r, _, v in s.entries:
        rowsum[r] += abs(v)
    out = LinSystem("band", s.num_rows, s.num_cols, s.col_bound,
                    s.entries, s.lower, tuple(rowsum[1:]))
    report = _report("lp_to_2lp", s, "m_col", out, "m_col", 1, 0)
    return out, report


def twolp_to_lp(s: LinSystem) -> tuple[LinSystem, ReductionReport]:
    """Doubled-variable elimination of the upper bounds.

    Used columns are pruned and duplicated (y_j and y_{n+j} both standing for
    x_j); m rows keep Ax >= lower on the first copy, m rows put -Ax >= -upper
    on the second, and per column a pair of two-variable rows pins
    y_j = y_{n+j}. Coupling whole copies in single rows would put n nonzeros
    in one row and break the 2-nonzeros format; the per-column pair is all
    the equality argument needs. Dimensions (2m + 2n') x 2n' over n' used
    columns; every column gains at most 2 nonzeros.
    Declared shortness k1=6, k2=0 on m_col (pruning keeps n' <= 2m).
    """
    if s.mode != "band":
        raise PreconditionError("twolp_to_lp expects a BAND system")
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
    out = LinSystem("geq", 2 * m + 2 * np_, 2 * np_, s.col_bound + 2,
                    tuple(entries), tuple(lower))
    report = _report("twolp_to_lp", s, "m_col", out, "m_col", 6, 0)
    return out, report


# ---------------------------------------------------------------------------
# {0,1} linear equations -> XOR-2-SAT
# ---------------------------------------------------------------------------

# Canonical contradictory system standing for the UNSAT-marker.
def _xor_unsat_marker(num_vars: int) -> XorSystem:
    return XorSystem(max(1, num_vars), (Unit(1, 0), Unit(1, 1)))


def le_to_xor2sat(s: LinSystem) -> tuple[XorSystem, ReductionReport]:
    """Per row, classify the exact {0,1} solution set of the 1- or
    2-variable integer equation and emit the equivalent parity/unit
    constraints; an empty solution set makes the whole instance the
    UNSAT-marker (encoded as a contradictory unit pair).

    Declared shortness k1=1, k2=0 on m_row -> m_vbl.
    """
    if s.mode != "eq":
        raise PreconditionError("le_to_xor2sat expects an EQ system")
    cons: list = []
    marker = False
    for r, row in enumerate(s.rows()[1:], 1):
        b = s.lower[r - 1]
        if len(row) == 0:
            if b != 0:
                marker = True
                break
            continue
        if len(row) == 1:
            (c1, a1), = row
            sols = [v for v in (0, 1) if a1 * v == b]
            if not sols:
                marker = True
                break
            if len(sols) == 1:
                cons.append(Unit(c1, sols[0]))
            continue
        (c1, a1), (c2, a2) = row
        sols = [(v1, v2) for v1 in (0, 1) for v2 in (0, 1) if a1 * v1 + a2 * v2 == b]
        if not sols:
            marker = True
            break
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
    out = _xor_unsat_marker(s.num_cols) if marker else XorSystem(s.num_cols, tuple(cons))
    report = _report("le_to_xor2sat", s, "m_row", out, "m_vbl", 1, 0, unsat_marker=marker)
    return out, report


# ---------------------------------------------------------------------------
# Reachability preprocessing and the three-layer matching gadget
# ---------------------------------------------------------------------------


def normalize_dstcon(g: Digraph) -> tuple[Digraph, ReductionReport]:
    """Prepare a reachability instance for the matching gadget: subdivide a
    direct s->t edge, attach fresh degree-1 endpoints s' and t', and split
    every vertex with indegree or outdegree 3 or more through relay
    vertices until both are at most 2. Reachability is preserved.

    Declared shortness k1=4, k2=4 on m_ver.
    """
    indeg = [0] * (g.num_vertices + 1)
    outdeg = [0] * (g.num_vertices + 1)
    for u, v in g.edges:
        outdeg[u] += 1
        indeg[v] += 1
    for v in range(1, g.num_vertices + 1):
        if indeg[v] > 3 or outdeg[v] > 3:
            raise PreconditionError(
                f"vertex {v} has indegree {indeg[v]} / outdegree {outdeg[v]}, componentwise bound 3")

    names = {v: f"v{v}" for v in range(1, g.num_vertices + 1)}
    nxt = g.num_vertices

    def fresh(name: str) -> int:
        nonlocal nxt
        nxt += 1
        names[nxt] = name
        return nxt

    edges = list(g.edges)
    # subdivide the direct s->t edge
    if (g.s, g.t) in edges:
        mid = fresh("mid")
        edges.remove((g.s, g.t))
        edges.extend([(g.s, mid), (mid, g.t)])
    # fresh degree-1 endpoints
    new_s = fresh("s'")
    new_t = fresh("t'")
    edges.append((new_s, g.s))
    edges.append((g.t, new_t))
    # relay splitting until indegree <= 2 and outdegree <= 2 everywhere
    changed = True
    while changed:
        changed = False
        indeg = {}
        outdeg = {}
        for u, v in edges:
            outdeg[u] = outdeg.get(u, 0) + 1
            indeg[v] = indeg.get(v, 0) + 1
        for v in sorted(set(list(indeg) + list(outdeg))):
            if indeg.get(v, 0) > 2:
                relay = fresh(f"in{v}")
                moved = [e for e in edges if e[1] == v][:2]
                for e in moved:
                    edges[edges.index(e)] = (e[0], relay)
                edges.append((relay, v))
                changed = True
                break
            if outdeg.get(v, 0) > 2:
                relay = fresh(f"out{v}")
                moved = [e for e in edges if e[0] == v][:2]
                for e in moved:
                    edges[edges.index(e)] = (relay, e[1])
                edges.append((v, relay))
                changed = True
                break
    out = Digraph(nxt, tuple(edges), new_s, new_t)
    report = _report("normalize_dstcon", g, "m_ver", out, "m_ver", 4, 4, names=names)
    return out, report


def _check_dstcon_normalized(g: Digraph):
    indeg = [0] * (g.num_vertices + 1)
    outdeg = [0] * (g.num_vertices + 1)
    for u, v in g.edges:
        outdeg[u] += 1
        indeg[v] += 1
    if g.s == g.t:
        raise PreconditionError("s and t must be distinct")
    if (g.s, g.t) in g.edges:
        raise PreconditionError("direct s->t edge must be subdivided")
    # degree at most 1: an endpoint may also be isolated (unreachable)
    if indeg[g.s] != 0 or outdeg[g.s] > 1:
        raise PreconditionError("s must have outdegree at most 1 and indegree 0")
    if outdeg[g.t] != 0 or indeg[g.t] > 1:
        raise PreconditionError("t must have indegree at most 1 and outdegree 0")
    for v in range(1, g.num_vertices + 1):
        if indeg[v] > 2 or outdeg[v] > 2:
            raise PreconditionError(f"vertex {v} has indegree {indeg[v]} / outdegree {outdeg[v]}, bound 2")


def dstcon_to_ap2dm(g: Digraph) -> tuple[Ap2dmInstance, ReductionReport]:
    """Three-layer matching gadget over the internal vertices: layer 0
    copies the edges, layers 1 and 2 are bidirectional chains anchored to s
    and t, per-vertex couplings tie the layers, and layer-0 elements form
    the exemption set. |X| = 3|V - {s,t}| + 2.

    Declared shortness k1=3, k2=2 on m_ver -> m_set.
    """
    _check_dstcon_normalized(g)
    inner = [v for v in range(1, g.num_vertices + 1) if v not in (g.s, g.t)]
    n = len(inner)
    s_id, t_id = 1, 2
    ids: dict[tuple[int, int], int] = {}
    names = {1: "s", 2: "t"}
    for layer in (0, 1, 2):
        for v in inner:
            ids[(v, layer)] = len(ids) + 3
            names[ids[(v, layer)]] = f"v{v}[{layer}]"
    inner_set = set(inner)

    seen: set[tuple[int, int]] = set()
    pairs: list[tuple[int, int]] = []

    def add(u: int, v: int):
        if (u, v) not in seen:
            seen.add((u, v))
            pairs.append((u, v))

    # M0: layer-0 copy of the internal edges
    for u, v in g.edges:
        if u in inner_set and v in inner_set:
            add(ids[(u, 0)], ids[(v, 0)])
    # M1/M2: bidirectional chains along the inner vertex order
    for i in range(n - 1):
        a, b = ids[(inner[i], 1)], ids[(inner[i + 1], 1)]
        add(a, b)
        add(b, a)
    for i in range(n - 1):
        a, b = ids[(inner[i + 1], 2)], ids[(inner[i], 2)]
        add(a, b)
        add(b, a)
    # M3: per-vertex layer couplings
    for v in inner:
        add(ids[(v, 2)], ids[(v, 0)])
        add(ids[(v, 0)], ids[(v, 1)])
    # M4: chain anchors (absent when there are no internal vertices)
    if inner:
        add(ids[(inner[0], 1)], s_id)
        add(ids[(inner[-1], 1)], s_id)
        add(t_id, ids[(inner[0], 2)])
        add(t_id, ids[(inner[-1], 2)])
    # M5: endpoint attachments
    for u, v in g.edges:
        if u == g.s:
            add(s_id, ids[(v, 0)])
        if v == g.t:
            add(ids[(u, 0)], t_id)
    # M6 (trivial pairs) stays implicit.

    exempt = tuple(ids[(v, 0)] for v in inner)
    out = Ap2dmInstance(3 * n + 2, exempt, tuple(pairs))
    report = _report("dstcon_to_ap2dm", g, "m_ver", out, "m_set", 3, 2, names=names)
    return out, report


def ap2dm_to_dstcon_queries(a, oracle) -> tuple[bool, ReductionReport]:
    """Oracle (Turing) reduction: build the query graph once and, per
    unordered qualifying pair, ask for reachability in both directions;
    YES iff every query is answered affirmatively.

    `oracle` is any Digraph decider returning a truthy YES. The query graph
    has vertex set X and one edge per stored non-trivial pair. Every issued
    query is logged with its size, which always equals |X|; the report's
    output parameter is the largest query (0 when none is issued).
    Declared per-query shortness k1=1, k2=0 on m_set -> m_ver.
    """
    bad = validate(a, {"overlap_bound": 4})
    if bad:
        raise PreconditionError(f"instance is not 4-overlapping: {bad[0].detail}")
    n = a.universe_size
    exempt = set(a.exempt)
    queries = []
    for v in range(1, n + 1):
        for w in range(v + 1, n + 1):
            if v in exempt and w in exempt:
                continue
            for src, dst in ((v, w), (w, v)):
                q = Digraph(n, a.pairs, src, dst)
                answer = bool(oracle(q))
                queries.append(QueryRecord(f"({src},{dst})", size_param(q, "m_ver"), answer))
    in_size = size_param(a, "m_set")
    largest = max((q.size for q in queries), default=0)
    report = ReductionReport(
        name="ap2dm_to_dstcon_queries",
        input_param=SizeParam("m_set", in_size),
        output_param=SizeParam("m_ver", largest),
        k1=1,
        k2=0,
        shortness_ok=largest <= in_size,
        queries=queries,
    )
    return all(q.answer for q in queries), report


def reduce_degree_dstcon(g: Digraph, target: int = 3) -> tuple[Digraph, ReductionReport]:
    """Folklore vertex splitting down to total degree <= 3: a vertex of
    degree d > 3 becomes a directed path of d-2 copies whose in-edges attach
    before its out-edges, preserving reachability exactly.

    Declared shortness k1=2, k2=0 on m_ver (tight for inputs of total
    degree <= 4, where each vertex yields at most 2 copies).
    """
    if target != 3:
        raise PreconditionError("only the degree-3 target is implemented")
    ins: list[list[tuple[int, int]]] = [[] for _ in range(g.num_vertices + 1)]
    outs: list[list[tuple[int, int]]] = [[] for _ in range(g.num_vertices + 1)]
    for idx, (u, v) in enumerate(g.edges):
        outs[u].append((idx, v))
        ins[v].append((idx, u))

    names: dict[int, str] = {}
    copies: dict[int, list[int]] = {}
    nxt = 0
    for v in range(1, g.num_vertices + 1):
        d = len(ins[v]) + len(outs[v])
        k = max(1, d - 2)
        copies[v] = list(range(nxt + 1, nxt + k + 1))
        for i, c in enumerate(copies[v], 1):
            names[c] = f"v{v}" if k == 1 else f"v{v}/{i}"
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
        for i, (idx, _) in enumerate(sorted(ins[v])):
            in_copy[idx] = slots[i]
        for i, (idx, _) in enumerate(sorted(outs[v])):
            out_copy[idx] = slots[len(slots) - 1 - i]
    for idx in range(len(g.edges)):
        edges.append((out_copy[idx], in_copy[idx]))
    out = Digraph(nxt, tuple(edges), copies[g.s][0], copies[g.t][-1])
    report = _report("reduce_degree_dstcon", g, "m_ver", out, "m_ver", 2, 0, names=names)
    return out, report


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
