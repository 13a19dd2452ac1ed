"""Independent decision procedures for every problem class.

Each solver is deliberately implemented by a different method than the
transformations it is used to verify: implication-graph SCCs for 2-CNF,
breadth-first search for reachability, parity union-find for XOR-2-SAT, a
forced-choice search for vertex cover, exact cover and the LP family, whose
constraints each involve at most two Boolean variables, and simple-cycle
enumeration of the pair digraph for matching. Only the matching enumeration
runs within a fixed budget; the polynomial deciders have none. Each class
with a witness has a standalone checker, and `DECIDERS` pairs the two. All
functions are pure. One BFS, `_bfs`, answers reachability; the matching
oracle, judged against `solve_dstcon` by `dstcon_to_ap2dm`, and the witness
checkers keep walks of their own.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache, partial
from math import inf

from .instances import (
    Ap2dmInstance,
    CnfFormula,
    Digraph,
    LinSystem,
    Parity,
    UGraph,
    Unit,
    XceInstance,
    XorSystem,
)

# The matching budget keeps every in-budget instance within about a second.
# Over 300 seeded instances per size knob of each family, at seeds 1 and
# 1001 (2-CPU x86 host): matching gadgets of up to 50 elements settle in at
# most 15 ms; random ap2dm instances of up to 32 elements settle in at most
# 0.93 s, but one of 33 elements takes 1.4 s, one of 34 3.5 s and one of 37
# 23 s.
AP2DM_BUDGET = 32  # elements
# Without the periodic _separated pass, solving the ap2dm instances of at most 32
# elements in 300 trials per knob 4-44 at seeds 1 and 1001 took 12.8 s, not 6.7 s, and
# GenSpec("ap2dm", max_size=34, seed=1001) trial 130 took 4.2 s, not 0.13 s.
SEPARATION_PERIOD = 512


class BudgetError(ValueError):
    """Instance exceeds the enumeration budget of an oracle."""


# ---------------------------------------------------------------------------
# 2-CNF satisfiability
# ---------------------------------------------------------------------------


def _check_clause_widths(f: CnfFormula):
    for j, clause in enumerate(f.clauses, 1):
        if not 1 <= len(clause) <= 2:
            raise ValueError(f"clause {j} has {len(clause)} literals, expected 1 or 2")


def solve_2sat(f: CnfFormula) -> tuple[bool, dict[int, bool] | None]:
    """Implication-graph SCC decision; returns (yes, assignment or None)."""
    _check_clause_widths(f)
    n = f.num_vars
    # literal v is node 2v-2 and -v is node 2v-1, so negation flips bit 0
    adj: list[list[int]] = [[] for _ in range(2 * n)]
    for clause in f.clauses:
        a = clause[0]
        b = clause[-1]
        i = 2 * a - 2 if a > 0 else -2 * a - 1
        j = 2 * b - 2 if b > 0 else -2 * b - 1
        adj[i ^ 1].append(j)
        adj[j ^ 1].append(i)

    comp = _tarjan_scc(adj)
    assignment: dict[int, bool] = {}
    for var in range(1, n + 1):
        pos, neg = comp[2 * var - 2], comp[2 * var - 1]
        if pos == neg:
            return False, None
        # Tarjan numbers components in reverse topological order, so the
        # smaller id lies deeper in the implication order: make it true.
        assignment[var] = pos < neg
    return True, assignment


def _tarjan_scc(adj: list[list[int]]) -> list[int]:
    """Component id per vertex, numbered in reverse topological order (an
    edge u -> v has comp[u] >= comp[v]). Iterative: each DFS frame holds
    its vertex and an iterator over its successors."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n  # -1 on a visited vertex: still on the stack
    stack: list[int] = []
    counter = 0
    ncomps = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, succ = work[-1]
            for w in succ:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                if comp[w] == -1 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = ncomps
                        if w == v:
                            break
                    ncomps += 1
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    return comp


def check_assignment(f: CnfFormula, assignment: dict[int, bool]) -> bool:
    """Standalone witness checker: does the assignment satisfy every clause?"""
    for clause in f.clauses:
        if not any(assignment[abs(l)] == (l > 0) for l in clause):
            return False
    return True


# ---------------------------------------------------------------------------
# Directed s-t connectivity
# ---------------------------------------------------------------------------


def _successors(num_vertices: int, edges) -> list[list[int]]:
    """Successor lists of a digraph on 1..num_vertices, in edge order."""
    succ: list[list[int]] = [[] for _ in range(num_vertices + 1)]
    for u, v in edges:
        succ[u].append(v)
    return succ


def _bfs(succ: list[list[int]], s: int) -> dict[int, int]:
    """The parent of every vertex that s reaches over succ, in breadth-first
    order, with s as its own parent."""
    parent = {s: s}
    queue = [s]
    for v in queue:
        for w in succ[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    return parent


def solve_dstcon(g: Digraph) -> tuple[bool, list[int] | None]:
    """BFS reachability; returns (yes, vertex path s..t or None)."""
    parent = _bfs(_successors(g.num_vertices, g.edges), g.s)
    if g.t not in parent:
        return False, None
    path = [g.t]
    while path[-1] != g.s:
        path.append(parent[path[-1]])
    return True, path[::-1]


def dstcon_oracle(num_vertices: int, edges) -> Callable[[int, int], bool]:
    """Reachability over one fixed digraph on 1..num_vertices: returns
    ask(s, t), which is True iff t is reachable from s (s == t included).
    A source's BFS parent map is computed on its first query and kept."""
    reached = cache(partial(_bfs, _successors(num_vertices, edges)))
    return lambda s, t: t in reached(s)


def check_path(g: Digraph, path: list[int]) -> bool:
    if not path or path[0] != g.s or path[-1] != g.t:
        return False
    edges = set(g.edges)
    return all((u, v) in edges for u, v in zip(path, path[1:]))


# ---------------------------------------------------------------------------
# Forced-choice search over constraints on at most two Boolean variables
# ---------------------------------------------------------------------------


def _forced_search(nvars: int, first: int, occ: list[list[tuple[int, int]]],
                   units: list[tuple[int, int]]) -> list[int | None] | None:
    """The lexicographically first solution of a system of constraints on at
    most two of the Boolean variables 1..nvars, reading x_1 as the most
    significant digit and `first` as the smaller value, or None if there is
    none.

    Each constraint on two variables is a 4-bit table of the (own, other)
    value pairs it allows, bit 2*own + other, listed in occ[own] as
    (other, table) and in occ[other] with own and other swapped; a
    constraint on one variable v is either a pair (v, table) in occ[v], or a
    unit (v, the only value it allows). The units are set first; then the
    variables 1..nvars are set in index order, each to `first` and, if that
    conflicts, to the other value. After each value is set, every constraint
    it settles forces its other variable to the only value that fits, or
    leaves it free when both fit, and a constraint that no value fits is a
    conflict (the limited backtracking of Even, Itai & Shamir 1976 for
    2-SAT). The result lists each variable's value at its index.

    Why no deeper backtracking is needed, and why the result is the first
    solution: propagation derives only values that every solution extending
    the current assignment shares, so a conflict rules the tried value out.
    When propagation ends without conflict, every constraint that touches a
    set variable holds whatever the free variables are, and the constraints
    left are constraints of the original system over free variables only.
    If the system is satisfiable, a solution restricted to the free
    variables satisfies them, so the first value whose propagation ends
    cleanly extends to a solution: it is the value of the first solution at
    that variable. If the system is unsatisfiable, the constraints left are
    unsatisfiable too, so some variable eventually conflicts for both
    values, which proves NO. Each of the at most nvars choices propagates at
    most twice, and one propagation visits each constraint at most twice, so
    the search takes O(nvars * (nvars + constraints)) steps.
    """
    x: list[int | None] = [None] * (nvars + 1)

    def assign(c: int, v: int, trail: list[int]) -> bool:
        """Set x_c = v and propagate; False on a conflict. Every variable set
        is appended to trail."""
        x[c] = v
        trail.append(c)
        stack = [c]
        while stack:
            c = stack.pop()
            own = 2 * x[c]
            for u, table in occ[c]:
                w = x[u]
                if w is not None:
                    if not table >> (own + w) & 1:
                        return False
                    continue
                fits = table >> own & 3  # bit v: u = v fits
                if fits == 3:
                    continue
                if not fits:
                    return False
                x[u] = fits >> 1
                trail.append(u)
                stack.append(u)
        return True

    for c, v in units:
        if x[c] is None:
            if not assign(c, v, []):
                return None
        elif x[c] != v:
            return None
    for c in range(1, nvars + 1):
        if x[c] is None:
            trail: list[int] = []
            if not assign(c, first, trail):
                for u in trail:
                    x[u] = None
                if not assign(c, 1 - first, []):
                    return None
    return x


# ---------------------------------------------------------------------------
# 2-checkered vertex cover
# ---------------------------------------------------------------------------


def solve_2cvc(g: UGraph) -> tuple[bool, set[int] | None]:
    """Forced-choice search (`_forced_search`); returns (yes, cover or None).

    Each edge is a constraint on its two endpoints: not both out, and not
    both in unless the edge is a grip. The vertices are decided in index
    order, out before in, so the cover is the lexicographically first one.
    """
    n = g.num_vertices
    deg = g.degrees()
    occ: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for u, v in g.edges:
        # allowed (u, v) pairs: (out, in), (in, out), and (in, in) on a grip
        table = 0b1110 if g.is_grip((u, v), deg) else 0b0110
        occ[u].append((v, table))
        occ[v].append((u, table))
    x = _forced_search(n, 0, occ, [])
    if x is None:
        return False, None
    return True, {v for v in range(1, n + 1) if x[v]}


def check_cover(g: UGraph, cover: set[int]) -> bool:
    """Standalone 2-checkered-cover checker."""
    deg = g.degrees()
    for u, v in g.edges:
        if u not in cover and v not in cover:
            return False
        if u in cover and v in cover and not g.is_grip((u, v), deg):
            return False
    return True


# ---------------------------------------------------------------------------
# Exact cover with exemption
# ---------------------------------------------------------------------------


def solve_xce(x: XceInstance) -> tuple[bool, list[int] | None]:
    """Forced-choice search (`_forced_search`); returns (yes, selected
    1-based set indices or None).

    Each element is a constraint on the sets that hold it: exactly one of
    them, or at most one if the element is exempt. An element held by one
    set makes that set a unit when the element is not exempt, and an element
    held by none makes the instance NO. The sets are decided in index order,
    included before excluded, so the selection is the lexicographically
    first one. An element held by more than 2 sets raises ValueError.
    """
    m = len(x.sets)
    holders: list[list[int]] = [[] for _ in range(x.universe_size + 1)]
    for i, s in enumerate(x.sets, 1):
        for e in s:
            holders[e].append(i)
    exempt = set(x.exempt)
    occ: list[list[tuple[int, int]]] = [[] for _ in range(m + 1)]
    units = []  # (set, 1) for a set that alone holds a needed element
    dead = False  # some needed element is held by no set
    for e in range(1, x.universe_size + 1):
        held = holders[e]
        if len(held) == 2:
            i, j = held
            # allowed pairs: exactly one in, and neither too if e is exempt
            table = 0b0111 if e in exempt else 0b0110
            occ[i].append((j, table))
            occ[j].append((i, table))
        elif len(held) > 2:
            raise ValueError(f"element {e} is held by {len(held)} sets, expected at most 2")
        elif e not in exempt:
            if held:
                units.append((held[0], 1))
            else:
                dead = True
    if dead:
        return False, None
    chosen = _forced_search(m, 1, occ, units)
    if chosen is None:
        return False, None
    return True, [i for i in range(1, m + 1) if chosen[i]]


def check_exact_cover(x: XceInstance, selected: list[int]) -> bool:
    """Standalone checker: selected indices form an exact cover exempt from R."""
    count = [0] * (x.universe_size + 1)
    for i in selected:
        for e in x.sets[i - 1]:
            count[e] += 1
    exempt = set(x.exempt)
    return all(count[e] == 1 if e not in exempt else count[e] <= 1
               for e in range(1, x.universe_size + 1))


# ---------------------------------------------------------------------------
# Almost-all-pairs two-dimensional matching
# ---------------------------------------------------------------------------


# No decider calls perfect_matchings: it stays here, not among the test
# references, because the benchmark's tracing wraps it to count matchings.
def perfect_matchings(a: Ap2dmInstance) -> list[tuple[int, ...]]:
    """All perfect matchings of the pair structure (trivial pairs included).

    Each matching is returned as a permutation tuple pi with pi[v-1] the
    right partner of v, in lexicographic order. Depth-first assignment over
    the sorted allowed-partner lists.
    """
    n = a.universe_size
    partners: list[list[int]] = [[v] for v in range(1, n + 1)]
    for u, w in a.pairs:
        partners[u - 1].append(w)
    for p in partners:
        p.sort()
    used = [False] * (n + 1)
    pi: list[int] = []
    out: list[tuple[int, ...]] = []

    def extend(v: int):
        if v == n:
            out.append(tuple(pi))
            return
        for w in partners[v]:
            if not used[w]:
                used[w] = True
                pi.append(w)
                extend(v + 1)
                pi.pop()
                used[w] = False

    extend(0)
    return out


def _offset_links(cycle: list[int]) -> list[int]:
    """Linked sets along one cycle of a matching, as bit masks: entry i is
    the set of cycle[i].

    An element links to the elements at even offsets from it along its
    cycle, which is the whole cycle when the cycle is odd.
    """
    even = odd = 0
    for u in cycle[::2]:
        even |= 1 << u
    for u in cycle[1::2]:
        odd |= 1 << u
    if len(cycle) & 1:
        return [even | odd] * len(cycle)
    return [even, odd] * (len(cycle) // 2)


def _separated(succ: list[list[int]], u: int, w: int) -> bool:
    """True if no simple cycle passes through both u and w: one of them does
    not reach the other, or one element lies on every path from u to w and
    on every path from w to u, so a cycle through both would visit it twice."""

    def interior(s: int, t: int, banned: int = -1) -> set[int] | None:
        """Inner elements of a shortest s..t path avoiding `banned`, or None."""
        parent = {s: s}
        queue = [s]
        for x in queue:
            for y in succ[x]:
                if y not in parent and y != banned:
                    parent[y] = x
                    queue.append(y)
        if t not in parent:
            return None
        inner = set()
        z = parent[t]
        while z != s:
            inner.add(z)
            z = parent[z]
        return inner

    there, back = interior(u, w), interior(w, u)
    if there is None or back is None:
        return True
    # an element on every path both ways lies on both shortest paths
    return any(interior(u, w, x) is None and interior(w, u, x) is None for x in there & back)


def solve_ap2dm(a: Ap2dmInstance) -> tuple[bool, tuple[int, int] | None]:
    """Simple-cycle enumeration; returns (yes, None) or (no, failing pair).

    For every ordered distinct pair (v, w) with v or w outside the exemption
    set, some perfect matching must link v to w under the chain definition.
    The failing pair of a NO instance is the first unlinked one in
    lexicographic order.

    Linkage lemma (acceptance criterion 8 checks it against the literal
    chain test): under a perfect matching pi, v links to w exactly when
    w = pi^k(v) for some even k >= 2, that is, when w lies at an even offset
    from v on v's cycle of pi, or anywhere on it when that cycle is odd.

    Cycle-cover lemma: trivial pairs are always allowed, so a perfect
    matching is a set of vertex-disjoint simple cycles of the digraph of
    non-trivial pairs, plus fixed points; and any one simple cycle becomes a
    perfect matching by fixing every element off it. So v's linked set is
    {v} together with the offset links (`_offset_links`) of v on each simple
    cycle through v, and there are fewer simple cycles than perfect
    matchings.

    The cycles are enumerated after Johnson 1975 ("Finding all the
    elementary circuits of a directed graph"): one depth-first search per
    root in ascending order, inside the root's strongly connected component
    among the elements >= root, closing on an edge back to the root, so each
    cycle is found once, from its smallest element. An element is not
    re-entered while the path blocks every way from it back to the root.
    The required partners of each element still unlinked are kept as a bit
    mask. A search from root r touches only its component, so r's mask is
    final once the search ends, and r's partners off the component are final
    before it starts: the search stops as soon as r's lowest unlinked partner
    is final, or no element of the component has an unlinked partner in it
    that a cycle could still link. Pairs that `_separated` rules out are
    dropped from that test; it runs on the remaining pairs once every
    SEPARATION_PERIOD cycles of a search, as only long searches repay it.
    """
    n = a.universe_size
    if n > AP2DM_BUDGET:
        raise BudgetError(f"{n} elements exceed the enumeration budget {AP2DM_BUDGET}")
    exempt = set(a.exempt)
    everyone = (1 << n) - 1
    exempt_mask = sum(1 << v for v in range(n) if v + 1 in exempt)
    # required partners of v: every other element, minus the exempt ones if v is exempt
    unlinked = [(everyone & ~exempt_mask if v + 1 in exempt else everyone) & ~(1 << v)
                for v in range(n)]
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for u, w in set(a.pairs):
        if u != w:
            succ[u - 1].append(w - 1)
            pred[w - 1].append(u - 1)
    separated = [0] * n  # partners no simple cycle can link, found so far
    tested = [0] * n  # partners already given to _separated
    blocked: list[bool] = []
    blocked_by = [0] * n  # elements to unblock along with each one, as a mask
    path: list[int] = []
    root = comp = final = live = cycles = 0

    def unblock(u: int):
        blocked[u] = False
        waiting, blocked_by[u] = blocked_by[u], 0
        while waiting:
            x = (waiting & -waiting).bit_length() - 1
            waiting &= waiting - 1
            if blocked[x]:
                unblock(x)

    def drop_separated():
        """Test the untested open pairs of the live elements with _separated."""
        nonlocal live
        rest = live
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            todo = unlinked[u] & comp & ~tested[u]
            tested[u] |= todo
            while todo:
                w = (todo & -todo).bit_length() - 1
                todo &= todo - 1
                tested[w] |= 1 << u
                if _separated(succ, u, w):
                    separated[u] |= 1 << w
                    separated[w] |= 1 << u
            if not unlinked[u] & comp & ~separated[u]:
                live &= ~(1 << u)

    def circuit(v: int) -> bool:
        """Search on from v at the end of the path; True if a cycle closed."""
        nonlocal live, cycles
        closed = False
        path.append(v)
        blocked[v] = True
        for w in succ[v]:
            if w == root:
                closed = True
                cycles += 1
                for u, links in zip(path, _offset_links(path)):
                    if unlinked[u] & links:
                        unlinked[u] &= ~links
                        if not unlinked[u] & comp & ~separated[u]:
                            live &= ~(1 << u)
                if not cycles % SEPARATION_PERIOD:
                    drop_separated()
            elif not blocked[w]:
                closed = circuit(w) or closed
            else:
                continue
            m = unlinked[root]
            if not live or m & -m & (final | separated[root]):
                break
        if closed:
            unblock(v)
        else:
            for w in succ[v]:
                blocked_by[w] |= 1 << v
        path.pop()
        return closed

    def reach(adj: list[list[int]]) -> int:
        """The root and the elements above it that it reaches over adj."""
        seen = 1 << root
        stack = [root]
        while stack:
            for y in adj[stack.pop()]:
                if y > root and not seen >> y & 1:
                    seen |= 1 << y
                    stack.append(y)
        return seen

    for root in range(n):
        if not any(unlinked[root:]):
            break
        comp = reach(succ) & reach(pred)
        final = everyone & ~comp
        # elements of the component with a partner in it that a cycle may link
        live = sum(1 << u for u in range(root, n)
                   if comp >> u & 1 and unlinked[u] & comp & ~separated[u])
        m = unlinked[root]
        if live and not m & -m & (final | separated[root]):
            blocked = [not comp >> v & 1 for v in range(n)]  # the search stays in comp
            blocked_by[root:] = [0] * (n - root)
            cycles = 0
            circuit(root)
            m = unlinked[root]
        if m:
            return False, (root + 1, (m & -m).bit_length())
    return True, None


# ---------------------------------------------------------------------------
# {0,1}-linear feasibility
# ---------------------------------------------------------------------------


def solve_lin(s: LinSystem) -> tuple[bool, tuple[int, ...] | None]:
    """Forced-choice search (`_forced_search`); the same verdict and witness
    as a scan of {0,1}^n in lexicographic order, in polynomial time.

    Every row holds at most 2 nonzeros, so it is a constraint on at most two
    columns: a 2-nonzero row's table lists the value pairs whose sum lies in
    its bounds, a 1-nonzero row that one value fits is a unit, and a row
    that no value fits makes the system NO. The columns are set from 1 to n,
    0 before 1, so the first solution the search finds is the scan's first
    hit. A row with more than 2 nonzeros raises ValueError.
    """
    n = s.num_cols
    upper = s.upper if s.mode == "band" else s.lower if s.mode == "eq" else (inf,) * s.num_rows
    occ: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    units = []  # (column, the only value that fits a 1-nonzero row)
    dead = False  # some row fits no value
    for r, (terms, lo, hi) in enumerate(zip(s.rows()[1:], s.lower, upper), 1):
        k = len(terms)
        if k == 2:
            (c, a), (u, b) = terms
            zero, both = lo <= 0 <= hi, lo <= a + b <= hi
            only_c, only_u = lo <= a <= hi, lo <= b <= hi
            occ[c].append((u, zero | only_u << 1 | only_c << 2 | both << 3))
            occ[u].append((c, zero | only_c << 1 | only_u << 2 | both << 3))
        elif k == 1:
            (c, a), = terms
            zero, one = lo <= 0 <= hi, lo <= a <= hi
            if zero != one:
                units.append((c, int(one)))
            dead |= not (zero or one)
        elif k:
            raise ValueError(f"row {r} has {k} nonzeros, expected at most 2")
        else:
            dead |= not lo <= 0 <= hi
    if dead:
        return False, None
    x = _forced_search(n, 0, occ, units)
    if x is None:
        return False, None
    return True, tuple(x[1:])


def check_vector(s: LinSystem, x: tuple[int, ...]) -> bool:
    """Standalone checker: does the {0,1}-vector satisfy the mode constraints?"""
    if len(x) != s.num_cols or any(b not in (0, 1) for b in x):
        return False
    vals = [0] * (s.num_rows + 1)
    for r, c, v in s.entries:
        vals[r] += v * x[c - 1]
    for r in range(1, s.num_rows + 1):
        lo = s.lower[r - 1]
        if s.mode == "geq" and vals[r] < lo:
            return False
        if s.mode == "eq" and vals[r] != lo:
            return False
        if s.mode == "band" and not lo <= vals[r] <= s.upper[r - 1]:
            return False
    return True


# ---------------------------------------------------------------------------
# XOR-2-SAT
# ---------------------------------------------------------------------------


def solve_xor2sat(x: XorSystem) -> bool:
    """Parity union-find; unit constraints attach to a constant node 0."""
    parent = list(range(x.num_vars + 1))
    rank = [0] * (x.num_vars + 1)
    parity = [0] * (x.num_vars + 1)  # parity of the path to the root

    def find(v: int) -> tuple[int, int]:
        p = 0
        while parent[v] != v:
            p ^= parity[v]
            v = parent[v]
        return v, p

    def union(u: int, v: int, c: int) -> bool:
        ru, pu = find(u)
        rv, pv = find(v)
        if ru == rv:
            return (pu ^ pv) == c
        if rank[ru] < rank[rv]:
            ru, rv = rv, ru
            pu, pv = pv, pu
        parent[rv] = ru
        parity[rv] = pu ^ pv ^ c
        if rank[ru] == rank[rv]:
            rank[ru] += 1
        return True

    for con in x.constraints:
        if isinstance(con, Parity):
            if not union(con.u, con.v, con.c):
                return False
        elif isinstance(con, Unit):
            if not union(con.u, 0, con.c):
                return False
        else:
            raise ValueError(f"unknown constraint {con!r}")
    return True


# ---------------------------------------------------------------------------
# The decider table
# ---------------------------------------------------------------------------

# class -> (the name of its decider in this module, its standalone witness
# checker or None, the witness's output line). A decider is looked up by name
# when it is called, so a wrapper put on the module attribute runs too.
DECIDERS = {
    CnfFormula: ("solve_2sat", check_assignment,
                 lambda w: " ".join(["v", *(str(v if w[v] else -v) for v in sorted(w))])),
    Digraph: ("solve_dstcon", check_path, lambda w: " ".join(["path", *map(str, w)])),
    UGraph: ("solve_2cvc", check_cover, lambda w: " ".join(["cover", *map(str, sorted(w))])),
    XceInstance: ("solve_xce", check_exact_cover, lambda w: " ".join(["sets", *map(str, w)])),
    Ap2dmInstance: ("solve_ap2dm", None, lambda w: f"pair {w[0]} {w[1]}"),  # NO only
    LinSystem: ("solve_lin", check_vector, lambda w: " ".join(["x", *map(str, w)])),
    XorSystem: ("solve_xor2sat", None, None),  # a bare verdict
}


def decide(instance) -> tuple[bool, object, bool]:
    """(yes, witness or None, whether the class's checker accepts a YES
    witness) from the decider `DECIDERS` names for type(instance); the last
    is True for a NO verdict and for a class without a checker."""
    name, check, _ = DECIDERS[type(instance)]
    result = globals()[name](instance)
    if isinstance(result, bool):
        return result, None, True
    yes, witness = result
    return yes, witness, not (yes and check) or check(instance, witness)
