"""Independent decision procedures for every problem class.

Each solver is deliberately implemented by a different method than the
transformations it is used to verify: implication-graph SCCs for 2-CNF,
breadth-first search for reachability, and exhaustive/backtracking
enumeration within fixed budgets for the rest. All functions are pure.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product

import numpy as np

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

SAT_ENUM_BUDGET = 24  # variables
XOR_ENUM_BUDGET = 20  # variables
CVC_BUDGET = 26  # vertices
XCE_BUDGET = 24  # sets
# The matching budget keeps every in-budget instance within about a second:
# the largest of 50 seeded matching gadgets settles in about 0.5 s at 26
# elements and 14 s at 32 (2-CPU x86 host).
AP2DM_BUDGET = 26  # elements
LIN_BUDGET = 24  # columns


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

    def node(lit: int) -> int:
        return 2 * (abs(lit) - 1) + (0 if lit > 0 else 1)

    adj: list[list[int]] = [[] for _ in range(2 * n)]
    for clause in f.clauses:
        a = clause[0]
        b = clause[1] if len(clause) == 2 else clause[0]
        adj[node(-a)].append(node(b))
        adj[node(-b)].append(node(a))

    comp = _tarjan_scc(adj)
    assignment: dict[int, bool] = {}
    for var in range(1, n + 1):
        pos, neg = comp[node(var)], comp[node(-var)]
        if pos == neg:
            return False, None
        # Tarjan numbers components in reverse topological order, so the
        # smaller id lies deeper in the implication order: make it true.
        assignment[var] = pos < neg
    return True, assignment


def _tarjan_scc(adj: list[list[int]]) -> list[int]:
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = 0
    ncomps = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while ei < len(adj[v]):
                w = adj[v][ei]
                ei += 1
                if index[w] == -1:
                    work[-1] = (v, ei)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomps
                    if w == v:
                        break
                ncomps += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comp


def solve_2sat_enum(f: CnfFormula) -> tuple[bool, dict[int, bool] | None]:
    """Exhaustive assignment enumeration; the cross-check route."""
    _check_clause_widths(f)
    n = f.num_vars
    if n > SAT_ENUM_BUDGET:
        raise BudgetError(f"{n} variables exceed the enumeration budget {SAT_ENUM_BUDGET}")
    for bits in range(1 << n):
        assignment = {v: bool(bits >> (v - 1) & 1) for v in range(1, n + 1)}
        if check_assignment(f, assignment):
            return True, assignment
    return False, None


def check_assignment(f: CnfFormula, assignment: dict[int, bool]) -> bool:
    """Standalone witness checker: does the assignment satisfy every clause?"""
    for clause in f.clauses:
        if not any(assignment[abs(l)] == (l > 0) for l in clause):
            return False
    return True


# ---------------------------------------------------------------------------
# Directed s-t connectivity
# ---------------------------------------------------------------------------


def solve_dstcon(g: Digraph) -> tuple[bool, list[int] | None]:
    """BFS reachability; returns (yes, vertex path s..t or None)."""
    if g.s == g.t:
        return True, [g.s]
    succ: list[list[int]] = [[] for _ in range(g.num_vertices + 1)]
    for u, v in g.edges:
        succ[u].append(v)
    parent = {g.s: 0}
    queue = [g.s]
    for v in queue:
        for w in succ[v]:
            if w not in parent:
                parent[w] = v
                if w == g.t:
                    path = [w]
                    while path[-1] != g.s:
                        path.append(parent[path[-1]])
                    return True, path[::-1]
                queue.append(w)
    return False, None


def check_path(g: Digraph, path: list[int]) -> bool:
    if not path or path[0] != g.s or path[-1] != g.t:
        return False
    edges = set(g.edges)
    return all((u, v) in edges for u, v in zip(path, path[1:]))


# ---------------------------------------------------------------------------
# 2-checkered vertex cover
# ---------------------------------------------------------------------------


def solve_2cvc(g: UGraph) -> tuple[bool, set[int] | None]:
    """Subset enumeration with early pruning; returns (yes, cover or None)."""
    n = g.num_vertices
    if n > CVC_BUDGET:
        raise BudgetError(f"{n} vertices exceed the enumeration budget {CVC_BUDGET}")
    deg = g.degrees()
    grip = {e: g.is_grip(e, deg) for e in g.edges}

    # Decide vertices in BFS order over the adjacency structure so every edge
    # is checked as soon as its later endpoint is decided.
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    order: list[int] = []
    seen = [False] * (n + 1)
    for start in range(1, n + 1):
        if seen[start] or not adj[start]:
            continue
        seen[start] = True
        queue = [start]
        for v in queue:
            order.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    pos = {v: i for i, v in enumerate(order)}
    # Edge constraints attached to the later-decided endpoint.
    pending: list[list[tuple[int, bool]]] = [[] for _ in range(len(order))]
    for u, v in g.edges:
        a, b = (u, v) if pos[u] < pos[v] else (v, u)
        pending[pos[b]].append((a, grip[(u, v)]))

    in_set = [False] * (n + 1)

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for choice in (False, True):
            in_set[v] = choice
            ok = True
            for earlier, is_grip in pending[i]:
                if not choice and not in_set[earlier]:
                    ok = False  # uncovered edge
                    break
                if choice and in_set[earlier] and not is_grip:
                    ok = False  # non-grip edge fully covered
                    break
            if ok and extend(i + 1):
                return True
        return False

    if extend(0):
        return True, {v for v in order if in_set[v]}
    return False, None


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
    """Backtracking over the collection with per-element use counters.

    Returns (yes, selected 1-based set indices or None).
    """
    if len(x.sets) > XCE_BUDGET:
        raise BudgetError(f"{len(x.sets)} sets exceed the enumeration budget {XCE_BUDGET}")
    exempt = set(x.exempt)
    need = [e for e in range(1, x.universe_size + 1) if e not in exempt]
    remaining = [0] * (x.universe_size + 1)  # undecided sets still covering e
    for s in x.sets:
        for e in s:
            remaining[e] += 1
    for e in need:
        if remaining[e] == 0:
            return False, None
    count = [0] * (x.universe_size + 1)
    chosen: list[int] = []

    def extend(i: int, uncovered: int) -> bool:
        if i == len(x.sets):
            return uncovered == 0
        s = x.sets[i]
        # include set i
        if all(count[e] == 0 for e in s):
            newly = 0
            for e in s:
                count[e] = 1
                remaining[e] -= 1
                if e not in exempt:
                    newly += 1
            chosen.append(i + 1)
            if extend(i + 1, uncovered - newly):
                return True
            chosen.pop()
            for e in s:
                count[e] = 0
                remaining[e] += 1
        # exclude set i
        dead = False
        for e in s:
            remaining[e] -= 1
            if remaining[e] == 0 and count[e] == 0 and e not in exempt:
                dead = True
        if not dead and extend(i + 1, uncovered):
            return True
        for e in s:
            remaining[e] += 1
        return False

    if extend(0, len(need)):
        return True, list(chosen)
    return False, None


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


def _partner_lists(a: Ap2dmInstance) -> list[list[int]]:
    """Sorted allowed right partners of each element, 0-based, trivial pair included."""
    partners: list[list[int]] = [[v] for v in range(a.universe_size)]
    for u, w in a.pairs:
        partners[u - 1].append(w - 1)
    for p in partners:
        p.sort()
    return partners


def _matchings(partners: list[list[int]]) -> Iterator[list[int]]:
    """Perfect matchings in lexicographic order, as 0-based permutation lists.

    Depth-first assignment over the allowed-partner lists. The yielded list
    is reused; copy it to keep it past the next step.
    """
    n = len(partners)
    if n == 0:
        yield []
        return
    used = [False] * n
    pi = [0] * n
    candidates = [iter(partners[0])] + [None] * (n - 1)  # per depth, untried partners
    depth = 0
    while depth >= 0:
        for w in candidates[depth]:
            if not used[w]:
                break
        else:  # depth exhausted: free the choice one level up and resume there
            depth -= 1
            used[pi[depth]] = False
            continue
        pi[depth] = w
        if depth == n - 1:
            yield pi
            continue
        used[w] = True
        depth += 1
        candidates[depth] = iter(partners[depth])


def perfect_matchings(a: Ap2dmInstance) -> list[tuple[int, ...]]:
    """All perfect matchings of the pair structure (trivial pairs included).

    Each matching is returned as a permutation tuple pi with pi[v-1] the
    right partner of v. Depth-first assignment over allowed-partner lists.
    """
    return [tuple(w + 1 for w in pi) for pi in _matchings(_partner_lists(a))]


def linked_by_chain(a: Ap2dmInstance, pi: tuple[int, ...], v: int, w: int) -> bool:
    """Literal chain test: an odd-length series z_1..z_t with (v,z_1), the
    consecutive pairs, and (z_t,w) all in the matching.

    In a perfect matching the witness series is forced: z_1 = pi(v) and
    z_{i+1} = pi(z_i), so the search walks pi and tests (z_t, w) at each odd
    t up to 2|X|-1, past which the walk has certainly cycled.
    """
    z = pi[v - 1]  # z_1
    for _ in range(a.universe_size):  # t = 1, 3, 5, ...
        if pi[z - 1] == w:
            return True
        z = pi[pi[z - 1] - 1]  # z_{t+2}
    return False


def linked_by_power(pi: tuple[int, ...], v: int, w: int) -> bool:
    """Permutation-power test: w = pi^k(v) for some even k with 2 <= k <= 2|X|."""
    z = v
    for k in range(1, 2 * len(pi) + 1):
        z = pi[z - 1]
        if k % 2 == 0 and k >= 2 and z == w:
            return True
    return False


def _cycle_links(pi: list[int], starts) -> list[int]:
    """Linked sets under a 0-based matching, as bit masks, for every element
    on a cycle through one of `starts`; the other entries stay 0.

    An element links to its whole cycle when the cycle is odd and to the
    elements at even offsets along it when the cycle is even.
    """
    links = [0] * len(pi)
    for start in starts:
        if links[start]:  # every element links to itself, so a done mask is set
            continue
        z = pi[start]
        if z == start:
            links[start] = 1 << start
            continue
        cycle = [start]
        while z != start:
            cycle.append(z)
            z = pi[z]
        even = odd = 0
        for u in cycle[::2]:
            even |= 1 << u
        for u in cycle[1::2]:
            odd |= 1 << u
        if len(cycle) & 1:
            even = odd = even | odd
        for u in cycle[::2]:
            links[u] = even
        for u in cycle[1::2]:
            links[u] = odd
    return links


def solve_ap2dm(a: Ap2dmInstance) -> tuple[bool, tuple[int, int] | None]:
    """Perfect-matching enumeration; returns (yes, None) or (no, failing pair).

    For every ordered distinct pair (v, w) with v or w outside the exemption
    set, some perfect matching must link v to w under the chain definition.
    The failing pair of a NO instance is the first unlinked one in
    lexicographic order.

    Linkage lemma (acceptance criterion 8 checks it against the literal
    chain test): under a perfect matching pi, v links to w exactly when
    w = pi^k(v) for some even k >= 2. Stepping by two around v's cycle of
    length L visits every element of the cycle when L is odd and the
    elements at even offsets when L is even. So one cycle decomposition per
    matching gives every linked set, and linkage is symmetric: the offset
    from w back to v is L - k, even whenever L is even. The required pairs
    of each element still unlinked are kept as a bit mask; each matching
    visits only the cycles through elements with a non-empty mask, and the
    enumeration stops once every mask is empty.
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
    open_vs = [v for v in range(n) if unlinked[v]]
    if open_vs:
        for pi in _matchings(_partner_lists(a)):
            links = _cycle_links(pi, open_vs)
            closed = False
            for v in open_vs:
                unlinked[v] &= ~links[v]
                closed = closed or not unlinked[v]
            if closed:
                open_vs = [v for v in open_vs if unlinked[v]]
                if not open_vs:
                    break
    for v, m in enumerate(unlinked, 1):
        if m:
            return False, (v, (m & -m).bit_length())
    return True, None


# ---------------------------------------------------------------------------
# {0,1}-linear feasibility
# ---------------------------------------------------------------------------


def solve_lin(s: LinSystem) -> tuple[bool, tuple[int, ...] | None]:
    """Exhaustive search over {0,1}^n with exact integer arithmetic."""
    n = s.num_cols
    if n > LIN_BUDGET:
        raise BudgetError(f"{n} columns exceed the enumeration budget {LIN_BUDGET}")
    m = s.num_rows
    dense = np.zeros((m, n), dtype=np.int64)
    for r, c, v in s.entries:
        dense[r - 1, c - 1] = v
    lower = np.array(s.lower, dtype=np.int64)
    upper = np.array(s.upper, dtype=np.int64) if s.upper is not None else None

    # Enumerate candidate vectors in chunks to bound memory at large n.
    chunk = 1 << min(n, 16)
    cols = np.arange(n, dtype=np.uint64)
    for base in range(0, 1 << n, chunk):
        idx = np.arange(base, base + chunk, dtype=np.uint64)
        vecs = ((idx[:, None] >> cols[None, :]) & 1).astype(np.int64)
        vals = vecs @ dense.T if m else np.zeros((len(idx), 0), dtype=np.int64)
        if s.mode == "geq":
            ok = (vals >= lower).all(axis=1)
        elif s.mode == "eq":
            ok = (vals == lower).all(axis=1)
        else:
            ok = ((vals >= lower) & (vals <= upper)).all(axis=1)
        hit = np.nonzero(ok)[0]
        if hit.size:
            return True, tuple(int(b) for b in vecs[hit[0]])
    return False, None


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


def solve_xor2sat_enum(x: XorSystem) -> bool:
    """Enumeration cross-check route."""
    if x.num_vars > XOR_ENUM_BUDGET:
        raise BudgetError(f"{x.num_vars} variables exceed the enumeration budget {XOR_ENUM_BUDGET}")
    for bits in product((0, 1), repeat=x.num_vars):
        ok = True
        for con in x.constraints:
            if isinstance(con, Parity):
                ok = (bits[con.u - 1] ^ bits[con.v - 1]) == con.c
            else:
                ok = bits[con.u - 1] == con.c
            if not ok:
                break
        if ok:
            return True
    return False
