"""Reference routes the tests compare the deciders against (not collected).

`first_hit` is the one exhaustive scan. The cover and exact-cover searches
prune, in the same order, since cover plans reach 26 vertices; the linkage
tests are the matching definitions by the letter. The two normal-form
predicates restate the `normal_form` tags of `validate` on valid instances.
`checkered_cover` is the closed-form cover behind README defect 2, and
`pendant_repair` the repaired gadget that README states beside it. The
2sat3 families and the raw-formula strategy are the formula sources that
more than one test module draws from. `ScalarSplitMix64` is the published
SplitMix64 formula, one draw at a time, and `fisher_yates` the literal
shuffle over its draws: the stream the buffered `SplitMix64` must keep.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

from hypothesis import strategies as st

from redlab import reductions
from redlab.harness import OCC_BOUND, GenSpec, default_plans, resolve
from redlab.instances import Ap2dmInstance, CnfFormula, Digraph, Parity, UGraph, XceInstance, XorSystem


class ScalarSplitMix64:
    """SplitMix64 (Steele, Lea, Flood 2014) by the published formula."""

    def __init__(self, seed: int):
        self.state = seed % 2**64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) % 2**64
        z = self.state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        return z ^ (z >> 31)


def fisher_yates(items: list, ref: ScalarSplitMix64) -> list:
    """A shuffled copy of items: swap i with next64() % (i + 1) for
    i = len-1 .. 1."""
    out = items[:]
    for i in range(len(out) - 1, 0, -1):
        j = ref.next64() % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def first_hit(n: int, digits: tuple, accepts):
    """The first n-digit vector over `digits`, in lexicographic order with
    the first digit most significant, that `accepts` takes, or None."""
    return next((bits for bits in product(digits, repeat=n) if accepts(bits)), None)


def parities_hold(x: XorSystem, bits: tuple[int, ...]) -> bool:
    """Does the 0/1 vector, variable v at bits[v-1], meet every constraint?"""
    return all((bits[con.u - 1] ^ bits[con.v - 1] if isinstance(con, Parity)
                else bits[con.u - 1]) == con.c for con in x.constraints)


def solve_2cvc_enum(g: UGraph) -> tuple[bool, set[int] | None]:
    """Backtracking over the vertices in index order, out before in, with
    each edge checked once its larger endpoint is decided."""
    n = g.num_vertices
    deg = g.degrees()
    # Edge constraints attached to the larger endpoint.
    pending: list[list[tuple[int, bool]]] = [[] for _ in range(n + 1)]
    for u, v in g.edges:
        pending[max(u, v)].append((min(u, v), g.is_grip((u, v), deg)))

    in_set = [False] * (n + 1)

    def extend(v: int) -> bool:
        if v > n:
            return True
        for choice in (False, True):
            in_set[v] = choice
            ok = True
            for earlier, is_grip in pending[v]:
                if not choice and not in_set[earlier]:
                    ok = False  # uncovered edge
                    break
                if choice and in_set[earlier] and not is_grip:
                    ok = False  # non-grip edge fully covered
                    break
            if ok and extend(v + 1):
                return True
        return False

    if extend(1):
        return True, {v for v in range(1, n + 1) if in_set[v]}
    return False, None


def solve_xce_enum(x: XceInstance) -> tuple[bool, list[int] | None]:
    """Backtracking over the collection in index order, included before
    excluded, with per-element use counters."""
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


def is_normalized_dstcon(g: Digraph) -> bool:
    """Distinct s and t, no s->t edge, s of indegree 0 and outdegree at most
    1, t of outdegree 0 and indegree at most 1, and every in- and outdegree
    at most 2."""
    indeg = [0] * (g.num_vertices + 1)
    outdeg = [0] * (g.num_vertices + 1)
    for u, v in g.edges:
        outdeg[u] += 1
        indeg[v] += 1
    return (g.s != g.t and (g.s, g.t) not in g.edges
            and indeg[g.s] == 0 and outdeg[g.s] <= 1 and outdeg[g.t] == 0 and indeg[g.t] <= 1
            and all(indeg[v] <= 2 and outdeg[v] <= 2 for v in range(1, g.num_vertices + 1)))


def checkered_cover(f: CnfFormula) -> set[int]:
    """A 2-checkered cover of `sat2_to_2cvc3`'s graph of the normalized
    formula f, satisfiable or not: every clause-slot vertex, and for each
    variable the vertex of a literal that occurs once.

    The normal form leaves each variable with both polarities and at most 3
    occurrences, so one of its literals occurs once, and that literal's
    vertex has degree 2, as every slot vertex does. So an edge with both
    ends in the cover is a grip, and every other edge (the other literal of
    a variable pair, or a slot's literal) has one end in it."""
    n, count = f.num_vars, Counter(l for c in f.clauses for l in c)
    cover = set(range(2 * n + 1, 2 * (n + len(f.clauses)) + 1))
    cover.update(2 * v - 1 if count[v] == 1 else 2 * v for v in range(1, n + 1))
    return cover


def pendant_repair(f: CnfFormula) -> UGraph:
    """`sat2_to_2cvc3`'s graph of the normalized formula f with a fresh
    pendant vertex on every literal vertex of degree 2. An analysis of
    README defect 2, outside the library: its graph has a 2-checkered cover
    exactly when f is satisfiable.

    - A literal vertex has its variable pair's edge and one edge per
      occurrence, so degree 2 or 3; with the pendants every literal vertex
      has degree 3, and no literal edge (pair, slot or pendant edge) is a
      grip. Each has exactly one end in a cover, so one vertex of each pair
      is in it: call true the literal whose vertex is out.
    - A slot lies in the cover exactly when its literal is true, since the
      slot's literal edge has exactly one end in it.
    - A clause's slots have degree 2, so the clause edge is a grip: it needs
      one slot in the cover, one true literal, and allows two.
    - A pendant is in the cover exactly when its literal vertex is not,
      whatever the assignment. So covers give satisfying assignments, and a
      satisfying assignment gives a cover.

    The size is at most 6 * m_vbl: each variable brings its 2 pair vertices,
    one slot per occurrence and one pendant per once-occurring literal,
    2 + 2 + 2 for occurrences (1, 1) and 2 + 3 + 1 for (2, 1) or (1, 2)."""
    g = reductions.sat2_to_2cvc3(f)[0]
    deg, n = g.degrees(), g.num_vertices
    lonely = [v for v in range(1, 2 * f.num_vars + 1) if deg[v] == 2]
    return UGraph(n + len(lonely), g.edges + tuple((v, n + i) for i, v in enumerate(lonely, 1)))


def sat_families():
    """(spec, trials) for every 2sat3 family: the default plans' specs at
    seed 7, the --max-size variants of the first (which drop its clause
    caps) and the exact clause count n of the scale pipelines."""
    plans = [name for name, plan in default_plans().items() if plan.genspec.problem == "2sat3"]
    assert len(plans) == 3
    for name in plans:
        yield resolve(name, seed=7).genspec, 600
    for size, trials in ((6, 400), (12, 300), (25, 200), (50, 100), (100, 40), (200, 20)):
        yield resolve(plans[0], seed=7, max_size=size).genspec, trials
        yield GenSpec("2sat3", max_size=size, clauses=size, seed=size), 5


RAW_VARS = 4  # few enough that both polarities of a variable often survive


@st.composite
def raw_2cnf(draw):
    """Valid raw formulas within the 3-occurrence bound: up to three units,
    tautologies or (x v x), then clean 2-clauses, over some variables and
    leaving others unused. Each variable has OCC_BOUND occurrence credits,
    and a clause only takes variables with credits left, as `_gen_2sat3`
    does."""
    n = draw(st.integers(2, RAW_VARS + 2))
    credits = dict.fromkeys(range(1, min(n, RAW_VARS) + 1), OCC_BOUND)

    def spend(need: int, count: int) -> list[int]:
        """count distinct variables with need credits each, charged and
        signed; [] when too few are left."""
        live = [v for v, c in credits.items() if c >= need]
        if len(live) < count:
            return []
        vs = draw(st.lists(st.sampled_from(live), min_size=count, max_size=count, unique=True))
        for v in vs:
            credits[v] -= need
        return [v if draw(st.booleans()) else -v for v in vs]

    clauses = []
    for shape in draw(st.lists(st.sampled_from(("unit", "same", "taut")), max_size=3)):
        for l in spend(1 if shape == "unit" else 2, 1):
            clauses.append((l,) if shape == "unit" else (l, l) if shape == "same" else (l, -l))
    for _ in range(draw(st.integers(3, 16))):
        pair = spend(1, 2)
        if not pair:
            break
        clauses.append(tuple(pair))
    return CnfFormula(n, tuple(draw(st.permutations(clauses))))
