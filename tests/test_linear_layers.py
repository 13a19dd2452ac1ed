"""The linear-time layers against their literal quadratic references, and a
gate on their growth.

`xce2_to_2lp` reads each element's covering sets off one index, the
ap2dm validator counts exempt partners in one pass over the pairs,
`normalize_dstcon` splits each vertex once through per-vertex edge-position
lists, and `normalize_2sat3` propagates units and deletes removable
literals in one pass over per-literal occurrence lists. The original double
loop, per-exempt scan, restart-after-every-relay loop and repeat-until-
fixpoint loop are kept here as references; outputs, reports and violation
lists must match them exactly, malformed inputs included, except that an
input `validate` rejects must raise PreconditionError with the detail of
the first violation.
"""

from __future__ import annotations

import time
from functools import partial

import pytest
from hypothesis import example, given, settings

from redlab.harness import GenSpec, generate
from redlab.instances import (
    Ap2dmInstance,
    CnfFormula,
    Digraph,
    LinSystem,
    Violation,
    XceInstance,
    validate,
)
from redlab.reductions import (
    UNSAT_2SAT3_CANONICAL,
    PreconditionError,
    dstcon_to_ap2dm,
    normalize_2sat3,
    normalize_dstcon,
    xce2_to_2lp,
)
from references import raw_2cnf, sat_families

# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def xce2_to_2lp_reference(x: XceInstance) -> LinSystem:
    cost = [0] * (x.universe_size + 1)
    for s in x.sets:
        for e in s:
            if 1 <= e <= x.universe_size:
                cost[e] += 1
    for e in range(1, x.universe_size + 1):
        if cost[e] > 2:
            raise PreconditionError(f"element {e} has overlapping cost {cost[e]}, bound 2")
    exempt = set(x.exempt)
    entries, lower, upper = [], [], []
    for e in range(1, x.universe_size + 1):
        for j, s in enumerate(x.sets, 1):
            if e in s:
                entries.append((e, j, 1))
        lower.append(0 if e in exempt else 1)
        upper.append(1)
    return LinSystem("band", x.universe_size, len(x.sets), 3,
                     tuple(entries), tuple(lower), tuple(upper))


def validate_ap2dm_reference(a: Ap2dmInstance, tags: dict) -> list[Violation]:
    out = []
    exempt = set(a.exempt)
    for e in a.exempt:
        if not 1 <= e <= a.universe_size:
            out.append(Violation("exempt_range", (e,), f"exempt element {e} out of range"))
    n_out = [0] * (a.universe_size + 1)
    n_in = [0] * (a.universe_size + 1)
    seen = set()
    for u, v in a.pairs:
        if not (1 <= u <= a.universe_size and 1 <= v <= a.universe_size):
            out.append(Violation("pair_range", (u, v), f"pair ({u},{v}) out of range"))
            continue
        if u == v:
            out.append(Violation("trivial_pair_stored", (u,), f"trivial pair ({u},{u}) must stay implicit"))
            continue
        if (u, v) in seen:
            out.append(Violation("duplicate_pair", (u, v), f"duplicate pair ({u},{v})"))
        seen.add((u, v))
        n_out[u] += 1
        n_in[v] += 1
    k = tags.get("overlap_bound")
    if k is not None:
        for v in range(1, a.universe_size + 1):
            if n_out[v] + 1 > k:
                out.append(Violation("overlap_out", (v, n_out[v] + 1),
                                     f"element {v} has {n_out[v] + 1} right partners, bound {k}"))
            if n_in[v] + 1 > k:
                out.append(Violation("overlap_in", (v, n_in[v] + 1),
                                     f"element {v} has {n_in[v] + 1} left partners, bound {k}"))
    for v in sorted(exempt):
        outs = sum(1 for (u, w) in a.pairs if u == v and w not in exempt)
        ins = sum(1 for (u, w) in a.pairs if w == v and u not in exempt)
        if outs == 0 or ins == 0:
            out.append(Violation("uniquely_connected", (v, outs, ins),
                                 f"exempt element {v} lacks a non-exempt partner (out={outs}, in={ins})"))
    return out


def normalize_dstcon_reference(g: Digraph) -> Digraph:
    """The output graph; preconditions as in the reduction."""
    indeg = [0] * (g.num_vertices + 1)
    outdeg = [0] * (g.num_vertices + 1)
    for u, v in g.edges:
        outdeg[u] += 1
        indeg[v] += 1
    for v in range(1, g.num_vertices + 1):
        if indeg[v] > 3 or outdeg[v] > 3:
            raise PreconditionError(
                f"vertex {v} has indegree {indeg[v]} / outdegree {outdeg[v]}, componentwise bound 3")
    nxt = g.num_vertices

    def fresh() -> int:
        nonlocal nxt
        nxt += 1
        return nxt

    edges = list(g.edges)
    if (g.s, g.t) in edges:
        mid = fresh()
        edges.remove((g.s, g.t))
        edges.extend([(g.s, mid), (mid, g.t)])
    new_s = fresh()
    new_t = fresh()
    edges.append((new_s, g.s))
    edges.append((g.t, new_t))
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
                relay = fresh()
                moved = [e for e in edges if e[1] == v][:2]
                for e in moved:
                    edges[edges.index(e)] = (e[0], relay)
                edges.append((relay, v))
                changed = True
                break
            if outdeg.get(v, 0) > 2:
                relay = fresh()
                moved = [e for e in edges if e[0] == v][:2]
                for e in moved:
                    edges[edges.index(e)] = (relay, e[1])
                edges.append((v, relay))
                changed = True
                break
    return Digraph(nxt, tuple(edges), new_s, new_t)


def normalize_2sat3_reference(f: CnfFormula) -> CnfFormula:
    """Whole clean-up, unit and removable-literal rounds until none changes
    anything; quadratic when each round settles one variable."""
    clauses = [tuple(c) for c in f.clauses]
    while True:
        changed = False
        cleaned = []
        for c in clauses:
            if len(c) == 2:
                if c[0] == -c[1]:
                    changed = True
                    continue
                if c[0] == c[1]:
                    c = (c[0],)
                    changed = True
            cleaned.append(c)
        clauses = cleaned
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
        present = {l for c in clauses for l in c}
        removable = {l for l in present if -l not in present}
        if removable:
            clauses = [c for c in clauses if not any(l in removable for l in c)]
            changed = True
        if not changed:
            break
    if not clauses:
        return CnfFormula(0, ())
    renum = {var: i for i, var in enumerate(sorted({abs(l) for c in clauses for l in c}), 1)}
    return CnfFormula(len(renum), tuple(
        tuple((1 if l > 0 else -1) * renum[abs(l)] for l in c) for c in clauses))


def _outcome(fn, x):
    """fn(x), or the exception it raised as (type name, message)."""
    try:
        return fn(x)
    except PreconditionError as exc:
        return type(exc).__name__, str(exc)


def _expected(reference, x):
    """The reference outcome, or for an input `validate` rejects the
    PreconditionError carrying the first violation's detail."""
    bad = validate(x)
    if bad:
        return "PreconditionError", bad[0].detail
    return _outcome(reference, x)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def _generated(problem: str, sizes_trials, **extra):
    for max_size, trials in sizes_trials:
        spec = GenSpec(problem, max_size=max_size, seed=11 * max_size, **extra)
        yield from (generate(spec, t) for t in range(trials))


MALFORMED_XCE = [
    XceInstance(3, (1,), ((1, 1, 2), (2, 3))),  # a set repeats an element
    XceInstance(3, (), ((0, 1), (-1, 2), (3,))),  # elements out of range below
    XceInstance(2, (), ((1, 3),)),  # out of range above
    XceInstance(2, (2,), ((1, 2), (1,), (2,))),
    XceInstance(4, (1, 2), ((1, 2), (1, 2), (3, 4))),  # a set listed twice
    XceInstance(3, (), ((1, 2), (1, 3), (1,))),  # cost 3: precondition
    XceInstance(0, (), ()),
]

MALFORMED_AP2DM = [
    # duplicate pairs, on and between exempt elements
    Ap2dmInstance(4, (1, 2), ((1, 3), (1, 3), (3, 1), (4, 2), (2, 4), (2, 4))),
    # a stored trivial pair on an exempt element
    Ap2dmInstance(3, (1,), ((1, 1), (1, 2), (2, 1))),
    # out-of-range pairs, some touching exempt elements
    Ap2dmInstance(3, (1, 2), ((1, 9), (9, 1), (0, 2), (2, 0), (2, 3), (3, 2))),
    # out-of-range exempt elements
    Ap2dmInstance(3, (0, 1, 5), ((5, 2), (2, 5), (1, 2), (3, 1))),
    # exempt elements whose only partners are exempt
    Ap2dmInstance(4, (1, 2), ((1, 2), (2, 1), (3, 4), (4, 3))),
    Ap2dmInstance(5, (1, 2, 3), ((1, 2), (2, 3), (3, 1), (1, 4), (5, 2), (4, 3), (3, 4))),
    # several non-exempt partners per side, which the promise allows
    Ap2dmInstance(5, (3,), ((3, 1), (3, 2), (1, 3), (2, 3), (4, 3), (3, 5))),
    Ap2dmInstance(0, (), ()),
]

MALFORMED_DIGRAPH = [
    Digraph(3, ((2, 1), (3, 1), (1, 2), (1, 3)), 1, 3),  # s needs two in-splits after s'
    Digraph(4, ((4, 1), (4, 2), (4, 3), (1, 4), (2, 4)), 1, 4),  # t needs two out-splits
    Digraph(3, ((1, 3), (1, 3), (2, 3), (1, 2)), 1, 3),  # duplicate direct s->t edges
    Digraph(3, ((2, 2), (1, 2), (3, 2), (2, 1), (2, 3)), 1, 3),  # self-loop on a split vertex
    Digraph(3, ((0, 1), (0, 2), (0, 3), (2, 0)), 1, 3),  # vertex 0 out of range
    Digraph(2, ((1, 1), (1, 2)), 1, 1),  # s == t
    Digraph(4, ((1, 2), (1, 3), (1, 4), (2, 1), (3, 1), (4, 1), (2, 3)), 1, 2),  # s split 3 times
    Digraph(5, ((2, 1), (3, 1), (4, 1), (5, 1), (1, 2)), 2, 1),  # indegree 4: precondition
    Digraph(3, ((1, -1), (2, 3)), 1, 3),  # negative head
]

# the indices of the cases `validate` rejects
REJECTED = {"xce": [0, 1, 2, 5], "digraph": [2, 3, 4, 5, 8]}

# bound 3 is where the implicit trivial pair decides an element of 3 stored partners
TAGS = ({}, {"overlap_bound": 4}, {"overlap_bound": 3}, {"overlap_bound": 2})


class TestXce2To2LpIndex:
    def test_generated_match_reference(self):
        for x in _generated("xce", ((9, 300), (40, 60), (200, 5))):
            assert xce2_to_2lp(x)[0] == xce2_to_2lp_reference(x), x

    @pytest.mark.parametrize("x", MALFORMED_XCE)
    def test_malformed_match_reference(self, x):
        assert _outcome(lambda y: xce2_to_2lp(y)[0], x) == _expected(xce2_to_2lp_reference, x)


class TestValidateAp2dmOnePass:
    def test_generated_match_reference(self):
        gadgets = (dstcon_to_ap2dm(normalize_dstcon(g)[0])[0]
                   for g in _generated("dstcon_raw", ((5, 100), (30, 20))))
        for a in [*_generated("ap2dm", ((6, 300), (40, 40), (300, 4))), *gadgets]:
            for tags in TAGS:
                assert validate(a, tags) == validate_ap2dm_reference(a, tags), (a, tags)

    @pytest.mark.parametrize("a", MALFORMED_AP2DM)
    @pytest.mark.parametrize("tags", TAGS)
    def test_malformed_match_reference(self, a, tags):
        assert validate(a, tags) == validate_ap2dm_reference(a, tags)

    def test_malformed_cases_are_flagged(self):
        rules = {v.rule for a in MALFORMED_AP2DM for tags in TAGS for v in validate(a, tags)}
        assert {"duplicate_pair", "trivial_pair_stored", "pair_range", "exempt_range",
                "uniquely_connected", "overlap_out", "overlap_in"} <= rules


class TestNormalizeDstconOnePass:
    @staticmethod
    def _new(g):
        return normalize_dstcon(g)[0]

    def test_generated_match_reference(self):
        graphs = [*_generated("digraph4", ((6, 300), (40, 40)), deg_bound=3),
                  *_generated("digraph4", ((8, 200), (40, 40)), deg_bound=6),
                  *_generated("dstcon_raw", ((7, 200),))]
        split = 0
        for g in graphs:
            got = _outcome(self._new, g)
            assert got == _outcome(normalize_dstcon_reference, g), g
            # beyond s', t' and a subdivided s->t edge, every new vertex is a relay
            split += isinstance(got, Digraph) and (
                got.num_vertices > g.num_vertices + 2 + ((g.s, g.t) in g.edges))
        assert split >= 50  # relays are exercised, not only the endpoints

    @pytest.mark.parametrize("g", MALFORMED_DIGRAPH)
    def test_hand_built_match_reference(self, g):
        assert _outcome(self._new, g) == _expected(normalize_dstcon_reference, g)


def _unit_chain(n: int) -> CnfFormula:
    """(x1)(!x1 v x2)...(!x(n-1) v xn)(!xn v !x(n-1)): one unit forces the
    whole chain, then the last clause conflicts."""
    return CnfFormula(n, ((1,), *((-v, v + 1) for v in range(1, n)), (-n, 1 - n)))


def _pure_cascade(n: int) -> CnfFormula:
    """(x1 v x2)(!x2 v x3)...(!x(n-1) v xn): only the two ends are removable
    at first, and each deletion makes the next literal removable."""
    return CnfFormula(n, ((1, 2), *((-v, v + 1) for v in range(2, n))))


CONFLICTS = [
    CnfFormula(1, ((1,), (-1,))),
    CnfFormula(2, ((1, 1), (-1, 2), (-2, -2))),
    CnfFormula(2, ((1,), (-1, 2), (-2,))),
    CnfFormula(3, ((2, 3), (1,), (-1, 2), (-1, -2))),
    CnfFormula(4, ((3, -3), (1, 1), (-1, 2), (-2, 4), (-4, -2))),
    _unit_chain(2),
    _unit_chain(30),
]
# Formulas with a variable in more than 3 literals, outside normalize_2sat3's
# input contract. Unchecked, the first three would give the canonical conflict
# and the last would come back unchanged, outside the normal form.
OVER_BOUND = [
    CnfFormula(1, ((1, 1), (-1, -1))),
    CnfFormula(4, ((3, -3), (1, 1), (-1, 2), (-2, -1))),
    CnfFormula(5, ((1, -1), (2, 2), (-2, 3), (3, 4), (-4, -3), (4, -3))),
    CnfFormula(2, ((-1, -2), (-1, -2), (-1, 2), (1, -2))),
]


class TestNormalize2Sat3OnePass:
    def test_generated_match_reference(self):
        checked = kept = 0
        for spec, trials in sat_families():
            for t in range(trials):
                f = generate(spec, t)
                got = normalize_2sat3(f)
                assert got == normalize_2sat3_reference(f), (spec, t)
                checked += 1
                kept += bool(got.clauses)
        assert checked == 3 * 600 + sum((t + 5) for t in (400, 300, 200, 100, 40, 20))
        assert kept >= checked // 5  # not only formulas that vanish

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 40])
    def test_chains_match_reference(self, n):
        for f in (_unit_chain(n), _pure_cascade(n)):
            assert normalize_2sat3(f) == normalize_2sat3_reference(f)
        assert normalize_2sat3(_pure_cascade(n)) == CnfFormula(0, ())

    @pytest.mark.parametrize("f", CONFLICTS)
    def test_conflict_yields_canonical(self, f):
        assert normalize_2sat3(f) == normalize_2sat3_reference(f) == UNSAT_2SAT3_CANONICAL

    @pytest.mark.parametrize("f", OVER_BOUND)
    def test_over_bound_rejected(self, f):
        with pytest.raises(PreconditionError) as exc:
            normalize_2sat3(f)
        assert str(exc.value) == validate(f, {"occ_bound": 3})[0].detail

    @settings(max_examples=300, deadline=None)
    @given(raw_2cnf())
    @example(CONFLICTS[3])
    @example(CnfFormula(5, ((1, -1), (2, 2), (-2, 3), (-4, -3), (4, -3))))
    def test_raw_match_reference(self, f):
        """Every draw is within the occurrence bound (test_over_bound_rejected
        covers the rest), and its output is the reference's and in the
        normal form."""
        assert not validate(f, {"occ_bound": 3})
        out = normalize_2sat3(f)
        assert out == normalize_2sat3_reference(f)
        assert not validate(out, {"normal_form": True})


def test_rejected_cases():
    assert REJECTED == {
        "xce": [i for i, x in enumerate(MALFORMED_XCE) if validate(x)],
        "digraph": [i for i, g in enumerate(MALFORMED_DIGRAPH) if validate(g)],
    }


# ---------------------------------------------------------------------------
# Growth gate
# ---------------------------------------------------------------------------


def _xce_twice_covered(n: int) -> XceInstance:
    """n even: every element in exactly two 2-element sets, every third exempt."""
    sets = [(e, e + 1) for e in range(1, n, 2)] + [(e, e % n + 1) for e in range(2, n + 1, 2)]
    return XceInstance(n, tuple(range(1, n + 1, 3)), tuple(sets))


def _ap2dm_ring(n: int) -> Ap2dmInstance:
    pairs = [(v, v % n + 1) for v in range(1, n + 1)] + [(v % n + 1, v) for v in range(1, n + 1)]
    return Ap2dmInstance(n, tuple(range(1, n + 1, 2)), tuple(pairs))


def _digraph_deg3(n: int) -> Digraph:
    """Indegree and outdegree 3 everywhere, so every vertex is split twice."""
    edges = [(v, (v + d) % n + 1) for v in range(1, n + 1) for d in range(3)]
    return Digraph(n, tuple(edges), 1, n // 2)


# layer -> (size n, n -> the call at that size, its input built beforehand)
LAYERS = {
    "xce2_to_2lp": (1000, lambda n: partial(xce2_to_2lp, _xce_twice_covered(n))),
    "validate_ap2dm": (1000, lambda n: partial(validate, _ap2dm_ring(n), {"overlap_bound": 4})),
    "normalize_dstcon": (400, lambda n: partial(normalize_dstcon, _digraph_deg3(n))),
    "gen_2sat3": (600, lambda n: partial(generate, GenSpec("2sat3", max_size=n, clauses=n, seed=5))),
    "normalize_2sat3_unit_chain": (1000, lambda n: partial(normalize_2sat3, _unit_chain(n))),
    "normalize_2sat3_pure_cascade": (1000, lambda n: partial(normalize_2sat3, _pure_cascade(n))),
}


# _gen_xce and _gen_lin are left out: their fixed draw stream spends n - 1
# draws on every extra set or row, so their draw count stays Theta(n*m).
# From FRONT_SHUFFLE_MIN items, _shuffled_front runs those draws in numpy
# and does no swaps, which shrinks only the constant.
@pytest.mark.parametrize("layer", list(LAYERS))
def test_growth_below_slope_1_5(layer):
    """Best of 3 runs at sizes n and 4n, interleaved: the time ratio stays
    below 8 = 4**1.5, where a quadratic layer gives about 16."""
    n, make = LAYERS[layer]
    calls = (make(n), make(4 * n))
    best = [float("inf")] * 2
    for _ in range(3):
        for i, call in enumerate(calls):
            started = time.perf_counter()
            call()
            best[i] = min(best[i], time.perf_counter() - started)
    assert best[1] / best[0] < 8, (layer, *best)
