import time
from itertools import combinations, permutations, product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from redlab import figures, harness, oracles, reductions
from redlab.harness import GenSpec, generate
from redlab.instances import (
    Ap2dmInstance,
    CnfFormula,
    Digraph,
    LinSystem,
    Parity,
    UGraph,
    Unit,
    XceInstance,
    XorSystem,
    validate,
)
from redlab.oracles import (
    AP2DM_BUDGET,
    BudgetError,
    check_assignment,
    check_cover,
    check_exact_cover,
    check_path,
    check_vector,
    dstcon_oracle,
    perfect_matchings,
    solve_2cvc,
    solve_2sat,
    solve_ap2dm,
    solve_dstcon,
    solve_lin,
    solve_xce,
    solve_xor2sat,
)
from references import (
    first_hit,
    linked_by_chain,
    parities_hold,
    solve_2cvc_enum,
    solve_xce_enum,
)

FIG1 = CnfFormula(3, ((1, -2), (2, 1), (-1, 3), (2, -3)))
FIG3 = Digraph(6, ((5, 2), (3, 2), (2, 4), (4, 3), (3, 6)), 5, 6)


class Test2Sat:
    def test_fig1_satisfied_by_all_true(self):
        yes, sigma = solve_2sat(FIG1)
        assert yes and check_assignment(FIG1, sigma)
        assert check_assignment(FIG1, {1: True, 2: True, 3: True})

    def test_empty_formula(self):
        assert solve_2sat(CnfFormula(0, ()))[0] is True

    def test_unit_contradiction(self):
        assert solve_2sat(CnfFormula(1, ((1,), (-1,))))[0] is False

    def test_wide_clause_rejected(self):
        with pytest.raises(ValueError):
            solve_2sat(CnfFormula(3, ((1, 2, 3),)))

    def test_scc_matches_enumeration(self):
        spec = GenSpec("2sat3", max_size=12, seed=101)
        for t in range(300):
            f = generate(spec, t)
            a, wa = solve_2sat(f)
            b = first_hit(f.num_vars, (False, True),
                          lambda bits: check_assignment(f, dict(enumerate(bits, 1))))
            assert a == (b is not None), f
            if a:
                assert check_assignment(f, wa)


def _reach(adj: list[list[int]], v: int) -> set[int]:
    seen, todo = {v}, [v]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


@st.composite
def _adjacency(draw):
    """Successor lists of a digraph on 0..n-1 for n <= 40, loops and
    repeated edges allowed."""
    n = draw(st.integers(0, 40))
    if n == 0:
        return []
    return draw(st.lists(st.lists(st.integers(0, n - 1), max_size=4), min_size=n, max_size=n))


class TestTarjan:
    @given(_adjacency())
    @settings(max_examples=300, deadline=None)
    def test_components_and_reverse_topological_ids(self, adj):
        """Two vertices share a component iff each reaches the other, and
        every edge u -> v has comp[u] >= comp[v]: solve_2sat's witness rule
        (make the literal with the smaller id true) rests on that order."""
        comp = oracles._tarjan_scc(adj)
        reach = [_reach(adj, v) for v in range(len(adj))]
        for u, v in combinations(range(len(adj)), 2):
            assert (comp[u] == comp[v]) == (v in reach[u] and u in reach[v]), (u, v)
        for u, succ in enumerate(adj):
            assert all(comp[u] >= comp[v] for v in succ), u
        assert sorted(set(comp)) == list(range(len(set(comp))))


@st.composite
def _digraph_queries(draw):
    """(n, edges, queries): a digraph on 1..n for n <= 8, loops and repeated
    edges allowed, and every (s, t) pair, s == t included, in drawn order."""
    n = draw(st.integers(1, 8))
    vertex = st.integers(1, n)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    return n, edges, draw(st.permutations(list(product(range(1, n + 1), repeat=2))))


class TestDstcon:
    def test_fig3_path(self):
        yes, path = solve_dstcon(FIG3)
        assert yes and path == [5, 2, 4, 3, 6]
        assert check_path(FIG3, path)

    def test_s_equals_t(self):
        assert solve_dstcon(Digraph(1, (), 1, 1)) == (True, [1])

    def test_unreachable(self):
        assert solve_dstcon(Digraph(2, (), 1, 2)) == (False, None)

    @given(_digraph_queries())
    @example((4, [(1, 4), (2, 4), (4, 4)], [(3, 3), (1, 4), (2, 4), (4, 1), (3, 4), (4, 4)]))
    @settings(max_examples=300, deadline=None)
    def test_query_oracle_matches_bfs(self, case):
        """Both share oracles._bfs, so each answer is checked by _reach's DFS too."""
        n, edges, queries = case
        ask = dstcon_oracle(n, edges)
        adj = [[v for u, v in edges if u == s] for s in range(n + 1)]
        for s, t in queries:
            assert (ask(s, t) == solve_dstcon(Digraph(n, edges, s, t))[0]
                    == (t in _reach(adj, s))), (s, t)

    def test_query_oracle_on_reduction_graphs(self):
        """Every qualifying pair of 200 strict oracle-reduction gadgets, 200
        random ap2dm instances at max_size 5-8 and the fig3 gadget."""
        plan = harness.resolve("ap2dm_to_dstcon_queries")
        corpus = [plan.prepare(generate(plan.genspec, t)) for t in range(200)]
        for max_size in (5, 6, 7, 8):
            spec = GenSpec("ap2dm", max_size=max_size, seed=60 + max_size)
            corpus += [generate(spec, t) for t in range(50)]
        corpus.append(figures.fig3()[1])
        for a in corpus:
            n, exempt = a.universe_size, set(a.exempt)
            ask = dstcon_oracle(n, a.pairs)
            adj = [[w for v, w in a.pairs if v == u] for u in range(n + 1)]
            for v, w in permutations(range(1, n + 1), 2):
                if not (v in exempt and w in exempt):
                    assert (ask(v, w) == solve_dstcon(Digraph(n, a.pairs, v, w))[0]
                            == (w in _reach(adj, v))), (a, v, w)


def _plan_instances(name: str, trials: int = 300):
    """The reduce input and output of each of the plan's first default trials."""
    plan = harness.resolve(name)
    for t in range(trials):
        raw = generate(plan.genspec, t)
        src = plan.prepare(raw) if plan.prepare else raw
        out, _ = plan.reduce(src)
        yield t, src, out


def _decide_large(problem: str, sat_bias: float, **extra):
    """Trial 3 of a seed-1 family at size knob 4000: about 4000 vertices,
    sets or columns, planted YES at sat_bias 1 and NO at sat_bias 0. Returns
    the instance and decide()'s result, which must take under a second."""
    x = generate(GenSpec(problem, max_size=4000, seed=1, sat_bias=sat_bias, **extra), 3)
    started = time.perf_counter()
    result = oracles.decide(x)
    assert time.perf_counter() - started < 1.0
    return x, result


@st.composite
def _degree_3_graphs(draw) -> UGraph:
    """Valid graphs of at most 14 vertices and degree at most 3, edges in
    drawn order, so grips and non-grips both occur."""
    n = draw(st.integers(0, 14))
    vertex = st.integers(1, max(n, 1))
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    deg = [0] * (n + 1)
    edges: list[tuple[int, int]] = []
    for u, v in pairs:
        e = (min(u, v), max(u, v))
        if u != v and e not in edges and deg[u] < 3 and deg[v] < 3:
            edges.append(e)
            deg[u] += 1
            deg[v] += 1
    return UGraph(n, tuple(edges))


class Test2Cvc:
    def test_fig1_graph_and_caption_cover(self):
        from redlab.figures import fig1

        _, g, _, cover = fig1()
        assert check_cover(g, cover)
        assert solve_2cvc(g)[0] is True

    def test_empty_graph(self):
        assert solve_2cvc(UGraph(0, ())) == (True, set())

    def test_k4_no_by_independent_brute_force(self):
        k4 = UGraph(4, tuple(combinations(range(1, 5), 2)))
        # independent oracle: all 16 subsets, checked with plain set logic
        def ok(subset):
            for u, v in k4.edges:
                if u not in subset and v not in subset:
                    return False
                if u in subset and v in subset:  # every K4 edge is a non-grip
                    return False
            return True

        expected = any(ok(set(c)) for r in range(5) for c in combinations(range(1, 5), r))
        assert expected is False
        assert solve_2cvc(k4)[0] is False

    @pytest.mark.parametrize("sat_bias, expected", [(0.0, False), (1.0, True)])
    def test_decides_far_over_the_enum_budget(self, sat_bias, expected):
        """A 3979-vertex graph, cross-checked by Tarjan SCCs on the 2-CNF
        that cvc3_to_sat2 makes of it."""
        g, (yes, cover, _) = _decide_large("ugraph3", sat_bias)
        assert g.num_vertices == 3979 and validate(g, {"deg_bound": 3}) == []
        assert yes is expected
        assert yes == solve_2sat(reductions.cvc3_to_sat2(g)[0])[0]
        if yes:
            assert check_cover(g, cover)

    @pytest.mark.parametrize("edges, expected", [
        (((1, 1),), (True, {1})),  # a grip self-loop needs its vertex in
        (((1, 1), (1, 2)), (False, None)),  # degree 3: a non-grip self-loop fits nothing
        (((1, 2), (1, 2)), (True, {2})),
        (((1, 2), (1, 2), (2, 3)), (True, {2})),  # degree 3: no edge is a grip
        (((1, 2), (2, 3), (1, 2), (1, 3)), (False, None)),  # a non-grip triangle
    ])
    def test_graphs_validate_rejects(self, edges, expected):
        """Self-loops and repeated edges, which validate rejects, decide as
        the backtracking does."""
        g = UGraph(3, edges)
        assert validate(g)
        assert solve_2cvc(g) == solve_2cvc_enum(g) == expected

    @pytest.mark.parametrize("name", ["sat2_to_2cvc3", "cvc3_to_sat2",
                                      "bad_sat2_to_2cvc3", "bad_cvc3_to_sat2"])
    def test_matches_enumeration_on_cover_plans(self, name):
        """Verdict and cover agree with the backtracking on every graph
        input and output of 300 default trials."""
        graphs = [g for _, src, out in _plan_instances(name) for g in (src, out)
                  if isinstance(g, UGraph)]
        assert len(graphs) == 300
        for g in graphs:
            assert solve_2cvc(g) == solve_2cvc_enum(g), g

    @settings(max_examples=300, deadline=None)
    @given(_degree_3_graphs())
    def test_matches_enumeration_on_degree_3_graphs(self, g):
        assert validate(g, {"deg_bound": 3}) == []
        assert solve_2cvc(g) == solve_2cvc_enum(g)

    def test_witnesses_recheck(self):
        spec = GenSpec("ugraph3", max_size=12, seed=55)
        for t in range(200):
            g = generate(spec, t)
            yes, cover = solve_2cvc(g)
            if yes:
                assert check_cover(g, cover)


@st.composite
def _3xce2_instances(draw) -> XceInstance:
    """Valid instances of at most 15 elements and 24 sets. Half of them are
    planted: some sets partition the universe, so the instance is YES."""
    u = draw(st.integers(0, 15))
    cost = [0] * (u + 1)  # sets holding each element
    sets: list[tuple[int, ...]] = []
    if draw(st.booleans()):
        perm = draw(st.permutations(range(1, u + 1)))
        i = 0
        while i < u:
            k = draw(st.integers(1, 3))
            sets.append(tuple(perm[i:i + k]))
            i += k
        cost = [0] + [1] * u
    for _ in range(draw(st.integers(0, min(u + 2, 24 - len(sets))))):
        free = [e for e in range(1, u + 1) if cost[e] < 2]
        s = draw(st.lists(st.sampled_from(free), max_size=3, unique=True)) if free else []
        for e in s:
            cost[e] += 1
        sets.append(tuple(s))
    exempt = draw(st.sets(st.integers(1, u), max_size=u)) if u else set()
    return XceInstance(u, tuple(exempt), tuple(draw(st.permutations(sets))))


class TestXce:
    def test_small_yes(self):
        x = XceInstance(3, (3,), ((1, 2), (2, 3)))
        yes, sel = solve_xce(x)
        assert yes and sel == [1]
        assert check_exact_cover(x, sel)
        # independent enumeration of all 4 subcollections
        truths = [s for s in range(4)
                  if check_exact_cover(x, [i + 1 for i in range(2) if s >> i & 1])]
        assert truths

    def test_empty_universe(self):
        assert solve_xce(XceInstance(0, (), ()))[0] is True

    def test_uncoverable(self):
        assert solve_xce(XceInstance(1, (), ()))[0] is False

    @pytest.mark.parametrize("sat_bias, expected, sets", [(0.0, False, 3687),
                                                          (1.0, True, 3984)])
    def test_decides_far_over_the_enum_budget(self, sat_bias, expected, sets):
        x, (yes, selected, _) = _decide_large("xce", sat_bias)
        assert len(x.sets) == sets and validate(x) == []
        assert yes is expected
        if yes:
            assert check_exact_cover(x, selected)

    @pytest.mark.parametrize("x, expected", [
        (XceInstance(2, (1, 2), ()), (True, [])),
        (XceInstance(2, (1, 2), ((1,), (1, 2))), (True, [1])),  # exempt: at most one
        (XceInstance(3, (2,), ((1, 2), (2, 3))), (False, None)),  # 1 and 3 need both sets
        (XceInstance(3, (2,), ((1,), (2,), (3,))), (True, [1, 2, 3])),  # exempt, held once
    ])
    def test_exempt_elements(self, x, expected):
        assert validate(x) == []
        assert solve_xce(x) == solve_xce_enum(x) == expected

    def test_element_in_three_sets_rejected(self):
        x = XceInstance(3, (), ((1,), (1, 2), (1, 3)))
        with pytest.raises(ValueError, match="element 1 is held by 3 sets"):
            solve_xce(x)

    @pytest.mark.parametrize("name", ["sat2_to_3xce2", "xce2_to_2lp", "bad_xce2_to_2lp"])
    def test_matches_enumeration_on_xce_plans(self, name):
        """Verdict and selection agree with the backtracking on every 3XCE2
        input and output of 300 default trials."""
        instances = [x for _, src, out in _plan_instances(name) for x in (src, out)
                     if isinstance(x, XceInstance)]
        assert len(instances) == 300
        for x in instances:
            assert solve_xce(x) == solve_xce_enum(x), x

    @settings(max_examples=300, deadline=None)
    @given(_3xce2_instances())
    def test_matches_enumeration_on_3xce2_instances(self, x):
        assert validate(x) == []
        assert solve_xce(x) == solve_xce_enum(x)


def _linked_via_permutations(a: Ap2dmInstance, v: int, w: int) -> bool:
    """Independent route: filter itertools.permutations, walk even powers."""
    n = a.universe_size
    allowed = set(a.pairs) | {(z, z) for z in range(1, n + 1)}
    for p in permutations(range(1, n + 1)):
        if any((i + 1, p[i]) not in allowed for i in range(n)):
            continue
        z = v
        for k in range(1, 2 * n + 1):
            z = p[z - 1]
            if k >= 2 and k % 2 == 0 and z == w:
                return True
    return False


def _chain_linked_sets(a: Ap2dmInstance, pi: tuple[int, ...]) -> list[set[int]]:
    """For each v, the set of w linked to it by the literal chain test."""
    n = a.universe_size
    return [{w for w in range(1, n + 1) if linked_by_chain(a, pi, v, w)}
            for v in range(1, n + 1)]


def _reference_solve_ap2dm(a: Ap2dmInstance) -> tuple[bool, tuple[int, int] | None]:
    """The matching oracle by its literal definition: union the chain-linked
    sets over every perfect matching, then look for the first required pair
    missing in lexicographic order."""
    n = a.universe_size
    exempt = set(a.exempt)
    reach: list[set[int]] = [set() for _ in range(n)]
    for pi in perfect_matchings(a):
        for v, linked in enumerate(_chain_linked_sets(a, pi), 1):
            reach[v - 1] |= linked
    for v in range(1, n + 1):
        for w in range(1, n + 1):
            if v == w or (v in exempt and w in exempt):
                continue
            if w not in reach[v - 1]:
                return False, (v, w)
    return True, None


def _ap2dm_corpus() -> list[Ap2dmInstance]:
    """200 matching-gadget outputs, 300 random instances and the fig3 gadget."""
    spec = GenSpec("dstcon_raw", max_size=5, seed=71)
    corpus = [reductions.dstcon_to_ap2dm(reductions.normalize_dstcon(generate(spec, t))[0])[0]
              for t in range(200)]
    for max_size in (5, 6, 7, 8):
        spec = GenSpec("ap2dm", max_size=max_size, seed=72 + max_size)
        corpus += [generate(spec, t) for t in range(75)]
    corpus.append(figures.fig3()[1])
    return corpus


def _matching_cycles(pi: tuple[int, ...]) -> list[list[int]]:
    """The cycles of a matching, fixed points included, as 0-based lists."""
    seen = [False] * len(pi)
    cycles = []
    for start in range(len(pi)):
        if seen[start]:
            continue
        cycle = []
        z = start
        while not seen[z]:
            seen[z] = True
            cycle.append(z)
            z = pi[z] - 1
        cycles.append(cycle)
    return cycles


def _simple_cycles(succ: list[list[int]]) -> list[list[int]]:
    """Every simple cycle of a digraph, once, by plain DFS from its smallest element."""
    cycles = []

    def extend(path: list[int]):
        for w in succ[path[-1]]:
            if w == path[0]:
                cycles.append(list(path))
            elif w > path[0] and w not in path:
                extend(path + [w])

    for root in range(len(succ)):
        extend([root])
    return cycles


def _enumeration_solve_ap2dm(a: Ap2dmInstance) -> tuple[bool, tuple[int, int] | None]:
    """The matching oracle by perfect-matching enumeration: linkage read off
    the cycles of each matching, stopping once every required pair is linked."""
    n = a.universe_size
    exempt = set(a.exempt)
    everyone = (1 << n) - 1
    exempt_mask = sum(1 << v for v in range(n) if v + 1 in exempt)
    unlinked = [(everyone & ~exempt_mask if v + 1 in exempt else everyone) & ~(1 << v)
                for v in range(n)]
    for pi in perfect_matchings(a):
        if not any(unlinked):
            break
        for cycle in _matching_cycles(pi):
            for u, links in zip(cycle, oracles._offset_links(cycle)):
                unlinked[u] &= ~links
    for v, m in enumerate(unlinked, 1):
        if m:
            return False, (v, (m & -m).bit_length())
    return True, None


def _mid_size_corpus() -> list[Ap2dmInstance]:
    """Matching gadgets at dstcon_raw max_size 6-8, random instances at 9-14."""
    corpus = []
    for max_size in (6, 7, 8):
        spec = GenSpec("dstcon_raw", max_size=max_size, seed=90 + max_size)
        corpus += [reductions.dstcon_to_ap2dm(reductions.normalize_dstcon(generate(spec, t))[0])[0]
                   for t in range(75)]
    for max_size in range(9, 15):
        spec = GenSpec("ap2dm", max_size=max_size, seed=90 + max_size)
        corpus += [generate(spec, t) for t in range(75)]
    return corpus


@st.composite
def ap2dm_instances(draw):
    """Valid instances of at most 7 elements, overlap bound 4."""
    n = draw(st.integers(1, 7))
    element = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(element, element).filter(lambda p: p[0] != p[1]),
                          max_size=3 * n, unique=True))
    exempt = draw(st.sets(element, max_size=n // 2))
    a = Ap2dmInstance(n, tuple(exempt), tuple(pairs))
    assume(not validate(a, {"overlap_bound": 4}))
    return a


class TestAp2dm:
    def test_single_element_vacuous(self):
        assert solve_ap2dm(Ap2dmInstance(1, (), ())) == (True, None)

    def test_two_elements_trivial_only(self):
        a = Ap2dmInstance(2, (), ())
        assert solve_ap2dm(a) == (False, (1, 2))
        assert _linked_via_permutations(a, 1, 2) is False

    def test_budget(self):
        with pytest.raises(BudgetError):
            solve_ap2dm(Ap2dmInstance(AP2DM_BUDGET + 1, (), ()))

    def test_matches_permutation_filter(self):
        spec = GenSpec("ap2dm", max_size=5, seed=333)
        for t in range(40):
            a = generate(spec, t)
            exempt = set(a.exempt)
            yes, fail = solve_ap2dm(a)
            expected = all(
                _linked_via_permutations(a, v, w)
                for v in range(1, a.universe_size + 1)
                for w in range(1, a.universe_size + 1)
                if v != w and not (v in exempt and w in exempt))
            assert yes == expected, a

    def test_matches_literal_reference(self):
        corpus = _ap2dm_corpus()
        assert len(corpus) >= 500
        verdicts = [solve_ap2dm(a) for a in corpus]
        assert verdicts == [_reference_solve_ap2dm(a) for a in corpus]
        assert {yes for yes, _ in verdicts} == {True, False}

    @settings(max_examples=300, deadline=None)
    @given(ap2dm_instances())
    def test_matches_literal_reference_on_random_instances(self, a):
        assert solve_ap2dm(a) == _reference_solve_ap2dm(a)

    def test_matches_enumeration_oracle_mid_size(self, monkeypatch):
        corpus = _mid_size_corpus()
        expected = [_enumeration_solve_ap2dm(a) for a in corpus]
        assert [solve_ap2dm(a) for a in corpus] == expected
        assert {yes for yes, _ in expected} == {True, False}
        # again with the _separated pass after every cycle, not every 512th
        monkeypatch.setattr(oracles, "SEPARATION_PERIOD", 1)
        assert [solve_ap2dm(a) for a in corpus] == expected

    def test_separated_pairs_share_no_simple_cycle(self):
        separated_pairs = 0
        for max_size in (6, 8, 10):
            spec = GenSpec("ap2dm", max_size=max_size, seed=500 + max_size)
            for t in range(40):
                a = generate(spec, t)
                n = a.universe_size
                succ = [[] for _ in range(n)]
                for u, w in a.pairs:
                    succ[u - 1].append(w - 1)
                together = set()  # pairs on a common simple cycle
                for cycle in _simple_cycles(succ):
                    together |= {(u, w) for u in cycle for w in cycle}
                for u, w in product(range(n), repeat=2):
                    if u != w and oracles._separated(succ, u, w):
                        separated_pairs += 1
                        assert (u, w) not in together, (a, u, w)
        assert separated_pairs > 0

    def test_largest_seeded_gadget_at_max_size_12(self):
        g = generate(GenSpec("dstcon_raw", max_size=12, seed=1), 16)
        a = reductions.dstcon_to_ap2dm(reductions.normalize_dstcon(g)[0])[0]
        assert a.universe_size == 32
        assert solve_ap2dm(a) == (True, None)

    def test_cycle_links_equal_chain_links(self):
        for a in _ap2dm_corpus():
            n = a.universe_size
            for pi in perfect_matchings(a):
                masks = [0] * n
                for cycle in _matching_cycles(pi):
                    for u, links in zip(cycle, oracles._offset_links(cycle)):
                        masks[u] = links
                cycle_sets = [{w for w in range(1, n + 1) if m >> (w - 1) & 1} for m in masks]
                assert cycle_sets == _chain_linked_sets(a, pi), (a, pi)


@st.composite
def _two_sparse_systems(draw) -> LinSystem:
    """Valid systems of every mode: at most 9 columns, at most 2 nonzeros a
    row, coefficients in +-7. Half of them are planted: every row's bounds
    hold at a drawn vector, so the system is YES and its rows force more."""
    n = draw(st.integers(0, 9))
    m = draw(st.integers(0, 8))
    mode = draw(st.sampled_from(["geq", "eq", "band"]))
    planted = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n) | st.none())
    entries, lower, upper = [], [], []
    for r in range(1, m + 1):
        cols = draw(st.lists(st.integers(1, n), max_size=2, unique=True)) if n else []
        row = [(r, c, draw(st.integers(-7, 7).filter(bool))) for c in cols]
        entries += row
        if planted is None:
            lo = draw(st.integers(-14, 14))
            hi = lo + draw(st.integers(0, 14))
        else:
            at = sum(v * planted[c - 1] for _, c, v in row)
            lo = at - (0 if mode == "eq" else draw(st.integers(0, 3)))
            hi = at + draw(st.integers(0, 3))
        lower.append(lo)
        upper.append(hi)
    return LinSystem(mode, m, n, m, tuple(entries), tuple(lower),
                     tuple(upper) if mode == "band" else None)


def _lin_scan(s: LinSystem) -> tuple[bool, tuple[int, ...] | None]:
    """The verdict and first solution of a scan of {0,1}^n through check_vector."""
    first = first_hit(s.num_cols, (0, 1), lambda bits: check_vector(s, bits))
    return first is not None, first


class TestLin:
    def test_geq_yes(self):
        s = LinSystem("geq", 1, 2, 3, ((1, 1, 1), (1, 2, 1)), (1,))
        assert solve_lin(s) == (True, (0, 1))

    def test_geq_conflict(self):
        s = LinSystem("geq", 2, 1, 3, ((1, 1, 1), (2, 1, -1)), (1, 1))
        assert solve_lin(s) == (False, None)

    def test_eq_row(self):
        s = LinSystem("eq", 1, 2, 3, ((1, 1, 2), (1, 2, 1)), (1,))
        yes, x = solve_lin(s)
        assert yes and x == (0, 1)
        # independent: enumerate the 4 vectors
        assert [v for v in product((0, 1), repeat=2) if 2 * v[0] + v[1] == 1] == [(0, 1)]
        assert check_vector(s, x)

    def test_band(self):
        s = LinSystem("band", 1, 2, 3, ((1, 1, 1), (1, 2, 1)), (1,), (1,))
        yes, x = solve_lin(s)
        assert yes and check_vector(s, x)

    @pytest.mark.parametrize("sat_bias, expected", [(0.0, False), (1.0, True)])
    def test_decides_far_over_the_enum_budget(self, sat_bias, expected):
        """A 3979-column system, cross-checked by parity union-find on the
        XOR-2-SAT system that le_to_xor2sat makes of it."""
        s, (yes, x, _) = _decide_large("lin_eq", sat_bias, max_rows=4000)
        assert s.num_cols == 3979 and validate(s) == []
        assert yes is expected
        assert yes == solve_xor2sat(reductions.le_to_xor2sat(s)[0])
        if yes:
            assert check_vector(s, x)

    def test_zero_rows(self):
        assert solve_lin(LinSystem("geq", 0, 2, 3, (), ()))[0] is True

    def test_row_with_three_nonzeros_rejected(self):
        s = LinSystem("geq", 1, 3, 3, ((1, 1, 1), (1, 2, 1), (1, 3, 1)), (1,))
        with pytest.raises(ValueError, match="row 1 has 3 nonzeros"):
            solve_lin(s)

    def test_chain_yes_at_the_last_vector(self):
        """x_c <= x_(c+1) for c = 1..23 and x_1 + x_24 >= 2: x_1 = 1 lifts
        every column to 1, so the one solution is the all-ones vector, the
        last of the 2^24 vectors a scan of {0,1}^24 tries."""
        entries = [e for c in range(1, 24) for e in ((c, c, -1), (c, c + 1, 1))]
        entries += [(24, 1, 1), (24, 24, 1)]
        s = LinSystem("geq", 24, 24, 2, tuple(entries), (0,) * 23 + (2,))
        assert validate(s) == []
        assert solve_lin(s) == (True, (1,) * 24)

    def test_chain_no(self):
        """x_c + x_(c+1) = 1 for c = 1..23 makes x_24 = 1 - x_1, and the
        last row asks x_24 - x_1 = 0: NO, after a scan of all 2^24 vectors."""
        entries = [e for c in range(1, 24) for e in ((c, c, 1), (c, c + 1, 1))]
        entries += [(24, 1, -1), (24, 24, 1)]
        s = LinSystem("eq", 24, 24, 2, tuple(entries), (1,) * 23 + (0,))
        assert validate(s) == []
        assert solve_lin(s) == (False, None)

    @pytest.mark.parametrize("name", ["lp_to_2lp", "twolp_to_lp", "le_to_xor2sat",
                                      "xce2_to_2lp", "bad_xce2_to_2lp"])
    def test_matches_enumeration_on_lin_plans(self, name):
        """Verdict and witness agree with the scan on every LP input and
        output of 300 default trials."""
        for t, src, out in _plan_instances(name):
            for s in (src, out):
                if isinstance(s, LinSystem):
                    assert solve_lin(s) == _lin_scan(s), (t, s)

    @settings(max_examples=300, deadline=None)
    @given(_two_sparse_systems())
    def test_matches_enumeration_on_two_sparse_systems(self, s):
        assert validate(s) == []
        assert solve_lin(s) == _lin_scan(s)


class TestXor2Sat:
    def test_odd_triangle(self):
        x = XorSystem(3, (Parity(1, 2, 1), Parity(2, 3, 1), Parity(1, 3, 1)))
        assert solve_xor2sat(x) is False
        assert first_hit(x.num_vars, (0, 1), lambda bits: parities_hold(x, bits)) is None

    def test_single_unit(self):
        assert solve_xor2sat(XorSystem(1, (Unit(1, 1),))) is True

    def test_consistent_mix(self):
        x = XorSystem(2, (Parity(1, 2, 0), Unit(1, 1), Unit(2, 1)))
        assert solve_xor2sat(x) is True

    def test_union_find_matches_enumeration(self):
        spec = GenSpec("xor", max_size=10, seed=202)
        for t in range(300):
            x = generate(spec, t)
            assert solve_xor2sat(x) == (
                first_hit(x.num_vars, (0, 1), lambda bits: parities_hold(x, bits)) is not None), x


class TestWitnessSoundness:
    def test_all_yes_witnesses_recheck(self):
        """Every YES witness of every class with a checker in the decider
        table passes that checker, over every generator family."""
        checked = {cls for cls, (_, check, _) in oracles.DECIDERS.items() if check}
        seen_yes = set()
        for prob in harness.GENERATORS:
            spec = GenSpec(prob, max_size=10, seed=909)
            for t in range(200):
                inst = generate(spec, t)
                if type(inst) not in checked:
                    continue
                yes, witness, ok = oracles.decide(inst)
                _, check, _ = oracles.DECIDERS[type(inst)]
                if yes:
                    seen_yes.add(type(inst))
                    assert ok and check(inst, witness), (prob, t)
        assert seen_yes == checked == {CnfFormula, Digraph, UGraph, XceInstance, LinSystem}

    def test_dstcon_paths_recheck(self):
        spec = GenSpec("digraph4", max_size=10, seed=910)
        for t in range(200):
            g = generate(spec, t)
            yes, path = solve_dstcon(g)
            if yes:
                assert check_path(g, path)


class TestFirstWitness:
    """The forced-choice deciders return the lexicographically first
    solution, x_1 most significant. An independent scan through each class's
    standalone checker pins it on small generated instances."""

    @pytest.mark.parametrize("seed", [21, 5021])
    def test_cover_is_first_of_scan(self, seed):
        spec = GenSpec("ugraph3", max_size=14, seed=seed)
        for t in range(100):
            g = generate(spec, t)
            first = first_hit(g.num_vertices, (0, 1), lambda bits: check_cover(
                g, {v for v, b in enumerate(bits, 1) if b}))
            expected = (False, None) if first is None else (
                True, {v for v, b in enumerate(first, 1) if b})
            assert solve_2cvc(g) == expected, (t, g)

    @pytest.mark.parametrize("seed", [21, 5021])
    def test_selection_is_first_of_scan(self, seed):
        spec = GenSpec("xce", max_size=15, seed=seed)
        for t in range(100):
            x = generate(spec, t)
            if len(x.sets) > 16:
                continue
            first = first_hit(len(x.sets), (1, 0), lambda bits: check_exact_cover(
                x, [i for i, b in enumerate(bits, 1) if b]))
            expected = (False, None) if first is None else (
                True, [i for i, b in enumerate(first, 1) if b])
            assert solve_xce(x) == expected, (t, x)

    @pytest.mark.parametrize("problem", ["lin_geq", "lin_band", "lin_eq"])
    def test_vector_is_first_of_scan(self, problem):
        spec = GenSpec(problem, max_size=14, seed=21)
        for t in range(100):
            s = generate(spec, t)
            assert solve_lin(s) == _lin_scan(s), (t, s)
