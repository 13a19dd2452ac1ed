import pytest
from hypothesis import given, settings

from redlab import harness, oracles
from redlab.harness import GenSpec, generate
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
    size_param,
    validate,
)
from redlab.reductions import (
    UNSAT_2SAT3_CANONICAL,
    PreconditionError,
    ap2dm_to_dstcon_queries,
    cover_from_assignment,
    cvc3_to_sat2,
    dstcon_to_ap2dm,
    le_to_xor2sat,
    lp_to_2lp,
    normalize_2sat3,
    normalize_dstcon,
    reduce_degree_dstcon,
    sat2_to_2cvc3,
    sat2_to_3xce2,
    twolp_to_lp,
    xce2_to_2lp,
)
from references import (
    checkered_cover,
    first_hit,
    is_normalized_2sat3,
    parities_hold,
    pendant_repair,
    raw_2cnf,
    sat_families,
)

FIG1 = CnfFormula(3, ((1, -2), (2, 1), (-1, 3), (2, -3)))
FIG2 = CnfFormula(3, ((1, -2), (1, 3), (2, -3), (-1, -3)))
FIG3 = Digraph(6, ((5, 2), (3, 2), (2, 4), (4, 3), (3, 6)), 5, 6)
# normalized occ<=3 UNSAT formula (x ~> !x via p, !x ~> x via c and q)
UNSAT4 = CnfFormula(4, ((-1, 2), (-2, -1), (1, 3), (-3, 4), (-4, -3)))


def _dstcon(g):
    return oracles.solve_dstcon(g)[0]


def _counting_oracle(graphs: list, asks: list):
    """`oracles.dstcon_oracle` that logs each query graph it is built on to
    `graphs` as (n, edges) and each query to `asks` as (s, t, answer)."""
    def oracle(n, edges):
        graphs.append((n, edges))
        ask = oracles.dstcon_oracle(n, edges)

        def counted(s, t):
            answer = ask(s, t)
            asks.append((s, t, answer))
            return answer

        return counted

    return oracle


class TestNormalize2Sat:
    def test_single_clause_removable(self):
        assert normalize_2sat3(CnfFormula(2, ((1, -2),))) == CnfFormula(0, ())

    def test_fig1_is_a_fixpoint(self):
        assert normalize_2sat3(FIG1) == FIG1
        assert is_normalized_2sat3(FIG1)

    def test_removability_cascade(self):
        # (x v y)(!x v z): z removable kills clause 2, then x kills clause 1
        f = CnfFormula(3, ((1, 2), (-1, 3)))
        assert normalize_2sat3(f) == CnfFormula(0, ())

    def test_unit_conflict_yields_canonical_unsat(self):
        f = CnfFormula(1, ((1, 1), (-1,)))  # (x v x) is the unit x
        out = normalize_2sat3(f)
        assert out == UNSAT_2SAT3_CANONICAL
        assert is_normalized_2sat3(out)
        assert oracles.solve_2sat(out)[0] is False
        assert first_hit(out.num_vars, (False, True),
                         lambda bits: oracles.check_assignment(out, dict(enumerate(bits, 1)))) is None

    def test_tautology_dropped(self):
        assert normalize_2sat3(CnfFormula(1, ((1, -1),))) == CnfFormula(0, ())

    def test_renumbering_dense(self):
        f = normalize_2sat3(CnfFormula(9, ((7, -9), (-7, 9), (9, 7))))
        assert f == CnfFormula(2, ((1, -2), (-1, 2), (2, 1)))
        assert is_normalized_2sat3(f)

    def test_equisatisfiable(self):
        spec = GenSpec("2sat3", max_size=10, seed=500)
        for t in range(400):
            f = generate(spec, t)
            a = oracles.solve_2sat(f)[0]
            b = oracles.solve_2sat(normalize_2sat3(f))[0]
            assert a == b, f

    def test_output_always_normalized(self):
        spec = GenSpec("2sat3", max_size=10, seed=501)
        for t in range(300):
            out = normalize_2sat3(generate(spec, t))
            assert not out.clauses or is_normalized_2sat3(out)


class TestSat2To2Cvc3:
    def test_fig1_structure(self):
        g, rep = sat2_to_2cvc3(FIG1)
        assert g.num_vertices == 14
        assert len(g.edges) == 15  # 3 variable pairs + 4 clause grips + 8 slots
        assert validate(g, {"deg_bound": 3}) == []
        deg = g.degrees()
        names = rep.notes["names"]
        # every clause pair is a grip
        for j in range(1, 5):
            a = next(v for v, n in names.items() if n == f"c{j}[1]")
            b = next(v for v, n in names.items() if n == f"c{j}[2]")
            assert g.is_grip((min(a, b), max(a, b)), deg)
        assert rep.input_param.value == 3 and rep.output_param.value == 14
        assert rep.k1 == 8 and rep.k2 == 0 and rep.shortness_ok

    def test_two_clause_formula(self):
        f = CnfFormula(2, ((1, 2), (-1, -2)))
        g, _ = sat2_to_2cvc3(f)
        assert g.num_vertices == 8
        assert oracles.solve_2sat(f)[0] and oracles.solve_2cvc(g)[0]

    def test_empty_formula_convention(self):
        g, _ = sat2_to_2cvc3(CnfFormula(0, ()))
        assert g == UGraph(0, ())
        assert oracles.solve_2cvc(g)[0] is True

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            sat2_to_2cvc3(CnfFormula(2, ((1, 2),)))  # removable literals

    def test_witness_transport(self):
        # normalization strips most small planted formulas to nothing, so
        # run enough trials to exercise a few dozen nonempty graphs
        spec = GenSpec("2sat3", max_size=9, seed=600, sat_bias=1.0)
        checked = 0
        for t in range(600):
            f = normalize_2sat3(generate(spec, t))
            ok, sigma = oracles.solve_2sat(f)
            if not ok or not f.clauses:
                continue
            g, _ = sat2_to_2cvc3(f)
            assert oracles.check_cover(g, cover_from_assignment(f, sigma))
            checked += 1
        assert checked > 30


class TestCheckeredCover:
    """README defect 2: `sat2_to_2cvc3`'s graph of every normalized formula
    has the 2-checkered cover `checkered_cover`, so the gadget maps every
    unsatisfiable source to YES."""

    def test_every_2sat3_family(self):
        checked = unsat = 0
        for spec, trials in sat_families():
            for t in range(trials):
                f = normalize_2sat3(generate(spec, t))
                assert oracles.check_cover(sat2_to_2cvc3(f)[0], checkered_cover(f)), (spec, t)
                checked += 1
                unsat += not oracles.solve_2sat(f)[0]
        assert unsat >= checked // 10, (unsat, checked)

    @pytest.mark.parametrize("f", [UNSAT_2SAT3_CANONICAL, UNSAT4])
    def test_unsatisfiable_fixtures(self, f):
        assert not oracles.solve_2sat(f)[0]
        assert oracles.check_cover(sat2_to_2cvc3(f)[0], checkered_cover(f))

    @settings(max_examples=50, deadline=None)
    @given(raw_2cnf())
    def test_drawn_normalized_formulas(self, raw):
        f = normalize_2sat3(raw)
        assert oracles.check_cover(sat2_to_2cvc3(f)[0], checkered_cover(f))


class TestPendantRepair:
    """The repair analysis beside README defect 2: `pendant_repair` maps a
    normalized formula to YES exactly when it is satisfiable, with degree at
    most 3 and m_ver <= 6 m_vbl. Criterion 2 keeps testing the paper's
    gadget."""

    @staticmethod
    def _satisfiable(f) -> bool:
        g = pendant_repair(f)
        assert validate(g, {"deg_bound": 3}) == []
        assert size_param(g, "m_ver") <= 6 * size_param(f, "m_vbl")
        yes, cover = oracles.solve_2cvc(g)
        assert yes == oracles.solve_2sat(f)[0]
        assert not yes or oracles.check_cover(g, cover)
        return yes

    # the seed-1 trials of each 2sat3 plan at default size; a --max-size
    # drops the clause caps, so the three plans then draw one family, here at
    # --max-size 30 and, subsampled, 1000
    @pytest.mark.parametrize("name,max_size,trials", [
        ("sat2_to_2cvc3", None, 300), ("sat2_to_3xce2", None, 300), ("normalize_2sat3", None, 300),
        ("sat2_to_2cvc3", 30, 200), ("sat2_to_2cvc3", 1000, 60)])
    def test_plan_families(self, name, max_size, trials):
        spec = harness.resolve(name, max_size=max_size).genspec
        assert spec.problem == "2sat3"
        verdicts = {self._satisfiable(normalize_2sat3(generate(spec, t))) for t in range(trials)}
        assert verdicts == {True, False}

    @pytest.mark.parametrize("f", [UNSAT_2SAT3_CANONICAL, UNSAT4])
    def test_unsatisfiable_fixtures(self, f):
        assert self._satisfiable(f) is False

    def test_size_is_six_per_variable(self):
        for f in (FIG1, FIG2, UNSAT_2SAT3_CANONICAL):
            assert pendant_repair(f).num_vertices == 6 * f.num_vars


class TestCvc3ToSat2:
    def test_path(self):
        f, rep = cvc3_to_sat2(UGraph(3, ((1, 2), (2, 3))))
        assert f.clauses == ((1, 2), (2, 3))
        assert oracles.solve_2sat(f)[0] and oracles.solve_2cvc(UGraph(3, ((1, 2), (2, 3))))[0]
        assert rep.input_param.value == rep.output_param.value == 3

    def test_star(self):
        star = UGraph(4, ((1, 2), (1, 3), (1, 4)))
        f, _ = cvc3_to_sat2(star)
        assert f.clauses == ((1, 2), (-1, -2), (1, 3), (-1, -3), (1, 4), (-1, -4))
        yes, sigma = oracles.solve_2sat(f)
        assert yes
        assert oracles.check_assignment(f, {1: True, 2: False, 3: False, 4: False})
        assert oracles.check_cover(star, {1})

    def test_empty(self):
        f, _ = cvc3_to_sat2(UGraph(0, ()))
        assert f == CnfFormula(0, ()) and oracles.solve_2sat(f)[0]

    def test_degree_limit(self):
        with pytest.raises(PreconditionError):
            cvc3_to_sat2(UGraph(5, ((1, 2), (1, 3), (1, 4), (1, 5))))


class TestSat2To3Xce2:
    def test_fig2_instance(self):
        x, rep = sat2_to_3xce2(FIG2)
        assert x.universe_size == 17  # 8 occurrences + 4 clause elts + 5 tags
        assert len(x.sets) == 16
        assert len(x.exempt) == 8
        assert validate(x, {"exactly_2": True}) == []
        yes, sel = oracles.solve_xce(x)
        assert yes and oracles.check_exact_cover(x, sel)
        assert oracles.solve_2sat(FIG2)[0]
        assert rep.k1 == 6 and rep.shortness_ok

    def test_two_clause_yes(self):
        f = CnfFormula(2, ((1, 2), (-1, -2)))
        x, _ = sat2_to_3xce2(f)
        assert oracles.solve_xce(x)[0] and oracles.solve_2sat(f)[0]

    def test_unsat_formula_maps_to_no(self):
        # normalized occ<=3 UNSAT core (the spec's own 4-clause example is
        # not in normalized shape; see the decisions ledger)
        assert is_normalized_2sat3(UNSAT4)
        assert oracles.solve_2sat(UNSAT4)[0] is False
        x, _ = sat2_to_3xce2(UNSAT4)
        assert oracles.solve_xce(x)[0] is False

    def test_empty_formula_convention(self):
        x, _ = sat2_to_3xce2(CnfFormula(0, ()))
        assert x == XceInstance(0, (), ())
        assert oracles.solve_xce(x)[0] is True


@pytest.mark.parametrize("gadget", [sat2_to_2cvc3, sat2_to_3xce2])
def test_formula_gadgets_share_their_precondition(gadget):
    """Variables without clauses are not normalized, as no variable occurs with
    both polarities; both gadgets reject them alike. The empty formula, which
    `normalize_2sat3` returns for a trivially satisfiable input, passes."""
    with pytest.raises(PreconditionError) as err:
        gadget(CnfFormula(3, ()))
    assert str(err.value) == ("variable 1 occurs 0 times positive and 0 negative, "
                              "normal form needs both and at most 3")
    gadget(CnfFormula(0, ()))  # raises nothing


class TestXce2To2Lp:
    def test_small_system_rows(self):
        x = XceInstance(3, (3,), ((1, 2), (2, 3)))
        s, rep = xce2_to_2lp(x)
        assert s.mode == "band" and s.num_rows == 3 and s.num_cols == 2
        rows = s.rows()
        assert rows[1] == [(1, 1)] and s.lower[0] == 1 and s.upper[0] == 1
        assert rows[2] == [(1, 1), (2, 1)] and s.lower[1] == 1
        assert rows[3] == [(2, 1)] and s.lower[2] == 0 and s.upper[2] == 1
        assert oracles.solve_lin(s) == (True, (1, 0))
        assert rep.input_param.value == rep.output_param.value == 2

    def test_uncovered_element_short_circuits(self):
        s, _ = xce2_to_2lp(XceInstance(1, (), ()))
        assert oracles.solve_lin(s)[0] is False

    def test_fig2_chain(self):
        x, _ = sat2_to_3xce2(FIG2)
        s, rep = xce2_to_2lp(x)
        assert oracles.solve_lin(s)[0] is True
        assert rep.output_param.value == size_param(x, "m_set")


class TestLpTo2Lp:
    def test_unit_bounds(self):
        s = LinSystem("geq", 1, 2, 3, ((1, 1, 1), (1, 2, 1)), (1,))
        out, _ = lp_to_2lp(s)
        assert out.mode == "band" and out.lower == (1,) and out.upper == (2,)
        assert oracles.solve_lin(out)[0]

    def test_absolute_sum_ceiling(self):
        s = LinSystem("geq", 1, 2, 3, ((1, 1, 2), (1, 2, -3)), (0,))
        out, _ = lp_to_2lp(s)
        assert out.upper == (5,)

    def test_empty(self):
        out, _ = lp_to_2lp(LinSystem("geq", 0, 0, 3, (), ()))
        assert oracles.solve_lin(out)[0] is True

    def test_feasibility_preserved(self):
        spec = GenSpec("lin_geq", max_size=8, seed=700)
        for t in range(300):
            s = generate(spec, t)
            out, rep = lp_to_2lp(s)
            assert oracles.solve_lin(s)[0] == oracles.solve_lin(out)[0]
            assert rep.shortness_ok


class TestTwoLpToLp:
    def test_doubling_shape_and_witness(self):
        s = LinSystem("band", 1, 2, 3, ((1, 1, 1), (1, 2, 1)), (1,), (2,))
        out, rep = twolp_to_lp(s)
        assert out.mode == "geq" and out.num_cols == 4 and out.num_rows == 6
        assert oracles.solve_lin(out) == (True, (0, 1, 0, 1))
        assert out.col_bound == s.col_bound + 2 and validate(out) == []
        assert rep.k1 == 6 and rep.shortness_ok

    def test_empty_band(self):
        s = LinSystem("band", 1, 1, 3, ((1, 1, 1),), (1,), (0,))
        out, _ = twolp_to_lp(s)
        assert oracles.solve_lin(s)[0] is False
        assert oracles.solve_lin(out)[0] is False

    def test_xce_chain(self):
        x = XceInstance(3, (3,), ((1, 2), (2, 3)))
        band, _ = xce2_to_2lp(x)
        out, _ = twolp_to_lp(band)
        assert oracles.solve_lin(out)[0] is True

    def test_unused_columns_pruned(self):
        s = LinSystem("band", 1, 9, 3, ((1, 4, 1),), (0,), (1,))
        out, _ = twolp_to_lp(s)
        assert out.num_cols == 2


class TestLeToXor2Sat:
    def test_fixed_pair(self):
        s = LinSystem("eq", 1, 2, 3, ((1, 1, 2), (1, 2, 1)), (1,))
        out, _ = le_to_xor2sat(s)
        assert out.constraints == (Unit(1, 0), Unit(2, 1))

    def test_parity_row(self):
        s = LinSystem("eq", 1, 2, 3, ((1, 1, 1), (1, 2, 1)), (1,))
        out, _ = le_to_xor2sat(s)
        assert out.constraints == (Parity(1, 2, 1),)

    def test_unreachable_rhs(self):
        s = LinSystem("eq", 1, 2, 3, ((1, 1, 1), (1, 2, 1)), (5,))
        out, rep = le_to_xor2sat(s)
        assert rep.notes["unsat_marker"]
        assert oracles.solve_xor2sat(out) is False

    def test_one_variable_free(self):
        # x1 + x2 = 0 over {0,1}: the only solution is (0,0)
        s = LinSystem("eq", 1, 2, 3, ((1, 1, 1), (1, 2, -1)), (0,))
        out, _ = le_to_xor2sat(s)
        assert out.constraints == (Parity(1, 2, 0),)

    def test_oracle_chain(self):
        spec = GenSpec("lin_eq", max_size=10, seed=800)
        for t in range(300):
            s = generate(spec, t)
            out, rep = le_to_xor2sat(s)
            assert oracles.solve_xor2sat(out) == oracles.solve_lin(s)[0]
            scan = first_hit(out.num_vars, (0, 1), lambda bits: parities_hold(out, bits))
            assert (scan is not None) == oracles.solve_xor2sat(out)
            assert rep.shortness_ok


class TestNormalizeDstcon:
    def test_fig3_gains_only_endpoints(self):
        out, rep = normalize_dstcon(FIG3)
        assert out.num_vertices == 8  # no indegree/outdegree reaches 3
        assert _dstcon(out) == _dstcon(FIG3) is True
        assert rep.k1 == 4 and rep.k2 == 4 and rep.shortness_ok

    def test_direct_edge_subdivision(self):
        out, _ = normalize_dstcon(Digraph(2, ((1, 2),), 1, 2))
        assert out.num_vertices == 5 and len(out.edges) == 4
        assert _dstcon(out) is True
        indeg = [0] * (out.num_vertices + 1)
        outdeg = [0] * (out.num_vertices + 1)
        for u, v in out.edges:
            outdeg[u] += 1
            indeg[v] += 1
        assert indeg[out.s] == 0 and outdeg[out.s] == 1
        assert indeg[out.t] == 1 and outdeg[out.t] == 0

    def test_outdegree_split(self):
        g = Digraph(4, ((1, 2), (1, 3), (1, 4)), 1, 4)
        out, _ = normalize_dstcon(g)
        indeg = [0] * (out.num_vertices + 1)
        outdeg = [0] * (out.num_vertices + 1)
        for u, v in out.edges:
            outdeg[u] += 1
            indeg[v] += 1
        assert max(indeg) <= 2 and max(outdeg) <= 2
        assert _dstcon(out) is True

    def test_reachability_preserved(self):
        spec = GenSpec("digraph4", max_size=7, seed=900, deg_bound=3)
        for t in range(300):
            g = generate(spec, t)
            out, _ = normalize_dstcon(g)
            assert _dstcon(out) == _dstcon(g)


class TestDstconToAp2dm:
    def test_fig3_instance(self):
        a, rep = dstcon_to_ap2dm(FIG3)
        assert a.universe_size == 14
        assert len(a.exempt) == 4
        assert validate(a, {"overlap_bound": 4}) == []
        assert rep.output_param.value == 3 * (rep.input_param.value - 2) + 2
        assert rep.shortness_ok

    def test_no_instance_stays_no(self):
        g = Digraph(6, ((5, 2), (3, 2), (2, 4), (4, 3)), 5, 6)  # (v3,t) removed
        a, _ = dstcon_to_ap2dm(g)
        assert _dstcon(g) is False
        assert oracles.solve_ap2dm(a)[0] is False

    def test_minimal_graph_exposes_source_defect(self):
        # one intermediate vertex: reachable by BFS, yet no perfect matching
        # of the gadget links s to t under the literal chain rule (verified
        # exhaustively; see the decisions ledger)
        g = Digraph(3, ((1, 2), (2, 3)), 1, 3)
        a, _ = dstcon_to_ap2dm(g)
        assert _dstcon(g) is True
        yes, fail = oracles.solve_ap2dm(a)
        assert yes is False and set(fail) == {1, 2}  # the (s, t) pair itself
        # the only gadget whose chain ends coincide: its anchors appear once
        assert a.pairs == ((5, 3), (3, 4), (4, 1), (2, 5), (1, 3), (3, 2))
        assert a.exempt == (3,)
        assert dstcon_to_ap2dm(Digraph(2, (), 1, 2))[0] == Ap2dmInstance(2, (), ())

    def test_precondition_checks(self):
        with pytest.raises(PreconditionError):
            dstcon_to_ap2dm(Digraph(2, ((1, 2),), 1, 2))  # direct s->t edge
        with pytest.raises(PreconditionError):
            dstcon_to_ap2dm(Digraph(3, ((1, 2), (2, 3), (2, 1)), 1, 3))  # s degree 2

    def test_never_maps_no_to_yes(self):
        spec = GenSpec("dstcon_raw", max_size=5, seed=901)
        for t in range(150):
            g = normalize_dstcon(generate(spec, t))[0]
            a, _ = dstcon_to_ap2dm(g)
            if not _dstcon(g):
                assert oracles.solve_ap2dm(a)[0] is False


class TestTuringReduction:
    def test_fig3_queries(self):
        a, _ = dstcon_to_ap2dm(FIG3)
        graphs, asks = [], []
        yes, rep = ap2dm_to_dstcon_queries(a, _counting_oracle(graphs, asks))
        assert yes is True
        assert len(rep.queries) == len(asks) == 170  # <= 182 distinct ordered pairs
        assert all(q.size == 14 for q in rep.queries)
        assert graphs == [(14, a.pairs)]
        assert rep.shortness_ok

    def test_call_contract(self):
        """One oracle call per instance on its query graph, then one ask per
        logged query, in log order: v < w, (v, w) before (w, v), pairs of two
        exempt elements skipped."""
        plan = harness.resolve("ap2dm_to_dstcon_queries")
        corpus = [plan.prepare(generate(plan.genspec, t)) for t in range(200)]
        for max_size in (5, 6, 7, 8):
            spec = GenSpec("ap2dm", max_size=max_size, seed=40 + max_size)
            corpus += [generate(spec, t) for t in range(50)]
        issued = 0
        for a in corpus:
            graphs, asks = [], []
            yes, rep = ap2dm_to_dstcon_queries(a, _counting_oracle(graphs, asks))
            n, exempt = a.universe_size, set(a.exempt)
            order = [q for v in range(1, n + 1) for w in range(v + 1, n + 1)
                     if not (v in exempt and w in exempt) for q in ((v, w), (w, v))]
            if rep.queries:
                issued += 1
                assert graphs == [(n, a.pairs)]
            assert [(s, t) for s, t, _ in asks] == order
            assert [answer for _, _, answer in asks] == [q.answer for q in rep.queries]
            assert yes == all(answer for _, _, answer in asks)
        assert issued > 300

    def test_trivial_only_pair_fails(self):
        a = Ap2dmInstance(2, (), ())
        yes, rep = ap2dm_to_dstcon_queries(a, oracles.dstcon_oracle)
        assert yes is False
        assert any(not q.answer for q in rep.queries)

    def test_single_element_no_queries(self):
        yes, rep = ap2dm_to_dstcon_queries(Ap2dmInstance(1, (), ()), oracles.dstcon_oracle)
        assert yes is True and rep.queries == []

    def test_overlap_precondition(self):
        a = Ap2dmInstance(5, (), ((1, 2), (1, 3), (1, 4), (1, 5)))
        with pytest.raises(PreconditionError):
            ap2dm_to_dstcon_queries(a, oracles.dstcon_oracle)

    def test_oracle_errors_propagate(self):
        def broken(s, t):
            raise RuntimeError("oracle down")

        with pytest.raises(RuntimeError):
            ap2dm_to_dstcon_queries(Ap2dmInstance(2, (), ((1, 2), (2, 1))),
                                    lambda n, edges: broken)


class TestReduceDegree:
    def test_two_in_two_out_becomes_pair(self):
        g = Digraph(5, ((2, 1), (3, 1), (1, 4), (1, 5)), 2, 5)
        out, rep = reduce_degree_dstcon(g)
        assert out.num_vertices == 6  # vertex 1 splits into a pair
        deg = [0] * (out.num_vertices + 1)
        for u, v in out.edges:
            deg[u] += 1
            deg[v] += 1
        assert max(deg) <= 3
        assert _dstcon(out) == _dstcon(g)

    def test_degree_3_graph_unchanged(self):
        g = Digraph(3, ((1, 2), (2, 3)), 1, 3)
        out, _ = reduce_degree_dstcon(g)
        assert out == g

    def test_fig3_query_graph(self):
        a, _ = dstcon_to_ap2dm(FIG3)
        edges, n = a.pairs, a.universe_size
        for s, t in [(1, 2), (2, 1), (3, 10), (7, 14)]:
            g = Digraph(n, edges, s, t)
            out, _ = reduce_degree_dstcon(g)
            deg = [0] * (out.num_vertices + 1)
            for u, v in out.edges:
                deg[u] += 1
                deg[v] += 1
            assert max(deg) <= 3
            assert _dstcon(out) == _dstcon(g)

    def test_reachability_all_pairs(self):
        spec = GenSpec("digraph4", max_size=8, seed=902, deg_bound=6)
        for t in range(100):
            g = generate(spec, t)
            out, _ = reduce_degree_dstcon(g)
            assert _dstcon(out) == _dstcon(g)

    def test_shortness_on_degree_4_inputs(self):
        spec = GenSpec("digraph4", max_size=10, seed=903, deg_bound=4)
        for t in range(200):
            g = generate(spec, t)
            out, rep = reduce_degree_dstcon(g)
            assert rep.shortness_ok, g


class TestMembershipEquivalenceSweeps:
    """1000-trial equivalence sweeps for the operations the acceptance
    criteria do not already run at that volume."""

    @pytest.mark.parametrize("name", ["normalize_2sat3", "normalize_dstcon",
                                      "reduce_degree_dstcon"])
    def test_thousand_trials(self, name):
        from redlab.harness import resolve, verify

        r = verify(name, resolve(name), 1000)
        assert not r.equiv_failures
        assert not r.shortness_failures


class TestReportFormat:
    def test_m_reduction_line(self):
        _, rep = sat2_to_2cvc3(FIG1)
        line = rep.to_text().splitlines()[0]
        assert line == "REDUCE sat2_to_2cvc3\tIN m_vbl=3\tOUT m_ver=14\tK1 8\tK2 0\tSHORT ok"

    def test_query_lines(self):
        a, _ = dstcon_to_ap2dm(FIG3)
        _, rep = ap2dm_to_dstcon_queries(a, oracles.dstcon_oracle)
        lines = rep.to_text().splitlines()
        assert lines[1].startswith("QUERY 1\tSIZE 14\tANSWER ")
        assert len(lines) == 1 + 170


# One input per reduction that `validate` rejects, each otherwise shaped
# like that reduction's input (normalized, the right LP mode, ...).
INVALID_INPUTS = {
    "normalize_2sat3": CnfFormula(2, ((1, 3),)),
    "sat2_to_2cvc3": CnfFormula(1, ((1, -2), (-1, 2))),
    "cvc3_to_sat2": UGraph(3, ((1, 2), (2, 2))),
    "sat2_to_3xce2": CnfFormula(2, ((0, 1), (-1, 2), (-2, 1))),
    "xce2_to_2lp": XceInstance(3, (), ((0, 1), (-1, 2))),
    "lp_to_2lp": LinSystem("geq", 2, 1, 1, ((1, 1, 1), (2, 1, 1)), (0, 0)),
    "twolp_to_lp": LinSystem("band", 1, 2, 3, ((1, 1, 1), (1, 3, 1)), (0,), (1,)),
    "le_to_xor2sat": LinSystem("eq", 1, 1, 3, ((1, 1, 0),), (0,)),
    "normalize_dstcon": Digraph(3, ((0, 1), (0, 2), (0, 3), (2, 0)), 1, 3),
    "dstcon_to_ap2dm": Digraph(4, ((1, 2), (2, 2), (2, 4)), 1, 4),
    "reduce_degree_dstcon": Digraph(3, ((1, 2), (2, 5)), 1, 3),
}

# One valid instance of every class, each fed to the reductions of the others
ONE_OF_EACH = [CnfFormula(0, ()), Digraph(2, (), 1, 2), UGraph(0, ()), XceInstance(0, (), ()),
               Ap2dmInstance(1, (), ()), LinSystem("eq", 0, 0, 0, (), ()), XorSystem(0, ())]
WRONG_CLASS = [(name, x) for name, bad in INVALID_INPUTS.items()
               for x in ONE_OF_EACH if type(x) is not type(bad)]


class TestRejectWhatValidateRejects:
    def test_every_reduction_covered(self):
        from redlab.reductions import REDUCTIONS

        assert set(INVALID_INPUTS) == set(REDUCTIONS)

    @pytest.mark.parametrize("name", list(INVALID_INPUTS))
    def test_first_violation_raised(self, name):
        from redlab.reductions import REDUCTIONS

        x = INVALID_INPUTS[name]
        bad = validate(x)
        assert bad
        with pytest.raises(PreconditionError) as err:
            REDUCTIONS[name](x)
        assert str(err.value) == bad[0].detail

    def test_one_instance_of_every_class(self):
        assert {type(x) for x in ONE_OF_EACH} == set(PROBLEMS)

    @pytest.mark.parametrize(("name", "x"), WRONG_CLASS,
                             ids=[f"{name}-{type(x).__name__}" for name, x in WRONG_CLASS])
    def test_wrong_class(self, name, x):
        from redlab.reductions import REDUCTIONS

        want, got = type(INVALID_INPUTS[name]).__name__, type(x).__name__
        with pytest.raises(PreconditionError, match=f"^expected a {want}, got a {got}$"):
            REDUCTIONS[name](x)

    def test_wrong_class_of_the_oracle_reduction(self):
        with pytest.raises(PreconditionError, match="^expected a Ap2dmInstance, got a Digraph$"):
            ap2dm_to_dstcon_queries(FIG3, oracles.dstcon_oracle)

    @pytest.mark.parametrize(("reduce", "x", "detail"), [
        (lp_to_2lp, LinSystem("band", 0, 0, 0, (), (), ()), "mode 'band', expected 'geq'"),
        (twolp_to_lp, LinSystem("eq", 0, 0, 0, (), ()), "mode 'eq', expected 'band'"),
        (le_to_xor2sat, LinSystem("geq", 0, 0, 0, (), ()), "mode 'geq', expected 'eq'"),
        (normalize_dstcon, Digraph(5, ((2, 1), (3, 1), (4, 1), (5, 1)), 2, 1),
         "vertex 1 has indegree 4 / outdegree 0, componentwise bound 3"),
    ], ids=["lp_to_2lp", "twolp_to_lp", "le_to_xor2sat", "normalize_dstcon"])
    def test_restrictions_are_tags(self, reduce, x, detail):
        """The LP modes and normalize_dstcon's in- and outdegree bound are
        `validate` tags: an input valid untagged fails its reduction's tag
        with that tag's detail."""
        assert validate(x) == []
        with pytest.raises(PreconditionError) as err:
            reduce(x)
        assert str(err.value) == detail

    def test_tags_of_the_input_class(self):
        """cvc3_to_sat2 asks for degree 3, the oracle reduction for 4-overlap."""
        star = UGraph(5, ((1, 2), (1, 3), (1, 4), (1, 5)))
        with pytest.raises(PreconditionError, match="^vertex 1 has degree 4, bound 3$"):
            cvc3_to_sat2(star)
        a = Ap2dmInstance(5, (), ((1, 2), (1, 3), (1, 4), (1, 5)))
        with pytest.raises(PreconditionError, match="^element 1 has 5 right partners, bound 4$"):
            ap2dm_to_dstcon_queries(a, oracles.dstcon_oracle)

    def test_out_of_range_edge_under_degree_tag(self):
        with pytest.raises(PreconditionError) as err:
            cvc3_to_sat2(UGraph(3, ((1, 2), (2, 5))))
        assert str(err.value) == "edge {2,5} out of range"
