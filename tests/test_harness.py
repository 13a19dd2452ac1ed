import inspect
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import redlab
from redlab import harness, oracles, reductions
from redlab.harness import (
    CORRUPTED,
    FRONT_SHUFFLE_MIN,
    GENERATORS,
    OCC_BOUND,
    OVERLAP_BOUND,
    GenSpec,
    GenerationError,
    SplitMix64,
    VerifyResult,
    default_plans,
    fit_shortness,
    generate,
    verify_m_reduction,
    verify_T_reduction,
    _resolve,
    _settle,
    _shuffled_front,
    _verify,
)
from redlab.instances import CnfFormula, XceInstance, serialize, validate
from references import linked_by_chain

# tags each generated class must validate against
GEN_TAGS = {
    "2sat3": lambda spec: {"occ_bound": OCC_BOUND},
    "ugraph3": lambda spec: {"deg_bound": spec.deg_bound},
    "dstcon_raw": lambda spec: {},
    "digraph4": lambda spec: {"deg_bound": spec.deg_bound},
    "xce": lambda spec: {},
    "ap2dm": lambda spec: {"overlap_bound": OVERLAP_BOUND},
    "lin_geq": lambda spec: {},
    "lin_band": lambda spec: {},
    "lin_eq": lambda spec: {},
    "xor": lambda spec: {},
}


def run_python(code: str):
    """Runs code in a fresh interpreter that imports this redlab."""
    src = str(Path(redlab.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr


class TestSplitMix64:
    def test_reference_stream(self):
        # first outputs for seed 0 of the published SplitMix64 algorithm
        rng = SplitMix64(0)
        assert rng.next64() == 0xE220A8397B1DCDAF
        assert rng.next64() == 0x6E789E6AA1B965F4
        assert rng.next64() == 0x06C45D188009454F

    def test_bounds(self):
        rng = SplitMix64(42)
        assert all(0 <= rng.randrange(7) < 7 for _ in range(200))
        assert all(3 <= rng.randint(3, 5) <= 5 for _ in range(200))

    @given(seed=st.integers(0, (1 << 64) - 1), n=st.integers(1, 1 << 70),
           a=st.integers(-100, 100), span=st.integers(0, 1000), p=st.floats(0.0, 1.0))
    @settings(max_examples=300)
    def test_scalar_draws_keep_the_stream(self, seed, n, a, span, p):
        # randrange and chance mix inline; reference: the formulas over next64
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        assert rng.randrange(n) == ref.next64() % n
        assert rng.state == ref.state
        assert rng.randint(a, a + span) == a + ref.next64() % (span + 1)
        assert rng.state == ref.state
        assert rng.chance(p) == ((ref.next64() >> 11) / float(1 << 53) < p)
        assert rng.state == ref.state

    @pytest.mark.parametrize("seed", [0, 42, (1 << 64) - 1])
    def test_shuffle_keeps_the_stream(self, seed):
        # reference: the literal Fisher-Yates over next64
        for n in range(131):
            rng, ref = SplitMix64(seed), SplitMix64(seed)
            got, want = list(range(n)), list(range(n))
            rng.shuffle(got)
            for i in range(n - 1, 0, -1):
                j = ref.next64() % (i + 1)
                want[i], want[j] = want[j], want[i]
            assert got == want, n
            # the state advanced by exactly n - 1 draws
            assert [rng.next64() for _ in range(5)] == [ref.next64() for _ in range(5)], n

    @pytest.mark.parametrize("seed", [0, 42, (1 << 64) - 1])
    def test_shuffled_front_keeps_the_stream(self, seed):
        # reference: shuffle a copy and cut it; n crosses the front threshold,
        # and k reaches 8, the longest front _plant_unsat_core takes
        assert 12 < FRONT_SHUFFLE_MIN < 200
        sizes = [0, 1, 2, 3, 12, FRONT_SHUFFLE_MIN - 1, FRONT_SHUFFLE_MIN, FRONT_SHUFFLE_MIN + 1,
                 200, 1000, 4000]
        for n in sizes:
            items = [3 * x + 1 for x in range(n)]
            for k in sorted({0, 1, 2, 3, 8, max(n - 1, 0), n, n + 1}):
                rng, ref = SplitMix64(seed), SplitMix64(seed)
                want = items[:]
                ref.shuffle(want)
                assert _shuffled_front(items, k, rng) == want[:k], (n, k)
                assert items == [3 * x + 1 for x in range(n)]
                assert [rng.next64() for _ in range(5)] == [ref.next64() for _ in range(5)], (n, k)

    def test_first_batched_draw_keeps_the_stream(self):
        # the first batched draw of a fresh interpreter imports numpy and
        # builds its constants; it must give the literal scalar Fisher-Yates
        run_python(f"""
            import sys
            from redlab.harness import SplitMix64, _shuffled_front
            items = list(range({FRONT_SHUFFLE_MIN}))
            rng, ref = SplitMix64(7), SplitMix64(7)
            want = items[:]
            assert "numpy" not in sys.modules
            got = _shuffled_front(items, 3, rng)
            assert "numpy" in sys.modules
            for i in range(len(want) - 1, 0, -1):
                j = ref.next64() % (i + 1)
                want[i], want[j] = want[j], want[i]
            assert got == want[:3], (got, want)
            assert rng.next64() == ref.next64()
        """)

    def test_long_shuffle_needs_no_numpy(self):
        # in a fresh interpreter, since this one may hold numpy already
        run_python("""
            import sys
            from redlab.harness import SplitMix64
            rng, ref = SplitMix64(7), SplitMix64(7)
            got, want = list(range(1000)), list(range(1000))
            rng.shuffle(got)
            assert "numpy" not in sys.modules
            for i in range(999, 0, -1):
                j = ref.next64() % (i + 1)
                want[i], want[j] = want[j], want[i]
            assert got == want
            assert rng.next64() == ref.next64()
        """)


def test_default_runs_start_without_numpy(tmp_path):
    """numpy serves only `_shuffled_front` on long lists, so importing
    redlab and running default-size verify, gen and fit leave it unloaded.
    In a fresh interpreter, because this one may hold numpy already."""
    run_python(f"""
        import sys
        import redlab, redlab.cli
        run = str({str(tmp_path)!r})
        for name in ("sat2_to_2cvc3", "xce2_to_2lp", "lp_to_2lp", "dstcon_to_ap2dm"):
            assert redlab.cli.main(["verify", name, "--run-dir", run, "--no-timing"]) == 0
        assert redlab.cli.main(["gen", "xce", "--size", "9", "-o", run + "/x.txt"]) == 0
        assert redlab.cli.main(["fit", "xce2_to_2lp"]) == 0
        assert "numpy" not in sys.modules, "numpy loaded"
    """)


class TestGenerate:
    def test_deterministic_in_seed(self):
        spec = GenSpec("2sat3", max_size=10, seed=7)
        assert generate(spec, 0) == generate(spec, 0)
        assert serialize(generate(spec, 3)) == serialize(generate(spec, 3))

    def test_trials_differ(self):
        spec = GenSpec("xce", max_size=9, seed=7)
        assert len({serialize(generate(spec, t)) for t in range(20)}) > 1

    def test_overfull_clause_count_rejected(self):
        # 16 clauses need 32 literal slots; 10 variables offer only 30
        with pytest.raises(GenerationError):
            generate(GenSpec("2sat3", max_size=10, seed=1, clauses=16))

    def test_exact_clause_count_honored(self):
        f = generate(GenSpec("2sat3", max_size=10, seed=5, clauses=15))
        assert f.num_vars == 10 and len(f.clauses) == 15

    def test_exact_clause_count_over_grid(self):
        # a planted unsatisfiable core must fit the requested count too; one
        # variable offers a literal slot but no clean 2-literal clause
        for n in range(1, 13):
            for k in range(3 * n // 2 + 1):
                for seed in range(40):
                    spec = GenSpec("2sat3", max_size=n, seed=seed, clauses=k)
                    if (n, k) == (1, 1):
                        with pytest.raises(GenerationError, match=r"outside 0\.\.0"):
                            generate(spec)
                        continue
                    f = generate(spec)
                    assert (f.num_vars, len(f.clauses)) == (n, k), (n, k, seed)

    def test_unknown_problem(self):
        with pytest.raises(GenerationError):
            generate(GenSpec("nope", max_size=3, seed=0))

    def test_validity_sweep_1000_per_class(self):
        for prob in GENERATORS:
            spec = GenSpec(prob, max_size=8, seed=13)
            tags = GEN_TAGS[prob](spec)
            for t in range(1000):
                assert not validate(generate(spec, t), tags), (prob, t)

    def test_2sat3_no_side_coverage(self):
        spec = GenSpec("2sat3", max_size=10, seed=21)
        answers = {oracles.solve_2sat(generate(spec, t))[0] for t in range(60)}
        assert answers == {True, False}


class TestVerify:
    def test_result_text_deterministic(self):
        a = verify_m_reduction("lp_to_2lp", 60)
        b = verify_m_reduction("lp_to_2lp", 60)
        assert a.to_text(include_timing=False) == b.to_text(include_timing=False)

    def test_seed_changes_family(self):
        # trial t of a run at seed s draws from seed s + t: runs at seeds 1
        # and 2 share the trial seeds 2..40 and differ at 1 and 41
        a = verify_m_reduction("bad_cvc3_to_sat2", 40, seed=1).equiv_failures
        b = verify_m_reduction("bad_cvc3_to_sat2", 40, seed=2).equiv_failures
        assert a[0][0] == 1 and b[-1][0] == 41
        assert [f for f in a if f[0] >= 2] == [f for f in b if f[0] <= 40]

    @pytest.mark.parametrize("name,half,seed,max_size,kind", [
        ("bad_cvc3_to_sat2", 40, 1, None, "equiv_failures"),
        ("dstcon_to_ap2dm", 10, 3, 14, "skipped"),
    ])
    def test_seed_ranges_split_a_run(self, name, half, seed, max_size, kind):
        # trial t draws seed + t, so 2T trials at seed s are T trials at s and
        # T at s + T: runs can be split into seed ranges and merged
        a = verify_m_reduction(name, half, max_size, seed)
        b = verify_m_reduction(name, half, max_size, seed + half)
        assert getattr(a, kind) and getattr(b, kind)
        lists = ("equiv_failures", "shortness_failures", "structural_failures",
                 "findings", "skipped")
        merged = VerifyResult(name, 2 * half, max_ratio=max(a.max_ratio, b.max_ratio),
                              **{f: getattr(a, f) + getattr(b, f) for f in lists})
        assert replace(verify_m_reduction(name, 2 * half, max_size, seed), wall_time=0.0) == merged

    @pytest.mark.parametrize("name, over", [
        ("sat2_to_2cvc3", lambda f: f.num_vars + len(f.clauses) > 13),  # vc_budget=13
        ("sat2_to_3xce2", lambda f: len(f.clauses) > 6),  # max_clauses=6
    ])
    def test_max_size_drops_the_clause_caps(self, name, over):
        plan = _resolve(name, 1, 50)
        formulas = [plan.prepare(generate(plan.genspec, t)) for t in range(20)]
        assert any(f.clauses and over(f) for f in formulas)

    def test_failures_do_not_abort(self):
        r = verify_m_reduction("bad_cvc3_to_sat2", 120)
        assert r.trials == 120
        assert len(r.equiv_failures) >= 1
        # counterexamples carry a reproducing seed and the serialized input
        seed, text = r.equiv_failures[0]
        assert isinstance(seed, int) and text.startswith("p ")

    def test_unknown_name(self):
        with pytest.raises(GenerationError):
            verify_m_reduction("no_such_reduction", 5)

    def test_invalid_reduce_input_skipped(self):
        """An input `validate` rejects skips the trial with its first detail."""
        from redlab.instances import LinSystem

        bad = LinSystem("geq", 2, 1, 1, ((1, 1, 1), (2, 1, 1)), (0, 0))
        plan = replace(default_plans()["lp_to_2lp"], prepare=lambda s: bad)
        rec = _settle(plan, True, generate(plan.genspec, 0))
        assert rec.skipped == "column 1 has 2 nonzeros, bound 1" and rec.report is None


VERIFY_NAMES = [*default_plans(), *CORRUPTED, "ap2dm_to_dstcon_queries"]


def _counted(monkeypatch, module, name: str) -> list:
    """Puts a wrapper on module.name that records each argument it gets."""
    calls, fn = [], getattr(module, name)

    def counted(x, *args, **kwargs):
        calls.append(x)
        return fn(x, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestMemo:
    """A run settles each distinct generated instance once, in a memo of
    its own, and reports exactly what it would report without one."""

    def test_verify_decides_each_distinct_gadget_once(self, monkeypatch):
        # `decide` finds the matching oracle in `oracles` when called
        spec = _resolve("dstcon_to_ap2dm", 1, None).genspec
        distinct = len({generate(spec, t) for t in range(1000)})
        assert distinct == 49
        calls = _counted(monkeypatch, oracles, "solve_ap2dm")
        first = verify_m_reduction("dstcon_to_ap2dm", 1000, seed=1)
        assert len(calls) == distinct
        # the memo ends with its run: an equal run does the work again
        second = verify_m_reduction("dstcon_to_ap2dm", 1000, seed=1)
        assert len(calls) == 2 * distinct
        assert replace(first, wall_time=0.0) == replace(second, wall_time=0.0)
        # with no room in the memo every trial decides its own gadget
        monkeypatch.setattr(harness, "MEMO_ENTRIES", 0)
        verify_m_reduction("dstcon_to_ap2dm", 1000, seed=1)
        assert len(calls) == 2 * distinct + 1000

    def test_fit_reduces_each_distinct_instance_once(self, monkeypatch):
        # plans bind the reduction when `_resolve` builds them, after the patch
        spec = _resolve("dstcon_to_ap2dm", 1, None).genspec
        distinct = len({generate(spec, t) for t in range(1000)})
        calls = _counted(monkeypatch, reductions, "dstcon_to_ap2dm")
        first = fit_shortness("dstcon_to_ap2dm", 1000, seed=1)
        assert len(calls) == distinct  # the memo is keyed by the generated instance
        assert fit_shortness("dstcon_to_ap2dm", 1000, seed=1) == first
        assert len(calls) == 2 * distinct

    def test_skip_repeats_at_every_seed(self):
        plan = default_plans()["cvc3_to_sat2"]
        target = generate(plan.genspec, 22)
        seeds = [1 + t for t in range(200) if generate(plan.genspec, t) == target]
        assert len(seeds) > 1
        refusals = []

        def refuse(g):
            if g == target:
                refusals.append(g)
                raise reductions.PreconditionError("refused")
            return reductions.cvc3_to_sat2(g)

        r = _verify("cvc3_to_sat2", replace(plan, reduce=refuse), 200)
        assert r.skipped == [(seed, "refused") for seed in seeds]
        assert len(refusals) == 1

    @pytest.mark.parametrize("cap", [0, 2])
    def test_cap_changes_no_result(self, monkeypatch, cap):
        def results():
            runs = [verify_m_reduction(name, 200, seed=seed)
                    for name in VERIFY_NAMES for seed in (1, 7920)]
            runs.append(verify_m_reduction("sat2_to_2cvc3", 100, max_size=50))
            return [replace(r, wall_time=0.0) for r in runs]

        want = results()
        assert any(r.equiv_failures for r in want) and any(r.structural_failures for r in want)
        monkeypatch.setattr(harness, "MEMO_ENTRIES", cap)
        assert results() == want


class TestTuringVerify:
    def test_strict_mode_counts_disagreements(self):
        r = verify_T_reduction(20, seed=5)
        assert r.trials == 20
        # per-query size bound holds even where the oracles disagree
        assert r.max_ratio <= 1.0
        assert not r.shortness_failures

    def test_exploratory_mode_records_findings(self):
        r = verify_T_reduction(20, seed=5, exploratory=True, max_size=6)
        # disagreements on arbitrary instances are findings, never failures
        assert r.equiv_failures == []
        # the only findings are the disagreeing instances themselves
        assert all(text.startswith("p ap2dm ") for _, text in r.findings)
        # the harness keeps no symmetry statistics because the literal chain
        # linkage is symmetric on every matching; check it on these instances
        spec = GenSpec("ap2dm", max_size=6, seed=5)
        for t in range(20):
            a = generate(spec, t)
            n = a.universe_size
            for pi in oracles.perfect_matchings(a):
                for v in range(1, n + 1):
                    for w in range(v + 1, n + 1):
                        assert linked_by_chain(a, pi, v, w) == \
                            linked_by_chain(a, pi, w, v), (a, pi, v, w)


class TestFit:
    def test_sat2_to_2cvc3_within_declared(self):
        fit = fit_shortness("sat2_to_2cvc3", 300)
        assert fit["declared"] == (8, 0)
        # observed vertices are 2(n + m) <= 5n on occurrence-3 inputs
        assert fit["fit_k1_with_k2_0"] <= 5.0
        assert fit["max_ratio"] <= 5.0 / 8.0

    def test_dstcon_to_ap2dm_exact_form(self):
        fit = fit_shortness("dstcon_to_ap2dm", 100)
        assert fit["declared"] == (3, 2)
        assert fit["max_ratio"] <= 1.0

    def test_turing_query_ratio_is_one(self):
        r = verify_T_reduction(15, seed=9)
        assert r.max_ratio == 1.0


class TestMutationSensitivity:
    def test_every_fixture_caught_within_200(self):
        assert len(CORRUPTED) >= 3
        for name in CORRUPTED:
            r = verify_m_reduction(name, 200)
            assert len(r.equiv_failures) >= 1, name


def _split_over_3(g):
    """normalize_dstcon made to split only vertices of in- or outdegree over
    3, so degree-3 vertices break its contract but not reachability."""
    source = inspect.getsource(reductions.normalize_dstcon)
    assert source.count("d > 2}") == 2
    namespace = dict(vars(reductions))
    exec(source.replace("d > 2}", "d > 3}"), namespace)
    return namespace["normalize_dstcon"](g)


class TestNormalFormPostchecks:
    """Each normalize step's stated output contract is a plan tag, so a step
    that keeps membership but breaks its contract is caught."""

    def test_dstcon_split_mutant_caught(self):
        plan = replace(default_plans()["normalize_dstcon"], reduce=_split_over_3)
        r = _verify("split_over_3", plan, 1000)
        assert r.equiv_failures == [] and not r.skipped
        # one failure per vertex over the bound, in 158 trials
        assert len(r.structural_failures) == 190
        assert len({seed for seed, _ in r.structural_failures}) == 158
        assert r.structural_failures[0] == (
            4, "normal_form:vertex 5 has indegree 3 / outdegree 0, bound 2")

    @pytest.mark.parametrize("name, struct", [
        ("normalize_2sat3", "normal_form:"),
        ("reduce_degree_dstcon", "deg_bound:"),
    ])
    def test_identity_step_caught(self, name, struct):
        """Returning the raw input keeps membership and breaks the contract."""
        plan = replace(default_plans()[name], reduce=lambda x: (x, None))
        r = _verify(name, plan, 100)
        assert r.equiv_failures == [] and r.structural_failures
        assert all(msg.startswith(struct) for _, msg in r.structural_failures)


class TestWitnessCheck:
    def test_rejected_yes_witness_is_structural(self, monkeypatch):
        """A decider that says YES with a flipped assignment is caught by
        its checker; the engine finds the decider in `oracles` when called."""
        honest = verify_m_reduction("normalize_2sat3", 100)
        assert honest.structural_failures == [] and not honest.skipped
        solve = oracles.solve_2sat

        def flipped(f):
            _, assignment = solve(f)
            assignment = assignment or dict.fromkeys(range(1, f.num_vars + 1), False)
            return True, {v: not b for v, b in assignment.items()}

        monkeypatch.setattr(oracles, "solve_2sat", flipped)
        r = verify_m_reduction("normalize_2sat3", 100)
        assert r.structural_failures
        assert {msg for _, msg in r.structural_failures} == {"witness:CnfFormula"}

    def test_bool_output_is_its_own_verdict(self):
        """The oracle reduction's bool answer is compared with the matching
        oracle's verdict on its input, with nothing to check."""
        from redlab.harness import _ap2dm_gadget

        r = verify_m_reduction("ap2dm_to_dstcon_queries", 40, seed=5)
        spec = GenSpec("dstcon_raw", max_size=5, seed=5)
        expected = []
        for t in range(40):
            a = _ap2dm_gadget(generate(spec, t))
            yes, _ = reductions.ap2dm_to_dstcon_queries(a, oracles.dstcon_oracle)
            if yes != oracles.solve_ap2dm(a)[0]:
                expected.append(spec.seed + t)
        assert expected and [seed for seed, _ in r.equiv_failures] == expected
        assert r.structural_failures == [] and not r.skipped


def _with_sets_1_1(f):
    """sat2_to_3xce2 with two more sets {1}: element 1 lies outside an empty
    universe, or is held by 4 sets."""
    x, rep = reductions.sat2_to_3xce2(f)
    return XceInstance(x.universe_size, x.exempt, x.sets + ((1,), (1,))), rep


def _with_literal_out_of_range(g):
    f, rep = reductions.cvc3_to_sat2(g)
    return CnfFormula(f.num_vars, f.clauses + ((f.num_vars + 1,),)), rep


class TestMalformedOutput:
    """An output its decider cannot decide and `validate` rejects is a
    structural failure; equivalence stays undecided and the run goes on."""

    @pytest.mark.parametrize("trial,elements,struct", [
        (0, 0, ["undecidable:XceInstance",
                "element_range:element 1 out of range in set 1",
                "element_range:element 1 out of range in set 2"]),
        (13, 2, ["undecidable:XceInstance",
                 "overlap:element 1 has overlapping cost 4, bound 2",
                 "exactly_2:element 1 covered by 4 sets, expected exactly 2"]),
    ])
    def test_xce_output_counted_and_postchecked(self, trial, elements, struct):
        plan = replace(default_plans()["sat2_to_3xce2"], reduce=_with_sets_1_1)
        assert reductions.normalize_2sat3(generate(plan.genspec, trial)).num_vars == elements
        rec = _settle(plan, True, generate(plan.genspec, trial))
        assert rec.skipped is None and rec.equiv and rec.struct == tuple(struct)

    def test_verify_finishes(self):
        plan = replace(default_plans()["cvc3_to_sat2"], reduce=_with_literal_out_of_range)
        r = _verify("cvc3_to_sat2_oob", plan, 30)
        assert r.equiv_failures == [] and not r.skipped
        expected = []
        for t in range(30):
            f, _ = _with_literal_out_of_range(generate(plan.genspec, t))
            bad = f"literal_range:literal {f.num_vars + 1} out of range in clause {len(f.clauses)}"
            expected += [(1 + t, "undecidable:CnfFormula"), (1 + t, bad)]
        assert r.structural_failures == expected

    @pytest.mark.parametrize("error", [ValueError, IndexError])
    def test_decider_error_on_valid_output_propagates(self, monkeypatch, error):
        def broken(x):
            raise error("decider bug")

        monkeypatch.setattr(oracles, "solve_xce", broken)
        with pytest.raises(error, match="decider bug"):
            verify_m_reduction("sat2_to_3xce2", 5)

    def test_decider_error_on_source_propagates(self, monkeypatch):
        def broken(f):
            raise IndexError("decider bug")

        monkeypatch.setattr(oracles, "solve_2sat", broken)
        with pytest.raises(IndexError, match="decider bug"):
            verify_m_reduction("sat2_to_3xce2", 5)
