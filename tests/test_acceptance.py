"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 6 and 7 contain assertions that are known to fail: the three-layer
matching gadget provably does not preserve membership under the literal
chain-linkage semantics (see README, "Known gadget defects"), and criterion
2's forward half fails on unsatisfiable inputs for the analogous reason.
Those assertions are kept as stated rather than weakened; they are placed
last in their tests so every attainable sub-claim is verified first.
"""

import time

from redlab import figures, oracles, reductions
from redlab.cli import main
from redlab.harness import (
    CORRUPTED,
    GenSpec,
    generate,
    resolve,
    verify,
)
from redlab.oracles import perfect_matchings
from references import first_hit, linked_by_chain, linked_by_power, parities_hold


def _xor_by_scan(x) -> bool:
    return first_hit(x.num_vars, (0, 1), lambda bits: parities_hold(x, bits)) is not None


def report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"CRITERION {criterion} {tag}" + (f": {detail}" if detail else ""))
    return ok


def test_criterion_1_figure1_regression():
    started = time.perf_counter()
    f, g, rep, cover = figures.fig1()
    sizes_ok = g.num_vertices == 14 and len(g.edges) == 15
    cover_ok = oracles.check_cover(g, cover)
    sat_ok = oracles.solve_2sat(f)[0] is True
    cvc_ok = oracles.solve_2cvc(g)[0] is True
    elapsed = time.perf_counter() - started
    ok = sizes_ok and cover_ok and sat_ok and cvc_ok and elapsed < 1.0
    report(1, ok, f"14-vertex graph, caption cover, YES/YES, {elapsed:.3f}s")
    assert sizes_ok and cover_ok and sat_ok and cvc_ok
    assert elapsed < 1.0


def test_criterion_2_vertex_cover_equivalence():
    started = time.perf_counter()
    fwd = verify("sat2_to_2cvc3", resolve("sat2_to_2cvc3"), 1000)
    bwd = verify("cvc3_to_sat2", resolve("cvc3_to_sat2"), 1000)
    # backward parameter equality m_vbl = m_ver, spot-checked over the family
    plan = resolve("cvc3_to_sat2")
    equal_params = True
    for t in range(200):
        rep = reductions.cvc3_to_sat2(generate(plan.genspec, t))[1]
        equal_params &= rep.input_param.value == rep.output_param.value
    elapsed = time.perf_counter() - started
    ok = (not fwd.equiv_failures and not bwd.equiv_failures
          and not fwd.shortness_failures and not bwd.shortness_failures
          and equal_params and elapsed < 120)
    report(2, ok,
           f"fwd equiv fails {len(fwd.equiv_failures)}, bwd {len(bwd.equiv_failures)}, "
           f"shortness fails {len(fwd.shortness_failures)}+{len(bwd.shortness_failures)}, "
           f"{elapsed:.1f}s")
    assert not fwd.shortness_failures, "every report must satisfy m_ver <= 8*m_vbl"
    assert not bwd.shortness_failures
    assert equal_params, "backward reports must satisfy m_vbl = m_ver"
    assert not bwd.equiv_failures
    assert elapsed < 120
    # Known defect: the vertex-cover gadget does not force assignments on
    # unsatisfiable inputs whose literals occur once (README, defect 2)
    assert not fwd.equiv_failures, (
        f"{len(fwd.equiv_failures)} verified counterexamples to the forward "
        "vertex-cover equivalence, e.g. seed "
        f"{fwd.equiv_failures[0][0]}")


def test_criterion_3_exact_cover_equivalence():
    fwd = verify("sat2_to_3xce2", resolve("sat2_to_3xce2"), 1000)
    bwd = verify("xce2_to_2lp", resolve("xce2_to_2lp"), 1000)
    plan = resolve("xce2_to_2lp")
    equal_params = True
    for t in range(200):
        rep = reductions.xce2_to_2lp(generate(plan.genspec, t))[1]
        equal_params &= rep.input_param.value == rep.output_param.value
    ok = (not fwd.equiv_failures and not bwd.equiv_failures
          and not fwd.structural_failures and not fwd.shortness_failures
          and not bwd.shortness_failures and equal_params)
    report(3, ok,
           f"fwd equiv fails {len(fwd.equiv_failures)}, bwd {len(bwd.equiv_failures)}, "
           f"struct fails {len(fwd.structural_failures)}")
    assert not fwd.equiv_failures
    assert not fwd.structural_failures, "outputs must be 2-overlapping, every element in exactly 2 sets"
    assert not fwd.shortness_failures
    assert not bwd.equiv_failures
    assert not bwd.shortness_failures
    assert equal_params, "backward reports must satisfy m_row = m_set"


def test_criterion_4_band_geq_equivalence():
    a = verify("lp_to_2lp", resolve("lp_to_2lp"), 1000)
    b = verify("twolp_to_lp", resolve("twolp_to_lp"), 1000)
    ok = (not a.equiv_failures and not b.equiv_failures
          and not a.shortness_failures and not b.shortness_failures
          and not b.structural_failures)
    report(4, ok,
           f"lp_to_2lp fails {len(a.equiv_failures)}, twolp_to_lp {len(b.equiv_failures)}, "
           f"struct {len(b.structural_failures)}")
    assert not a.equiv_failures and not a.shortness_failures
    assert not b.equiv_failures and not b.shortness_failures
    assert not b.structural_failures, "outputs must pass col_bound k+2 and the 2-nonzero row format"


def test_criterion_5_equation_to_parity():
    r = verify("le_to_xor2sat", resolve("le_to_xor2sat"), 1000)
    plan = resolve("le_to_xor2sat")
    agree = 0
    for t in range(1000):
        s = generate(plan.genspec, t)
        out, _ = reductions.le_to_xor2sat(s)
        if oracles.solve_xor2sat(out) == _xor_by_scan(out):
            agree += 1
    ok = not r.equiv_failures and not r.shortness_failures and agree == 1000
    report(5, ok, f"equiv fails {len(r.equiv_failures)}, union-find/scan agree {agree}/1000")
    assert not r.equiv_failures
    assert not r.shortness_failures
    assert agree == 1000


def test_criterion_6_matching_gadget_forward():
    r = verify("dstcon_to_ap2dm", resolve("dstcon_to_ap2dm"), 200)
    plan = resolve("dstcon_to_ap2dm")
    exact = 0
    for t in range(200):
        g = reductions.normalize_dstcon(generate(plan.genspec, t))[0]
        _, rep = reductions.dstcon_to_ap2dm(g)
        if rep.output_param.value == 3 * (rep.input_param.value - 2) + 2:
            exact += 1
    ok = (not r.equiv_failures and not r.structural_failures
          and not r.shortness_failures and exact == 200)
    report(6, ok,
           f"equiv fails {len(r.equiv_failures)}/200, struct fails "
           f"{len(r.structural_failures)}, m_set exact {exact}/200")
    assert not r.structural_failures, "every output must validate with overlap_bound=4"
    assert exact == 200, "m_set = 3(m_ver-2)+2 must hold exactly"
    assert not r.shortness_failures
    # Known defect: the gadget does not preserve YES membership under the
    # literal chain-linkage semantics (README, defect 1)
    assert not r.equiv_failures, (
        f"{len(r.equiv_failures)} verified counterexamples to the forward "
        "matching-gadget equivalence, e.g. seed "
        f"{r.equiv_failures[0][0]}")


def test_criterion_7_matching_gadget_backward():
    r = verify("ap2dm_to_dstcon_queries", resolve("ap2dm_to_dstcon_queries"), 200)
    sizes_ok = r.max_ratio == 1.0 and not r.shortness_failures
    # Figure 3 end to end
    g, a, _ = figures.fig3()
    bfs_yes = oracles.solve_dstcon(g)[0]
    turing_yes, trep = reductions.ap2dm_to_dstcon_queries(a, oracles.dstcon_oracle)
    queries_ok = len(trep.queries) <= 182 and trep.output_param.value == 14
    oracle_yes = oracles.solve_ap2dm(a)[0]
    ok = (not r.equiv_failures and sizes_ok and bfs_yes and turing_yes
          and queries_ok and oracle_yes)
    report(7, ok,
           f"disagreements {len(r.equiv_failures)}/200, per-query ratio {r.max_ratio}, "
           f"fig3 BFS={bfs_yes} turing={turing_yes} ({len(trep.queries)} queries) "
           f"oracle={oracle_yes}")
    assert sizes_ok, "every report's per-query ratio must be 1"
    assert bfs_yes, "source graph must be YES by BFS"
    assert turing_yes and queries_ok, "Turing reduction YES with <= 182 queries of size 14"
    # Known defect (README, defect 1): the matching oracle disagrees
    assert oracle_yes, "reduced Figure 3 instance is NO under the literal chain semantics"
    assert not r.equiv_failures


def test_criterion_8_chain_power_characterization():
    spec = GenSpec("ap2dm", max_size=8, seed=88)
    instances = pairs_checked = 0
    mismatches = 0
    t = 0
    while instances < 100:
        a = generate(spec, t)
        t += 1
        instances += 1
        n = a.universe_size
        for pi in perfect_matchings(a):
            for v in range(1, n + 1):
                for w in range(1, n + 1):
                    pairs_checked += 1
                    if linked_by_chain(a, pi, v, w) != linked_by_power(pi, v, w):
                        mismatches += 1
    ok = mismatches == 0
    report(8, ok, f"{instances} instances, {pairs_checked} (matching,pair) checks, "
                  f"{mismatches} mismatches")
    assert mismatches == 0


def test_criterion_9_oracle_cross_checks():
    sat_spec = GenSpec("2sat3", max_size=12, seed=99)
    sat_disagree = 0
    for t in range(1000):
        f = generate(sat_spec, t)
        scan = first_hit(f.num_vars, (False, True),
                         lambda bits: oracles.check_assignment(f, dict(enumerate(bits, 1))))
        if oracles.solve_2sat(f)[0] != (scan is not None):
            sat_disagree += 1
    xor_spec = GenSpec("xor", max_size=10, seed=98)
    xor_disagree = 0
    for t in range(1000):
        x = generate(xor_spec, t)
        if oracles.solve_xor2sat(x) != _xor_by_scan(x):
            xor_disagree += 1
    ok = sat_disagree == 0 and xor_disagree == 0
    report(9, ok, f"SCC/scan disagreements {sat_disagree}/1000, "
                  f"union-find/scan {xor_disagree}/1000")
    assert sat_disagree == 0
    assert xor_disagree == 0


def test_criterion_10_mutation_sensitivity():
    caught = {}
    for name in CORRUPTED:
        r = verify(name, resolve(name), 200)
        caught[name] = len(r.equiv_failures)
    ok = len(caught) >= 3 and all(n >= 1 for n in caught.values())
    report(10, ok, ", ".join(f"{k}:{v}" for k, v in caught.items()))
    assert len(caught) >= 3
    for name, n in caught.items():
        assert n >= 1, f"{name} produced no counterexample within 200 trials"


def test_criterion_11_determinism(tmp_path, capsys):
    texts = []
    for _ in range(2):
        code = main(["verify", "sat2_to_2cvc3", "--trials", "100",
                     "--seed", "4", "--run-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        texts.append("\n".join(l for l in out.splitlines()
                               if not l.startswith("WALLTIME")))
    ok = texts[0] == texts[1]
    report(11, ok, "two runs byte-identical modulo timing")
    assert ok
