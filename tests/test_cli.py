import os

import pytest

from redlab import cli, harness
from redlab.cli import main
from redlab.instances import CnfFormula, ParseError, parse, serialize


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_writes_file(self, tmp_path, capsys):
        out = tmp_path / "f.cnf"
        code, _, _ = run(capsys, "gen", "2sat3", "--size", "8", "--seed", "3",
                         "-o", str(out))
        assert code == 0
        inst = parse(out.read_text())
        assert isinstance(inst, CnfFormula)

    def test_stdout_reproducible(self, capsys):
        code1, text1, _ = run(capsys, "gen", "xce", "--size", "6", "--seed", "9")
        code2, text2, _ = run(capsys, "gen", "xce", "--size", "6", "--seed", "9")
        assert code1 == code2 == 0 and text1 == text2

    def test_tags_override(self, tmp_path, capsys):
        out = tmp_path / "g.dg"
        code, _, _ = run(capsys, "gen", "digraph4", "--size", "8", "--seed", "4",
                         "--deg-bound", "3", "-o", str(out))
        assert code == 0
        g = parse(out.read_text())
        deg = [0] * (g.num_vertices + 1)
        for u, v in g.edges:
            deg[u] += 1
            deg[v] += 1
        assert max(deg) <= 3

    def test_negative_clause_count_exit_2(self, capsys):
        code, out, err = run(capsys, "gen", "2sat3", "--size", "5", "--clauses", "-1")
        assert code == 2 and out == "" and "outside 0..7" in err

    def test_one_variable_takes_no_clause_exit_2(self, capsys):
        code, out, err = run(capsys, "gen", "2sat3", "--size", "1", "--clauses", "1")
        assert code == 2 and out == ""
        assert err == ("error: clause count 1 is outside 0..0 (a 2-literal clause "
                       "needs two distinct variables, and there is 1)\n")

    @pytest.mark.parametrize("argv,message", [
        (("2sat3", "--bias", "7"), "7 is not a number in [0, 1]"),
        (("2sat3", "--bias", "-0.5"), "-0.5 is not a number in [0, 1]"),
        (("2sat3", "--bias", "nan"), "nan is not a number in [0, 1]"),
        (("ugraph3", "--deg-bound", "-2"), "-2 is not a non-negative integer"),
        # an option the class's generator does not read
        (("xce", "--clauses", "3"), "error: the xce generator does not read --clauses\n"),
        (("2sat3", "--deg-bound", "3"), "error: the 2sat3 generator does not read --deg-bound\n"),
        (("lin_geq", "--deg-bound", "0"), "error: the lin_geq generator does not read --deg-bound\n"),
        (("ap2dm", "--bias", "0.5"), "error: the ap2dm generator does not read --bias\n"),
    ], ids=["bias_7", "bias_negative", "bias_nan", "deg_bound_negative",
            "clauses_xce", "deg_bound_2sat3", "deg_bound_lin", "bias_ap2dm"])
    def test_out_of_range_flag_exit_2(self, argv, message, capsys):
        code, out, err = run(capsys, "gen", *argv, "--size", "5")
        assert code == 2 and out == "" and message in err

    @pytest.mark.parametrize("argv", [("2sat3", "--bias", "0"), ("2sat3", "--bias", "1"),
                                      ("ugraph3", "--deg-bound", "0")],
                             ids=["bias_0", "bias_1", "deg_bound_0"])
    def test_range_ends_accepted(self, argv, capsys):
        code, out, _ = run(capsys, "gen", *argv, "--size", "5")
        assert code == 0 and out.startswith("p ")

    @pytest.mark.parametrize("argv", [("2sat3", "--bias", "0.5"), ("ugraph3", "--deg-bound", "3"),
                                      ("digraph4", "--deg-bound", "3", "--bias", "0.5")],
                             ids=["bias_2sat3", "deg_bound_ugraph3", "both_digraph4"])
    def test_explicit_default_prints_default_bytes(self, argv, capsys):
        _, plain, _ = run(capsys, "gen", argv[0], "--size", "7", "--seed", "5")
        code, out, _ = run(capsys, "gen", *argv, "--size", "7", "--seed", "5")
        assert code == 0 and out == plain


class TestSolve:
    def test_yes_exit_0(self, tmp_path, capsys):
        f = tmp_path / "f.cnf"
        f.write_text("p cnf2 2 1\n1 -2 0\n")
        code, out, _ = run(capsys, "solve", str(f))
        assert code == 0 and out.startswith("YES")

    def test_no_exit_1(self, tmp_path, capsys):
        f = tmp_path / "f.cnf"
        f.write_text("p cnf2 1 2\n1 0\n-1 0\n")
        code, out, _ = run(capsys, "solve", str(f))
        assert code == 1 and out.startswith("NO")

    def test_io_error_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "solve", str(tmp_path / "missing.cnf"))
        assert code == 2 and err

    def test_parse_error_exit_2(self, tmp_path, capsys):
        f = tmp_path / "f.cnf"
        f.write_text("p cnf2 1 1\n9 0\n")
        code, _, err = run(capsys, "solve", str(f))
        assert code == 2 and "error" in err

    def test_negative_header_count_exit_2(self, tmp_path, capsys):
        f = tmp_path / "f.cnf"
        f.write_text("p cnf2 -3 0\n")
        code, out, err = run(capsys, "solve", str(f))
        assert code == 2 and out == "" and "header count n must not be negative" in err

    def test_repeated_s_line_exit_2(self, tmp_path, capsys):
        f = tmp_path / "f.dig"
        f.write_text("p digraph 2 0\ns 1\ns 2\nt 1\n")
        assert run(capsys, "solve", str(f)) == (
            2, "", "error: line 2: expected the edge lines, then one s and one t line\n")

    @pytest.mark.parametrize("text,line", [
        ("p graph 3 0\n", "cover"),  # edgeless: the empty cover
        ("p xce 2 0\nr 1 2\n", "sets"),  # every element exempt: no set
        ("p cnf2 0 0\n", "v"),
        ("p lin geq 0 0 3\n", "x"),
    ], ids=["edgeless_graph", "all_exempt_xce", "empty_cnf", "empty_lin"])
    def test_empty_witness_printed(self, tmp_path, capsys, text, line):
        f = tmp_path / "f.txt"
        f.write_text(text)
        code, out, _ = run(capsys, "solve", str(f))
        assert code == 0 and out == f"YES\n{line}\n"

    def test_xor_file(self, tmp_path, capsys):
        f = tmp_path / "x.xor"
        f.write_text("p xor 2 2\nx 1 2 1\nu 1 1\n")
        code, out, _ = run(capsys, "solve", str(f))
        assert code == 0 and out.startswith("YES")

    def test_invalid_input_exit_2(self, tmp_path, capsys):
        # parses, but column 1 holds 1 nonzero against the declared bound 0;
        # solve rejects it with the message reduce gives
        f = tmp_path / "f.lin"
        f.write_text("p lin band 1 1 0\na 1 1 1\nb 1 0\nB 1 -1\n")
        code, out, err = run(capsys, "solve", str(f))
        assert code == 2 and out == "" and err == "error: column 1 has 1 nonzeros, bound 0\n"
        code, _, err = run(capsys, "reduce", "twolp_to_lp", str(f), str(tmp_path / "out.lin"))
        assert code == 2 and err == "error: column 1 has 1 nonzeros, bound 0\n"

    @pytest.mark.parametrize("text,message", [
        ("p xce 1 3\nr\nc 1\nc 1\nc 1\n", "element 1 has overlapping cost 3, bound 2"),
        ("p ap2dm 3\nr 1\nm 1 2\n", "exempt element 1 lacks a non-exempt partner (out=1, in=0)"),
        ("p lin geq 1 2 0\na 1 2 5\nb 1 0\n", "column 2 has 1 nonzeros, bound 0"),
    ], ids=["xce_overlap", "ap2dm_exempt_partner", "lin_col_bound"])
    def test_parse_rejects_what_validate_rejects(self, tmp_path, capsys, text, message):
        """A violation that names no record has no line; solve and dot print
        validate's detail."""
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message and err.value.line is None
        f = tmp_path / "f.txt"
        f.write_text(text)
        for argv in (("solve", str(f)), ("dot", str(f), "-o", str(tmp_path / "f.dot"))):
            assert run(capsys, *argv) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "f.dot").exists()


class TestReduce:
    def test_applies_and_reports(self, tmp_path, capsys):
        src = tmp_path / "in.cnf"
        src.write_text(serialize(CnfFormula(3, ((1, -2), (2, 1), (-1, 3), (2, -3)))))
        dst = tmp_path / "out.graph"
        rep = tmp_path / "report.txt"
        code, _, _ = run(capsys, "reduce", "sat2_to_2cvc3", str(src), str(dst),
                         "--report", str(rep))
        assert code == 0
        assert dst.read_text().startswith("p graph 14 15")
        assert rep.read_text().startswith("REDUCE sat2_to_2cvc3")

    def test_unknown_name_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "reduce", "nope", "a", "b")
        assert code == 2 and "unknown reduction" in err

    def test_invalid_input_exit_2(self, tmp_path, capsys):
        # parses, but column 1 holds 2 nonzeros against the declared bound 1
        src = tmp_path / "in.lin"
        src.write_text("p lin geq 2 1 1\na 1 1 1\na 2 1 1\nb 1 0\nb 2 0\n")
        dst = tmp_path / "out.lin"
        code, _, err = run(capsys, "reduce", "lp_to_2lp", str(src), str(dst))
        assert code == 2 and err == "error: column 1 has 2 nonzeros, bound 1\n"
        assert not dst.exists()

    def test_precondition_exit_2(self, tmp_path, capsys):
        src = tmp_path / "in.cnf"
        src.write_text("p cnf2 2 1\n1 2 0\n")  # removable literals
        code, _, err = run(capsys, "reduce", "sat2_to_2cvc3", str(src),
                           str(tmp_path / "o"))
        assert code == 2 and "error" in err


class TestVerify:
    def test_summary_and_determinism(self, tmp_path, capsys):
        args = ("verify", "lp_to_2lp", "--trials", "40", "--no-timing",
                "--run-dir", str(tmp_path))
        code1, text1, _ = run(capsys, *args)
        code2, text2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert text1 == text2
        assert "EQUIV_FAILURES\t0" in text1

    def test_counterexamples_written(self, tmp_path, capsys):
        code, out, _ = run(capsys, "verify", "bad_cvc3_to_sat2", "--trials", "100",
                           "--run-dir", str(tmp_path), "--no-timing")
        assert code == 0
        assert "COUNTEREXAMPLE" in out
        files = list(tmp_path.glob("bad_cvc3_to_sat2_seed*.txt"))
        assert files and files[0].read_text().startswith("p graph")

    RERUN = ("verify", "bad_cvc3_to_sat2", "--trials", "100", "--no-timing")

    def _first_run(self, run_dir, capsys):
        """Run RERUN into run_dir; its counterexample files, sorted."""
        run(capsys, *self.RERUN, "--run-dir", str(run_dir))
        files = sorted(run_dir.glob("bad_cvc3_to_sat2_seed*.txt"))
        assert len(files) >= 2
        return files

    def test_rerun_leaves_equal_counterexample_files(self, tmp_path, capsys):
        """A second identical run rewrites no counterexample file; a file
        holding other bytes is rewritten."""
        files = self._first_run(tmp_path, capsys)
        stale = files[0]
        expected = stale.read_bytes()
        stale.write_text("stale\n")
        for f in files[1:]:
            os.utime(f, ns=(1, 1))  # any rewrite moves the time off 1 ns
        run(capsys, *self.RERUN, "--run-dir", str(tmp_path))
        assert stale.read_bytes() == expected
        assert all(f.stat().st_mtime_ns == 1 for f in files[1:])

    @pytest.mark.parametrize("edit", [lambda data: data + b"\n", lambda data: data[:-1]],
                             ids=["extra_byte", "strict_prefix"])
    def test_rerun_rewrites_longer_and_shorter_files(self, edit, tmp_path, capsys):
        files = self._first_run(tmp_path, capsys)
        expected = [f.read_bytes() for f in files]
        for f, data in zip(files, expected):
            f.write_bytes(edit(data))
        run(capsys, *self.RERUN, "--run-dir", str(tmp_path))
        assert [f.read_bytes() for f in files] == expected

    def test_counterexample_name_taken_by_directory_exit_2(self, tmp_path, capsys):
        files = self._first_run(tmp_path, capsys)
        files[0].unlink()
        files[0].mkdir()
        code, _, err = run(capsys, *self.RERUN, "--run-dir", str(tmp_path))
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert files[0].name in err

    def test_rerun_at_other_max_size_rewrites_changed_files(self, tmp_path, capsys):
        """Default size, then --max-size 10 over the same 60 seeds: of the
        seeds that fail at both, those whose instance changed are rewritten
        and the others keep their file untouched."""
        name, args = "bad_sat2_to_2cvc3", ("--trials", "60", "--run-dir", str(tmp_path))
        run(capsys, "verify", name, *args)
        first = {f: f.read_bytes() for f in tmp_path.glob(f"{name}_seed*.txt")}
        for f in first:
            os.utime(f, ns=(1, 1))
        run(capsys, "verify", name, *args, "--max-size", "10")
        wanted = dict(harness.verify(name, harness.resolve(name, max_size=10), 60).equiv_failures)
        changed = kept = 0
        for f, old in first.items():
            new = wanted.get(int(f.stem.rsplit("seed", 1)[1]))
            if new is None:
                continue
            assert f.read_text() == new
            if new.encode() == old:
                kept += 1
                assert f.stat().st_mtime_ns == 1
            else:
                changed += 1
        assert changed and kept

    def test_unknown_name_creates_no_run_dir(self, tmp_path, capsys):
        run_dir = tmp_path / "fresh" / "run"
        code, out, err = run(capsys, "verify", "nope", "--trials", "2", "--run-dir", str(run_dir))
        assert code == 2 and out == "" and err.startswith("error: unknown reduction 'nope'")
        assert not (tmp_path / "fresh").exists()

    def test_max_size_override(self, tmp_path, capsys):
        code, out, _ = run(capsys, "verify", "le_to_xor2sat", "--trials", "20",
                           "--max-size", "6", "--run-dir", str(tmp_path), "--no-timing")
        assert code == 0 and "TRIALS\t20" in out

    @pytest.mark.parametrize("name", ["xce2_to_2lp", "lp_to_2lp", "twolp_to_lp", "le_to_xor2sat",
                                      "sat2_to_3xce2", "sat2_to_2cvc3", "cvc3_to_sat2"])
    def test_polynomial_deciders_skip_nothing_at_scale(self, name, tmp_path, capsys):
        code, out, _ = run(capsys, "verify", name, "--trials", "20", "--max-size", "1000",
                           "--run-dir", str(tmp_path), "--no-timing")
        assert code == 0 and "TRIALS\t20" in out and "SKIPPED" not in out

    def test_fixture_caught_at_scale(self, tmp_path, capsys):
        code, out, _ = run(capsys, "verify", "bad_cvc3_to_sat2", "--trials", "20",
                           "--max-size", "1000", "--run-dir", str(tmp_path), "--no-timing")
        failures = int(out.split("EQUIV_FAILURES\t")[1].split()[0])
        assert code == 0 and failures >= 1 and "SKIPPED" not in out

    def test_over_budget_trials_skipped(self, tmp_path, capsys):
        code, out, _ = run(capsys, "verify", "dstcon_to_ap2dm", "--trials", "20",
                           "--max-size", "14", "--run-dir", str(tmp_path), "--no-timing")
        assert code == 0 and "EQUIV_FAILURES\t7\n" in out
        lines = out.splitlines()
        skipped = [line.split("\t") for line in lines if line.startswith("SKIPPED\t")]
        assert [int(seed) for _, seed, _ in skipped] == [2, 4, 8, 10, 16, 18]
        assert all("exceed the enumeration budget" in reason for _, _, reason in skipped)
        # the SKIPPED lines close the summary, after the counterexample lines
        assert lines[-len(skipped):] == ["\t".join(s) for s in skipped]
        assert len(list(tmp_path.glob("dstcon_to_ap2dm_seed*.txt"))) == 7

    @pytest.mark.parametrize("argv", [
        ("verify", "lp_to_2lp", "--trials", "-3"),
        ("verify", "ap2dm_to_dstcon_queries", "--max-size", "0"),
        ("verify", "lp_to_2lp", "--max-size", "0"),
        ("gen", "2sat3", "--size", "0"),
    ])
    def test_non_positive_rejected(self, argv, capsys):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "not a positive integer" in err

    def test_turing_name(self, tmp_path, capsys):
        code, out, _ = run(capsys, "verify", "ap2dm_to_dstcon_queries",
                           "--trials", "5", "--run-dir", str(tmp_path), "--no-timing")
        assert code == 0 and "VERIFY\tap2dm_to_dstcon_queries" in out


class TestFitExampleDot:
    def test_fit(self, capsys):
        # the oracle reduction resolves like every many-one reduction
        for name in ("cvc3_to_sat2", "ap2dm_to_dstcon_queries"):
            code, out, _ = run(capsys, "fit", name, "--trials", "50")
            assert code == 0
            assert "DECLARED K1 1 K2 0" in out and "MAX_RATIO 1.000000" in out
            assert "OBSERVED_PAIRS 50\n" in out

    def test_example_fig1(self, capsys):
        code, out, _ = run(capsys, "example", "fig1")
        assert code == 0
        assert "ORACLE_2SAT YES" in out and "ORACLE_2CVC YES" in out
        assert "COVER_VALID yes" in out

    def test_example_fig2(self, capsys):
        code, out, _ = run(capsys, "example", "fig2")
        assert code == 0
        assert "ORACLE_2SAT YES" in out and "ORACLE_XCE YES" in out

    def test_example_fig3(self, capsys):
        code, out, _ = run(capsys, "example", "fig3")
        assert code == 0
        assert "ORACLE_DSTCON YES" in out
        assert "TURING YES QUERIES 170" in out

    def test_dot_digraph(self, tmp_path, capsys):
        g = tmp_path / "g.dg"
        g.write_text("p digraph 2 1\ne 1 2\ns 1\nt 2\n")
        out = tmp_path / "g.dot"
        code, _, _ = run(capsys, "dot", str(g), "-o", str(out))
        assert code == 0
        assert "1 -> 2;" in out.read_text()

    def test_dot_ugraph(self, tmp_path, capsys):
        g = tmp_path / "g.ug"
        g.write_text("p graph 2 1\ne 1 2\n")
        out = tmp_path / "g.dot"
        code, _, _ = run(capsys, "dot", str(g), "-o", str(out))
        assert code == 0 and "1 -- 2;" in out.read_text()

    def test_dot_rejects_formula(self, tmp_path, capsys):
        f = tmp_path / "f.cnf"
        f.write_text("p cnf2 1 0\n")
        code, _, err = run(capsys, "dot", str(f), "-o", str(tmp_path / "x.dot"))
        assert code == 2 and "not graph-shaped" in err


def test_problem_tables_agree():
    """Every class a generator produces has one problem record and one
    decider entry, and neither table has a class no generator produces."""
    from redlab import harness, instances, oracles

    generated = {type(harness.generate(harness.GenSpec(name, max_size=4)))
                 for name in harness.GENERATORS}
    assert set(instances.PROBLEMS) == set(oracles.DECIDERS) == generated


def test_usage_error_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


@pytest.mark.parametrize("argv, generated", [
    (("solve", "{dir}"), 0),
    (("gen", "2sat3", "--size", "3", "-o", "{dir}"), 1),
    (("verify", "lp_to_2lp", "--trials", "2", "--run-dir", "{file}"), 0),
    (("reduce", "nope", "a", "b"), 0),
    (("dot", "{file}", "-o", "{dir}/x.dot"), 0),
], ids=["solve_dir", "gen_output_dir", "verify_run_dir_file", "reduce_unknown_name",
        "dot_not_graph"])
def test_os_error_exit_2(argv, generated, tmp_path, capsys, monkeypatch):
    """An I/O error, an unknown name or an instance a command cannot take is
    one error line and exit 2, not a traceback. verify creates --run-dir
    before its first trial, so a bad one costs no trial."""
    calls = []
    real = harness.generate
    monkeypatch.setattr(harness, "generate", lambda *a: calls.append(a) or real(*a))
    (tmp_path / "file").write_text("p cnf2 1 0\n")
    code, _, err = run(capsys, *(a.format(dir=tmp_path, file=tmp_path / "file") for a in argv))
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert len(calls) == generated


class TestParser:
    def test_built_once_and_dispatch_reads_module(self, monkeypatch, capsys):
        assert cli.build_parser() is cli.build_parser()
        run(capsys, "example", "fig1")
        # a command function replaced after the parser was built still runs
        monkeypatch.setattr(cli, "cmd_example", lambda args: 7)
        assert run(capsys, "example", "fig1")[0] == 7
