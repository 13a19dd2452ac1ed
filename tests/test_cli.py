import pytest

from redlab.cli import main
from redlab.instances import CnfFormula, parse, serialize


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
                         "--tags", "deg_bound=3", "-o", str(out))
        assert code == 0
        g = parse(out.read_text())
        deg = [0] * (g.num_vertices + 1)
        for u, v in g.edges:
            deg[u] += 1
            deg[v] += 1
        assert max(deg) <= 3

    def test_bad_tag_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "xce", "--size", "5", "--tags", "wat=1")
        assert code == 2 and "unknown tag" in err


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

    def test_xor_file(self, tmp_path, capsys):
        f = tmp_path / "x.xor"
        f.write_text("p xor 2 2\nx 1 2 1\nu 1 1\n")
        code, out, _ = run(capsys, "solve", str(f))
        assert code == 0 and out.startswith("YES")


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

    def test_max_size_override(self, tmp_path, capsys):
        code, out, _ = run(capsys, "verify", "le_to_xor2sat", "--trials", "20",
                           "--max-size", "6", "--run-dir", str(tmp_path), "--no-timing")
        assert code == 0 and "TRIALS\t20" in out

    def test_over_budget_trials_skipped(self, tmp_path, capsys):
        code, out, _ = run(capsys, "verify", "dstcon_to_ap2dm", "--trials", "20",
                           "--max-size", "12", "--run-dir", str(tmp_path), "--no-timing")
        assert code == 0 and "EQUIV_FAILURES\t8\n" in out
        lines = out.splitlines()
        skipped = [line.split("\t") for line in lines if line.startswith("SKIPPED\t")]
        assert [int(seed) for _, seed, _ in skipped] == [4, 5, 7, 9, 14, 17]
        assert all("exceed the enumeration budget" in reason for _, _, reason in skipped)
        # the SKIPPED lines close the summary, after the counterexample lines
        assert lines[-len(skipped):] == ["\t".join(s) for s in skipped]
        assert len(list(tmp_path.glob("dstcon_to_ap2dm_seed*.txt"))) == 8

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
        code, out, _ = run(capsys, "fit", "cvc3_to_sat2", "--trials", "50")
        assert code == 0
        assert "DECLARED K1 1 K2 0" in out and "MAX_RATIO 1.000000" in out

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


def test_usage_error_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
