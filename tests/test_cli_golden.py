"""Golden output of `redlab solve`, `dot`, `example` and `reduce`.

One small generated instance per header class, a YES and a NO one each:
stdout and exit code of `solve` are pinned literally, as are the bytes
`dot` writes for the three graph-shaped classes. The stdout of `example`
is pinned for each worked figure, and for each of `reductions.REDUCTIONS`
the output file and the report `reduce` prints on one small generated
instance (passed first through the normalization its reduction requires).
"""

from __future__ import annotations

import pytest

from redlab.cli import main
from redlab.reductions import REDUCTIONS

# (family, --size, --seed, exit code, stdout)
SOLVE = [
    ("2sat3", 5, 20, 0, "YES\nv 1 -2 3 4 -5\n"),
    ("2sat3", 5, 50, 1, "NO\n"),
    ("dstcon_raw", 5, 6, 0, "YES\npath 1 2 3\n"),
    ("dstcon_raw", 5, 5, 1, "NO\n"),
    ("ugraph3", 6, 9, 0, "YES\ncover 3 4 5\n"),
    ("ugraph3", 6, 2, 1, "NO\n"),
    ("xce", 6, 16, 0, "YES\nsets 1 2 3 4\n"),
    ("xce", 6, 34, 1, "NO\n"),
    ("ap2dm", 5, 5, 0, "YES\n"),
    ("ap2dm", 5, 39, 1, "NO\npair 1 2\n"),
    ("lin_band", 5, 17, 0, "YES\nx 0 0 0 0 1\n"),
    ("lin_band", 5, 3, 1, "NO\n"),
    ("xor", 5, 3, 0, "YES\n"),
    ("xor", 5, 21, 1, "NO\n"),
]

# (family, --size, --seed, DOT bytes)
DOT = [
    ("dstcon_raw", 5, 6,
     'digraph G {\n  s [label="s=1"]; t [label="t=3"];\n  1 -> 2;\n  2 -> 3;\n}\n'),
    ("ugraph3", 6, 9,
     "graph G {\n  2 -- 5;\n  1 -- 4;\n  1 -- 3;\n}\n"),
    ("ap2dm", 5, 5,
     "digraph M {\n  1 [shape=ellipse];\n  2 [shape=ellipse];\n  3 [shape=box];\n"
     "  4 [shape=ellipse];\n  4 -> 2;\n  2 -> 1;\n  2 -> 4;\n  1 -> 4;\n  4 -> 1;\n"
     "  4 -> 3;\n  3 -> 1;\n  3 -> 2;\n  3 -> 4;\n}\n"),
]


# which -> stdout of `redlab example which`
EXAMPLE = {
    "fig1": (
        "# formula\n"
        "p cnf2 3 4\n"
        "1 -2 0\n"
        "2 1 0\n"
        "-1 3 0\n"
        "2 -3 0\n"
        "# graph\n"
        "p graph 14 15\n"
        "e 1 2\n"
        "e 3 4\n"
        "e 5 6\n"
        "e 7 8\n"
        "e 9 10\n"
        "e 11 12\n"
        "e 13 14\n"
        "e 1 7\n"
        "e 4 8\n"
        "e 3 9\n"
        "e 1 10\n"
        "e 2 11\n"
        "e 5 12\n"
        "e 3 13\n"
        "e 6 14\n"
        "REDUCE sat2_to_2cvc3\tIN m_vbl=3\tOUT m_ver=14\tK1 8\tK2 0\tSHORT ok\n"
        "NAMES 1=u1(1) 2=u1(2) 3=u2(1) 4=u2(2) 5=u3(1) 6=u3(2) 7=c1[1] 8=c1[2] 9=c2[1] 10=c2[2]"
        " 11=c3[1] 12=c3[2] 13=c4[1] 14=c4[2]\n"
        "COVER c1[1] c2[1] c2[2] c3[2] c4[1] u1(2) u2(2) u3(2)\n"
        "COVER_VALID yes\n"
        "ORACLE_2SAT YES\n"
        "ORACLE_2CVC YES\n"
    ),
    "fig2": (
        "# formula\n"
        "p cnf2 3 4\n"
        "1 -2 0\n"
        "1 3 0\n"
        "2 -3 0\n"
        "-1 -3 0\n"
        "# exact-cover instance\n"
        "p xce 17 16\n"
        "r 1 2 3 4 5 6 7 8\n"
        "c 1 9\n"
        "c 2 9\n"
        "c 3 10\n"
        "c 4 10\n"
        "c 5 11\n"
        "c 6 11\n"
        "c 7 12\n"
        "c 8 12\n"
        "c 1 13\n"
        "c 3 14\n"
        "c 7 13 14\n"
        "c 5 15\n"
        "c 2 15\n"
        "c 6 16\n"
        "c 8 17\n"
        "c 4 16 17\n"
        "REDUCE sat2_to_3xce2\tIN m_vbl=3\tOUT m_set=16\tK1 6\tK2 0\tSHORT ok\n"
        "NAMES 1=x1[1] 2=~x2[1] 3=x1[2] 4=x3[2] 5=x2[3] 6=~x3[3] 7=~x1[4] 8=~x3[4] 9=s1"
        " 10=s2 11=s3 12=s4 13=t1[1] 14=t1[2] 15=t2[1] 16=t3[1] 17=t3[2]\n"
        "ORACLE_2SAT YES\n"
        "ORACLE_XCE YES\n"
    ),
    "fig3": (
        "# graph\n"
        "p digraph 6 5\n"
        "e 5 2\n"
        "e 3 2\n"
        "e 2 4\n"
        "e 4 3\n"
        "e 3 6\n"
        "s 5\n"
        "t 6\n"
        "# matching instance\n"
        "p ap2dm 14\n"
        "r 3 4 5 6\n"
        "m 5 4\n"
        "m 4 6\n"
        "m 6 5\n"
        "m 7 8\n"
        "m 8 7\n"
        "m 8 9\n"
        "m 9 8\n"
        "m 9 10\n"
        "m 10 9\n"
        "m 12 11\n"
        "m 11 12\n"
        "m 13 12\n"
        "m 12 13\n"
        "m 14 13\n"
        "m 13 14\n"
        "m 11 3\n"
        "m 3 7\n"
        "m 12 4\n"
        "m 4 8\n"
        "m 13 5\n"
        "m 5 9\n"
        "m 14 6\n"
        "m 6 10\n"
        "m 7 1\n"
        "m 10 1\n"
        "m 2 11\n"
        "m 2 14\n"
        "m 1 4\n"
        "m 5 2\n"
        "REDUCE dstcon_to_ap2dm\tIN m_ver=6\tOUT m_set=14\tK1 3\tK2 2\tSHORT ok\n"
        "NAMES 1=s 2=t 3=v1[0] 4=v2[0] 5=v3[0] 6=v4[0] 7=v1[1] 8=v2[1] 9=v3[1] 10=v4[1]"
        " 11=v1[2] 12=v2[2] 13=v3[2] 14=v4[2]\n"
        "ORACLE_DSTCON YES\n"
        "ORACLE_AP2DM NO\n"
        "TURING YES QUERIES 170\n"
    ),
}

# (reduction, gen arguments, reduction run on the generated file first or
# None, output file bytes, stdout)
REDUCE = [
    ("normalize_2sat3", "2sat3 --size 6 --seed 1", None,
     "p cnf2 4 5\n"
     "3 2 0\n"
     "1 4 0\n"
     "-2 -4 0\n"
     "-3 -1 0\n"
     "3 -1 0\n",
     ""),
    ("sat2_to_2cvc3", "2sat3 --size 6 --seed 1", "normalize_2sat3",
     "p graph 18 19\n"
     "e 1 2\n"
     "e 3 4\n"
     "e 5 6\n"
     "e 7 8\n"
     "e 9 10\n"
     "e 11 12\n"
     "e 13 14\n"
     "e 15 16\n"
     "e 17 18\n"
     "e 5 9\n"
     "e 3 10\n"
     "e 1 11\n"
     "e 7 12\n"
     "e 4 13\n"
     "e 8 14\n"
     "e 6 15\n"
     "e 2 16\n"
     "e 5 17\n"
     "e 2 18\n",
     "REDUCE sat2_to_2cvc3\tIN m_vbl=4\tOUT m_ver=18\tK1 8\tK2 0\tSHORT ok\n"),
    ("cvc3_to_sat2", "ugraph3 --size 6 --seed 2", None,
     "p cnf2 5 10\n"
     "2 5 0\n"
     "-2 -5 0\n"
     "3 5 0\n"
     "-3 -5 0\n"
     "1 5 0\n"
     "-1 -5 0\n"
     "1 3 0\n"
     "-1 -3 0\n"
     "1 2 0\n"
     "-1 -2 0\n",
     "REDUCE cvc3_to_sat2\tIN m_ver=5\tOUT m_vbl=5\tK1 1\tK2 0\tSHORT ok\n"),
    ("sat2_to_3xce2", "2sat3 --size 6 --seed 1", "normalize_2sat3",
     "p xce 21 20\n"
     "r 1 2 3 4 5 6 7 8 9 10\n"
     "c 1 11\n"
     "c 2 11\n"
     "c 3 12\n"
     "c 4 12\n"
     "c 5 13\n"
     "c 6 13\n"
     "c 7 14\n"
     "c 8 14\n"
     "c 9 15\n"
     "c 10 15\n"
     "c 8 16\n"
     "c 10 17\n"
     "c 3 16 17\n"
     "c 2 18\n"
     "c 5 18\n"
     "c 1 19\n"
     "c 9 20\n"
     "c 7 19 20\n"
     "c 4 21\n"
     "c 6 21\n",
     "REDUCE sat2_to_3xce2\tIN m_vbl=4\tOUT m_set=20\tK1 6\tK2 0\tSHORT ok\n"),
    ("xce2_to_2lp", "xce --size 6 --seed 2", None,
     "p lin band 5 3 3\n"
     "a 1 1 1\n"
     "a 1 2 1\n"
     "a 3 3 1\n"
     "b 1 1\n"
     "b 2 1\n"
     "b 3 0\n"
     "b 4 0\n"
     "b 5 1\n"
     "B 1 1\n"
     "B 2 1\n"
     "B 3 1\n"
     "B 4 1\n"
     "B 5 1\n",
     "REDUCE xce2_to_2lp\tIN m_set=3\tOUT m_row=3\tK1 1\tK2 0\tSHORT ok\n"),
    ("lp_to_2lp", "lin_geq --size 4 --seed 1", None,
     "p lin band 7 2 3\n"
     "a 2 2 -3\n"
     "a 2 1 -2\n"
     "a 3 1 -1\n"
     "a 3 2 -3\n"
     "a 4 2 1\n"
     "a 4 1 3\n"
     "b 1 0\n"
     "b 2 -3\n"
     "b 3 -2\n"
     "b 4 1\n"
     "b 5 -1\n"
     "b 6 -2\n"
     "b 7 -1\n"
     "B 1 0\n"
     "B 2 5\n"
     "B 3 4\n"
     "B 4 4\n"
     "B 5 0\n"
     "B 6 0\n"
     "B 7 0\n",
     "REDUCE lp_to_2lp\tIN m_col=7\tOUT m_col=7\tK1 1\tK2 0\tSHORT ok\n"),
    ("twolp_to_lp", "lin_band --size 3 --seed 3", None,
     "p lin geq 8 2 5\n"
     "a 1 1 -3\n"
     "a 3 1 -2\n"
     "a 4 2 3\n"
     "a 6 2 2\n"
     "a 7 1 1\n"
     "a 7 2 -1\n"
     "a 8 1 -1\n"
     "a 8 2 1\n"
     "b 1 -4\n"
     "b 2 -3\n"
     "b 3 0\n"
     "b 4 1\n"
     "b 5 0\n"
     "b 6 -2\n"
     "b 7 0\n"
     "b 8 0\n",
     "REDUCE twolp_to_lp\tIN m_col=3\tOUT m_col=8\tK1 6\tK2 0\tSHORT ok\n"),
    ("le_to_xor2sat", "lin_eq --size 5 --seed 5", None,
     "p xor 4 11\n"
     "u 3 0\n"
     "u 1 0\n"
     "x 2 3 1\n"
     "u 1 0\n"
     "u 2 1\n"
     "u 3 0\n"
     "u 2 1\n"
     "u 1 0\n"
     "u 4 0\n"
     "u 4 0\n"
     "u 4 0\n",
     "REDUCE le_to_xor2sat\tIN m_row=4\tOUT m_vbl=4\tK1 1\tK2 0\tSHORT ok\n"),
    ("normalize_dstcon", "digraph4 --size 5 --seed 24", None,
     "p digraph 8 9\n"
     "e 1 7\n"
     "e 3 1\n"
     "e 8 2\n"
     "e 8 1\n"
     "e 2 7\n"
     "e 5 3\n"
     "e 4 6\n"
     "e 7 3\n"
     "e 4 8\n"
     "s 5\n"
     "t 6\n",
     "REDUCE normalize_dstcon\tIN m_ver=4\tOUT m_ver=8\tK1 4\tK2 4\tSHORT ok\n"),
    ("dstcon_to_ap2dm", "dstcon_raw --size 4 --seed 1", "normalize_dstcon",
     "p ap2dm 8\n"
     "r 3 4\n"
     "m 5 6\n"
     "m 6 5\n"
     "m 8 7\n"
     "m 7 8\n"
     "m 7 3\n"
     "m 3 5\n"
     "m 8 4\n"
     "m 4 6\n"
     "m 5 1\n"
     "m 6 1\n"
     "m 2 7\n"
     "m 2 8\n"
     "m 1 3\n"
     "m 4 2\n",
     "REDUCE dstcon_to_ap2dm\tIN m_ver=4\tOUT m_set=8\tK1 3\tK2 2\tSHORT ok\n"),
    ("reduce_degree_dstcon", "digraph4 --size 5 --seed 4 --deg-bound 4", None,
     "p digraph 5 6\n"
     "e 2 3\n"
     "e 3 4\n"
     "e 4 2\n"
     "e 3 1\n"
     "e 1 2\n"
     "e 1 4\n"
     "s 5\n"
     "t 4\n",
     "REDUCE reduce_degree_dstcon\tIN m_ver=4\tOUT m_ver=5\tK1 2\tK2 0\tSHORT ok\n"),
]


def _gen(tmp_path, family: str, size: int, seed: int):
    path = tmp_path / f"{family}_{seed}.txt"
    assert main(["gen", family, "--size", str(size), "--seed", str(seed), "-o", str(path)]) == 0
    return path


@pytest.mark.parametrize("family,size,seed,code,stdout", SOLVE)
def test_solve(tmp_path, capsys, family, size, seed, code, stdout):
    path = _gen(tmp_path, family, size, seed)
    capsys.readouterr()
    assert main(["solve", str(path)]) == code
    assert capsys.readouterr().out == stdout


def test_solve_covers_every_header_class(tmp_path):
    headers = {}
    for family, size, seed, code, _ in SOLVE:
        header = _gen(tmp_path, family, size, seed).read_text().split()[1]
        headers.setdefault(header, set()).add(code)
    assert headers == {h: {0, 1} for h in ("cnf2", "digraph", "graph", "xce", "ap2dm", "lin", "xor")}


@pytest.mark.parametrize("family,size,seed,dot", DOT)
def test_dot(tmp_path, family, size, seed, dot):
    path = _gen(tmp_path, family, size, seed)
    out = tmp_path / "out.dot"
    assert main(["dot", str(path), "-o", str(out)]) == 0
    assert out.read_text() == dot


@pytest.mark.parametrize("which", sorted(EXAMPLE))
def test_example(capsys, which):
    assert main(["example", which]) == 0
    assert capsys.readouterr().out == EXAMPLE[which]


def test_reduce_covers_every_reduction():
    assert sorted(name for name, *_ in REDUCE) == sorted(REDUCTIONS)


@pytest.mark.parametrize("name,gen,prepare,output,stdout", REDUCE, ids=[r[0] for r in REDUCE])
def test_reduce(tmp_path, capsys, name, gen, prepare, output, stdout):
    path = tmp_path / "in.txt"
    assert main(["gen", *gen.split(), "-o", str(path)]) == 0
    if prepare:
        assert main(["reduce", prepare, str(path), str(tmp_path / "prepared.txt")]) == 0
        path = tmp_path / "prepared.txt"
    capsys.readouterr()
    assert main(["reduce", name, str(path), str(tmp_path / "out.txt")]) == 0
    assert (tmp_path / "out.txt").read_text() == output
    assert capsys.readouterr().out == stdout
