"""Golden output of `redlab solve` and `redlab dot`.

One small generated instance per header class, a YES and a NO one each:
stdout and exit code of `solve` are pinned literally, as are the bytes
`dot` writes for the three graph-shaped classes.
"""

from __future__ import annotations

import pytest

from redlab.cli import main

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
