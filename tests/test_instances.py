import pytest
from hypothesis import example, given, settings, strategies as st

from redlab.instances import (
    MAX_LIN_ENTRY,
    PROBLEMS,
    Ap2dmInstance,
    CnfFormula,
    Digraph,
    LinSystem,
    Parity,
    ParseError,
    SizeParamError,
    UGraph,
    Unit,
    Violation,
    XceInstance,
    XorSystem,
    parse,
    serialize,
    size_param,
    validate,
)
from redlab.harness import GenSpec, generate
from redlab.reductions import normalize_2sat3
from references import is_normalized_2sat3, is_normalized_dstcon

FIG1 = CnfFormula(3, ((1, -2), (2, 1), (-1, 3), (2, -3)))
FIG3 = Digraph(6, ((5, 2), (3, 2), (2, 4), (4, 3), (3, 6)), 5, 6)
NORMAL = {"normal_form": True}


def _ids(draw, n: int):
    """Ids 1..n, or in one draw of three (and when n is 0) -1..n+1."""
    return st.integers(1, n) if n and draw(st.integers(0, 2)) else st.integers(-1, n + 1)


@st.composite
def messy_formulas(draw):
    """Formulas of 0 to 3 literals per clause, or a normalized generated
    formula, whole or without its first clause, with at most one such clause
    added."""
    drawn = draw(st.booleans())
    if drawn:
        n, clauses = draw(st.integers(0, 4)), ()
    else:
        f = normalize_2sat3(generate(GenSpec("2sat3", max_size=8, seed=draw(st.integers(0, 999))), 0))
        n, clauses = f.num_vars, f.clauses[draw(st.integers(0, 1)):]
    var = _ids(draw, n)
    lit = st.builds(lambda v, pos: v if pos else -v, var, st.booleans())
    clause = st.lists(lit, max_size=3).map(tuple)
    return CnfFormula(n, clauses + tuple(draw(st.lists(clause, max_size=7 if drawn else 1))))


@st.composite
def messy_digraphs(draw):
    """Digraphs, with out-of-range, repeated and looping edges and endpoints."""
    n = draw(st.integers(0, 6))
    ids = _ids(draw, n)
    return Digraph(n, tuple(draw(st.lists(st.tuples(ids, ids), max_size=8))), draw(ids), draw(ids))


@st.composite
def messy_xce(draw):
    """Instances with sets of 0 to 4 ids, out-of-range and repeated ids too."""
    n = draw(st.integers(0, 5))
    ids = _ids(draw, n)
    sets = draw(st.lists(st.lists(ids, max_size=4).map(tuple), max_size=8))
    return XceInstance(n, tuple(draw(st.lists(ids, max_size=3))), tuple(sets))


class TestSizeParams:
    def test_fig1_formula(self):
        assert size_param(FIG1, "m_vbl") == 3
        assert size_param(FIG1, "m_cls") == 4

    def test_single_vertex_digraph_clamps_edges(self):
        g = Digraph(1, (), 1, 1)
        assert size_param(g, "m_ver") == 1
        # 0 edges is outside N+; the empty-instance convention maps it to 1
        assert size_param(g, "m_edg") == 1

    def test_fig3_graph(self):
        assert size_param(FIG3, "m_ver") == 6
        assert size_param(FIG3, "m_edg") == 5

    def test_lin_row_col_follow_source_naming(self):
        # m_row is the column count and m_col the row count, deliberately
        s = LinSystem("geq", 2, 5, 3, ((1, 1, 1),), (0, 0))
        assert size_param(s, "m_row") == 5
        assert size_param(s, "m_col") == 2

    def test_invalid_pairing(self):
        with pytest.raises(SizeParamError):
            size_param(FIG1, "m_ver")
        with pytest.raises(SizeParamError):
            size_param(FIG3, "m_vbl")


class TestValidate:
    def test_k4_degree_3(self):
        k4 = UGraph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))
        assert validate(k4, {"deg_bound": 3}) == []

    def test_occ_bound_violation_carries_witness(self):
        f = CnfFormula(2, ((1, 2), (-1, 2), (1, -2), (-1, -2)))
        bad = validate(f, {"occ_bound": 3})
        assert {v.rule for v in bad} == {"occ_bound"}
        assert (1, 4) in {v.witness for v in bad}
        assert (2, 4) in {v.witness for v in bad}

    def test_lemma1_on_path(self):
        # connected path a-b-c: 3 <= 2*2 and 2 <= 2*3/2
        path = UGraph(3, ((1, 2), (2, 3)))
        assert validate(path, {"deg_bound": 2}) == []

    def test_lemma1_skipped_when_disconnected(self):
        g = UGraph(4, ((1, 2),))
        assert validate(g, {"deg_bound": 1}) == []

    def test_deg_bound_reports_out_of_range_edge(self):
        # the edge {2,5} is reported, not indexed into a per-vertex table
        for g, detail in ((UGraph(3, ((1, 2), (2, 5))), "edge {2,5} out of range"),
                          (Digraph(3, ((1, 2), (2, 5)), 1, 3), "edge (2,5) out of range")):
            assert validate(g, {"deg_bound": 3}) == [Violation("vertex_range", (2, 5), detail)]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_deg_bound_accepts_by_independent_recount(self, data):
        """Tagged validation accepts exactly the valid graphs whose recounted
        degrees stay within k, and its violations extend the untagged ones."""
        from collections import Counter

        n = data.draw(st.integers(0, 6))
        ids = st.integers(-1, n + 1)
        edges = tuple(data.draw(st.lists(st.tuples(ids, ids), max_size=10)))
        k = data.draw(st.integers(1, 4))
        directed = data.draw(st.booleans())
        g = Digraph(n, edges, data.draw(ids), data.draw(ids)) if directed else UGraph(n, edges)
        untagged = validate(g)
        tagged = validate(g, {"deg_bound": k})
        degree = Counter(w for e in edges for w in e)  # a digraph self-loop counts twice
        assert (tagged == []) == (untagged == [] and all(d <= k for d in degree.values()))
        assert tagged[:len(untagged)] == untagged

    # Each restriction tag, tested as deg_bound is above; the examples are
    # instances in the restricted form, and one with 4 occurrences of each
    # variable that a draw rarely reaches.

    @settings(max_examples=300, deadline=None)
    @given(messy_formulas())
    @example(CnfFormula(0, ()))
    @example(FIG1)
    @example(CnfFormula(2, ((1, 2), (-1, -2), (-2, 1))))
    @example(CnfFormula(2, ((1, 2), (-1, -2), (-2, 1), (2, -1))))
    def test_cnf_normal_form_by_independent_predicate(self, f):
        """Tagged validation accepts exactly the valid formulas that
        `references.is_normalized_2sat3` accepts, and its violations extend
        the untagged ones."""
        untagged = validate(f)
        tagged = validate(f, NORMAL)
        assert (tagged == []) == (untagged == [] and is_normalized_2sat3(f))
        assert tagged[:len(untagged)] == untagged

    @settings(max_examples=300, deadline=None)
    @given(messy_digraphs())
    @example(Digraph(2, (), 1, 2))
    @example(Digraph(5, ((1, 3), (3, 4), (4, 3), (3, 5), (4, 2)), 1, 2))
    def test_digraph_normal_form_by_independent_predicate(self, g):
        untagged = validate(g)
        tagged = validate(g, NORMAL)
        assert (tagged == []) == (untagged == [] and is_normalized_dstcon(g))
        assert tagged[:len(untagged)] == untagged

    @settings(max_examples=300, deadline=None)
    @given(messy_xce())
    @example(XceInstance(0, (), ()))
    @example(XceInstance(3, (2,), ((1, 2), (3,), (1, 2, 3))))
    def test_xce_exactly_2_by_independent_recount(self, x):
        from collections import Counter

        untagged = validate(x)
        tagged = validate(x, {"exactly_2": True})
        held = Counter(e for s in x.sets for e in s)
        twice = all(held[e] == 2 for e in range(1, x.universe_size + 1))
        assert (tagged == []) == (untagged == [] and twice)
        assert tagged[:len(untagged)] == untagged

    @pytest.mark.parametrize("x, tags", [
        (CnfFormula(3, ((1, 2),)), NORMAL),
        (Digraph(2, ((1, 2), (2, 1)), 1, 1), NORMAL),
        (XceInstance(2, (), ((1,),)), {"exactly_2": True}),
    ])
    def test_parse_applies_no_tag(self, x, tags):
        """A valid instance outside a restriction still parses."""
        assert validate(x) == [] and validate(x, tags)
        assert parse(serialize(x)) == x

    def test_occ_soundness_by_independent_recount(self):
        # instances accepted under occ_bound=3 recount to <= 3 via Counter
        from collections import Counter
        from redlab.harness import GenSpec, generate

        for t in range(200):
            f = generate(GenSpec("2sat3", max_size=9, seed=77), t)
            if validate(f, {"occ_bound": 3}):
                continue
            counts = Counter(abs(l) for c in f.clauses for l in c)
            assert all(n <= 3 for n in counts.values())

    def test_ap2dm_connectivity_modes(self):
        # v=1 exempt with one or two non-exempt partners each way: accepted
        assert validate(Ap2dmInstance(3, (1,), ((1, 2), (3, 1)))) == []
        assert validate(Ap2dmInstance(3, (1,), ((1, 2), (1, 3), (3, 1)))) == []
        # no non-exempt right partner: rejected
        bad = validate(Ap2dmInstance(3, (1,), ((2, 1),)))
        assert [(v.rule, v.witness) for v in bad] == [("uniquely_connected", (1, 0, 1))]

    def test_ap2dm_overlap_counts_trivial_pair(self):
        a = Ap2dmInstance(4, (), ((1, 2), (1, 3), (1, 4)))
        assert validate(a, {"overlap_bound": 4}) == []
        assert any(v.rule == "overlap_out" for v in validate(a, {"overlap_bound": 3}))

    def test_xce_overlap_is_a_type_invariant(self):
        x = XceInstance(2, (), ((1,), (1, 2), (1,)))
        assert any(v.rule == "overlap" for v in validate(x))

    def test_ugraph_edge_order(self):
        assert validate(UGraph(2, ((2, 1),))) == [
            Violation("edge_order", (2, 1), "edge (2,1) must satisfy u < v")]


class TestFormats:
    def test_cnf_example(self):
        f = parse("p cnf2 2 1\n1 -2 0\n")
        assert f == CnfFormula(2, ((1, -2),))

    def test_digraph_example(self):
        g = parse("p digraph 2 1\ne 1 2\ns 1\nt 2\n")
        assert g == Digraph(2, ((1, 2),), 1, 2)

    def test_xce_example(self):
        x = parse("p xce 3 2\nr 3\nc 1 2\nc 2 3\n")
        assert x == XceInstance(3, (3,), ((1, 2), (2, 3)))

    def test_comments_ignored(self):
        g = parse("# heading\np graph 2 1\n# an edge, not +3, 1_0, 03, -0 or \u0663\ne 1 2\n")
        assert g == UGraph(2, ((1, 2),))

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as err:
            parse("p digraph 2 2\ne 1 2\ne 1 2\ns 1\nt 2\n")
        assert "duplicate edge" in str(err.value) and err.value.line == 3
        with pytest.raises(ParseError):
            parse("p cnf2 2 1\n1 -5 0\n")
        with pytest.raises(ParseError):
            parse("p wat 1 1\n")
        with pytest.raises(ParseError):
            parse("p graph 3 1\ne 2 1\n")  # requires u < v

    def test_lin_band_roundtrip(self):
        s = LinSystem("band", 2, 2, 3, ((1, 1, 2), (1, 2, -3), (2, 1, 1)), (0, 1), (5, 1))
        assert parse(serialize(s)) == s

    def test_lin_bounds_must_cover_rows(self):
        with pytest.raises(ParseError) as err:
            parse("p lin geq 2 2 3\na 1 1 1\nb 1 0\n")
        assert str(err.value) == "1 lower bounds for 2 rows" and err.value.line is None

    def test_xor_roundtrip(self):
        x = XorSystem(3, (Parity(1, 2, 1), Unit(3, 0)))
        assert parse(serialize(x)) == x

    def test_serialize_parse_canonical_text(self):
        text = "p cnf2 2 1\n1 -2 0\n"
        assert serialize(parse(text)) == text

    @pytest.mark.parametrize("header,usage", [
        ("p cnf2 2", "p cnf2 <n> <m>"),
        ("p digraph 2 1 1", "p digraph <n> <m>"),
        ("p graph", "p graph <n> <m>"),
        ("p xce 3", "p xce <nx> <nc>"),
        ("p ap2dm 3 1", "p ap2dm <nx>"),
        ("p lin geq 1 1", "p lin <geq|band|eq> <m> <n> <k>"),
        ("p lin le 1 1 1", "p lin <geq|band|eq> <m> <n> <k>"),
        ("p xor 1 1 1", "p xor <n> <m>"),
    ])
    def test_header_shape_errors(self, header, usage):
        with pytest.raises(ParseError) as err:
            parse(header + "\n")
        assert str(err.value) == f"line 1: header must be '{usage}'"

    @pytest.mark.parametrize("text,field", [
        ("p cnf2 -3 0\n", "n"),
        ("p digraph 2 -1\ns 1\nt 2\n", "m"),
        ("p graph -2 0\n", "n"),
        ("p xce -1 0\nr\n", "nx"),
        ("p ap2dm -5\nr\n", "nx"),
        ("p lin geq -1 2 3\n", "m"),
        ("p lin band 1 -2 3\n", "n"),
        ("p lin eq 1 2 -3\n", "k"),
        ("p xor -1 0\n", "n"),
    ])
    def test_negative_header_count(self, text, field):
        with pytest.raises(ParseError) as err:
            parse("# comment\n" + text)
        assert err.value.line == 2
        assert f"header count {field} must not be negative" in str(err.value)

    @pytest.mark.parametrize("text,message", [
        ("p cnf2 2 2\n1 2 0\n# two\n1 -5 0\n", "line 4: literal -5 out of range in clause 2"),
        ("p digraph 3 1\ne 1 2\ns 1\nt 4\n", "line 4: t=4 out of range"),
        ("p graph 3 2\ne 1 2\ne 3 2\n", "line 3: edge (3,2) must satisfy u < v"),
        ("p xce 3 2\nr\nc 1 2\nc 3 3\n", "line 4: set 2 repeats an element"),
        ("p ap2dm 3\nr\nm 1 2\nm 2 2\n", "line 4: trivial pair (2,2) must stay implicit"),
        # the row's third entry carries the line
        ("p lin geq 2 3 3\na 1 1 1\na 2 1 1\na 1 2 1\na 1 3 1\nb 1 0\nb 2 0\n",
         "line 5: row 1 has 3 nonzeros, bound 2"),
        (f"p lin geq 1 1 3\na 1 1 {-MAX_LIN_ENTRY - 1}\nb 1 0\n",
         "line 2: entry at (1,1) exceeds 63-bit budget"),
        ("p xor 2 2\nu 1 0\nx 1 1 0\n", "line 3: parity constraint 2 needs two distinct variables"),
    ], ids=["cnf", "digraph", "graph", "xce", "ap2dm", "lin_row", "lin_width", "xor"])
    def test_record_violation_carries_its_line(self, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("text,message", [
        ("p digraph 2 0\ns 1\ns 2\nt 1\n", "line 2: expected the edge lines, then one s and one t line"),
        ("p digraph 2 0\nt 1\ns 1\n# again\nt 2\n", "line 2: expected the edge lines, then one s and one t line"),
        ("p xce 2 0\nr 1 1 2 2\n", "line 2: exempt ids must be strictly ascending, got 'r 1 1 2 2'"),
        ("p ap2dm 3\n# exempt\nr 3 1 3\nm 1 2\n", "line 3: exempt ids must be strictly ascending, got 'r 3 1 3'"),
    ], ids=["digraph_s", "digraph_t", "xce", "ap2dm"])
    def test_repeated_line_or_exempt_id_rejected(self, text, message):
        """Neither keeps the last s/t line nor merges repeated exempt ids: after
        the edges come exactly one s line, then one t line, and exempt ids are
        strictly ascending."""
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("text,message", [
        ("p graph 1_0 1\ne 1 10\n", "line 1: expected 'p graph 10 1', got 'p graph 1_0 1'"),
        ("p cnf2 2 1\n+1 -2 0\n", "line 2: expected '1 -2 0', got '+1 -2 0'"),
        ("p xor 3 1\n# unit\nu 03 1\n", "line 3: expected 'u 3 1', got 'u 03 1'"),
        ("p xce 3 0\nr \u0663\n", "line 2: expected 'r 3', got 'r \u0663'"),
        ("p lin eq 1 1 1\na 1 1 1\nb 1 -0\n", "line 3: expected 'b 1 0', got 'b 1 -0'"),
        ("p digraph 2 1\nt 2\ns 1\ne 1 2\n", "line 2: unexpected line 't 2'"),
        ("p xce 2 0\nr 2 1\n", "line 2: exempt ids must be strictly ascending, got 'r 2 1'"),
        ("p xce 3 1\nr\nc 3 1\n", "line 3: set ids must be ascending, got 'c 3 1'"),
        ("p lin geq 1 1 1\nb 1 0\na 1 1 1\n", "line 2: unexpected line 'b 1 0'"),
        ("p lin geq 2 1 1\nb 2 0\nb 1 0\n", "line 2: expected 'b 1 <bound>', got 'b 2 0'"),
        ("p lin geq 1 1 1\nb 1 0\nB 1 0\n", "line 3: unexpected line 'B 1 0'"),
        ("p lin geq 1 1 1\na 1 1 1\nb 1 0\nb 1 0\n", "line 4: unexpected line 'b 1 0'"),
    ], ids=["header", "sign", "leading_zero", "digit", "minus_zero", "digraph_order", "exempt_order",
            "set_order", "lin_order", "lin_rows", "lin_upper_in_geq", "lin_extra_bound"])
    def test_only_the_written_spelling_parses(self, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message

    def test_exemption_line_required(self):
        for text, at in (("p xce 2 0\n", ""), ("p ap2dm 2\nm 1 2\n", "line 2: ")):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert str(err.value) == at + "first body line must be the exemption line 'r ...'"
        with pytest.raises(ParseError) as err:
            parse("p ap2dm 2\nr 1 3\n")
        assert str(err.value) == "line 2: exempt element 3 out of range"


def _clause(n):
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    return st.lists(lit, min_size=1, max_size=2).map(tuple)


@st.composite
def cnfs(draw):
    n = draw(st.integers(1, 8))
    clauses = draw(st.lists(_clause(n), max_size=10))
    return CnfFormula(n, tuple(clauses))


@st.composite
def digraphs(draw):
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    return Digraph(n, tuple(edges), draw(st.integers(1, n)), draw(st.integers(1, n)))


@st.composite
def ugraphs(draw):
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    return UGraph(n, tuple(edges))


class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(cnfs())
    def test_cnf(self, f):
        assert parse(serialize(f)) == f

    @settings(max_examples=120, deadline=None)
    @given(digraphs())
    def test_digraph(self, g):
        assert parse(serialize(g)) == g

    @settings(max_examples=120, deadline=None)
    @given(ugraphs())
    def test_ugraph(self, g):
        assert parse(serialize(g)) == g

    def test_generator_instances_roundtrip(self):
        from redlab.harness import GENERATORS, GenSpec, generate

        generated = (generate(GenSpec(prob, max_size=7, seed=11), t) for prob in GENERATORS for t in range(50))
        boundary = (XceInstance(1, (), ((), (1,))),  # an empty set
                    LinSystem("band", 1, 2, 3, ((1, 1, MAX_LIN_ENTRY), (1, 2, -MAX_LIN_ENTRY)), (0,), (0,)))
        for inst in (*generated, *boundary):
            assert parse(serialize(inst)) == inst


_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
# Each turns an integer token such as 3 or 10 into +3, 03, 1_0 or \u0663, which
# int() reads too (or into a token it rejects, such as +-3 or _3).
_RESPELLINGS = (lambda tok: "+" + tok, lambda tok: "0" + tok,
                lambda tok: tok[:-1] + "_" + tok[-1], lambda tok: tok.translate(_ARABIC_INDIC))


def _mutants(text: str):
    """(kind, mutated text, the 1-based lines it moved or changed) for a text
    `serialize` wrote, which has no comment or blank line."""
    lines = text.splitlines()
    letters = [line.split()[0] for line in lines]

    def moved(i, j):  # line i taken out and put back at index j
        rest = lines[:i] + lines[i + 1:]
        return "\n".join(rest[:j] + [lines[i]] + rest[j:]) + "\n"

    def replaced(i, line):
        return "\n".join(lines[:i] + [line] + lines[i + 1:]) + "\n"

    for i in range(1, len(lines) - 1):
        yield "swap", moved(i, i + 1), {i + 1, i + 2}
    for i, line in enumerate(lines):
        if letters[i] in ("r", "c"):
            yield "ids_reversed", replaced(i, " ".join([letters[i], *line.split()[:0:-1]])), {i + 1}
    if letters[-2:] == ["s", "t"]:
        yield "s_first", moved(len(lines) - 2, 1), {2}
    if "a" in letters:
        among = letters.index("a") + letters.count("a") // 2
        for i, letter in enumerate(letters):
            if letter == "b":
                yield "b_among_a", moved(i, among), {among + 1}
    for i, line in enumerate(lines):
        toks = line.split()
        for j, tok in enumerate(toks):
            if tok.lstrip("-").isdigit():
                for respell in _RESPELLINGS:
                    toks2 = toks[:j] + [respell(tok)] + toks[j + 1:]
                    yield "respelled", replaced(i, " ".join(toks2)), {i + 1}


def _written_texts() -> set[str]:
    from redlab.harness import GENERATORS, GenSpec, generate

    return {serialize(generate(GenSpec(prob, max_size=6, seed=seed), t))
            for prob in GENERATORS for seed in (3, 41) for t in range(10)}


def test_serialize_writes_the_only_spelling():
    """Every generator family's output parses back to itself, and each
    mutation of it is rejected on a line it touched, unless it is itself what
    `serialize` writes: a swap of two clause lines, say."""
    texts = _written_texts()
    assert {text.split()[1] for text in texts} == {problem.header for problem in PROBLEMS.values()}
    rejected = set()
    for text in texts:
        assert serialize(parse(text)) == text
        for kind, mutant, touched in _mutants(text):
            try:
                back = serialize(parse(mutant))
            except ParseError as err:
                assert err.line in touched, (mutant, str(err))
                rejected.add(kind)
            else:
                assert back == mutant
    assert rejected == {"swap", "ids_reversed", "s_first", "b_among_a", "respelled"}


_FILLERS = ("#note", "   # indented note", " \t ", "", "#")


def _padded(text: str) -> tuple[str, list[int | None]]:
    """`text` with comment and blank lines put before and among its lines, and
    `where`: where[n] is the new number of old line n, where[0] None for no line."""
    out, where = [], [None]
    for i, line in enumerate(text.splitlines()):
        out += _FILLERS[:(i + 2) % (len(_FILLERS) + 1)]
        out.append(line)
        where.append(len(out))
    return "\n".join(out) + "\n", where


def test_line_numbers_count_comments_and_blank_lines():
    """Each mutant of a written text, padded with comments, indented comments
    and whitespace-only lines, gives the mutant's verdict; an error names the
    same line, shifted by the padding above it."""
    for text in _written_texts():
        for _, mutant, _ in _mutants(text):
            padded, where = _padded(mutant)
            try:
                want = parse(mutant)
            except ParseError as err:
                with pytest.raises(ParseError) as got:
                    parse(padded)
                detail = str(err).removeprefix(f"line {err.line}: ")
                assert got.value.line == where[err.line or 0], (padded, str(err), str(got.value))
                assert str(got.value) == str(ParseError(detail, got.value.line))
            else:
                assert parse(padded) == want


def test_instances_are_immutable():
    with pytest.raises(Exception):
        FIG1.num_vars = 5
