"""bench/spans.py's tracer on the CLI path: every name `SPAN_TARGETS` wraps
exists, the traced `harness.verify` layer sees the run `cli.verify` makes,
and `uninstall` puts the originals back."""

import importlib.util
from pathlib import Path

from redlab import cli, figures, harness, oracles, reductions

TOOL = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
spec = importlib.util.spec_from_file_location("bench_spans", TOOL)
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)


def test_cli_runs_reach_the_traced_engine(tmp_path, capsys):
    verify, tracer = harness.verify, spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["verify", "dstcon_to_ap2dm", "--trials", "5",
                         "--run-dir", str(tmp_path)]) == 0
        assert cli.main(["fit", "dstcon_to_ap2dm", "--trials", "5"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    counts = tracer.counts
    assert counts["cli.verify.calls"] == counts["harness.verify.calls"] == 1
    assert counts["cli.fit.calls"] == counts["harness.fit_shortness.calls"] == 1
    assert harness.verify is verify and harness.verify_m_reduction is harness.verify


def test_reduction_counters_read_the_report():
    """The tracer's reduction counters come from the report each reduction
    returns: one call, in_size m_vbl = 3 and out_size m_set = 16 on fig2."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        reductions.sat2_to_3xce2(figures.FIG2_FORMULA)
    finally:
        tracer.uninstall()
    layer = "reductions.sat2_to_3xce2"
    assert [tracer.counts[f"{layer}.{k}"] for k in ("calls", "in_size", "out_size")] == [1, 3, 16]


def test_query_counter_reads_the_answer_log():
    """The oracle reduction's counters: one call, 170 queries and in/out
    m_set = m_ver = 14 on fig3's gadget, read from the report's answers."""
    _, a, _ = figures.fig3()
    tracer = spans.Tracer()
    tracer.install()
    try:
        reductions.ap2dm_to_dstcon_queries(a, oracles.dstcon_oracle)
    finally:
        tracer.uninstall()
    layer = "reductions.ap2dm_to_dstcon_queries"
    counted = [tracer.counts[f"{layer}.{k}"] for k in ("calls", "queries", "in_size", "out_size")]
    assert counted == [1, 170, 14, 14]
