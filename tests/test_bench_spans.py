"""bench/spans.py's tracer on the CLI path: every name `SPAN_TARGETS` wraps
exists, the traced `harness.verify` layer sees the run `cli.verify` makes,
and `uninstall` puts the originals back."""

import importlib.util
from pathlib import Path

from redlab import cli, harness

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
