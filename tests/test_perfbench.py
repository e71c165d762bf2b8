"""The benchmark's traced pass still finds every span name it keys on."""

from pathlib import Path

from boundstate_lab import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_pass_resolves_every_keyed_span(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["classify", "--alpha", "5"]) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    # a KeyError here means a public function the benchmark reads was
    # deleted or renamed
    metrics = layer_metrics(tracer, 1, 0.0)
    assert len(metrics) == 21
    assert metrics["classify.classify_ms"][0] > 0.0
