"""The names the benchmark reaches into the package by.

``perfbench/tracing.py`` wraps functions of ``wpec.cli``,
``wpec.protocol`` and ``wpec.verifier`` by attribute name for its traced
runs, and ``perfbench/capture.py`` reads ``wpec.codes.PCANON`` and the
fault model's signature pool.  Renaming or deleting any of them breaks
the traced benchmark; this test makes it fail here first.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()  # AttributeError when a wrapped name is gone
        saved = list(tracer._saved)
        assert saved
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in saved)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in saved)


def test_tracer_sees_the_lazily_bound_cli_calls(monkeypatch, tmp_path):
    # the CLI binds its library names on first use; the commands must
    # still call the wrappers the tracer set on those names
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    from wpec import cli, verifier

    out = str(tmp_path / "out.txt")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert cli.main(["verify-appendix-a", "--max-faults", "1", "--out", out]) == 0
        assert cli.main(["decode", str(PERFBENCH / "bundle.txt"), "--out", out]) == 0
    finally:
        tracer.uninstall()
    spans = tracer.dump()["spans"]
    for name in (
        "verifier.build_lookup_table",
        "verifier.verify_claim2",
        "protocol.decode_with_report",
    ):
        assert spans[name][1] >= 1, name
    assert all(getattr(owner, attr) is fn for owner, attr, fn in saved)
    assert cli.build_lookup_table is verifier.build_lookup_table


def test_capture_inputs_exist():
    from wpec.codes import PCANON
    from wpec.verifier import fault_model

    assert len(PCANON) == 128
    assert len(fault_model(flagged=True, interleaved=True).signature_pool()) == 208
