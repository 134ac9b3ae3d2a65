"""Command-line interface: exit codes, output formats, golden
comparisons, and the decode command's bundle handling."""

import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from wpec import cli, verifier
from wpec.cli import main
from wpec.codes import GOLAY_ROWS, LOGICAL23, N23, N49, golay_syndrome
from wpec.decoder import build_correction_table
from wpec.pauli import PauliOp
from wpec.protocol import OutcomeBundle, run_until_stable
from wpec.verifier import TABLE1_GOLDEN

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _python(args, **kwargs):
    """Start a fresh interpreter that imports the package from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen([sys.executable, *args], env=env, **kwargs)


def test_reproduce_table1_matches_golden(capsys):
    assert main(["reproduce-table1"]) == 0
    assert capsys.readouterr().out == TABLE1_GOLDEN


def test_reproduce_table1_json_lines(capsys):
    assert main(["reproduce-table1", "--format", "json-lines"]) == 0
    rows = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert len(rows) == 13
    assert rows[0] == {
        "form": "PIZZZII",
        "m": [7],
        "stilde": "000",
        "tau": "0000000",
        "block_parity": "1011100",
    }
    assert rows[-1]["form"] == "IIIIIII"


@pytest.mark.parametrize("code", ["steane", "golay", "concat49"])
def test_verify_claims_pass(code, capsys):
    assert main(["verify-claims", "--code", code]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_claims_json_lines(capsys):
    assert main(["verify-claims", "--code", "steane", "--format", "json-lines"]) == 0
    records = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert len(records) == 6
    assert all(r["ok"] for r in records)
    assert any("soundness" in r["check"] for r in records)


def _golay_corrections(ct):
    # correction[s | p << 11]: what the sweep's wpec_golay, patched or
    # not, gives syndrome s and weight parity p
    return np.array(
        [cli.wpec_golay(k & 2047, k >> 11, ct).z_bits for k in range(4096)],
        dtype=np.uint32,
    )


def _reference_golay_keys():
    # every one of the 2^23 errors e, its syndrome and its class key
    # golay_syndrome(e) | (weight of e & 1) << 11, as whole arrays
    synd = np.zeros(1, dtype=np.uint16)  # synd[e] = golay_syndrome(e)
    for b in range(N23):
        synd = np.concatenate([synd, synd ^ np.uint16(golay_syndrome(1 << b))])
    e = np.arange(1 << N23, dtype=np.uint32)
    parity = (np.bitwise_count(e) & 1).astype(np.uint16)
    return e, synd, synd | parity << 11


def _reference_golay_sweep(correction):
    # the per-error sweep: every one of the 2^23 errors decoded in one
    # whole-array pass
    e, synd, keys = _reference_golay_keys()
    residual = e ^ correction[keys]
    zero_synd = int(np.count_nonzero(synd == 0))
    odd = int(np.count_nonzero(np.bitwise_count(residual) & 1))
    off = int(np.count_nonzero(synd[residual]))
    return zero_synd, odd, off


def test_golay_sweep_matches_whole_array_reference():
    ct = build_correction_table()
    counts = cli._golay_sweep(ct)
    assert counts == _reference_golay_sweep(_golay_corrections(ct)) == (4096, 0, 0)


def test_golay_class_sizes_match_the_key_histogram():
    # the fibres of the linear key map against a count of all 2^23 keys
    keys = _reference_golay_keys()[2]
    sizes = cli._golay_class_sizes()
    assert sizes == np.bincount(keys, minlength=4096).tolist()
    assert sizes == [2048] * 4096


@pytest.mark.parametrize(
    "patch, failed",
    [
        (("GOLAY_ROWS", GOLAY_ROWS[:10] + GOLAY_ROWS[9:10]),
         "FAIL stabilizer span size: 1024 distinct elements from 11 generators"),
        (("GOLAY_ROWS", GOLAY_ROWS[:10] + (1,)),
         "FAIL all 2048 stabilizers even weight: no odd element"),
        (("LOGICAL23", LOGICAL23 ^ 1),
         "FAIL all 2048 logical-coset elements odd weight: no even element"),
    ],
    ids=["repeated-row", "odd-row", "even-logical"],
)
def test_golay_span_checks_fail_on_a_bad_code(patch, failed, monkeypatch, capsys):
    # the suite reads the rows and the logical through cli's own names;
    # the syndromes, the leaders and the sweep keep the true code
    monkeypatch.setattr(cli, *patch)
    assert main(["verify-claims", "--code", "golay"]) == 1
    assert failed in capsys.readouterr().out.splitlines()


def test_golay_soundness_fails_on_a_corrupt_leader(monkeypatch, capsys):
    # a leader with the wrong syndrome still gets its weight parity fixed
    # by the logical flip, so only the residual syndromes show it
    ct = build_correction_table()
    leaders = dict(ct.golay_min)
    leaders[5] = leaders[6]
    ct.__dict__["golay_min"] = leaders  # what the cached property reads
    counts = cli._golay_sweep(ct)
    assert counts == _reference_golay_sweep(_golay_corrections(ct)) == (4096, 0, 4096)
    monkeypatch.setattr(cli, "build_correction_table", lambda: ct)
    assert main(["verify-claims", "--code", "golay"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL weight-parity decoding soundness (2^23 errors): 0 residuals of " \
        "odd weight, 4096 of nonzero syndrome" in lines
    assert lines[-1] == "golay: 4/6 checks passed"


def test_golay_soundness_fails_without_the_logical_flip(monkeypatch):
    # a decoder that always applies the leader leaves a logical Z on the
    # half of each syndrome's 4,096 errors whose parity differs from it
    ct = build_correction_table()
    monkeypatch.setattr(cli, "wpec_golay", lambda s, w, table: table.golay_min[s])
    counts = cli._golay_sweep(ct)
    assert counts == _reference_golay_sweep(_golay_corrections(ct)) == (4096, 1 << 22, 0)


@pytest.mark.parametrize("job", ["verify-appendix-b", "verify-claims-golay"])
def test_verify_jobs_match_benchmark_digests(job, capsys):
    # the benchmark's expected stdout digests and exit codes, in process
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    entry = expected["jobs"][job]
    assert main(entry["argv"]) == entry["exit"]
    out = capsys.readouterr().out.encode()
    assert (hashlib.sha256(out).hexdigest(), len(out)) == (
        entry["sha256"], entry["bytes"]
    )


@pytest.mark.parametrize(
    "job", ["gen-table", "verify-appendix-a", "negative-control", "decode"]
)
def test_table_jobs_match_benchmark_digests(job, monkeypatch, tmp_path, capsys):
    # the benchmark's expected digests and exit codes, in process; gen-table
    # through its --out file, the rest through stdout
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    entry = expected["jobs"][job]
    out = tmp_path / "out"
    monkeypatch.chdir(ROOT)  # the decode job names its bundle relative to it
    argv = [a.replace("{out}", str(out)) for a in entry["argv"]]
    assert main(argv) == entry["exit"]
    if "{out}" in entry["argv"]:
        data = out.read_bytes()
    else:
        data = capsys.readouterr().out.encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (
        entry["sha256"], entry["bytes"]
    )


def test_appendix_a_small_budget_clean(capsys):
    assert main(["verify-appendix-a", "--max-faults", "1"]) == 0
    out = capsys.readouterr().out
    assert "fault budget 1" in out
    assert "violations: 0" in out


def test_appendix_a_negative_control(capsys):
    rc = main(
        ["verify-appendix-a", "--ordering", "normal", "--no-flags",
         "--max-faults", "3"]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "blockwise" in out and "flagless" in out
    assert "violations: 0" not in out
    # witnesses name concrete fault locations
    assert "@" in out


# stdout of the three violating budget-3 audits, witness labels included,
# captured before the two provenance searches became one; the json-lines
# digests were captured before the reports yielded their own records
@pytest.mark.parametrize(
    "args,digest",
    [
        (["--ordering", "normal", "--no-flags"],
         "482725f6d1def11348859f116647b1e470a4a513edee0eb20bd769e52cdeac5b"),
        (["--ordering", "normal"],
         "aea02e50edb66c8d1a815ef5a4c962fa34830197c0c7d55a753253cdd19f2613"),
        (["--ordering", "permuted", "--no-flags"],
         "9ad84e5d75bc67444c5ff70f765eb5e81c2d75c7efb1e9ed7c240d568514f153"),
        (["--ordering", "normal", "--no-flags", "--format", "json-lines"],
         "ea1d96a8a2fc15b67224a6a8da139e7f8f3358ec892e22e9418be603b3469852"),
        (["--ordering", "normal", "--format", "json-lines"],
         "b0c3657d0aa8e68322e54b3db547e2a03969cca5f115e8a925746042e61908da"),
        (["--ordering", "permuted", "--no-flags", "--format", "json-lines"],
         "1f114ba274b990fa1accefc860a8d1d1e9312f888c754f877eb9efabf7297187"),
    ],
    ids=["negative-control", "blockwise-flagged", "permuted-flagless",
         "negative-control-json", "blockwise-flagged-json",
         "permuted-flagless-json"],
)
def test_appendix_a_witnesses_golden(args, digest, capsys):
    assert main(["verify-appendix-a", "--max-faults", "3"] + args) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# exit codes and stdout digests of the outputs no other test pins byte
# for byte, captured before the reports yielded their own records
PINNED_OUTPUTS = {
    "reproduce-table1 --format json-lines": (
        0, "ac9ecdebf3df3bff793167a1ffa3eacfe4a4a46e92ac6ba666817509b6b6267c"),
    "verify-claims --code steane": (
        0, "4eb5ebff10d5404d828687d2cf353382e68810ae6de1f35d34c573f660377f35"),
    "verify-claims --code steane --format json-lines": (
        0, "80fad5135be7373b56a449d6eb119782b94810814c69f9751d7c596665b092f1"),
    "verify-claims --code golay": (
        0, "cd131c4f69f07105b884581de7996b331ab9361db439511e6a2a8e1c28ef1221"),
    "verify-claims --code golay --format json-lines": (
        0, "dee0d0cc76c0aafb2f333c23732e7df4a0a2738894910f5b6fd9566e744a060a"),
    "verify-claims --code concat49": (
        0, "d1a0ca39f000dd15e2bc05508863bc4af8140cae36939b0c341421be047f1b0c"),
    "verify-claims --code concat49 --format json-lines": (
        0, "2b22fa796bf6ebb0b4a45fb890113492ea524ca2f522f05e279338a3b0709272"),
    "verify-appendix-a --max-faults 1 --format json-lines": (
        0, "5499c89c6c455f1e01f5e3b06ac2d5e87214792f17a54ad088429924cd34d4c7"),
    "verify-appendix-b --max-faults 1": (
        0, "fd425cf2474c32f56ced346502de04e53510760d504d78747915f264beb81f6d"),
    "verify-appendix-b --max-faults 1 --format json-lines": (
        0, "b4bf594e1a372bef352ebe1b7e44e47321e3e61a0ce94f9759de135cc63478de"),
    "verify-appendix-b --max-faults 2": (
        0, "06b858430be00711154e6b10d4b44fd9aa15dd9c0398adad1f825add398dba2d"),
    "verify-appendix-b --max-faults 2 --format json-lines": (
        0, "76e2889a89ef8826e32a123ba45a5be68d0c6b37e870188c1a28dc9855b4d1f4"),
    "verify-appendix-b --max-faults 3 --format json-lines": (
        0, "b73f837fc928e06257bac216b6856b00c4b114303d1ef6cebf2762cc9aa114fd"),
    "decode perfbench/bundle.txt --format json-lines": (
        0, "bbdde1bce62889c78e581e09248f32d774deb87e0b7d285001f91c83ff626a77"),
}


@pytest.mark.parametrize("command", list(PINNED_OUTPUTS))
def test_outputs_golden(command, monkeypatch, capsys):
    code, digest = PINNED_OUTPUTS[command]
    monkeypatch.chdir(ROOT)  # the decode command names its bundle relative to it
    assert main(command.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_appendix_a_json_summary(capsys):
    assert main(["verify-appendix-a", "--max-faults", "1",
                 "--format", "json-lines"]) == 0
    records = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    summary = records[0]
    assert summary["type"] == "summary"
    assert summary["ok"] is True
    assert summary["records"] == 209
    combos = [r for r in records if r["type"] == "combination"]
    assert sum(r["n"] for r in combos) == 1 + 210 + 165 + 49 + 21


def test_appendix_b_summary_line(capsys):
    assert main(["verify-appendix-b", "--max-faults", "3"]) == 0
    out = capsys.readouterr().out
    assert "summary: 6 marked, 0 harmful" in out
    assert "HARMFUL" not in out


@pytest.mark.parametrize("budget", ["1", "2"])
def test_appendix_b_smaller_budgets(budget, capsys):
    assert main(["verify-appendix-b", "--max-faults", budget]) == 0
    assert f"summary: 0 marked, 0 harmful" in capsys.readouterr().out


def test_appendix_b_json_lines(capsys):
    assert main(["verify-appendix-b", "--max-faults", "3",
                 "--format", "json-lines"]) == 0
    records = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert records[0]["marked"] == 6
    assert records[0]["all_safe"] is True
    marked = [r for r in records if r["type"] == "marked"]
    assert len(marked) == 6
    assert all(r["counts"] == "(G1a 0, G1b 0, G2 1, W 2, F 0, S 0)"
               for r in marked)
    assert all(r["harmful"] is False for r in marked)


def test_gen_table_writes_file(tmp_path):
    out = tmp_path / "table.txt"
    assert main(["gen-table", "--max-faults", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 209
    s, stilde, tau, f, parity, tag = lines[0].split()
    assert (len(s), len(stilde), len(tau), len(f), len(parity)) == (21, 3, 7, 21, 7)
    assert tag in ("1", "2")


def test_gen_table_json_lines_match_text(monkeypatch, tmp_path):
    monkeypatch.setattr(verifier, "_FORMAT_CHUNK", 1000)
    text, js = tmp_path / "t.txt", tmp_path / "t.jsonl"
    argv = ["gen-table", "--max-faults", "2", "--ordering", "normal"]
    assert main(argv + ["--out", str(text)]) == 0
    assert main(argv + ["--format", "json-lines", "--out", str(js)]) == 0
    names = ("s", "stilde", "tau", "f", "parity", "tag")
    lines = text.read_text().splitlines()
    records = [json.loads(ln) for ln in js.read_text().splitlines()]
    assert len(lines) == len(records) > 5000
    assert records == [dict(zip(names, ln.split())) for ln in lines]
    assert {r["tag"] for r in records} == {"1", "2", "!"}


@pytest.mark.parametrize(
    "flagged, interleaved",
    [(True, True), (True, False), (False, True), (False, False)],
)
def test_gen_table_json_lines_match_per_record_dump(
    monkeypatch, tmp_path, flagged, interleaved
):
    # the slice-copy formatter against one _jdump call per record line
    monkeypatch.setattr(verifier, "_FORMAT_CHUNK", 1000)
    out = tmp_path / "t.jsonl"
    argv = ["gen-table", "--max-faults", "2", "--format", "json-lines",
            "--ordering", "permuted" if interleaved else "normal",
            "--out", str(out)]
    assert main(argv + ([] if flagged else ["--no-flags"])) == 0
    table = verifier.build_lookup_table(2, flagged=flagged, interleaved=interleaved)
    names = ("s", "stilde", "tau", "f", "parity", "tag")
    expected = "".join(
        cli._jdump(dict(zip(names, ln.split()))) + "\n" for ln in table.record_lines()
    )
    assert out.read_bytes() == expected.encode()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-table", "--max-faults", "3"],
        ["verify-claims", "--code", "golay"],
        ["verify-appendix-a"],
        ["verify-appendix-b"],
        ["decode", "bundle.txt"],
        ["reproduce-table1"],
    ],
)
def test_unwritable_out_exits_2_before_work(monkeypatch, tmp_path, capsys, argv):
    def never(*args, **kwargs):
        raise AssertionError("work started before the output was opened")

    for name in ("build_lookup_table", "run_appendix_b", "reproduce_table1"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.setitem(cli._CLAIM_SUITES, "golay", never)
    assert main(argv + ["--out", str(tmp_path / "missing" / "x.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output file: ")
    assert "missing" in err


def test_gen_table_bytes_stable_across_workers(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["gen-table", "--max-faults", "2", "--workers", "1",
                 "--out", str(a)]) == 0
    assert main(["gen-table", "--max-faults", "2", "--workers", "2",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("fmt", ["text", "json-lines"])
def test_gen_table_stdout_matches_out_file(tmp_path, fmt):
    argv = ["gen-table", "--max-faults", "2", "--format", fmt]
    out = tmp_path / "t.out"
    assert main(argv + ["--out", str(out)]) == 0
    proc = _python(["-m", "wpec", *argv], stdout=subprocess.PIPE)
    stdout, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert stdout == out.read_bytes()
    assert len(stdout) > 1_000_000


def test_record_fields_alone_place_the_key_fields(tmp_path):
    # Swap where s and f live, in RECORD_FIELDS only.  If every pack,
    # probe, cut and print reads it, the outputs stay the same; only the
    # order of records inside a partition follows the new key order.
    shutil.copytree(SRC / "wpec", tmp_path / "src" / "wpec",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "wpec" / "verifier.py"
    text = path.read_text()
    fields = '("s", 28, 21), ("stilde", 56, 3), ("tau", 49, 7), ("f", 7, 21),'
    swapped = '("s", 7, 21), ("stilde", 56, 3), ("tau", 49, 7), ("f", 28, 21),'
    assert text.count(fields) == 1
    path.write_text(text.replace(fields, swapped))

    def run(src, *argv):
        proc = subprocess.run(
            [sys.executable, *argv], cwd=tmp_path, capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    bundle = str(ROOT / "perfbench" / "bundle.txt")
    for argv in (["verify-appendix-a"], ["decode", bundle]):
        argv = ["-m", "wpec", *argv, "--max-faults", "2"]
        assert run(tmp_path / "src", *argv) == run(SRC, *argv), argv
    argv = ["-m", "wpec", "gen-table", "--max-faults", "2", "--ordering", "normal"]
    lines = run(SRC, *argv).splitlines()
    swapped_lines = run(tmp_path / "src", *argv).splitlines()
    assert swapped_lines != lines  # the swap took effect
    assert sorted(swapped_lines) == sorted(lines)
    # the bundle above meets only uniform partitions: probe every record,
    # mixed partitions' included, in the swapped layout
    probe = textwrap.dedent("""
        from wpec.verifier import _key_fields, build_lookup_table
        table = build_lookup_table(2)
        fields = [_key_fields(key) for key in table.keys.tolist()]
        print(sum(table.lookup_parity(st, s, f) != p for s, st, _, f, p in fields))
    """)
    assert run(tmp_path / "src", "-c", probe) == b"0\n"


# The two process entries: the module and what the console script runs.
_ENTRIES = pytest.mark.parametrize(
    "entry", [["-m", "wpec"], ["-c", "from wpec.cli import run; run()"]],
    ids=["module", "script"],
)


@_ENTRIES
def test_gen_table_closed_pipe_exits_141_quietly(entry, tmp_path):
    err = tmp_path / "err.txt"
    with open(err, "wb") as err_fh:
        proc = _python([*entry, "gen-table"], stdout=subprocess.PIPE,
                       stderr=err_fh)
        line = proc.stdout.readline()  # what `| head -1` reads
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
    assert line.endswith(b" 1\n") and len(line) == 66
    assert err.read_bytes() == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [["gen-table", "--max-faults", "1"], ["verify-claims", "--code", "steane"]],
)
def test_write_failure_exits_2_with_a_message(argv, capsys):
    # exit 1 means "violations found"; a failed write is an error
    assert main(argv + ["--out", "/dev/full"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ")
    assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [["gen-table", "--max-faults", "1"], ["verify-claims", "--code", "steane"]],
)
@_ENTRIES
def test_stdout_write_failure_exits_2_quietly(entry, argv, monkeypatch, tmp_path):
    # block-buffered stdout: the steane report fits the buffer, so only the
    # final flush fails; the exit-time flush must not add a second message
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    err = tmp_path / "err.txt"
    with open("/dev/full", "wb") as full, open(err, "wb") as err_fh:
        proc = _python([*entry, *argv], stdout=full, stderr=err_fh)
        assert proc.wait(timeout=120) == 2
    assert err.read_text().startswith("error: cannot write output: ")
    assert err.read_text().count("\n") == 1


def test_main_leaves_the_collector_as_it_found_it(capsys):
    # only the process entry freezes; a library caller keeps its collector
    assert main(["verify-claims", "--code", "steane"]) == 0
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0


# Runs ``python -m wpec`` on the arguments, with an exit hook that prints
# to stderr, as its last line, whether the collector was frozen by then.
_FREEZE_PROBE = textwrap.dedent("""
    import atexit, gc, runpy, sys
    atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))
    sys.argv = ["wpec", *sys.argv[1:]]
    runpy.run_module("wpec", run_name="__main__", alter_sys=True)
""")


@pytest.mark.parametrize(
    "command, code",
    [("verify-claims --code steane", 0), ("--help", 0),
     ("gen-table --max-faults 4", 2)],
)
def test_process_entry_freezes_the_collector_on_every_exit(command, code):
    proc = _python(["-c", _FREEZE_PROBE, *command.split()],
                   stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == code
    assert stderr.splitlines()[-1] == b"True"


def test_importing_the_cli_does_no_table_work():
    # import-time work would show in the set-up time of every CLI job,
    # and the library modules it loads on first use build no circuit
    code = textwrap.dedent("""
        import sys
        calls = []
        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "build_correction_table":
                calls.append(frame.f_code.co_filename)
        sys.setprofile(profile)
        import wpec.cli
        sys.setprofile(None)
        import wpec.protocol
        from wpec.circuits import circuit_phases, circuits_by_name, unit_results
        from wpec.verifier import fault_model
        print(fault_model.cache_info().currsize, len(calls),
              circuit_phases.cache_info().currsize,
              circuits_by_name.cache_info().currsize,
              unit_results.cache_info().currsize)
    """)
    proc = _python(["-c", code], stdout=subprocess.PIPE)
    stdout, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert stdout.split() == [b"0"] * 5


# Runs ``main`` on the arguments after the first in a fresh interpreter,
# then writes the names in ``sys.modules`` to the file the first names,
# one a line (the probe itself loads no module the test asks about).
_MODULE_PROBE = textwrap.dedent("""
    import sys
    from wpec.cli import main
    try:
        main(sys.argv[2:])
    except SystemExit:  # --help
        pass
    with open(sys.argv[1], "w") as fh:
        fh.write("\\n".join(sorted(sys.modules)))
""")


@pytest.mark.parametrize(
    "command",
    [
        "--help",
        "verify-claims --code steane",
        "verify-claims --code concat49",
        "verify-claims --code golay",
        "gen-table --max-faults 1",
        "verify-appendix-a --max-faults 1",
        "verify-appendix-b --max-faults 1",
        "reproduce-table1",
        "decode perfbench/bundle.txt",
        "verify-claims --code steane --format json-lines",
        "decode perfbench/bundle.txt --format json-lines",
    ],
)
def test_each_subcommand_loads_only_its_modules(command, tmp_path):
    # every module a subcommand does not run adds to its process start-up
    modules = tmp_path / "modules.txt"
    proc = _python(["-c", _MODULE_PROBE, str(modules), *command.split()],
                   stdout=subprocess.DEVNULL, cwd=ROOT)
    assert proc.wait(timeout=120) == 0
    loaded = set(modules.read_text().split())
    decode = command.startswith("decode")
    table_work = not command.startswith(("--help", "verify-claims"))
    assert "wpec.cli" in loaded
    assert ("wpec.protocol" in loaded) == decode
    assert ("wpec.verifier" in loaded) == table_work
    assert ("numpy" in loaded) == table_work
    assert ("json" in loaded) == command.endswith("json-lines")
    assert "numpy.ma" not in loaded


def test_golay_leaders_are_built_on_first_use():
    # no import and no --help builds them: the Golay decode and the scan
    # read them when they run
    code = textwrap.dedent("""
        import wpec.protocol, wpec.verifier
        from wpec.cli import main
        from wpec.codes import golay_leaders
        try:
            main(["--help"])
        except SystemExit:
            pass
        print(golay_leaders.cache_info().currsize)
    """)
    proc = _python(["-c", code], stdout=subprocess.PIPE)
    stdout, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert stdout.split()[-1] == b"0"


def test_library_imports_create_no_dataclass():
    code = "import sys, wpec.cli, wpec.protocol, wpec.verifier; " \
        "print('dataclasses' in sys.modules)"
    proc = _python(["-c", code], stdout=subprocess.PIPE)
    stdout, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert stdout.split() == [b"False"]


def _write_bundle(tmp_path, name, input_mask=0, x_mask=0):
    bundle = run_until_stable(PauliOp(N49, x_mask, input_mask))[0]
    path = tmp_path / name
    path.write_text(bundle.render())
    return path


def test_decode_zero_bundle(tmp_path, capsys):
    path = tmp_path / "zero.txt"
    path.write_text(OutcomeBundle().render())
    assert main(["decode", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "I" * 49


def test_decode_single_qubit_bundle(tmp_path, capsys):
    path = _write_bundle(tmp_path, "q15.txt", input_mask=1 << 14)
    assert main(["decode", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "I" * 14 + "Z" + "I" * 34
    assert "fallback" not in captured.err and "note" not in captured.err


def test_decode_fallback_notes_on_stderr(tmp_path, capsys):
    mask = (1 << 0) | (1 << 7) | (1 << 14) | (127 << 21) | (1 << 42)
    path = _write_bundle(tmp_path, "fb.txt", input_mask=mask)
    assert main(["decode", str(path)]) == 0
    captured = capsys.readouterr()
    assert "outside the fault table" in captured.err
    assert len(captured.out.strip()) == 49


def test_decode_json_format(tmp_path, capsys):
    path = _write_bundle(tmp_path, "q15.txt", input_mask=1 << 14)
    assert main(["decode", str(path), "--format", "json-lines"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["correction"] == "I" * 14 + "Z" + "I" * 34
    assert record["fallback"] is False
    assert record["z_parity"] == "0010000"
    # the fallback bundle of test_decode_fallback_notes_on_stderr
    mask = (1 << 0) | (1 << 7) | (1 << 14) | (127 << 21) | (1 << 42)
    path = _write_bundle(tmp_path, "fb.txt", input_mask=mask)
    assert main(["decode", str(path), "--format", "json-lines"]) == 0
    captured = capsys.readouterr()
    record = json.loads(captured.out)
    assert record["fallback"] is True
    assert record["z_parity"] == "1111111"
    assert len(record["correction"]) == 49
    assert "outside the fault table" in captured.err


def test_decode_malformed_bundle_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("garbage\n")
    assert main(["decode", str(path)]) == 2
    assert "malformed" in capsys.readouterr().err


def test_decode_inconsistent_tau_exits_2(tmp_path, capsys):
    # tau is a function of s_x and s_z; a bundle that disagrees is not an
    # observation the protocol can make
    good = (ROOT / "perfbench" / "bundle.txt").read_text()
    path = tmp_path / "tau.txt"
    path.write_text(good.replace("tau: 00100000000000", "tau: 11111111111111"))
    assert main(["decode", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed bundle: tau 11111111111111")
    path.write_text(good)
    assert main(["decode", str(path)]) == 0


def test_decode_truncated_bundle_exits_2(tmp_path, capsys):
    path = tmp_path / "short.txt"
    path.write_text("\n".join(OutcomeBundle().render().splitlines()[:3]) + "\n")
    assert main(["decode", str(path)]) == 2
    assert "missing" in capsys.readouterr().err


def test_decode_missing_file_exits_2(tmp_path, capsys):
    assert main(["decode", str(tmp_path / "nope.txt")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_decode_non_utf8_bundle_exits_2(tmp_path, capsys):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\xff\xfe")
    assert main(["decode", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read bundle file: ")


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["gen-table", "--max-faults", "4"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["verify-claims"])  # --code is required
    assert e.value.code == 2
    capsys.readouterr()
    for workers in ("0", "-3"):  # ignored, but still a count of processes
        with pytest.raises(SystemExit) as e:
            main(["gen-table", "--max-faults", "1", "--workers", workers])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --workers: must be at least 1, got {workers}\n" in err


def test_claims_output_to_file(tmp_path):
    out = tmp_path / "claims.txt"
    assert main(["verify-claims", "--code", "concat49", "--out", str(out)]) == 0
    assert "4/4 checks passed" in out.read_text()
