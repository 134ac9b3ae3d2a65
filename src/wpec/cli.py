"""Command-line interface.

Subcommands cover the reproducible batch jobs: building the decoding
lookup table, auditing it for decodability violations (with blockwise
or flagless negative controls), scanning final-round fault combinations
under the relaxed marking rule, exhaustive per-code decoder checks,
decoding a stable outcome bundle from a file, and emitting the pinned
single-fault classification table.

Exit codes: 0 all checks pass, 1 a verification found violations or a
golden comparison failed, 2 usage errors, malformed input files or
output that cannot be opened or written.
Outputs are deterministic.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import os
import sys
from typing import NamedTuple, NoReturn

from .codes import (
    GOLAY_ROWS,
    LEVEL1_GENS,
    LEVEL2_GENS,
    LOGICAL7,
    LOGICAL23,
    LOGICAL49,
    N7,
    N23,
    N49,
    STAB7_SET,
    golay_syndrome,
    golay_z_stabilizers,
    min_coset_weight,
    span,
    syndrome7,
    xor_table,
)
from .decoder import (
    CorrectionTable,
    LogicalClass,
    build_correction_table,
    classify_logical,
    wpec_golay,
    wpec_steane,
)
from .pauli import PauliOp, format_bits, render_text

# Library names bound on first use (PEP 562), so that a process imports
# only the modules its subcommand runs, and numpy only where it is used:
# ``verify-claims`` loads none, since the Golay suite sizes its classes
# from the image of the linear key map, on plain ints.  The commands
# reach these names as attributes of this module (``_lib.name``): a
# wrapper set on the module attribute is then the function that gets
# called.
_LAZY = {
    "OutcomeBundle": "protocol",
    "decode_with_report": "protocol",
    "RECORD_FIELDS": "verifier",
    "TABLE1_GOLDEN": "verifier",
    "build_lookup_table": "verifier",
    "reproduce_table1": "verifier",
    "run_appendix_b": "verifier",
    "table1_records": "verifier",
    "verify_claim2": "verifier",
}
_lib = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__package__}.{_LAZY[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def _jdump(obj) -> str:
    import json  # only JSON output loads it
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def _write(fh, fmt: str, records) -> None:
    """Write the ``fmt`` side of each (text, JSON object) record."""
    if fmt == "text":
        fh.write(render_text(records))
    else:
        fh.writelines(_jdump(obj) + "\n" for _, obj in records if obj is not None)


def _json_record_chunks(table):
    """Yield the table records as JSON lines, one uint8 array of lines
    (one row each) at a time.

    Record lines are fixed-width, so every JSON line is one template (a
    record of ``RECORD_FIELDS`` widths and a tag) with its value runs
    copied from the text columns.
    """
    import numpy as np

    fields = [(name, width) for name, _, width in _lib.RECORD_FIELDS] + [("tag", 1)]
    line = (_jdump({name: "0" * width for name, width in fields}) + "\n").encode()
    runs, src = [], 0  # (start in the JSON line, start in the text line, length)
    for name, width in fields:
        key = f'"{name}": "'.encode()
        runs.append((line.index(key) + len(key), src, width))
        src += width + 1
    template = np.frombuffer(line, dtype=np.uint8)
    for rows in table.record_rows():
        out = np.empty((len(rows), len(template)), dtype=np.uint8)
        out[:] = template
        for dst, src, n in runs:
            out[:, dst : dst + n] = rows[:, src : src + n]
        yield out


# ---------------------------------------------------------------------------
# Exhaustive per-code decoder checks


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def _steane_checks() -> list[CheckResult]:
    """Centralizer census, the two-operator equivalence rule, and
    weight-parity decoding, each exhausted over all 2^7 Z masks."""
    out = []
    central = [m for m in range(128) if syndrome7(m) == 0]
    even = {m for m in central if m.bit_count() % 2 == 0}
    odd = {m for m in central if m.bit_count() % 2 == 1}
    out.append(
        CheckResult(
            "centralizer census",
            len(central) == 16 and len(even) == 8 and len(odd) == 8,
            f"{len(central)} trivial-syndrome masks, {len(even)} even, {len(odd)} odd",
        )
    )
    out.append(
        CheckResult(
            "even class is the stabilizer group",
            even == set(STAB7_SET),
            "8 even elements match the generated group",
        )
    )
    out.append(
        CheckResult(
            "odd class is the logical coset",
            odd == {m ^ LOGICAL7 for m in STAB7_SET},
            "8 odd elements are stabilizer * full-weight logical",
        )
    )
    classed = all(
        classify_logical(PauliOp.z_op(N7, m))
        == (LogicalClass.Z if m.bit_count() % 2 else LogicalClass.I)
        for m in central
    )
    out.append(
        CheckResult(
            "logical classification by weight parity",
            classed,
            "16 centralizer elements classified",
        )
    )

    pairs = bad = 0
    for e1 in range(128):
        s1, p1 = syndrome7(e1), e1.bit_count() & 1
        for e2 in range(128):
            pairs += 1
            equivalent = (e1 ^ e2) in STAB7_SET
            implied = s1 == syndrome7(e2) and p1 == e2.bit_count() & 1
            if equivalent != implied:
                bad += 1
    out.append(
        CheckResult(
            "equivalence iff equal syndrome and parity",
            bad == 0,
            f"{pairs} ordered pairs, {bad} disagreements",
        )
    )

    ct = build_correction_table()
    sound = sum(
        (m ^ wpec_steane(syndrome7(m), m.bit_count() & 1, ct).z_bits) in STAB7_SET
        for m in range(128)
    )
    out.append(
        CheckResult(
            "weight-parity decoding soundness",
            sound == 128,
            f"{sound}/128 errors land exactly on a stabilizer",
        )
    )
    return out


def _golay_checks() -> list[CheckResult]:
    """Parity split of the 23-qubit centralizer, perfectness of the
    weight<=3 leader table, and decoding soundness over all 2^23 Z
    masks (counted by syndrome and weight-parity class)."""
    out = []
    table = xor_table(GOLAY_ROWS)  # the 2^11 subset XORs, repeats kept
    stab_even = not any(x.bit_count() & 1 for x in table)
    logical_odd = all((x ^ LOGICAL23).bit_count() & 1 for x in table)
    elements = set(table)
    distinct = len(elements)
    out.append(
        CheckResult(
            "stabilizer span size",
            distinct == 2048 and elements == golay_z_stabilizers(),
            f"{distinct} distinct elements from 11 generators",
        )
    )
    out.append(
        CheckResult(
            "all 2048 stabilizers even weight", stab_even, "no odd element"
        )
    )
    out.append(
        CheckResult(
            "all 2048 logical-coset elements odd weight",
            logical_odd,
            "no even element",
        )
    )

    ct = build_correction_table()
    leader_ok = all(
        golay_syndrome(op.z_bits) == s and op.weight() <= 3
        for s, op in ct.golay_min.items()
    ) and golay_syndrome(LOGICAL23) == 0
    out.append(
        CheckResult(
            "perfectness: unique weight<=3 leader per syndrome",
            leader_ok and len(ct.golay_min) == 2048,
            "2048 leaders, syndromes verified",
        )
    )

    zero_synd, odd, off = _golay_sweep(ct)
    out.append(
        CheckResult(
            "trivial-syndrome census",
            zero_synd == 4096,
            f"{zero_synd} masks commute with every check",
        )
    )
    # zero syndrome plus even weight pins membership in the stabilizer
    # group, given the parity split established above
    detail = f"{odd} residuals of odd weight"
    if off:
        detail += f", {off} of nonzero syndrome"
    out.append(
        CheckResult(
            "weight-parity decoding soundness (2^23 errors)",
            odd == 0 and off == 0,
            detail,
        )
    )
    return out


def _golay_class_sizes() -> list[int]:
    """Number of the 2^23 Z errors e in each class, indexed by the key
    ``golay_syndrome(e) | (weight of e & 1) << 11``.

    The key map is GF(2)-linear, so its image is the span of the 23
    unit keys, and each key of the image is reached by 2^23 / |image|
    errors (a fibre of the map); every other key by none."""
    image = span(golay_syndrome(1 << q) | 1 << 11 for q in range(N23))
    sizes = [0] * 4096
    for k in image:
        sizes[k] = (1 << N23) // len(image)
    return sizes


def _golay_sweep(ct: CorrectionTable) -> tuple[int, int, int]:
    """Decode each of the 2^23 Z errors with ``wpec_golay`` from its
    syndrome s and weight parity p.  Returns how many errors have trivial
    syndrome, and how many residuals (error ^ correction) have odd
    weight or a nonzero syndrome.

    The errors are counted by class, the key k = s | p << 11.  Syndrome
    and weight parity are GF(2)-linear, so every error e of a class gets
    the same correction c, and its residual e ^ c has syndrome s ^ s(c)
    and parity p ^ |c|: one decode per class decides all its errors.
    The classes are the fibres of that linear key map, all of one size
    over its image (``_golay_class_sizes``), counted on plain ints: the
    job loads no numpy.
    """
    n = _golay_class_sizes()
    odd = off = 0
    for k, size in enumerate(n):
        s, p = k & 2047, k >> 11
        c = wpec_golay(s, p, ct).z_bits
        odd += size * (p ^ c.bit_count() & 1)
        off += size * (golay_syndrome(c) != s)
    return n[0] + n[2048], odd, off


def _concat49_checks() -> list[CheckResult]:
    """Structural checks of the 49-qubit generator family and the
    hierarchical coset-weight search."""
    out = []
    out.append(
        CheckResult(
            "generator counts and weights",
            len(LEVEL1_GENS) == 21
            and all(g.bit_count() == 4 for g in LEVEL1_GENS)
            and len(LEVEL2_GENS) == 3
            and all(g.bit_count() == 28 for g in LEVEL2_GENS),
            "21 inner weight-4, 3 outer weight-28",
        )
    )
    css = all(
        (gz & gx).bit_count() % 2 == 0
        for gz in LEVEL1_GENS + LEVEL2_GENS
        for gx in LEVEL1_GENS + LEVEL2_GENS
    )
    out.append(
        CheckResult(
            "Z and X families commute",
            css,
            "all generator support overlaps even",
        )
    )
    columns = {syndrome7(1 << b) for b in range(N7)}
    out.append(
        CheckResult(
            "outer syndrome columns cover all nonzero values",
            columns == set(range(1, 8)),
            "7 single-block patterns, 7 distinct syndromes",
        )
    )
    spots = (
        min_coset_weight(0) == 0
        and all(min_coset_weight(g) == 0 for g in LEVEL2_GENS)
        and min_coset_weight(LOGICAL49) == 9
        and all(min_coset_weight(1 << q) == 1 for q in range(0, N49, 11))
    )
    out.append(
        CheckResult(
            "coset-weight spot checks",
            spots,
            "identity 0, outer generators 0, logical 9, singles 1",
        )
    )
    return out


_CLAIM_SUITES = {
    "steane": _steane_checks,
    "golay": _golay_checks,
    "concat49": _concat49_checks,
}


# ---------------------------------------------------------------------------
# Subcommand implementations


def _table(args):
    """The lookup table that the table options of ``args`` select."""
    return _lib.build_lookup_table(
        args.max_faults,
        flagged=not args.no_flags,
        interleaved=args.ordering == "permuted",
    )


def cmd_gen_table(args, fh) -> int:
    table = _table(args)
    if args.format == "text":
        chunks = table.record_rows()
    else:
        chunks = _json_record_chunks(table)
    # the chunks are arrays of ASCII bytes: write their buffers past the
    # text layer, without a bytes copy
    fh.flush()
    for chunk in chunks:
        fh.buffer.write(chunk)
    return 0


def cmd_verify_claims(args, fh) -> int:
    checks = _CLAIM_SUITES[args.code]()
    passed = sum(c.ok for c in checks)
    records = [
        (f"{'ok  ' if c.ok else 'FAIL'} {c.name}: {c.detail}",
         {"check": c.name, "ok": c.ok, "detail": c.detail})
        for c in checks
    ]
    records.append((f"{args.code}: {passed}/{len(checks)} checks passed", None))
    _write(fh, args.format, records)
    return 0 if passed == len(checks) else 1


def cmd_verify_appendix_a(args, fh) -> int:
    report = _lib.verify_claim2(_table(args))
    _write(fh, args.format, report.records())
    return 0 if report.ok else 1


def cmd_verify_appendix_b(args, fh) -> int:
    report = _lib.run_appendix_b(args.max_faults)
    summary = f"summary: {len(report.marked)} marked, {report.n_harmful} harmful"
    _write(fh, args.format, [*report.records(), (summary, None)])
    return 0 if report.all_safe else 1


def cmd_decode(args, fh) -> int:
    try:
        with open(args.bundle) as bundle_fh:
            text = bundle_fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read bundle file: {exc}", file=sys.stderr)
        return 2
    try:
        bundle = _lib.OutcomeBundle.parse(text)
    except ValueError as exc:
        print(f"error: malformed bundle: {exc}", file=sys.stderr)
        return 2
    table = _table(args)
    correction, report = _lib.decode_with_report(bundle, table)
    if report.fallback_used:
        print(
            "note: observation outside the fault table; all-ones block "
            "parity and outer fix-up applied",
            file=sys.stderr,
        )
    record = {
        "correction": str(correction),
        "fallback": report.fallback_used,
        "z_parity": format_bits(report.z_parity, 7),
        "x_parity": format_bits(report.x_parity, 7),
    }
    _write(fh, args.format, [(record["correction"], record)])
    return 0


def cmd_reproduce_table1(args, fh) -> int:
    records = list(_lib.table1_records(_lib.reproduce_table1()))
    _write(fh, args.format, records)
    if render_text(records) != _lib.TABLE1_GOLDEN:
        print("error: computed table deviates from the pinned reference",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpec",
        description="weight-parity error correction: table builds, "
        "exhaustive fault audits, and bundle decoding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--out", metavar="PATH", help="write output to PATH instead of stdout"
    )
    output.add_argument(
        "--format",
        choices=("text", "json-lines"),
        default="text",
        help="output format (default: text)",
    )

    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument(
        "--max-faults",
        type=int,
        choices=(1, 2, 3),
        default=3,
        help="fault budget (default: 3)",
    )
    budget.add_argument(
        "--workers",
        type=_positive_int,
        metavar="N",
        help="accepted for compatibility and ignored: the work always "
        "runs in one process",
    )

    circuits = argparse.ArgumentParser(add_help=False)
    circuits.add_argument(
        "--ordering",
        choices=("permuted", "normal"),
        default="permuted",
        help="outer-circuit CNOT order; 'normal' is the blockwise "
        "negative control (default: permuted)",
    )
    circuits.add_argument(
        "--no-flags",
        action="store_true",
        help="build inner circuits without flag qubits (negative control)",
    )

    p = sub.add_parser(
        "gen-table",
        parents=[budget, circuits, output],
        help="enumerate fault combinations and emit the decoding lookup table",
    )
    p.set_defaults(func=cmd_gen_table)

    p = sub.add_parser(
        "verify-claims",
        parents=[output],
        help="exhaustive structural and decoding checks for one code",
    )
    p.add_argument(
        "--code", required=True, choices=sorted(_CLAIM_SUITES), help="code to check"
    )
    p.set_defaults(func=cmd_verify_claims)

    p = sub.add_parser(
        "verify-appendix-a",
        parents=[budget, circuits, output],
        help="audit the lookup table: every observation must pin down "
        "one block parity",
    )
    p.set_defaults(func=cmd_verify_appendix_a)

    p = sub.add_parser(
        "verify-appendix-b",
        parents=[budget, output],
        help="scan final-round fault combinations under the relaxed "
        "marking rule and post-analyze the marked ones",
    )
    p.set_defaults(func=cmd_verify_appendix_b)

    p = sub.add_parser(
        "decode",
        parents=[budget, circuits, output],
        help="decode a stable outcome-bundle file into a 49-qubit correction",
    )
    p.add_argument("bundle", help="bundle file: five labeled bitstring lines")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser(
        "reproduce-table1",
        parents=[output],
        help="emit the 13-row single-fault classification table of the "
        "blockwise outer circuit and compare it to the pinned reference",
    )
    p.set_defaults(func=cmd_reproduce_table1)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # open the output before the command's work, so a bad path fails fast
    try:
        out = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        print(f"error: cannot write output file: {exc}", file=sys.stderr)
        return 2
    try:
        with out as fh:
            code = args.func(args, fh)
            fh.flush()  # stdout too, so its write errors surface here
        return code
    except BrokenPipeError:
        # downstream consumer (head, less) closed the pipe; exit the way
        # a signal-terminated process would, without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:
        # a full disk or a failing device; exit 1 would read as "violations"
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        if not args.out:
            # drop what stdout still buffers, so the exit-time flush is quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


def run() -> NoReturn:
    """Process entry of ``python -m wpec`` and the ``wpec`` script: exit
    with ``main``'s code.

    On every way out (a return, argparse's exit, an exception) the
    collector is frozen first, so the collections of interpreter shutdown
    skip the objects numpy and the package leave alive, 20-28 ms of a
    numpy job otherwise.  ``main`` called as a library freezes nothing.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
