"""Seeded trial generator for the ``protocol`` workload.

Trials are produced here, from the workload seed alone, in the text
forms the package documents: a 49-character Pauli string for the input
error and one ``round kind ...`` line per scheduled fault.  The worker
reads them back with ``PauliOp.from_string`` and ``parse_schedule``.
Nothing is drawn from ``wpec.protocol.sample_trials``, so a change to
the program cannot change the workload.

The mix follows acceptance criterion 8 of the package:

* trial i with i % 10 == 9 carries a heavy input (weight 8..12) and
  1..3 faults, so the fallback decode runs;
* trial i with i % 5 == 0 is fault-free with an input of weight 0..3,
  so the support-mask shortcut in ``run_round`` is measured;
* every other trial has 1..3 faults and an input small enough that
  v1 + v2 <= 3.

Faults land in rounds 0..5 and are drawn as gate, wait, flag and meas
faults in the ratio 10:5:2:3.
"""

from __future__ import annotations

import random

N_QUBITS = 49
MAX_ROUND = 5

# The 48 extraction circuits as (name, gate count, has a flag wire):
# flagged level-1 circuits z1..z21, x1..x21 and bare level-2 circuits
# z~1..z~3, x~1..x~3.  Kept as data so that the workload is fixed.
CIRCUITS = tuple(
    [(f"{fam}{i}", 6, True) for fam in "zx" for i in range(1, 22)]
    + [(f"{fam}~{i}", 28, False) for fam in "zx" for i in range(1, 4)]
)
PAULIS = ("X", "Y", "Z")
TWO_WIRE = tuple(a + b for a in "IXYZ" for b in "IXYZ" if a + b != "II")
MEAS_WIDTH = (("sx", 21), ("sz", 21), ("s2x", 3), ("s2z", 3))
KINDS = ("gate", "wait", "flag", "meas")
KIND_WEIGHTS = (10, 5, 2, 3)


def _fault_line(rng: random.Random, rnd: int) -> str:
    kind = rng.choices(KINDS, weights=KIND_WEIGHTS)[0]
    if kind == "gate":
        name, n_gates, flagged = rng.choice(CIRCUITS)
        pos = rng.randint(-1, n_gates)
        if pos in (-1, n_gates) and not flagged:
            local = rng.choice(PAULIS)
        else:
            local = rng.choice(TWO_WIRE)
        return f"{rnd} gate {name} {pos} {local}"
    if kind == "wait":
        qubit = rng.randint(1, N_QUBITS)
        return f"{rnd} wait {qubit} {rng.choice(PAULIS)} {rng.randint(0, 3)}"
    if kind == "flag":
        return f"{rnd} flag {rng.choice('xz')} {rng.randrange(21)}"
    field, width = rng.choice(MEAS_WIDTH)
    return f"{rnd} meas {field} {rng.randrange(width)}"


def _input_string(rng: random.Random, weight: int) -> str:
    chars = ["I"] * N_QUBITS
    for q in rng.sample(range(N_QUBITS), weight):
        chars[q] = rng.choice(PAULIS)
    return "".join(chars)


def trial_texts(seed: int, stream: int):
    """Endless deterministic stream of (index, input, schedule) texts.

    ``stream`` separates the workers of one run; the same (seed,
    stream) always yields the same sequence.
    """
    rng = random.Random(f"wpec-protocol/{seed}/{stream}")
    i = 0
    while True:
        if i % 10 == 9:
            v1, v2 = rng.randint(8, 12), rng.randint(1, 3)
        elif i % 5 == 0:
            v1, v2 = rng.randint(0, 3), 0
        else:
            v2 = rng.randint(1, 3)
            v1 = rng.randint(0, 3 - v2)
        text = _input_string(rng, v1)
        schedule = "".join(
            _fault_line(rng, rng.randint(0, MAX_ROUND)) + "\n" for _ in range(v2)
        )
        yield i, text, schedule
        i += 1
