"""Reproduction of the published payoff table, one row per game sequence.

Each row carries the classical payoff (uniform seed average) and the quantum
payoff on the GHZ initial state, both as (c0, c1) pairs meaning c0 + c1*eps.
The AAB row's quantum payoff is phase-dependent; it is reported as the
minimum and maximum over phases, computed with the closed-form extremal
phase assignments fed through the simulator.

Normalization note: the quantum column is always per qubit (total divided
by the full register size).  The published classical column, however,
divides the chained two-unit rows BB and ABAB by the qubit count of a
single unit (3) rather than the full chain (4 and 5); those two rows were
evidently normalized per unit in the original table, and this module
reproduces that convention so the published numbers come out verbatim.
The per-qubit values are available directly from
``classical.classical_sequence_payoff``.
"""
from __future__ import annotations

from .analytic import aab_extremal_phases
from .classical import classical_sequence_expansion
from .payoff import payoff_epsilon_expansion
from .wiring import compile_sequence

# (label, sequence for given repetitions, published classical divisor or None
# for the plan's total qubit count)
_ROW_SPECS = (
    ("AA...A", lambda n: "A" * n, None),
    ("B", lambda n: "B", None),
    ("BB", lambda n: "BB", 3),
    ("BBB", lambda n: "BBB", None),
    ("AB", lambda n: "AB", None),
    ("ABAB", lambda n: "ABAB", 3),
    ("AAB", lambda n: "AAB", None),
    ("AAB...AAB", lambda n: "AAB" * n, None),
)

AAB_LABEL = "AAB"


def build_table(repetitions: int = 4) -> list[dict]:
    """All rows of the reference table, repeated rows at ``repetitions``."""
    if repetitions < 2:
        raise ValueError("repetitions must be at least 2")
    rows = []
    for label, make_seq, divisor in _ROW_SPECS:
        seq = make_seq(repetitions)
        plan = compile_sequence(seq)
        c_c0, c_c1 = classical_sequence_expansion(seq, divisor=divisor)
        row = {
            "label": label,
            "sequence": seq,
            "qubits": plan.total_qubits,
            "classical_c0": c_c0,
            "classical_c1": c_c1,
            "quantum_c0": None,
            "quantum_c1": None,
            "quantum_min_c0": None,
            "quantum_min_c1": None,
            "quantum_max_c0": None,
            "quantum_max_c1": None,
        }
        if label == AAB_LABEL:
            lo = payoff_epsilon_expansion(seq, init="ghz", phases=aab_extremal_phases("min"))
            hi = payoff_epsilon_expansion(seq, init="ghz", phases=aab_extremal_phases("max"))
            row.update(
                quantum_min_c0=lo.c0,
                quantum_min_c1=lo.c1,
                quantum_max_c0=hi.c0,
                quantum_max_c1=hi.c1,
            )
        else:
            q = payoff_epsilon_expansion(seq, init="ghz")
            row.update(quantum_c0=q.c0, quantum_c1=q.c1)
        rows.append(row)
    return rows

