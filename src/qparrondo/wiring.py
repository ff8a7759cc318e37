"""Compile token strings over {A, B} into qubit wirings and execute them.

The wiring rule, stated here once for the whole package: every game writes
to a fresh target qubit, and a game B reads, as its coin's controls, the two
qubits just before its target, older first.  The qubits before the first game
are seed qubits, the results of games played before the sequence starts.
There are seed_count = max(0, 2 - number of tokens before the first B) of
them, and none when the sequence has no B, so that the first B has two
qubits to read.  Game k (1-based) targets qubit seed_count + k, and
total_qubits = seed_count + len(tokens).  A plan is therefore its seed count
and its tokens: the dense kernel, the transfer walk and the classical chain
read the tokens in order and take everything else from this rule.

For pure-B strings, alternating AB strings and AAB blocks this reproduces
the standard sliding-window layouts exactly.  For arbitrary mixed strings
(say "ABBAB") the same last-two-results rule is applied; that
generalization is this library's own extension of the two-previous-results
principle.

Sequences are plain case-sensitive strings like "AAB", no separators.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coins import CoinParams, GameBSpec, su2_matrix
from .statevector import StateVector, apply_gate, check_unitary2, make_named_state


@dataclass(frozen=True)
class CircuitPlan:
    """Compiled wiring for a game sequence: its seed qubits and its tokens."""

    seed_count: int
    tokens: str

    @property
    def total_qubits(self) -> int:
        return self.seed_count + len(self.tokens)


def validate_sequence(seq: str) -> str:
    if not isinstance(seq, str) or not seq:
        raise ValueError("game sequence must be a non-empty string")
    bad = set(seq) - {"A", "B"}
    if bad:
        raise ValueError(f"game sequence may contain only 'A' and 'B', got {sorted(bad)!r}")
    return seq


def compile_sequence(seq: str) -> CircuitPlan:
    """Compile a token string into its seed count and validated tokens."""
    tokens = validate_sequence(seq)
    first_b = tokens.find("B")
    return CircuitPlan(0 if first_b < 0 else max(0, 2 - first_b), tokens)


def initial_state_for(plan: CircuitPlan, kind="zero") -> StateVector:
    """Initial state for a plan: a name in NAMED_STATES or custom amplitudes."""
    if isinstance(kind, str):
        return make_named_state(plan.total_qubits, kind)
    if isinstance(kind, StateVector):
        if kind.num_qubits != plan.total_qubits:
            raise ValueError(
                f"custom state has {kind.num_qubits} qubits, plan needs {plan.total_qubits}"
            )
        return kind
    amps = np.asarray(kind, dtype=complex)
    return StateVector(plan.total_qubits, amps)


def run(
    plan: CircuitPlan,
    a_params: CoinParams,
    b_spec: GameBSpec,
    init: StateVector,
) -> StateVector:
    """Play every game of the plan on the initial state.

    ``init`` is left unchanged.  Its amplitudes are copied once into a private
    buffer that every game updates in place; the five coin matrices are
    checked for unitarity once per call, the target once per game, and the
    final amplitudes are validated once and handed, read-only and uncopied,
    to the returned StateVector.
    """
    if init.num_qubits != plan.total_qubits:
        raise ValueError(
            f"initial state has {init.num_qubits} qubits, plan needs {plan.total_qubits}"
        )
    mats = {
        "A": (check_unitary2(su2_matrix(a_params)),),
        "B": tuple(check_unitary2(su2_matrix(p)) for p in b_spec.branches),
    }
    buf = np.array(init.amplitudes)
    for target, token in enumerate(plan.tokens, start=plan.seed_count + 1):
        apply_gate(buf, target, mats[token])
    buf.setflags(write=False)
    return StateVector(plan.total_qubits, buf)
