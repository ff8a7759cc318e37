"""Compile token strings over {A, B} into qubit wirings and execute them.

Every game writes to a fresh target qubit; nothing is ever reused.  A game-B
step additionally reads the two most recent *outcome* qubits as controls.
Outcome qubits, in chronological order, are: the seed qubits (results of
games played before the sequence starts, oldest first), then each game's
target qubit as it is played.

Seed qubits exist only when a B occurs early enough to need them:
seed_count = max(0, 2 - number of tokens before the first B), and 0 when the
sequence has no B at all.  Game k targets qubit seed_count + k, so
total_qubits = seed_count + len(tokens).

For pure-B strings, alternating AB strings and AAB blocks this reproduces
the standard sliding-window layouts exactly.  For arbitrary mixed strings
(say "ABBAB") the same last-two-outcomes rule is applied; that
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
class GameStep:
    """One executed game: its token, target qubit, and (for B) control qubits."""

    token: str
    target: int
    controls: tuple[int, int] | None = None


@dataclass(frozen=True)
class CircuitPlan:
    """Compiled wiring for a game sequence."""

    seed_count: int
    total_qubits: int
    steps: tuple[GameStep, ...]


def validate_sequence(seq: str) -> str:
    if not isinstance(seq, str) or not seq:
        raise ValueError("game sequence must be a non-empty string")
    bad = set(seq) - {"A", "B"}
    if bad:
        raise ValueError(f"game sequence may contain only 'A' and 'B', got {sorted(bad)!r}")
    return seq


def compile_sequence(seq: str) -> CircuitPlan:
    """Compile a token string into seed qubits, targets and controls."""
    tokens = validate_sequence(seq)
    first_b = tokens.find("B")
    seed_count = 0 if first_b < 0 else max(0, 2 - first_b)
    total = seed_count + len(tokens)

    outcomes = list(range(1, seed_count + 1))
    steps = []
    for k, tok in enumerate(tokens, start=1):
        target = seed_count + k
        if tok == "B":
            controls = (outcomes[-2], outcomes[-1])
            steps.append(GameStep("B", target, controls))
        else:
            steps.append(GameStep("A", target))
        outcomes.append(target)
    return CircuitPlan(seed_count, total, tuple(steps))


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
    """Execute every step of the plan against the initial state.

    ``init`` is left unchanged.  Its amplitudes are copied once into a private
    buffer that every game updates in place; the five coin matrices are
    checked for unitarity once per call, qubit indices once per game, and the
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
    for step in plan.steps:
        apply_gate(buf, step.target, step.controls or (), mats[step.token])
    buf.setflags(write=False)
    return StateVector(plan.total_qubits, buf)
