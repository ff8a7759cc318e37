"""Payoff expectation over a final state and its first-order bias expansion.

Measuring a qubit pays +1 for |1> and -1 for |0>, so a basis label with j
ones out of n qubits pays 2j - n.  The expectation over a state is the
probability-weighted sum of those payoffs.

Normalization convention: n is the TOTAL number of qubits in the state,
seed qubits included, and "per qubit" divides by that same total.  This is
the unique reading that reproduces the reference results for entangled
initial states (e.g. the pure-B GHZ value 1/15); a seed-free variant is
provided as a diagnostic only.

Payoffs are reported "to first order" as a pair (c0, c1), payoff ~ c0 +
c1*eps, with c1 obtained by a central finite difference.  The payoff is a
smooth trigonometric function of eps through arccos(sqrt(p + eps)), so the
default step h = 1e-4 leaves truncation error far below reporting tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coins import PhaseAssignment, games_from_bias
from .statevector import StateVector
from .wiring import CircuitPlan, compile_sequence, initial_state_for, run


def _qubit_biases(state: StateVector) -> np.ndarray:
    """P(qubit q reads 1) - P(qubit q reads 0) for q = 1..n.

    Successive halving: splitting the probabilities in two separates qubit 1
    (the most significant bit), and summing the halves marginalizes it out,
    leaving the same problem on the remaining qubits.  O(2**n) in total.
    Each difference is summed directly rather than formed as 2 P(1) - |psi|^2,
    which would cancel to a few ulps of |psi|^2 on a near-zero payoff.
    """
    m = np.abs(state.amplitudes) ** 2
    biases = np.empty(state.num_qubits)
    for k in range(state.num_qubits):
        m = m.reshape(2, -1)
        biases[k] = (m[1] - m[0]).sum()
        m = m[0] + m[1]
    return biases


def payoff_expectation(state: StateVector) -> float:
    """Expected payoff sum((2*popcount(label) - n) * |amp|^2); lies in [-n, n].

    Computed from the per-qubit marginals as sum_q (P(q reads 1) - P(q reads 0)).
    """
    return float(_qubit_biases(state).sum())


def per_qubit(total: float, num_qubits: int) -> float:
    """Payoff per qubit; the divisor is the total qubit count, seeds included."""
    if num_qubits < 1:
        raise ValueError(f"num_qubits must be positive, got {num_qubits}")
    return total / num_qubits


def outcome_payoff(state: StateVector, plan: CircuitPlan) -> float:
    """Diagnostic payoff over game-target qubits only, excluding seeds.

    Not used in any reference-table reproduction.
    """
    biases = _qubit_biases(state)
    return float(sum(biases[step.target - 1] for step in plan.steps))


@dataclass(frozen=True)
class PayoffExpansion:
    """Payoff ~ c0 + c1 * eps; per_qubit records the normalization used."""

    c0: float
    c1: float
    per_qubit: bool = True


def sequence_payoff(
    seq: str,
    eps: float = 0.0,
    phases: PhaseAssignment | None = None,
    init="ghz",
    normalize: bool = True,
) -> float:
    """Simulate one sequence at one bias and return its payoff."""
    plan = compile_sequence(seq)
    state = initial_state_for(plan, init)
    a, b = games_from_bias(eps, phases)
    total = payoff_expectation(run(plan, a, b, state))
    return per_qubit(total, plan.total_qubits) if normalize else total


def payoff_epsilon_expansion(
    seq: str,
    init="ghz",
    phases: PhaseAssignment | None = None,
    h: float = 1e-4,
    normalize: bool = True,
) -> PayoffExpansion:
    """(c0, c1) of the payoff around eps = 0 by central difference."""
    if not 0.0 < h < 0.1:
        raise ValueError(f"finite-difference step h={h!r} must lie in (0, 0.1)")
    plan = compile_sequence(seq)
    state = initial_state_for(plan, init)

    def value(eps: float) -> float:
        a, b = games_from_bias(eps, phases)
        total = payoff_expectation(run(plan, a, b, state))
        return per_qubit(total, plan.total_qubits) if normalize else total

    c0 = value(0.0)
    c1 = (value(h) - value(-h)) / (2.0 * h)
    return PayoffExpansion(c0=c0, c1=c1, per_qubit=normalize)
