import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from qparrondo import payoff
from qparrondo.classical import classical_sequence_payoff
from qparrondo.coins import PhaseAssignment
from qparrondo.payoff import (
    Evaluator,
    payoff_epsilon_expansion,
    payoff_expectation,
    per_qubit,
    sequence_payoff,
)
from qparrondo.statevector import StateVector, make_basis_state, make_ghz

ATOL = 1e-12
E2E = 1e-9

TABLE_SEQUENCES = ["AAAA", "B", "BB", "BBB", "AB", "ABAB", "AAB", "AABAAB"]


def literal_payoff(state: StateVector) -> float:
    """Independent oracle: explicit double sum over one-counts j and the
    basis states with exactly j ones."""
    n = state.num_qubits
    total = 0.0
    for j in range(n + 1):
        for ones in combinations(range(n), j):
            idx = sum(1 << b for b in ones)
            total += (2 * j - n) * abs(state.amplitudes[idx]) ** 2
    return total


def popcount_payoff(state: StateVector) -> float:
    """Oracle: weight each basis label by 2 * popcount - n over the whole state."""
    n = state.num_qubits
    idx = np.arange(1 << n, dtype=np.int64)
    counts = sum((idx >> b) & 1 for b in range(n))
    return float(np.sum((2 * counts - n) * np.abs(state.amplitudes) ** 2))


def random_state(n, rng):
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


def random_phases(rng):
    return PhaseAssignment(
        gamma=rng.uniform(0, 2 * math.pi),
        delta=rng.uniform(0, 2 * math.pi),
        alphas=tuple(rng.uniform(0, 2 * math.pi, 4)),
        betas=tuple(rng.uniform(0, 2 * math.pi, 4)),
    )


# --- payoff_expectation ---

def test_single_win_pays_one():
    assert payoff_expectation(make_basis_state(1, "1")) == 1.0


def test_triple_loss_pays_minus_three():
    assert payoff_expectation(make_basis_state(3, "000")) == -3.0


def test_single_b_on_ghz_total_and_per_qubit():
    total = sequence_payoff("B", init="ghz", normalize=False)
    assert abs(total - 0.2) < E2E
    assert abs(per_qubit(total, 3) - 1 / 15) < E2E


def test_popcount_formulation_matches_literal_sum():
    rng = np.random.default_rng(13)
    for _ in range(10):
        s = random_state(4, rng)
        assert abs(payoff_expectation(s) - literal_payoff(s)) < ATOL


@pytest.mark.parametrize("n", range(1, 13))
def test_marginal_payoff_matches_popcount_formula(n):
    rng = np.random.default_rng(500 + n)
    for _ in range(3):
        s = random_state(n, rng)
        assert abs(payoff_expectation(s) - popcount_payoff(s)) < ATOL


def full_array_halving(state: StateVector) -> float:
    """Reference: successive halving over the whole probability array at once."""
    m = np.abs(state.amplitudes) ** 2
    biases = np.empty(state.num_qubits)
    for k in range(state.num_qubits):
        m = m.reshape(2, -1)
        biases[k] = (m[1] - m[0]).sum()
        m = m[0] + m[1]
    return float(biases.sum())


@pytest.mark.parametrize("n", range(1, 18))
def test_chunked_payoff_matches_full_array_halving(n):
    # 2**15 amplitudes a chunk: states smaller than, equal to and larger than one
    rng = np.random.default_rng(700 + n)
    for _ in range(2):
        s = random_state(n, rng)
        want = full_array_halving(s)
        assert abs(payoff_expectation(s) - want) < 1e-13
        if n <= 15:  # one chunk is reduced exactly as the whole array was
            assert payoff_expectation(s) == want


def test_payoff_allocates_no_state_sized_memory():
    s = random_state(20, np.random.default_rng(720))
    tracemalloc.start()
    try:
        payoff_expectation(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * s.amplitudes.nbytes


def test_global_phase_invariance():
    rng = np.random.default_rng(37)
    for _ in range(10):
        s = random_state(3, rng)
        phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
        rotated = StateVector(3, phase * s.amplitudes)
        assert abs(payoff_expectation(s) - payoff_expectation(rotated)) < ATOL


def test_payoff_bounded_by_qubit_count():
    rng = np.random.default_rng(43)
    for n in (1, 3, 5):
        for _ in range(5):
            assert abs(payoff_expectation(random_state(n, rng))) <= n + ATOL


# --- per_qubit ---

def test_per_qubit_values():
    assert abs(per_qubit(0.2, 3) - 1 / 15) < ATOL
    assert abs(per_qubit(0.8121415, 3) - 0.2707138) < 1e-6
    assert per_qubit(0.0, 7) == 0.0
    with pytest.raises(ValueError):
        per_qubit(1.0, 0)


# --- epsilon expansion ---

def test_ab_on_ghz_expansion():
    e = payoff_epsilon_expansion("AB", init="ghz")
    assert abs(e.c0 - 1 / 30) < E2E
    assert abs(e.c1 - 1 / 15) < 1e-6


def test_pure_a_on_ghz_is_flat_zero():
    e = payoff_epsilon_expansion("AA", init="ghz", phases=None)
    assert abs(e.c0) < E2E and abs(e.c1) < 1e-6
    rng = np.random.default_rng(3)
    e2 = payoff_epsilon_expansion("AA", init="ghz", phases=random_phases(rng))
    assert abs(e2.c0) < E2E and abs(e2.c1) < 1e-6


def test_aab_on_ghz_zero_phase_constant():
    # oracle: (1/4)(sin 2phi1 - sin 2phi2 - sin 2phi3 + sin 2phi4) / 3
    expected = (3 / 5 - math.sqrt(3) + 2 * math.sqrt(0.21)) / 12
    e = payoff_epsilon_expansion("AAB", init="ghz")
    assert abs(e.c0 - expected) < E2E


# --- one compiled evaluator ---

def test_evaluator_validates_a_custom_state_once(monkeypatch):
    built = []
    real = payoff.initial_state_for
    monkeypatch.setattr(payoff, "initial_state_for", lambda *args: built.append(1) or real(*args))
    evaluator = Evaluator("B", init=make_ghz(3).amplitudes)
    assert evaluator.plan.total_qubits == 3
    e = evaluator.expansion()
    assert abs(e.c0 - 1 / 15) < E2E and abs(e.c1) < 1e-6
    assert abs(evaluator.payoff(0.0, normalize=False) - 0.2) < E2E
    assert len(built) == 1


# --- quantum vs classical on basis inputs ---

@pytest.mark.parametrize("seq", TABLE_SEQUENCES)
@pytest.mark.parametrize("eps", [0.0, 0.005])
def test_zero_init_matches_classical_loss_loss_oracle(seq, eps):
    quantum = sequence_payoff(seq, eps=eps, init="zero")
    classical = classical_sequence_payoff(seq, eps, seeds=(0, 0))
    assert abs(quantum - classical) < E2E


@pytest.mark.parametrize("seq", TABLE_SEQUENCES)
def test_zero_init_payoff_is_phase_independent(seq):
    rng = np.random.default_rng(101)
    base = sequence_payoff(seq, eps=0.002, init="zero")
    for _ in range(20):
        value = sequence_payoff(seq, eps=0.002, init="zero", phases=random_phases(rng))
        assert abs(value - base) < E2E


@pytest.mark.parametrize("seq", ["ABBAB", "BAB", "AABBA", "BBAABB"])
def test_generalized_wiring_agrees_with_classical_oracle(seq):
    # irregular mixed strings exercise the last-two-outcomes rule beyond the
    # canonical layouts; quantum and classical engines must still agree
    for eps in (0.0, -0.015, 0.02):
        quantum = sequence_payoff(seq, eps=eps, init="zero")
        classical = classical_sequence_payoff(seq, eps, seeds=(0, 0))
        assert abs(quantum - classical) < E2E
