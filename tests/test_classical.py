from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qparrondo.classical import (
    HistoryChain,
    build_history_chain,
    classical_sequence_expansion,
    classical_sequence_payoff,
    classical_sequence_total,
    paradox_threshold,
    sequence_threshold,
    stationary_distribution,
    stationary_payoff,
)
from qparrondo.coins import lose_probs
from qparrondo.wiring import compile_sequence

ATOL = 1e-12
E2E = 1e-9

# Deterministic example generation, no example database written to disk.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
sequences = st.text(alphabet="AB", min_size=1, max_size=8)
biases = st.floats(-0.05, 0.05, exclude_min=True, exclude_max=True)


# --- independent brute-force oracle ---

def paper_lose(eps):
    """The paper's lose probabilities at bias eps: A, then B after (lost,lost),
    (lost,won), (won,lost) and (won,won)."""
    return (0.5 + eps, 0.1 + eps, 0.75 + eps, 0.75 + eps, 0.3 + eps)


def brute_force_total(seq, lose, seeds="uniform"):
    """Expected total payoff by enumerating every seed and outcome path, with
    the five lose probabilities ``lose`` in the order of ``paper_lose``."""
    plan = compile_sequence(seq)
    a_win = 1.0 - lose[0]
    b_win = {
        (0, 0): 1.0 - lose[1],
        (0, 1): 1.0 - lose[2],
        (1, 0): 1.0 - lose[3],
        (1, 1): 1.0 - lose[4],
    }
    sc = plan.seed_count
    if seeds == "uniform":
        seed_sets = [(1.0 / (1 << sc), bits) for bits in product((0, 1), repeat=sc)]
    else:
        seed_sets = [(1.0, tuple(seeds)[2 - sc :])]

    total = 0.0
    for weight, seed_bits in seed_sets:
        for outcome in product((0, 1), repeat=len(seq)):
            prob = 1.0
            # The results so far, oldest first; a B reads the latest two.
            history = list(seed_bits)
            for token, result in zip(seq, outcome):
                w = a_win if token == "A" else b_win[(history[-2], history[-1])]
                prob *= w if result == 1 else 1.0 - w
                history.append(result)
            payoff = sum(2 * b - 1 for b in seed_bits) + sum(2 * r - 1 for r in outcome)
            total += weight * prob * payoff
    return total, plan.total_qubits


# --- sequence enumeration ---

@pytest.mark.parametrize("seq", ["B", "BB", "AB", "AAB", "ABAB", "BBB", "AABA"])
@pytest.mark.parametrize("eps", [0.0, 0.003, -0.02])
def test_enumeration_matches_brute_force(seq, eps):
    expected, qubits = brute_force_total(seq, paper_lose(eps))
    total, plan = classical_sequence_total(seq, eps)
    assert plan.total_qubits == qubits
    assert abs(total - expected) < ATOL


# The paper's two middle B branches lose alike, so only a game whose
# (lost,won) and (won,lost) branches differ can tell them apart.
UNEVEN_LOSE = (0.5, 0.1, 0.6, 0.8, 0.3)


@pytest.mark.parametrize("seq", ["BB", "ABB", "BAB", "AABBA"])
@pytest.mark.parametrize("seed_bits", [(0, 1), (1, 0), pytest.param("uniform", id="uniform")])
def test_enumeration_matches_brute_force_with_uneven_middle_branches(seq, seed_bits):
    expected, qubits = brute_force_total(seq, UNEVEN_LOSE, seed_bits)
    total, plan = classical_sequence_total(seq, seeds=seed_bits, lose=np.array(UNEVEN_LOSE))
    assert plan.total_qubits == qubits
    assert abs(total - expected) < ATOL


@pytest.mark.parametrize(
    "seed_bits", [(0, 0), (0, 1), (1, 0), (1, 1), pytest.param("uniform", id="uniform")]
)
@PROPERTY
@given(seq=sequences, eps=biases)
def test_enumeration_matches_brute_force_fixed_seeds(seed_bits, seq, eps):
    expected, qubits = brute_force_total(seq, paper_lose(eps), seed_bits)
    total, plan = classical_sequence_total(seq, eps, seeds=seed_bits)
    assert plan.total_qubits == qubits
    assert abs(total - expected) < ATOL


@pytest.mark.parametrize("policy", ["A", "B"])
@pytest.mark.parametrize("eps", [0.0, 0.01, -0.02])
def test_long_sequence_approaches_stationary_play(policy, eps):
    # A sequence walks the same chain that stationary play solves; over n
    # games the start and the seed qubits add only an O(1) total.
    n = 2000
    total, _ = classical_sequence_total(policy * n, eps)
    assert abs(total / n - stationary_payoff(policy, eps)) < 1 / n


def test_single_b_row():
    c0, c1 = classical_sequence_expansion("B")
    assert abs(c0 - 1 / 60) < E2E
    assert abs(c1 + 2 / 3) < 1e-6


def test_aab_row():
    c0, c1 = classical_sequence_expansion("AAB")
    assert abs(c0 - 1 / 60) < E2E
    assert abs(c1 + 28 / 15) < 1e-6


def test_aab_with_forced_best_branch():
    for eps in (0.0, 0.004):
        lose = lose_probs(eps)
        lose[1:] = lose[1]
        total, _ = classical_sequence_total("AAB", lose=lose)
        assert abs(total - (0.8 - 6 * eps)) < E2E


def test_per_qubit_uses_total_qubit_count():
    total, plan = classical_sequence_total("BB", 0.0)
    assert plan.total_qubits == 4
    assert abs(classical_sequence_payoff("BB", 0.0) - total / 4) < ATOL


def test_expansion_divisor_override_reproduces_published_rows():
    # the published table normalizes the chained BB and ABAB rows per unit (3)
    c0, c1 = classical_sequence_expansion("BB", divisor=3)
    assert abs(c0 - 1 / 75) < E2E
    assert abs(c1 + 19 / 15) < 1e-6
    c0, c1 = classical_sequence_expansion("ABAB", divisor=3)
    assert abs(c0 - 0.032) < 5e-4
    assert abs(c1 + 2.5) < 5e-2


def test_lose_array_accepts_certain_outcomes():
    # The endpoints are probabilities, as lose_prob_to_theta accepts them.
    lose = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
    total, _ = classical_sequence_total("AB", seeds=(0, 0), lose=lose)
    assert total == -1.0  # the seed lost, A won, B lost


def test_spec_validation():
    # A game is its five lose probabilities: any other shape, or an entry
    # that is not a probability, is rejected (entries by HistoryChain).
    bad_entries = [
        np.where(np.arange(5) == k, bad, 0.5) for k in (0, 3) for bad in (-0.2, 1.2, np.nan)
    ]
    for lose in [np.full(4, 0.5), np.full(6, 0.5), np.full((5, 2), 0.5), *bad_entries]:
        with pytest.raises(ValueError):
            classical_sequence_total("AAB", lose=lose)
    with pytest.raises(ValueError):
        classical_sequence_total("AAB", 0.0, seeds=(0, 2))
    with pytest.raises(ValueError):
        classical_sequence_total("AAB", 0.0, seeds="always-win")


# --- stationary play ---

def test_pure_a_stationary_payoff_is_minus_two_eps():
    for eps in (0.0, 0.005, -0.03, 0.04):
        assert abs(stationary_payoff("A", eps) + 2 * eps) < ATOL


def test_pure_b_is_fair_at_zero_bias():
    assert abs(stationary_payoff("B", 0.0)) < ATOL


def test_even_mixture_wins_at_zero_bias():
    value = stationary_payoff("mix", 0.0)
    assert value > 1e-3
    assert abs(value - 5 / 429) < E2E  # exact stationary solve of the mixed chain


def test_stationary_distribution_is_valid():
    for policy, eps, q in (("A", 0.01, 0.5), ("B", 0.0, 0.5), ("mix", 0.003, 0.25)):
        chain = build_history_chain(policy, eps, q)
        pi = stationary_distribution(chain)
        assert np.all(pi >= -ATOL)
        assert abs(pi.sum() - 1.0) < ATOL
        assert np.allclose(pi @ chain.transition, pi, atol=ATOL)


def test_chain_rows_are_stochastic():
    chain = build_history_chain("mix", 0.002, 0.7)
    assert np.allclose(chain.transition.sum(axis=1), 1.0, atol=ATOL)
    assert np.all(np.abs(chain.reward) <= 1.0 + ATOL)


def test_history_chain_validation():
    bad = np.full((4, 4), 0.3)
    with pytest.raises(ValueError):
        HistoryChain(bad, np.zeros(4))
    with pytest.raises(ValueError):
        HistoryChain(np.eye(4), np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5])
def test_history_chain_rejects_bad_rewards(bad):
    reward = np.zeros(4)
    reward[0] = bad
    with pytest.raises(ValueError, match="rewards in"):
        HistoryChain(np.full((4, 4), 0.25), reward)


def test_history_chain_rejects_bad_transitions():
    nan_entry = np.full((4, 4), 0.25)
    nan_entry[2, 1] = np.nan
    with pytest.raises(ValueError, match="sum to 1"):
        HistoryChain(nan_entry, np.zeros(4))
    negative = np.full((4, 4), 0.25)
    negative[1] = (1.5, -0.5, 0.0, 0.0)
    with pytest.raises(ValueError, match="probabilities"):
        HistoryChain(negative, np.zeros(4))


def test_policy_validation():
    with pytest.raises(ValueError):
        stationary_payoff("C", 0.0)
    with pytest.raises(ValueError):
        stationary_payoff("mix", 0.0, q=1.5)


# --- thresholds ---

def test_aab_sequence_threshold():
    assert abs(sequence_threshold("AAB") - 1 / 112) < 1e-6


@pytest.mark.parametrize("seq", ["AAB", "AB", "BB", "AABAAB", "B"])
def test_sequence_threshold_is_the_first_order_root(seq):
    c0, c1 = classical_sequence_expansion(seq)
    assert sequence_threshold(seq) == -c0 / c1


def test_one_token_sequence_is_not_a_policy():
    # the sequence B has c0 = 1/60 and c1 = -2/3 per qubit (the policy B is fair at 0)
    assert abs(sequence_threshold("B") - 0.025) < 1e-12
    with pytest.raises(ValueError, match="policy"):
        paradox_threshold("AAB")


def test_aab_sequence_threshold_has_no_bisection_error():
    assert abs(sequence_threshold("AAB") - 1 / 112) < 1e-14


def test_even_mixture_threshold():
    assert abs(paradox_threshold("mix") - 1 / 168) < 1e-6


def test_pure_a_threshold_is_zero():
    assert paradox_threshold("A") == 0.0


def test_pure_b_threshold_is_zero():
    assert paradox_threshold("B") == 0.0


def test_no_sign_change_reports_no_root():
    # BB stays winning over a too-small interval
    assert sequence_threshold("BB", hi=0.005) is None


def test_threshold_rejects_bad_sequence():
    with pytest.raises(ValueError):
        sequence_threshold("AXB")

