import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qparrondo.analytic import aab_angles_from_bias
from qparrondo.classical import build_history_chain
from qparrondo.statevector import check_coins
from qparrondo.coins import (
    BASE_LOSE,
    MAX_EPS,
    PhaseAssignment,
    games_from_bias,
    lose_prob_to_theta,
    lose_probs,
    reduce_angle,
    su2_matrix,
)

ATOL = 1e-12
SQ2 = math.sqrt(2) / 2


# --- su2_matrix ---

@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot, name", [(0, "theta"), (1, "gamma"), (2, "delta")])
def test_su2_matrix_rejects_non_finite_angles(slot, name, value):
    angles = [0.3, 0.2, 0.1]
    angles[slot] = value
    # The suite turns warnings into errors, so numpy's RuntimeWarning from an
    # infinite phase would fail this test too.
    with pytest.raises(ValueError, match=f"{name}={value!r} must be finite"):
        su2_matrix(*angles)


def test_zero_angles_give_identity():
    assert np.allclose(su2_matrix(0.0, 0.0, 0.0), np.eye(2), atol=ATOL)


def test_quarter_rotation_no_phases():
    m = su2_matrix(math.pi / 4, 0.0, 0.0)
    assert np.allclose(m, [[SQ2, -SQ2], [SQ2, SQ2]], atol=ATOL)


def test_half_pi_rotation_with_phases():
    # theta=pi/2, gamma=pi, delta=pi/2: off-diagonal pure phases
    m = su2_matrix(math.pi / 2, math.pi, math.pi / 2)
    expected = np.array(
        [[0.0, -np.exp(-1j * math.pi / 4)], [np.exp(1j * math.pi / 4), 0.0]]
    )
    assert np.allclose(m, expected, atol=ATOL)


def test_unitarity_over_many_random_triples():
    rng = np.random.default_rng(5)
    eye = np.eye(2)
    for _ in range(10_000):
        m = su2_matrix(
            theta=rng.uniform(-math.pi, math.pi),
            gamma=rng.uniform(0, 2 * math.pi),
            delta=rng.uniform(0, 2 * math.pi),
        )
        assert np.allclose(m.conj().T @ m, eye, atol=ATOL)
        assert abs(abs(np.linalg.det(m)) - 1.0) < ATOL


def test_entry_magnitudes_independent_of_phases():
    rng = np.random.default_rng(9)
    for _ in range(50):
        theta = rng.uniform(-math.pi, math.pi)
        base = np.abs(su2_matrix(theta))
        m = su2_matrix(theta, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        assert np.allclose(np.abs(m), base, atol=ATOL)


# --- lose_prob_to_theta ---

def test_fair_coin_angle():
    assert abs(lose_prob_to_theta(0.5) - math.pi / 4) < ATOL


def test_certain_loss_angle():
    assert lose_prob_to_theta(1.0) == 0.0


def test_point_one_angle():
    theta = lose_prob_to_theta(0.1)
    assert abs(theta - 1.2490457723982544) < 1e-9
    assert abs(math.cos(theta) ** 2 - 0.1) < ATOL


@pytest.mark.parametrize("p", [-0.01, 1.01])
def test_lose_prob_out_of_range(p):
    with pytest.raises(ValueError):
        lose_prob_to_theta(p)


# --- the five coins of games_from_bias ---

def lose_probabilities(coins):
    """|<0|U|0>|^2 of each coin: the probability that it loses from |0>."""
    return np.abs(coins[:, 0, 0]) ** 2


def test_game_a_unbiased_zero_phases():
    a = games_from_bias(0.0)[0]
    assert np.array_equal(a, su2_matrix(math.pi / 4))
    assert np.allclose(a, [[SQ2, -SQ2], [SQ2, SQ2]], atol=ATOL)


def test_game_a_small_bias_angle():
    a = games_from_bias(0.01)[0]
    assert np.array_equal(a, su2_matrix(0.7753974966107531))
    assert abs(abs(a[0, 0]) ** 2 - 0.51) < ATOL


def test_game_a_passes_phases_through():
    a = games_from_bias(0.0, PhaseAssignment(gamma=1.0, delta=2.0))[0]
    assert np.array_equal(a, su2_matrix(math.pi / 4, 1.0, 2.0))


def test_game_b_unbiased_angles():
    b = games_from_bias(0.0)[1:]
    thetas = (1.2490457723982544, math.pi / 6, math.pi / 6, 0.9911565864311924)
    for coin, theta in zip(b, thetas):
        assert np.allclose(coin, su2_matrix(theta), atol=1e-9)
    assert np.allclose(lose_probabilities(b), BASE_LOSE[1:], atol=ATOL)


def test_game_b_unbiased_win_probabilities():
    wins = np.abs(games_from_bias(0.0)[1:, 1, 0]) ** 2
    assert np.allclose(wins, [0.9, 0.25, 0.25, 0.7], atol=ATOL)


def test_game_b_bias_shifts_all_lose_probs_exactly():
    eps = 1 / 168
    loses = lose_probabilities(games_from_bias(eps)[1:])
    assert np.allclose(loses, [p + eps for p in BASE_LOSE[1:]], atol=ATOL)


@pytest.mark.parametrize("eps", [-0.05, 0.0, 1 / 168, 1 / 112, 0.05])
def test_probability_round_trip(eps):
    m = games_from_bias(eps, PhaseAssignment(gamma=0.7, delta=2.3))[0]
    assert abs(abs(m[0, 0]) ** 2 - (0.5 + eps)) < ATOL


def test_bias_range_enforced():
    for eps in (0.1, -0.25, math.nan):
        with pytest.raises(ValueError, match=r"bias eps=.* must satisfy \|eps\| < 0\.1"):
            lose_probs(eps)
        with pytest.raises(ValueError, match=r"bias eps=.* must satisfy"):
            games_from_bias(eps)
    assert np.array_equal(lose_probs(0.0999), np.array(BASE_LOSE) + 0.0999)
    assert games_from_bias(0.0999).shape == (5, 2, 2)


def test_games_from_bias_builds_both_operators():
    # Angles outside [0, 2*pi) too: every coin is su2_matrix of its own
    # bias angle and reduced phases, bit for bit.
    phases = PhaseAssignment(
        gamma=0.3, delta=-0.4, alphas=(0.1, 7.2, 0.3, 0.4), betas=(1, 2, -3, 14)
    )
    eps = 0.004
    coins = games_from_bias(eps, phases)
    assert coins.shape == (5, 2, 2)
    gammas = (phases.gamma, *phases.alphas)
    deltas = (phases.delta, *phases.betas)
    for coin, p, g, d in zip(coins, BASE_LOSE, gammas, deltas):
        theta = lose_prob_to_theta(p + eps)
        assert np.array_equal(coin, su2_matrix(theta, reduce_angle(g), reduce_angle(d)))


# Finite phases of any size, 1e300 included: reduce_angle brings each into
# [0, 2*pi) before the coin is built.
finite_phases = st.floats(-1e300, 1e300)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    eps=st.floats(-MAX_EPS, MAX_EPS, exclude_min=True, exclude_max=True),
    gamma=finite_phases,
    delta=finite_phases,
    alphas=st.tuples(*[finite_phases] * 4),
    betas=st.tuples(*[finite_phases] * 4),
)
def test_games_from_bias_are_su2_by_construction(eps, gamma, delta, alphas, betas):
    # The evaluators hand these coins to the backends unchecked.
    phases = PhaseAssignment(gamma=gamma, delta=delta, alphas=alphas, betas=betas)
    check_coins(games_from_bias(eps, phases))


@pytest.mark.parametrize("eps", [-0.099, -0.05, 0.0, 1 / 168, 1 / 112, 0.05, 0.0999])
def test_one_lose_table_behind_coins_chains_and_closed_forms(eps):
    lose = lose_probs(eps)
    assert lose.shape == (5,)
    coins = games_from_bias(eps, PhaseAssignment(gamma=0.3, delta=1.1, betas=(1, 2, 3, 4)))
    # Game A's chain has one reward per history, all alike; game B's four
    # follow the coin order.
    a, b = (build_history_chain(policy, eps) for policy in "AB")
    rewards = np.concatenate([a.reward[:1], b.reward])
    assert np.allclose(np.abs(coins[:, 0, 0]) ** 2, lose, rtol=0, atol=ATOL)
    assert np.allclose(1 - (1 + rewards) / 2, lose, rtol=0, atol=ATOL)
    theta, phis = aab_angles_from_bias(eps)
    assert (theta, *phis) == tuple(lose_prob_to_theta(p) for p in lose)


def test_phase_assignment_validates_lengths():
    with pytest.raises(ValueError):
        PhaseAssignment(alphas=(0.0, 0.0))


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"gamma": math.nan}, "gamma"),
        ({"delta": math.inf}, "delta"),
        ({"alphas": (0.0, -math.inf, 0.0, 0.0)}, "alphas[1]"),
        ({"betas": (0.0, 0.0, 0.0, math.nan)}, "betas[3]"),
    ],
)
def test_phase_assignment_rejects_non_finite_angles(kwargs, field):
    with pytest.raises(ValueError, match=re.escape(field) + "=.* must be finite"):
        PhaseAssignment(**kwargs)

