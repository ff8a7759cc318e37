import math
import re

import numpy as np
import pytest

from qparrondo.coins import (
    CoinParams,
    EpsilonBias,
    GAME_B_LOSE,
    GameBSpec,
    PhaseAssignment,
    game_a_from_bias,
    game_b_from_bias,
    games_from_bias,
    lose_prob_to_theta,
    su2_matrix,
)

ATOL = 1e-12
SQ2 = math.sqrt(2) / 2


# --- su2_matrix ---

def test_zero_angles_give_identity():
    assert np.allclose(su2_matrix(CoinParams(0.0, 0.0, 0.0)), np.eye(2), atol=ATOL)


def test_quarter_rotation_no_phases():
    m = su2_matrix(CoinParams(math.pi / 4, 0.0, 0.0))
    assert np.allclose(m, [[SQ2, -SQ2], [SQ2, SQ2]], atol=ATOL)


def test_half_pi_rotation_with_phases():
    # theta=pi/2, gamma=pi, delta=pi/2: off-diagonal pure phases
    m = su2_matrix(CoinParams(math.pi / 2, math.pi, math.pi / 2))
    expected = np.array(
        [[0.0, -np.exp(-1j * math.pi / 4)], [np.exp(1j * math.pi / 4), 0.0]]
    )
    assert np.allclose(m, expected, atol=ATOL)


def test_unitarity_over_many_random_triples():
    rng = np.random.default_rng(5)
    eye = np.eye(2)
    for _ in range(10_000):
        m = su2_matrix(
            CoinParams(
                theta=rng.uniform(-math.pi, math.pi),
                gamma=rng.uniform(0, 2 * math.pi),
                delta=rng.uniform(0, 2 * math.pi),
            )
        )
        assert np.allclose(m.conj().T @ m, eye, atol=ATOL)
        assert abs(abs(np.linalg.det(m)) - 1.0) < ATOL


def test_entry_magnitudes_independent_of_phases():
    rng = np.random.default_rng(9)
    for _ in range(50):
        theta = rng.uniform(-math.pi, math.pi)
        base = np.abs(su2_matrix(CoinParams(theta, 0.0, 0.0)))
        m = su2_matrix(
            CoinParams(theta, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        )
        assert np.allclose(np.abs(m), base, atol=ATOL)


def test_coin_params_rejects_out_of_range():
    with pytest.raises(ValueError):
        CoinParams(theta=3.5)
    with pytest.raises(ValueError):
        CoinParams(theta=0.0, gamma=-0.1)
    with pytest.raises(ValueError):
        CoinParams(theta=0.0, delta=7.0)


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


# --- game builders ---

def test_game_a_unbiased_zero_phases():
    a = game_a_from_bias(0.0)
    assert abs(a.theta - math.pi / 4) < ATOL
    assert a.gamma == 0.0 and a.delta == 0.0


def test_game_a_small_bias_angle():
    a = game_a_from_bias(0.01)
    assert abs(a.theta - 0.7753974966107531) < 1e-9
    assert abs(math.cos(a.theta) ** 2 - 0.51) < ATOL


def test_game_a_passes_phases_through():
    a = game_a_from_bias(0.0, gamma=1.0, delta=2.0)
    assert (a.theta, a.gamma, a.delta) == (math.pi / 4, 1.0, 2.0)


def test_game_b_unbiased_angles():
    b = game_b_from_bias(0.0)
    thetas = [p.theta for p in b.branches]
    assert abs(thetas[0] - 1.2490457723982544) < 1e-9
    assert abs(thetas[1] - math.pi / 6) < ATOL
    assert abs(thetas[2] - math.pi / 6) < ATOL
    assert abs(thetas[3] - 0.9911565864311924) < 1e-9
    for theta, lose in zip(thetas, GAME_B_LOSE):
        assert abs(math.cos(theta) ** 2 - lose) < ATOL


def test_game_b_unbiased_win_probabilities():
    b = game_b_from_bias(0.0)
    wins = [math.sin(p.theta) ** 2 for p in b.branches]
    assert np.allclose(wins, [0.9, 0.25, 0.25, 0.7], atol=ATOL)


def test_game_b_bias_shifts_all_lose_probs_exactly():
    eps = 1 / 168
    b = game_b_from_bias(eps)
    loses = [math.cos(p.theta) ** 2 for p in b.branches]
    assert np.allclose(loses, [p + eps for p in GAME_B_LOSE], atol=ATOL)


@pytest.mark.parametrize("eps", [-0.05, 0.0, 1 / 168, 1 / 112, 0.05])
def test_probability_round_trip(eps):
    m = su2_matrix(game_a_from_bias(eps, gamma=0.7, delta=2.3))
    assert abs(abs(m[0, 0]) ** 2 - (0.5 + eps)) < ATOL


def test_bias_range_enforced():
    with pytest.raises(ValueError):
        EpsilonBias(0.1)
    with pytest.raises(ValueError):
        EpsilonBias(-0.25)
    with pytest.raises(ValueError):
        game_a_from_bias(0.2)
    EpsilonBias(0.0999)


def test_games_from_bias_builds_both_operators():
    phases = PhaseAssignment(gamma=0.3, delta=0.4, alphas=(0.1, 0.2, 0.3, 0.4), betas=(1, 2, 3, 4))
    a, b = games_from_bias(0.0, phases)
    assert (a.gamma, a.delta) == (0.3, 0.4)
    assert [p.gamma for p in b.branches] == [0.1, 0.2, 0.3, 0.4]
    assert [p.delta for p in b.branches] == [1.0, 2.0, 3.0, 4.0]


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


def test_game_b_spec_needs_four_branches():
    with pytest.raises(ValueError):
        GameBSpec((CoinParams(0.1),) * 3)
