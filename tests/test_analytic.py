import math

import numpy as np
import pytest

from qparrondo.analytic import (
    aab_angles_from_bias,
    aab_extremal_phases,
    aab_ghz_extremum_expansion,
    aab_ghz_phase_extreme,
    aab_payoff_ghz,
    aab_payoff_zero_state,
)
from qparrondo.coins import PhaseAssignment, su2_matrix
from qparrondo.payoff import payoff_expectation
from qparrondo.wiring import compile_sequence, run

from helpers import random_phases

CHECK_TOL = 1e-10

# Exact extremal total over 3 qubits: (1/4)(3/5 + sqrt(3) + 2 sqrt(0.21))
MAX_TOTAL = (3 / 5 + math.sqrt(3) + 2 * math.sqrt(0.21)) / 4


def random_angles(rng):
    theta = rng.uniform(-math.pi, math.pi)
    phis = tuple(rng.uniform(-math.pi, math.pi, 4))
    return theta, phis


def simulate_aab(theta, phis, phases, init_kind):
    plan = compile_sequence("AAB")
    coins = np.array(
        [su2_matrix(theta, phases.gamma, phases.delta)]
        + [su2_matrix(*angles) for angles in zip(phis, phases.alphas, phases.betas)]
    )
    state = run(plan, coins, init_kind)
    return payoff_expectation(state)


# --- zero-state closed form ---

def test_certain_triple_win():
    assert abs(aab_payoff_zero_state(math.pi / 2, (0.3, 0.4, 0.5, math.pi / 2)) - 3.0) < CHECK_TOL


def test_certain_triple_loss():
    assert abs(aab_payoff_zero_state(0.0, (0.0, 0.4, 0.5, 0.6)) + 3.0) < CHECK_TOL


def test_standard_angles_give_one_twentieth():
    theta, phis = aab_angles_from_bias(0.0)
    total = aab_payoff_zero_state(theta, phis)
    assert abs(total - 0.05) < CHECK_TOL
    assert abs(total / 3 - 1 / 60) < CHECK_TOL


# --- GHZ closed form ---

def test_equal_branches_cancel():
    theta, phis = aab_angles_from_bias(0.0)
    phi1 = phis[0]
    phases = PhaseAssignment(delta=0.7, betas=(1.1, 1.1, 1.1, 1.1))
    assert abs(aab_payoff_ghz(theta, (phi1,) * 4, phases)) < CHECK_TOL


def test_extremal_assignment_reaches_exact_maximum():
    theta, phis = aab_angles_from_bias(0.0)
    value = aab_payoff_ghz(theta, phis, aab_extremal_phases("max", delta=0.0))
    assert abs(value - MAX_TOTAL) < CHECK_TOL
    assert abs(value - 0.8121414866400113) < 1e-9


def test_swapped_assignment_reaches_exact_minimum():
    theta, phis = aab_angles_from_bias(0.0)
    value = aab_payoff_ghz(theta, phis, aab_extremal_phases("min", delta=0.0))
    assert abs(value + MAX_TOTAL) < CHECK_TOL


def test_delta_degeneracy_of_extremal_assignment():
    theta, phis = aab_angles_from_bias(0.0)
    for delta in (0.0, 0.3, math.pi / 4, 2.0):
        value = aab_payoff_ghz(theta, phis, aab_extremal_phases("max", delta=delta))
        assert abs(value - MAX_TOTAL) < CHECK_TOL


def test_zero_phase_reduction_at_zero_bias():
    # cos 2theta = 0 at eps = 0, leaving only the interference bracket
    theta, phis = aab_angles_from_bias(0.0)
    expected = (
        math.sin(2 * phis[0])
        - math.sin(2 * phis[1])
        - math.sin(2 * phis[2])
        + math.sin(2 * phis[3])
    ) / 4
    assert abs(aab_payoff_ghz(theta, phis) - expected) < CHECK_TOL


# --- extremal phase assignments ---

def test_extremal_phase_values_at_zero_delta():
    assert np.allclose(aab_extremal_phases("max", 0.0).betas, (0.0, math.pi, math.pi, 0.0))
    assert np.allclose(aab_extremal_phases("min", 0.0).betas, (math.pi, 0.0, 0.0, math.pi))


def test_extremal_phase_values_reduce_mod_two_pi():
    betas = aab_extremal_phases("max", math.pi / 4).betas
    expected = np.mod((-math.pi / 2, math.pi / 2, math.pi / 2, -math.pi / 2), 2 * math.pi)
    assert np.allclose(betas, expected)


def test_direction_validated():
    with pytest.raises(ValueError):
        aab_extremal_phases("sideways")


# --- cross-checks against the simulator ---

def test_zero_state_form_matches_simulator():
    rng = np.random.default_rng(107)
    for _ in range(100):
        theta, phis = random_angles(rng)
        phases = random_phases(rng)
        closed = aab_payoff_zero_state(theta, phis)
        simulated = simulate_aab(theta, phis, phases, "zero")
        assert abs(closed - simulated) < CHECK_TOL


def test_ghz_form_matches_simulator():
    rng = np.random.default_rng(109)
    for _ in range(100):
        theta, phis = random_angles(rng)
        phases = random_phases(rng)
        closed = aab_payoff_ghz(theta, phis, phases)
        simulated = simulate_aab(theta, phis, phases, "ghz")
        assert abs(closed - simulated) < CHECK_TOL


def test_alpha_and_gamma_are_irrelevant():
    rng = np.random.default_rng(113)
    theta, phis = aab_angles_from_bias(0.0)
    base = PhaseAssignment(delta=0.9, betas=(0.1, 0.4, 0.7, 1.0))
    reference_closed = aab_payoff_ghz(theta, phis, base)
    reference_sim = simulate_aab(theta, phis, base, "ghz")
    for _ in range(10):
        variant = PhaseAssignment(
            gamma=rng.uniform(0, 2 * math.pi),
            delta=base.delta,
            alphas=tuple(rng.uniform(0, 2 * math.pi, 4)),
            betas=base.betas,
        )
        assert abs(aab_payoff_ghz(theta, phis, variant) - reference_closed) < CHECK_TOL
        assert abs(simulate_aab(theta, phis, variant, "ghz") - reference_sim) < CHECK_TOL


def test_phase_extreme_formula_matches_dense_grid():
    # brute-force the closed form over a dense product grid of the four betas
    # (delta fixed at 0: only 2*delta + beta enters, so betas alone span it)
    rng = np.random.default_rng(127)
    grid = np.linspace(0, 2 * math.pi, 24, endpoint=False)
    for _ in range(5):
        theta, phis = random_angles(rng)
        constant = 0.5 * math.cos(2 * theta) * (math.cos(2 * phis[3]) - math.cos(2 * phis[0]))
        amp = 0.25 * math.sin(2 * theta) ** 2
        signs = (1.0, -1.0, -1.0, 1.0)
        terms = [
            amp * sign * np.cos(grid) * math.sin(2 * phi)
            for sign, phi in zip(signs, phis)
        ]
        surface = (
            constant
            + terms[0][:, None, None, None]
            + terms[1][None, :, None, None]
            + terms[2][None, None, :, None]
            + terms[3][None, None, None, :]
        )
        hi = aab_ghz_phase_extreme(theta, phis, "max")
        lo = aab_ghz_phase_extreme(theta, phis, "min")
        assert hi >= surface.max() - 1e-9
        assert lo <= surface.min() + 1e-9
        # the envelope is attained within grid resolution
        assert hi - surface.max() < 2e-2
        assert surface.min() - lo < 2e-2
        # spot-check the surface against the full closed form at one corner
        phases = PhaseAssignment(betas=(grid[3], grid[7], grid[11], grid[15]))
        assert abs(surface[3, 7, 11, 15] - aab_payoff_ghz(theta, phis, phases)) < 1e-12


# --- bias expansion of the extremes ---

def test_extremum_expansions():
    slope_sum = (
        0.8 / math.sqrt(0.09)
        - 2 * (0.5 / math.sqrt(0.1875))
        + 0.4 / math.sqrt(0.21)
    )
    c0, c1 = aab_ghz_extremum_expansion("max")
    assert abs(c0 - MAX_TOTAL) < CHECK_TOL
    assert abs(c1 - (0.4 + slope_sum / 4)) < 1e-6
    c0, c1 = aab_ghz_extremum_expansion("min")
    assert abs(c0 + MAX_TOTAL) < CHECK_TOL
    assert abs(c1 - (0.4 - slope_sum / 4)) < 1e-6
