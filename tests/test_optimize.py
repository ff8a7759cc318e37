import math

import numpy as np
import pytest

from qparrondo.coins import PhaseAssignment, games_from_bias
from qparrondo.optimize import COORD_NAMES, optimize_phases
from qparrondo.payoff import Evaluator, sequence_payoff
from qparrondo.wiring import compile_sequence

# Exact per-qubit extreme: (1/4)(3/5 + sqrt(3) + 2 sqrt(0.21)) / 3
MAX_PER_QUBIT = (3 / 5 + math.sqrt(3) + 2 * math.sqrt(0.21)) / 12


def test_aab_maximum_matches_closed_form():
    result = optimize_phases("AAB", direction="max")
    assert result.converged
    assert abs(result.best_value - MAX_PER_QUBIT) < 1e-6


def test_aab_minimum_matches_closed_form():
    result = optimize_phases("AAB", direction="min")
    assert result.converged
    assert abs(result.best_value + MAX_PER_QUBIT) < 1e-6


def test_aab_maximum_recovers_extremal_phase_structure():
    # optimum requires cos(2*delta + beta_i) = (+1, -1, -1, +1) up to 2*pi
    result = optimize_phases("AAB", direction="max")
    phases = result.best_phases
    signs = (1.0, -1.0, -1.0, 1.0)
    for beta, want in zip(phases.betas, signs):
        assert abs(math.cos(2 * phases.delta + beta) - want) < 1e-4


def test_trace_is_monotone_and_value_reproducible():
    result = optimize_phases("AAB", direction="max")
    diffs = np.diff(result.trace)
    assert np.all(diffs >= -1e-15)
    fresh = sequence_payoff("AAB", eps=0.0, phases=result.best_phases, init="ghz")
    assert abs(fresh - result.best_value) < 1e-12


def test_minimization_trace_is_monotone_downward():
    result = optimize_phases("AAB", direction="min")
    assert np.all(np.diff(result.trace) <= 1e-15)


@pytest.mark.parametrize("seq", ["B", "BB", "AB", "ABAB"])
def test_no_interference_sequences_are_phase_flat(seq):
    hi = optimize_phases(seq, init="ghz", direction="max", max_sweeps=2)
    lo = optimize_phases(seq, init="ghz", direction="min", max_sweeps=2)
    assert hi.best_value - lo.best_value < 1e-9
    assert hi.evaluations > 0


@pytest.mark.parametrize(
    "seq, init", [("B", "ghz"), ("ABB", "ghz"), ("AABA", "ghz"), ("AAB", "zero"), ("A", "zero")]
)
@pytest.mark.parametrize("direction", ["max", "min"])
def test_phase_blind_plans_take_one_evaluation(seq, init, direction):
    result = optimize_phases(seq, init=init, eps=0.01, direction=direction)
    assert result.phase_sensitive is False
    assert result.converged is True
    assert result.evaluations == 1
    assert result.trace == [result.best_value]
    assert result.best_phases == PhaseAssignment()
    assert result.best_value == Evaluator(seq, init).payoff(0.01)


def test_each_coin_reads_only_its_own_phases():
    # The grid scan swaps one coin into the current coins; that matches a
    # fresh build only because no coin reads another coin's phases.
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(0.0, 2 * math.pi, 5)
        eps = rng.uniform(-0.09, 0.09)
        coins = games_from_bias(eps, PhaseAssignment(delta=x[0], betas=tuple(x[1:])))
        for i, angle in enumerate(x):
            alone = games_from_bias(eps, PhaseAssignment(delta=angle, betas=(angle,) * 4))
            assert np.array_equal(alone[i], coins[i])


def test_flat_b_objective_equals_one_fifteenth():
    result = optimize_phases("B", direction="max", max_sweeps=2)
    assert abs(result.best_value - 1 / 15) < 1e-9
    result = optimize_phases("B", direction="min", max_sweeps=2)
    assert abs(result.best_value - 1 / 15) < 1e-9


def test_extremal_slopes_via_central_difference():
    h = 1e-4
    for direction, target in (("max", 0.24), ("min", 0.03)):
        result = optimize_phases("AAB", direction=direction)
        up = sequence_payoff("AAB", eps=h, phases=result.best_phases)
        down = sequence_payoff("AAB", eps=-h, phases=result.best_phases)
        slope = (up - down) / (2 * h)
        assert abs(slope - target) < 5e-3


def test_direction_validated():
    with pytest.raises(ValueError):
        optimize_phases("AAB", direction="upward")


@pytest.mark.parametrize("max_sweeps", [0, -3])
def test_sweep_budget_must_be_positive(max_sweeps):
    with pytest.raises(ValueError, match="max_sweeps"):
        optimize_phases("AAB", max_sweeps=max_sweeps)


def test_budget_exhaustion_reports_unconverged():
    result = optimize_phases("AAB", direction="max", max_sweeps=1)
    assert result.converged is False
    assert len(result.trace) == 2


def test_payoff_is_invariant_under_gamma_and_alphas():
    # gamma and each alpha are a phase after a coin on its own target, which
    # later gates read only as a control: no payoff on any input can see them.
    rng = np.random.default_rng(29)
    for _ in range(20):
        seq = "".join(rng.choice(["A", "B"], size=int(rng.integers(1, 8))))
        n = compile_sequence(seq).total_qubits
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        x = rng.uniform(0.0, 2 * math.pi, 10)
        eps = rng.uniform(-0.09, 0.09)
        searched = PhaseAssignment(delta=x[1], betas=tuple(x[6:10]))
        moved = PhaseAssignment(x[0], x[1], tuple(x[2:6]), tuple(x[6:10]))
        for init in ("zero", "ghz", amps / np.linalg.norm(amps)):
            evaluator = Evaluator(seq, init)
            assert abs(evaluator.payoff(eps, moved) - evaluator.payoff(eps, searched)) < 1e-12


def test_only_delta_and_betas_are_searched():
    assert COORD_NAMES == ("delta", "beta1", "beta2", "beta3", "beta4")
    result = optimize_phases("AAB", direction="max")
    assert result.best_phases.gamma == 0.0
    assert result.best_phases.alphas == (0.0,) * 4
    assert result.evaluations == 652
    assert result.phase_sensitive is True
