"""Exact simulator and analysis toolkit for history-dependent quantum
Parrondo games: SU(2) coin games wired into circuits, payoff expectations
with bias expansion, closed-form cross-checks, a classical oracle, and a
phase optimizer."""

from .analytic import (
    aab_angles_from_bias,
    aab_extremal_phases,
    aab_ghz_extremum_expansion,
    aab_ghz_phase_extreme,
    aab_payoff_ghz,
    aab_payoff_zero_state,
)
from .classical import (
    ClassicalGameSpec,
    HistoryChain,
    build_history_chain,
    classical_sequence_expansion,
    classical_sequence_payoff,
    classical_sequence_total,
    monte_carlo_sequence_payoff,
    paradox_threshold,
    sequence_threshold,
    stationary_distribution,
    stationary_payoff,
)
from .coins import (
    CoinParams,
    EpsilonBias,
    GameBSpec,
    PhaseAssignment,
    game_a_from_bias,
    game_b_from_bias,
    games_from_bias,
    lose_prob_to_theta,
    su2_matrix,
)
from .optimize import OptimizationResult, optimize_phases
from .payoff import (
    Evaluator,
    PayoffExpansion,
    payoff_epsilon_expansion,
    payoff_expectation,
    per_qubit,
    sequence_payoff,
)
from .statevector import (
    MAX_QUBITS,
    StateVector,
    make_basis_state,
    make_ghz,
)
from .table import build_table
from .wiring import CircuitPlan, compile_sequence, initial_state_for, run

__all__ = [
    "CircuitPlan",
    "ClassicalGameSpec",
    "CoinParams",
    "EpsilonBias",
    "Evaluator",
    "GameBSpec",
    "HistoryChain",
    "MAX_QUBITS",
    "OptimizationResult",
    "PayoffExpansion",
    "PhaseAssignment",
    "StateVector",
    "aab_angles_from_bias",
    "aab_extremal_phases",
    "aab_ghz_extremum_expansion",
    "aab_ghz_phase_extreme",
    "aab_payoff_ghz",
    "aab_payoff_zero_state",
    "build_history_chain",
    "build_table",
    "classical_sequence_expansion",
    "classical_sequence_payoff",
    "classical_sequence_total",
    "compile_sequence",
    "game_a_from_bias",
    "game_b_from_bias",
    "games_from_bias",
    "initial_state_for",
    "lose_prob_to_theta",
    "make_basis_state",
    "make_ghz",
    "monte_carlo_sequence_payoff",
    "optimize_phases",
    "paradox_threshold",
    "payoff_epsilon_expansion",
    "payoff_expectation",
    "per_qubit",
    "run",
    "sequence_payoff",
    "sequence_threshold",
    "stationary_distribution",
    "stationary_payoff",
    "su2_matrix",
]
