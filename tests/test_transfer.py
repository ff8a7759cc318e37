import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qparrondo import payoff, statevector, transfer
from qparrondo.classical import classical_sequence_payoff, classical_sequence_total
from qparrondo.coins import PhaseAssignment, games_from_bias, lose_probs, su2_matrix
from qparrondo.optimize import optimize_phases
from qparrondo.payoff import payoff_epsilon_expansion, payoff_expectation, sequence_payoff
from qparrondo.statevector import make_named_state
from qparrondo.table import build_table
from qparrondo.wiring import compile_sequence, ghz_phase_sensitive, run

from helpers import random_phases

ATOL = 1e-12

# Deterministic example generation, no example database written to disk.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

angles = st.floats(0.0, 2 * math.pi, exclude_max=True)
phase_assignments = st.builds(
    PhaseAssignment,
    gamma=angles,
    delta=angles,
    alphas=st.tuples(angles, angles, angles, angles),
    betas=st.tuples(angles, angles, angles, angles),
)
# Arbitrary coins, every angle drawn independently: unlike bias-derived coins,
# the (lost,won) and (won,lost) branches of B differ, so a backend that reads
# the two history bits in the wrong order is caught.
coin_angles = st.tuples(
    st.floats(-math.pi, math.pi),
    st.floats(0.0, 2 * math.pi),
    st.floats(0.0, 2 * math.pi),
)
small_sequences = st.text("AB", min_size=1, max_size=10).filter(
    lambda seq: compile_sequence(seq).total_qubits <= 10
)


def dense_total(plan, coins, kind):
    return payoff_expectation(run(plan, coins, kind))


# --- differential: transfer-matrix walk against the dense engine ---

@pytest.mark.parametrize("kind", ["zero", "ghz"])
def test_transfer_matches_dense_engine_on_fixed_arbitrary_coins(kind):
    # (theta, gamma, delta) of each coin; B's (lost,won) and (won,lost) coins
    # differ, so a backend that reads the two history bits in the wrong order
    # is caught without a property search.
    angles = [(0.4, 1.3, 2.2), (0.9, 0.5, 4.1), (2.1, 3.7, 0.6), (-1.2, 5.2, 1.9), (2.6, 0.8, 3.4)]
    coins = np.array([su2_matrix(*coin) for coin in angles])
    plan = compile_sequence("ABBAB")
    assert abs(transfer._compile_walk(plan, kind)(coins) - dense_total(plan, coins, kind)) <= ATOL


@PROPERTY
@given(
    seq=small_sequences,
    phases=phase_assignments,
    eps=st.floats(-0.09, 0.09, exclude_min=True, exclude_max=True),
    kind=st.sampled_from(["zero", "ghz"]),
)
def test_transfer_matches_dense_engine(seq, phases, eps, kind):
    plan = compile_sequence(seq)
    coins = games_from_bias(eps, phases)
    assert abs(transfer._compile_walk(plan, kind)(coins) - dense_total(plan, coins, kind)) <= ATOL


@PROPERTY
@given(
    seq=small_sequences,
    angles=st.tuples(*[coin_angles] * 5),
    kind=st.sampled_from(["zero", "ghz"]),
)
def test_transfer_matches_dense_engine_on_arbitrary_coins(seq, angles, kind):
    plan = compile_sequence(seq)
    coins = np.array([su2_matrix(*coin) for coin in angles])
    assert abs(transfer._compile_walk(plan, kind)(coins) - dense_total(plan, coins, kind)) <= ATOL


@pytest.mark.parametrize("kind", ["zero", "ghz"])
@pytest.mark.parametrize("seq", ["B" * 19, "AAB" * 7 + "A", "ABBAB" * 4])
def test_transfer_matches_dense_engine_on_large_registers(seq, kind):
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 2 * math.pi, 10)
    coins = games_from_bias(0.01, PhaseAssignment(x[0], x[1], tuple(x[2:6]), tuple(x[6:])))
    plan = compile_sequence(seq)
    assert abs(transfer._compile_walk(plan, kind)(coins) - dense_total(plan, coins, kind)) <= ATOL


@pytest.mark.parametrize("kind", ["zero", "ghz"])
@pytest.mark.parametrize("seq", ["AAB", "ABBAB", "B", "BBABA" * 3])
def test_a_compiled_walk_matches_a_fresh_walk_at_every_coin_set(seq, kind):
    # One walk compiled for the plan and the state, evaluated again and again,
    # equals a walk compiled afresh for each coin set, bit for bit: nothing
    # that the coins change may be kept from one evaluation to the next.
    # "AAB" and "ABBAB" have no seed qubit, "B" and "BBABA..." have two.
    rng = np.random.default_rng(2300)
    plan = compile_sequence(seq)
    walk = transfer._compile_walk(plan, kind)
    for _ in range(60):
        coins = games_from_bias(rng.uniform(-0.09, 0.09), random_phases(rng))
        assert walk(coins) == transfer._compile_walk(plan, kind)(coins)


# --- sequences beyond the dense cap ---

def test_zero_state_matches_classical_oracle_far_past_the_cap():
    # On the all-zero state the quantum payoff is the classical one with
    # (loss, loss) seeds, for any phases; the classical oracle is linear-time.
    rng = np.random.default_rng(11)
    seq = "".join(rng.choice(["A", "B"], size=400))
    phases = PhaseAssignment(1.0, 2.0, (0.1, 0.2, 0.3, 0.4), (3.0, 2.0, 1.0, 0.5))
    for eps in (0.0, 0.004):
        quantum = sequence_payoff(seq, eps, phases, init="zero")
        assert quantum == pytest.approx(classical_sequence_payoff(seq, eps, seeds=(0, 0)), abs=1e-9)


def test_aab_blocks_on_3000_qubits():
    plan = compile_sequence("AAB" * 1000)
    assert plan.total_qubits == 3000
    coins = games_from_bias(0.0)
    # AAB blocks on the all-zero state do not feed each other: 1000 x 1/20.
    assert transfer._compile_walk(plan, "zero")(coins) == pytest.approx(50.0, abs=1e-9)
    assert transfer._compile_walk(plan, "ghz")(coins) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("repetitions", [12, 50])
def test_repeated_aab_row_keeps_its_expansion_past_the_cap(repetitions):
    row = next(r for r in build_table(repetitions) if r["label"] == "AAB...AAB")
    assert row["qubits"] == 3 * repetitions
    assert row["quantum_c0"] == pytest.approx(0.0, abs=1e-9)
    assert row["quantum_c1"] == pytest.approx(2 / 15, abs=1e-6)


def test_optimizer_runs_past_the_cap():
    result = optimize_phases("B" * 30, max_sweeps=1)
    assert math.isfinite(result.best_value)
    assert result.best_value == sequence_payoff("B" * 30, init="ghz", phases=result.best_phases)



# --- GHZ on a phase-blind plan: the mean of two classical chains ---

def two_chain_total(seq, eps):
    """The mean of two classical totals: seeds (0, 0) with the lose
    probabilities, and seeds (1, 1) with their complements, since a coin on
    |1> wins with the lose probability."""
    lose = lose_probs(eps)
    zeros = classical_sequence_total(seq, seeds=(0, 0), lose=lose)[0]
    ones = classical_sequence_total(seq, seeds=(1, 1), lose=1.0 - lose)[0]
    return 0.5 * (zeros + ones)


def test_ghz_is_the_mean_of_two_classical_chains_on_every_short_phase_blind_plan():
    # Every plan of at most 10 tokens that ghz_phase_sensitive calls
    # phase-blind, at a random bias and random phases
    rng = np.random.default_rng(1600)
    plans = 0
    for length in range(1, 11):
        for tokens in itertools.product("AB", repeat=length):
            seq = "".join(tokens)
            plan = compile_sequence(seq)
            if ghz_phase_sensitive(plan):
                continue
            eps = rng.uniform(-0.09, 0.09)
            coins = games_from_bias(eps, random_phases(rng))
            walk = transfer._compile_walk(plan, "ghz")(coins)
            assert abs(walk - two_chain_total(seq, eps)) <= 1e-13, seq
            plans += 1
    assert plans == 1991


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    length=st.integers(11, 3000),
    b_share=st.floats(0.2, 1.0),
    seed=st.integers(0, 2**32 - 1),
    eps=st.floats(-0.09, 0.09),
    phases=phase_assignments,
)
@example(length=3000, b_share=1.0, seed=0, eps=-0.08, phases=PhaseAssignment())
def test_ghz_is_the_mean_of_two_classical_chains_on_long_plans(length, b_share, seed, eps, phases):
    # Up to 3000 tokens, far past the dense cap, B-heavy to mixed; the total
    # lies in [-n, n], so the bound is relative to the register
    rng = np.random.default_rng(seed)
    seq = "".join(np.where(rng.random(length) < b_share, "B", "A"))
    plan = compile_sequence(seq)
    assume(not ghz_phase_sensitive(plan))
    walk = transfer._compile_walk(plan, "ghz")(games_from_bias(eps, phases))
    assert abs(walk - two_chain_total(seq, eps)) <= 1e-12 * plan.total_qubits

# --- checks the walk shares with the dense engine ---

def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown initial-state kind"):
        sequence_payoff("AB", init="uniform")


def test_coin_matrices_are_checked():
    plan = compile_sequence("AAB")
    for k in range(5):
        coins = games_from_bias(0.0)
        coins[k] = 1.5 * np.eye(2)
        with pytest.raises(ValueError, match="not unitary"):
            run(plan, coins, "ghz")
    with pytest.raises(ValueError, match=r"shape \(5, 2, 2\)"):
        run(plan, games_from_bias(0.0)[1:], "ghz")


NON_FINITE_ANGLES = [
    (math.nan, 0.0, 0.0),
    (0.3, math.nan, 0.0),
    (0.3, 0.0, math.nan),
    (math.inf, 0.0, 0.0),
    (0.3, math.inf, 0.0),
    (0.3, 0.0, -math.inf),
]


def coins_with(angles, k):
    """The unbiased coins with coin ``k`` built from ``angles``.  numpy warns as
    an infinite phase turns the coin's entries to NaN; math.cos raises
    ValueError outright on an infinite theta."""
    coins = games_from_bias(0.0)
    with np.errstate(invalid="ignore"):
        coins[k] = su2_matrix(*angles)
    return coins


@pytest.mark.parametrize("angles", NON_FINITE_ANGLES)
def test_non_finite_angle_is_rejected_by_both_backends(angles):
    plan = compile_sequence("ABB")
    for kind in ("zero", "ghz"):
        init = make_named_state(plan.total_qubits, kind)
        before = init.amplitudes.copy()
        for k in (0, 1, 4):
            with pytest.raises(ValueError):
                transfer._compile_walk(plan, kind)(coins_with(angles, k))
            with pytest.raises(ValueError):
                run(plan, coins_with(angles, k), init)
        assert np.array_equal(init.amplitudes, before)


def test_norm_drift_is_rejected(monkeypatch):
    monkeypatch.setitem(statevector.NAMED_STATES, "ghz", (1.0, 1.0))
    coins = games_from_bias(0.0)
    with pytest.raises(ValueError, match="normalization"):
        transfer._compile_walk(compile_sequence("AAB"), "ghz")(coins)


# --- backend selection ---

def _fail(*args, **kwargs):
    raise AssertionError("wrong backend")


@pytest.mark.parametrize("kind", ["zero", "ghz"])
def test_named_states_take_the_transfer_walk(monkeypatch, kind):
    monkeypatch.setattr(payoff, "_compile_window", _fail)
    monkeypatch.setattr(payoff, "_compile_blocks", _fail)
    monkeypatch.setattr(payoff, "initial_amplitudes", _fail)
    assert math.isfinite(sequence_payoff("ABBAB", 0.01, init=kind))
    assert math.isfinite(payoff_epsilon_expansion("ABBAB", init=kind).c1)


def test_custom_states_take_the_dense_engine(monkeypatch):
    monkeypatch.setattr(transfer, "_compile_walk", _fail)
    ghz = make_named_state(3, "ghz")
    assert sequence_payoff("B", init=ghz) == pytest.approx(1 / 15, abs=ATOL)
    assert sequence_payoff("B", init=ghz.amplitudes) == pytest.approx(1 / 15, abs=ATOL)
