import math

import numpy as np
import pytest

from qparrondo.coins import PhaseAssignment, games_from_bias
from qparrondo.statevector import make_basis_state, make_ghz
from qparrondo.wiring import compile_sequence, initial_amplitudes, initial_state_for, run

ATOL = 1e-12


def random_phases(rng):
    return PhaseAssignment(
        gamma=rng.uniform(0, 2 * math.pi),
        delta=rng.uniform(0, 2 * math.pi),
        alphas=tuple(rng.uniform(0, 2 * math.pi, 4)),
        betas=tuple(rng.uniform(0, 2 * math.pi, 4)),
    )


# --- compilation ---

def wiring(plan):
    """(token, target, controls) of each game, by the wiring rule as this test
    states it: outcome qubits are the seeds, then each game's target as it is
    played; a game writes the next fresh qubit, and a B reads the two latest
    outcomes."""
    outcomes = list(range(1, plan.seed_count + 1))
    games = []
    for token in plan.tokens:
        target = len(outcomes) + 1
        games.append((token, target, tuple(outcomes[-2:]) if token == "B" else None))
        outcomes.append(target)
    return games


def test_compile_single_b_needs_two_seeds():
    plan = compile_sequence("B")
    assert (plan.seed_count, plan.total_qubits, plan.tokens) == (2, 3, "B")
    assert wiring(plan) == [("B", 3, (1, 2))]


def test_compile_aab_needs_no_seeds():
    plan = compile_sequence("AAB")
    assert (plan.seed_count, plan.total_qubits, plan.tokens) == (0, 3, "AAB")
    assert wiring(plan) == [("A", 1, None), ("A", 2, None), ("B", 3, (1, 2))]


def test_compile_ab_needs_one_seed():
    plan = compile_sequence("AB")
    assert (plan.seed_count, plan.total_qubits, plan.tokens) == (1, 3, "AB")
    assert wiring(plan) == [("A", 2, None), ("B", 3, (1, 2))]


def test_compile_repeated_aab_blocks_do_not_feed():
    plan = compile_sequence("AABAAB")
    assert (plan.seed_count, plan.total_qubits, plan.tokens) == (0, 6, "AABAAB")
    assert wiring(plan)[5] == ("B", 6, (4, 5))


def test_compile_pure_a_has_no_seeds():
    plan = compile_sequence("A")
    assert (plan.seed_count, plan.total_qubits, plan.tokens) == (0, 1, "A")


def test_compile_chained_bs_slide_the_window():
    plan = compile_sequence("BBB")
    assert (plan.seed_count, plan.total_qubits, plan.tokens) == (2, 5, "BBB")
    assert [controls for _, _, controls in wiring(plan)] == [(1, 2), (2, 3), (3, 4)]


def test_compile_mixed_sequence_uses_latest_outcomes():
    plan = compile_sequence("ABBAB")
    assert (plan.seed_count, plan.total_qubits, plan.tokens) == (1, 6, "ABBAB")
    controls = [c for _, _, c in wiring(plan)]
    assert controls == [None, (1, 2), (2, 3), None, (4, 5)]


def test_compile_is_deterministic():
    assert compile_sequence("ABAB") == compile_sequence("ABAB")


@pytest.mark.parametrize("seq", ["", "AXB", "ab", "A B"])
def test_compile_rejects_bad_sequences(seq):
    with pytest.raises(ValueError):
        compile_sequence(seq)


def test_qubit_cap_applies_to_the_dense_path_only():
    plan = compile_sequence("A" * 30)
    assert plan.total_qubits == 30
    for kind in ("zero", "ghz", np.zeros(4)):
        with pytest.raises(ValueError, match="cap"):
            initial_state_for(plan, kind)


# --- initial states ---

def test_initial_state_kinds():
    plan = compile_sequence("AAB")
    assert initial_state_for(plan, "zero").amplitudes[0] == 1.0
    ghz = initial_state_for(plan, "ghz")
    assert abs(ghz.amplitudes[0] - 1 / math.sqrt(2)) < ATOL
    assert abs(ghz.amplitudes[7] - 1 / math.sqrt(2)) < ATOL


def test_initial_state_zero_for_b_means_loss_loss_history():
    state = initial_state_for(compile_sequence("B"), "zero")
    assert state.amplitudes[0] == 1.0


def test_initial_state_ghz_spans_plan_width():
    assert initial_state_for(compile_sequence("BB"), "ghz").num_qubits == 4


def test_initial_state_custom_amplitudes():
    plan = compile_sequence("AB")
    amps = np.zeros(8)
    amps[3] = 1.0
    assert initial_state_for(plan, amps).amplitudes[3] == 1.0


def test_initial_state_rejects_unnormalized_custom():
    plan = compile_sequence("AB")
    with pytest.raises(ValueError):
        initial_state_for(plan, np.ones(8))


def test_initial_state_rejects_bad_kind():
    with pytest.raises(ValueError, match="kind"):
        initial_state_for(compile_sequence("A"), "vacuum")


@pytest.mark.parametrize("writeable", [True, False], ids=["writable", "read-only"])
def test_initial_amplitudes_read_a_complex_array_in_place(writeable):
    plan = compile_sequence("AB")
    amps = np.array(make_ghz(3).amplitudes)
    amps.setflags(write=writeable)
    assert initial_amplitudes(plan, amps) is amps
    state = make_ghz(3)
    assert initial_amplitudes(plan, state) is state.amplitudes


@pytest.mark.parametrize(
    "convert",
    [
        lambda amps: amps.real.copy(),
        lambda amps: amps.astype(amps.dtype.newbyteorder()),
        lambda amps: np.repeat(amps, 2)[::2],
        lambda amps: amps.tolist(),
    ],
    ids=["float64", "byte-swapped", "strided", "list"],
)
def test_initial_amplitudes_convert_other_inputs_once(convert):
    plan = compile_sequence("AB")
    ghz = make_ghz(3).amplitudes
    given = convert(np.array(ghz))
    amps = initial_amplitudes(plan, given)
    assert amps.dtype == complex and amps.flags.c_contiguous and amps.flags.owndata
    assert not np.shares_memory(amps, ghz) and np.array_equal(amps, ghz)


@pytest.mark.parametrize(
    "kind, message",
    [
        (np.ones(8, dtype=complex), "not normalized"),
        (np.ones(4, dtype=complex) / 2, "shape"),
        (make_ghz(2), "plan needs"),
        ("vacuum", "kind"),
    ],
)
def test_initial_amplitudes_reject_what_initial_state_for_rejects(kind, message):
    plan = compile_sequence("AB")
    for build in (initial_amplitudes, initial_state_for):
        with pytest.raises(ValueError, match=message):
            build(plan, kind)


# --- execution ---

def test_run_rejects_a_state_of_another_width():
    with pytest.raises(ValueError, match="initial state has 2 qubits, plan needs 3"):
        run(compile_sequence("AB"), games_from_bias(0.0), make_ghz(2))


def test_run_single_b_from_all_zero():
    plan = compile_sequence("B")
    coins = games_from_bias(0.0)
    out = run(plan, coins, initial_state_for(plan, "zero"))
    phi1 = math.acos(math.sqrt(0.1))
    assert abs(out.amplitudes[0] - math.cos(phi1)) < ATOL
    assert abs(out.amplitudes[1] - math.sin(phi1)) < ATOL
    assert abs(math.cos(phi1) ** 2 - 0.1) < ATOL


def test_run_single_a_coin_toss():
    plan = compile_sequence("A")
    coins = games_from_bias(0.0)
    out = run(plan, coins, initial_state_for(plan, "zero"))
    assert np.allclose(out.amplitudes, [math.sqrt(2) / 2, math.sqrt(2) / 2], atol=ATOL)


def test_run_b_on_ghz_keeps_history_qubits():
    rng = np.random.default_rng(2)
    plan = compile_sequence("B")
    coins = games_from_bias(0.0, random_phases(rng))
    out = run(plan, coins, initial_state_for(plan, "ghz"))
    support = np.nonzero(out.amplitudes)[0]
    assert set(support) <= {0b000, 0b001, 0b110, 0b111}


def test_run_rejects_qubit_count_mismatch():
    plan = compile_sequence("AAB")
    coins = games_from_bias(0.0)
    with pytest.raises(ValueError, match="qubits"):
        run(plan, coins, make_ghz(4))


# --- structural properties ---

def test_pure_b_preserves_first_two_bits_exactly():
    rng = np.random.default_rng(17)
    for seq in ("B", "BB", "BBB"):
        plan = compile_sequence(seq)
        coins = games_from_bias(0.003, random_phases(rng))
        for _ in range(4):
            label = "".join(rng.choice(["0", "1"], size=plan.total_qubits))
            out = run(plan, coins, make_basis_state(plan.total_qubits, label))
            for idx in np.nonzero(out.amplitudes)[0]:
                bits = format(idx, f"0{plan.total_qubits}b")
                assert bits[:2] == label[:2]


def test_alternating_ab_preserves_first_bit_exactly():
    rng = np.random.default_rng(19)
    for seq in ("AB", "ABAB", "ABABAB"):
        plan = compile_sequence(seq)
        coins = games_from_bias(-0.01, random_phases(rng))
        for _ in range(4):
            label = "".join(rng.choice(["0", "1"], size=plan.total_qubits))
            out = run(plan, coins, make_basis_state(plan.total_qubits, label))
            for idx in np.nonzero(out.amplitudes)[0]:
                assert format(idx, f"0{plan.total_qubits}b")[0] == label[0]


@pytest.mark.parametrize("reps", [2, 3, 4])
def test_repeated_aab_factorizes_into_blocks(reps):
    # the 3n-qubit run equals the n-fold tensor power of the 3-qubit run
    plan3 = compile_sequence("AAB")
    coins = games_from_bias(0.0)
    block = run(plan3, coins, initial_state_for(plan3, "zero")).amplitudes
    plan = compile_sequence("AAB" * reps)
    full = run(plan, coins, initial_state_for(plan, "zero")).amplitudes
    tensor = block
    for _ in range(reps - 1):
        tensor = np.kron(tensor, block)
    assert np.allclose(full, tensor, atol=ATOL)


def test_repeated_aab_factorizes_with_random_phases():
    rng = np.random.default_rng(29)
    phases = random_phases(rng)
    coins = games_from_bias(0.004, phases)
    plan3 = compile_sequence("AAB")
    block = run(plan3, coins, initial_state_for(plan3, "zero")).amplitudes
    plan = compile_sequence("AABAAB")
    full = run(plan, coins, initial_state_for(plan, "zero")).amplitudes
    assert np.allclose(full, np.kron(block, block), atol=ATOL)
