import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qparrondo import statevector
from qparrondo import wiring as wiring_module
from qparrondo.coins import games_from_bias
from qparrondo.payoff import Evaluator
from qparrondo.statevector import make_basis_state, make_named_state, window_span
from qparrondo.wiring import compile_sequence, ghz_phase_sensitive, initial_amplitudes, run

from helpers import random_phases

ATOL = 1e-12


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
            initial_amplitudes(plan, kind)


# --- initial states ---

def test_initial_state_kinds():
    plan = compile_sequence("AAB")
    assert initial_amplitudes(plan, "zero")[0] == 1.0
    ghz = initial_amplitudes(plan, "ghz")
    assert abs(ghz[0] - 1 / math.sqrt(2)) < ATOL
    assert abs(ghz[7] - 1 / math.sqrt(2)) < ATOL


def test_initial_state_zero_for_b_means_loss_loss_history():
    assert initial_amplitudes(compile_sequence("B"), "zero")[0] == 1.0


def test_initial_state_ghz_spans_plan_width():
    assert initial_amplitudes(compile_sequence("BB"), "ghz").size == 1 << 4


def test_initial_state_custom_amplitudes():
    plan = compile_sequence("AB")
    amps = np.zeros(8)
    amps[3] = 1.0
    assert initial_amplitudes(plan, amps)[3] == 1.0


def test_initial_state_rejects_unnormalized_custom():
    plan = compile_sequence("AB")
    with pytest.raises(ValueError):
        initial_amplitudes(plan, np.ones(8))


def test_initial_state_rejects_bad_kind():
    with pytest.raises(ValueError, match="kind"):
        initial_amplitudes(compile_sequence("A"), "vacuum")


@pytest.mark.parametrize("writeable", [True, False], ids=["writable", "read-only"])
def test_initial_amplitudes_read_a_complex_array_in_place(writeable):
    plan = compile_sequence("AB")
    amps = np.array(make_named_state(3, "ghz").amplitudes)
    amps.setflags(write=writeable)
    assert initial_amplitudes(plan, amps) is amps
    state = make_named_state(3, "ghz")
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
    ghz = make_named_state(3, "ghz").amplitudes
    given = convert(np.array(ghz))
    amps = initial_amplitudes(plan, given)
    assert amps.dtype == complex and amps.flags.c_contiguous and amps.flags.owndata
    assert not np.shares_memory(amps, ghz) and np.array_equal(amps, ghz)


WRONG_SIZE = re.escape("initial state has shape (4,), plan needs (8,) for 3 qubits")


@pytest.mark.parametrize(
    "kind, message",
    [
        (np.ones(8, dtype=complex), "not normalized"),
        (np.ones(4, dtype=complex) / 2, WRONG_SIZE),
        (make_named_state(2, "ghz"), WRONG_SIZE),
        ("vacuum", "unknown initial-state kind"),
    ],
    ids=["unnormalized", "wrong-size-array", "wrong-size-state", "unknown-name"],
)
def test_run_and_evaluator_reject_what_initial_amplitudes_rejects(kind, message):
    # Every entry point takes its initial state through initial_amplitudes,
    # so a wrong-size array and a wrong-size StateVector get one message.
    plan = compile_sequence("AB")
    for build in (
        lambda: initial_amplitudes(plan, kind),
        lambda: run(plan, games_from_bias(0.0), kind),
        lambda: Evaluator("AB", kind),
    ):
        with pytest.raises(ValueError, match=message):
            build()


# --- execution ---

def test_run_rejects_a_state_of_another_width():
    with pytest.raises(ValueError, match=WRONG_SIZE):
        run(compile_sequence("AB"), games_from_bias(0.0), make_named_state(2, "ghz"))


def test_run_takes_every_initial_state_evaluator_takes():
    plan = compile_sequence("ABB")
    coins = games_from_bias(0.01, random_phases(np.random.default_rng(3)))
    expected = run(plan, coins, "ghz").amplitudes
    state = make_named_state(plan.total_qubits, "ghz")
    assert np.array_equal(run(plan, coins, state).amplitudes, expected)
    assert np.array_equal(run(plan, coins, state.amplitudes.real.copy()).amplitudes, expected)
    for writeable in (True, False):
        amps = np.array(state.amplitudes)
        amps.setflags(write=writeable)
        flags = amps.flags.writeable, amps.flags.c_contiguous, amps.flags.owndata
        assert np.array_equal(run(plan, coins, amps).amplitudes, expected)
        assert np.array_equal(amps, state.amplitudes)
        assert (amps.flags.writeable, amps.flags.c_contiguous, amps.flags.owndata) == flags


def count_coin_checks(monkeypatch):
    """Count the calls of check_coins from ``wiring``, the one module that
    binds it."""
    calls = []

    def counted(coins):
        calls.append(1)
        return statevector.check_coins(coins)

    monkeypatch.setattr(wiring_module, "check_coins", counted)
    return calls


@pytest.mark.parametrize("init", ["ghz", make_named_state(3, "ghz")], ids=["walk", "dense"])
def test_evaluations_trust_the_coins_they_build(monkeypatch, init):
    calls = count_coin_checks(monkeypatch)
    evaluator = Evaluator("AAB", init)
    evaluator.payoff(0.01)
    evaluator.expansion()
    assert calls == []


def test_run_checks_a_callers_coins_once(monkeypatch):
    calls = count_coin_checks(monkeypatch)
    run(compile_sequence("ABBAB"), games_from_bias(0.01), "ghz")
    assert len(calls) == 1


def test_run_single_b_from_all_zero():
    plan = compile_sequence("B")
    coins = games_from_bias(0.0)
    out = run(plan, coins, "zero")
    phi1 = math.acos(math.sqrt(0.1))
    assert abs(out.amplitudes[0] - math.cos(phi1)) < ATOL
    assert abs(out.amplitudes[1] - math.sin(phi1)) < ATOL
    assert abs(math.cos(phi1) ** 2 - 0.1) < ATOL


def test_run_single_a_coin_toss():
    plan = compile_sequence("A")
    coins = games_from_bias(0.0)
    out = run(plan, coins, "zero")
    assert np.allclose(out.amplitudes, [math.sqrt(2) / 2, math.sqrt(2) / 2], atol=ATOL)


def test_run_b_on_ghz_keeps_history_qubits():
    rng = np.random.default_rng(2)
    plan = compile_sequence("B")
    coins = games_from_bias(0.0, random_phases(rng))
    out = run(plan, coins, "ghz")
    support = np.nonzero(out.amplitudes)[0]
    assert set(support) <= {0b000, 0b001, 0b110, 0b111}


def test_run_rejects_qubit_count_mismatch():
    plan = compile_sequence("AAB")
    coins = games_from_bias(0.0)
    with pytest.raises(ValueError, match="qubits"):
        run(plan, coins, make_named_state(4, "ghz"))


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
    block = run(plan3, coins, "zero").amplitudes
    plan = compile_sequence("AAB" * reps)
    full = run(plan, coins, "zero").amplitudes
    tensor = block
    for _ in range(reps - 1):
        tensor = np.kron(tensor, block)
    assert np.allclose(full, tensor, atol=ATOL)


def test_repeated_aab_factorizes_with_random_phases():
    rng = np.random.default_rng(29)
    phases = random_phases(rng)
    coins = games_from_bias(0.004, phases)
    plan3 = compile_sequence("AAB")
    block = run(plan3, coins, "zero").amplitudes
    plan = compile_sequence("AABAAB")
    full = run(plan, coins, "zero").amplitudes
    assert np.allclose(full, np.kron(block, block), atol=ATOL)


# --- phase sensitivity ---

def phases_move_payoff(evaluator, eps, rng):
    """Whether the payoff moves by more than 1e-12 between three random phase
    points at bias ``eps``."""
    values = [evaluator.payoff(eps, random_phases(rng)) for _ in range(3)]
    return max(values) - min(values) > 1e-12


def rule_by_wiring(plan):
    """The phase-sensitivity rule on GHZ as this test states it, from
    ``wiring`` above: no seed qubit, and every qubit but the last is a control
    of a later B."""
    read = {q for token, _, controls in wiring(plan) if token == "B" for q in controls}
    return plan.seed_count == 0 and read >= set(range(1, plan.total_qubits))


@pytest.mark.parametrize("init", ["zero", "ghz"])
def test_phase_sensitivity_matches_the_walk_on_every_short_sequence(init):
    rng = np.random.default_rng(41)
    for length in range(1, 9):
        for tokens in itertools.product("AB", repeat=length):
            seq = "".join(tokens)
            evaluator = Evaluator(seq, init)
            rule = init == "ghz" and rule_by_wiring(evaluator.plan)
            assert ghz_phase_sensitive(evaluator.plan) == rule_by_wiring(evaluator.plan), seq
            assert evaluator.phase_sensitive == rule, seq
            moved = phases_move_payoff(evaluator, rng.uniform(-0.09, 0.09), rng)
            assert moved == rule, seq


# The interference on the last qubit shrinks as the sequence grows (a phase
# span of 0.0077 per qubit for AAB followed by B^10), so lengths stay short.
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seq=st.text("AB", min_size=1, max_size=12),
    init=st.sampled_from(["zero", "ghz"]),
    eps=st.floats(-0.09, 0.09),
    seed=st.integers(0, 2**32 - 1),
)
def test_phase_sensitivity_matches_the_walk(seq, init, eps, seed):
    # The phase points come from a seeded generator: two equal points drawn
    # by Hypothesis would show no move on any plan.
    evaluator = Evaluator(seq, init)
    assert evaluator.phase_sensitive == phases_move_payoff(
        evaluator, eps, np.random.default_rng(seed)
    )


def test_custom_states_are_always_phase_sensitive():
    # No rule is proven on a custom state, even one equal to a named state.
    for seq in ("B", "AAB", "ABB"):
        n = compile_sequence(seq).total_qubits
        for kind in ("zero", "ghz"):
            state = make_named_state(n, kind)
            assert Evaluator(seq, state).phase_sensitive is True
            assert Evaluator(seq, state.amplitudes).phase_sensitive is True


# --- the dense driver's groups of windows ---

def plan_windows(plan):
    """The windows of the plan, (first, ops) in play order, at zero bias."""
    coins = games_from_bias(0.0)
    return list(wiring_module._windows(plan, {"A": coins[:1], "B": coins[1:]}))


def group_spans(plan, windows=None):
    """The (first, last) qubits of each window of each group that the dense
    driver plays in one pass."""
    groups = wiring_module._groups(plan, iter(windows or plan_windows(plan)))
    return [[window_span(*window) for window in group] for group in groups]


def check_grouping_rule(plan, windows, tile, row):
    """The grouping rule as this test states it, on tiles of 2**tile and rows
    of 2**row amplitudes: the groups hold the windows in play order; a
    register of at most one tile plays every window alone; a group of several
    windows but the last leaves rows of 2**row in its tiles and in the state;
    the last group ends on the last qubit and, if it holds several windows,
    spans at most one tile from its first qubit on; and no window could have
    joined the group before it."""
    n = plan.total_qubits
    spans = group_spans(plan, windows)
    assert [span for group in spans for span in group] == [window_span(*w) for w in windows]
    if n <= tile:
        assert all(len(group) == 1 for group in spans)
        return
    for k, group in enumerate(spans):
        top, bottom = min(f for f, _ in group), max(last for _, last in group)
        if k == len(spans) - 1:
            assert bottom == n
            assert len(group) == 1 or n - top + 1 <= tile
            break
        if len(group) > 1:
            assert bottom - top + 1 + row <= tile and n - bottom >= row
        first, last = spans[k + 1][0]
        top = min(top, first)
        assert last - top + 1 + row > tile
        assert n - top + 1 > tile


def test_the_22_qubit_bias_expansion_plays_in_two_passes():
    # Windows 1-2 on qubits 1-7, in tiles of 2**7 x 2**9, then windows 3-5 on
    # qubits 7-22, in tiles of 2**16 that the last window ends
    assert group_spans(compile_sequence("AAB" * 7 + "A")) == [
        [(1, 2), (1, 7)],
        [(7, 12), (13, 17), (16, 22)],
    ]


def test_registers_of_one_tile_play_every_window_alone():
    for seq in ("AAB" * 5 + "A", "B" * 14, "A" * 16):
        spans = group_spans(compile_sequence(seq))
        assert len(spans) > 1 and all(len(group) == 1 for group in spans)


def test_groups_follow_the_rule_on_every_short_plan(monkeypatch):
    # Tiles of 2**4 to 2**7 and rows of 2 to 8 amplitudes group the windows
    # of 1-12 qubits
    for length in range(1, 11):
        for tokens in itertools.product("AB", repeat=length):
            plan = compile_sequence("".join(tokens))
            windows = plan_windows(plan)
            for tile, row in [(4, 1), (5, 1), (5, 2), (6, 1), (6, 2), (7, 3)]:
                monkeypatch.setattr(statevector, "_TILE", 1 << tile)
                monkeypatch.setattr(wiring_module, "_ROW", 1 << row)
                check_grouping_rule(plan, windows, tile, row)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seq=st.text("AB", min_size=15, max_size=24).filter(
    lambda seq: compile_sequence(seq).total_qubits <= 24
))
def test_groups_follow_the_rule_on_large_registers(seq):
    # The real tile (2**16) and rows (2**7), on 15-24 qubits
    plan = compile_sequence(seq)
    tile = statevector._TILE.bit_length() - 1
    check_grouping_rule(plan, plan_windows(plan), tile, wiring_module._ROW.bit_length() - 1)
