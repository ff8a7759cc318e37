import math
import os
import subprocess
import sys
from collections import deque
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qparrondo
from qparrondo import payoff, statevector, wiring
from qparrondo.classical import classical_sequence_payoff
from qparrondo.coins import PhaseAssignment, bias_expansion, games_from_bias
from qparrondo.optimize import optimize_phases
from qparrondo.payoff import (
    Evaluator,
    payoff_epsilon_expansion,
    payoff_expectation,
    per_qubit,
    sequence_payoff,
)
from qparrondo.statevector import StateVector, make_basis_state, make_named_state
from qparrondo.wiring import compile_sequence, play_to_last_window, run

from helpers import random_coins, random_phases, random_state, ref_play, ref_total, traced_peak

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
    peak = traced_peak(lambda: payoff_expectation(s))
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

@pytest.mark.parametrize("init", ["zero", "ghz", make_named_state(5, "ghz")], ids=["zero", "ghz", "dense"])
def test_payoff_of_coins_is_the_payoff_of_the_same_coins(init):
    evaluator = Evaluator("AABBA", init)
    phases = PhaseAssignment(0.4, 1.1, (0.2, 2.3, 4.4, 0.9), (3.1, 0.7, 5.5, 1.6))
    coins = games_from_bias(0.02, phases)
    for normalize in (True, False):
        want = evaluator.payoff(0.02, phases, normalize)
        assert evaluator.payoff_of_coins(coins, normalize) == want


def test_evaluator_validates_a_custom_state_once(monkeypatch):
    # One check by the StateVector rule per Evaluator, whether the array is
    # read in place (complex) or converted first (real)
    checked = []
    real = statevector.check_amplitudes
    for module in (statevector, wiring):
        monkeypatch.setattr(module, "check_amplitudes", lambda *args: checked.append(1) or real(*args))
    ghz = np.array(make_named_state(3, "ghz").amplitudes)
    for amps in (ghz, ghz.real.copy()):
        checked.clear()
        evaluator = Evaluator("B", init=amps)
        assert evaluator.plan.total_qubits == 3
        e = evaluator.expansion()
        assert abs(e.c0 - 1 / 15) < E2E and abs(e.c1) < 1e-6
        assert abs(evaluator.payoff(0.0, normalize=False) - 0.2) < E2E
        assert len(checked) == 1


# --- the dense total: the last window feeds the payoff reduction ---

@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seq=st.text("AB", min_size=1, max_size=14).filter(
        lambda seq: compile_sequence(seq).total_qubits <= 14
    ),
    seed=st.integers(0, 2**32 - 1),
    chunk=st.sampled_from([4, 64, 1024, statevector._CHUNK]),
)
def test_dense_total_matches_payoff_of_the_run_state(seq, seed, chunk):
    # 1-14 qubits, seed qubits included, random coins and custom amplitudes;
    # small blocks send small states through many reduction chunks.  Two coin
    # sets share one work buffer, filled with NaN first, as an Evaluator's
    # evaluations do: nothing may be read from it before it is written.  The
    # total and the run state's own agree with the kernel-free reference.
    rng = np.random.default_rng(seed)
    plan = compile_sequence(seq)
    init = random_state(plan.total_qubits, rng)
    work = np.full_like(init.amplitudes, math.nan)
    total_of = payoff._compile_window(plan, init.amplitudes, work)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statevector, "_CHUNK", chunk)
        for coins in (random_coins(rng), random_coins(rng)):
            total = total_of(coins)
            out = run(plan, coins, init)
            want = ref_total(ref_play(plan, coins, init.amplitudes))
            assert abs(total - payoff_expectation(out)) <= 1e-13
            assert abs(total - want) <= 1e-13
            assert abs(ref_total(out.amplitudes) - want) <= 1e-13


@pytest.mark.parametrize("chunk", [4, 64, 1024, None])
def test_one_window_plans_reduce_the_initial_state_directly(chunk, monkeypatch):
    # Every plan of up to _MAX_WINDOW games played as one window: the first
    # window is also the last, so it reads init and reduces it
    monkeypatch.setattr(wiring, "_window_games", lambda num_qubits: wiring._MAX_WINDOW)
    if chunk is not None:
        monkeypatch.setattr(statevector, "_CHUNK", chunk)
    rng = np.random.default_rng(730)
    for length in range(1, wiring._MAX_WINDOW + 1):
        for k in range(1 << length):
            seq = format(k, f"0{length}b").translate(str.maketrans("01", "AB"))
            plan = compile_sequence(seq)
            init = np.array(random_state(plan.total_qubits, rng).amplitudes)
            before = init.copy()
            coins = random_coins(rng)
            work = np.full_like(init, math.nan)
            assert play_to_last_window(plan, coins, init, work)[0] is init
            total = payoff._compile_window(plan, init, work)(coins)
            expected = payoff_expectation(run(plan, coins, StateVector(plan.total_qubits, init)))
            assert abs(total - expected) <= 1e-13, seq
            assert np.array_equal(init, before)
            assert np.isnan(work).all()


SPOILED_WINDOWS = [
    ("scale", "state is not normalized: |psi|^2 = "),
    ("nan", "state has non-finite amplitudes: |psi|^2 = "),
]


def spoiled_payoff(spoil: str, seq: str) -> str:
    """The error Evaluator.payoff raises on custom amplitudes when every
    window's operator is spoiled: scaled by 1 + 1e-6 or given a NaN."""
    real = wiring._window_operator

    def spoiled(window, gates):
        ops = np.array(real(window, gates))
        if spoil == "scale":
            ops *= 1 + 1e-6
        else:
            ops[..., 0, 0] = math.nan
        return ops

    init = random_state(compile_sequence(seq).total_qubits, np.random.default_rng(740))
    evaluator = payoff.Evaluator(seq, init)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wiring, "_window_operator", spoiled)
        try:
            evaluator.payoff(0.01)
        except ValueError as exc:
            return str(exc)
    return "accepted"


@pytest.mark.parametrize("seq", ["B", "AAB" * 3, "AAB" * 6 + "A"])
@pytest.mark.parametrize("spoil, message", SPOILED_WINDOWS)
def test_final_norm_is_checked_on_every_dense_evaluation(spoil, message, seq):
    # "B" and "AAB" * 3 take the block route, "AAB" * 6 + "A" the window route
    assert spoiled_payoff(spoil, seq).startswith(message)


# A writable custom state of "AAB" spoiled after it was normalized: (spoil,
# the message of the check that must reject it when the Evaluator is built).
SPOILED_STATES = [
    ("nan", "state has non-finite amplitudes: |psi|^2 = nan"),
    ("+2e-12", "state is not normalized: |psi|^2 = "),
    ("-2e-12", "state is not normalized: |psi|^2 = "),
]


def spoiled_state_rejection(spoil: str) -> str:
    """The error payoff_epsilon_expansion raises on writable GHZ amplitudes
    given a NaN entry or a norm off by 2e-12, with the evaluations disabled,
    so that only the Evaluator's check at construction can raise it."""
    amps = np.array(make_named_state(3, "ghz").amplitudes)
    if spoil == "nan":
        amps[1] = math.nan
    else:
        amps[0] = math.sqrt(0.5 + float(spoil))

    def evaluated(*args):
        raise RuntimeError("the state was evaluated")

    with pytest.MonkeyPatch.context() as patch:
        # "AAB" is one block, evaluated by the block route.
        patch.setattr(payoff, "_compile_blocks", lambda *args, **kwargs: evaluated)
        try:
            payoff_epsilon_expansion("AAB", init=amps)
        except ValueError as exc:
            return str(exc)
    return "accepted"


@pytest.mark.parametrize("spoil, message", SPOILED_STATES)
def test_custom_state_is_rejected_at_construction(spoil, message):
    assert spoiled_state_rejection(spoil).startswith(message)


@pytest.mark.parametrize("spoil, message", SPOILED_WINDOWS)
def test_payoff_expectation_rejects_a_spoiled_state(spoil, message):
    # A StateVector's amplitudes made writable again and spoiled: the norm
    # the reduction sums goes through the StateVector rule, so no NaN or
    # off-norm payoff comes out.
    sv = make_named_state(3, "ghz")
    sv.amplitudes.setflags(write=True)
    sv.amplitudes[0] = math.nan if spoil == "nan" else 2 * sv.amplitudes[0]
    with pytest.raises(ValueError) as rejected:
        payoff_expectation(sv)
    assert str(rejected.value).startswith(message)


def test_final_norm_check_holds_under_python_O():
    # -O strips assert statements; the final norm check and the check of a
    # custom state at construction must not depend on them
    src = str(Path(qparrondo.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from test_payoff import SPOILED_STATES, SPOILED_WINDOWS, spoiled_payoff, spoiled_state_rejection\n"
        "for spoil, _ in SPOILED_WINDOWS: print(spoiled_payoff(spoil, 'AAB' * 3))\n"
        "for spoil, _ in SPOILED_STATES: print(spoiled_state_rejection(spoil))\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    expected = SPOILED_WINDOWS + SPOILED_STATES
    assert len(lines) == len(expected)
    assert all(line.startswith(message) for line, (_, message) in zip(lines, expected))


MEMORY_QUBITS = 20


def read_only_amplitudes():
    """Amplitudes of 20 qubits, read-only and owning their memory."""
    amps = random_state(MEMORY_QUBITS, np.random.default_rng(750)).amplitudes
    assert not amps.flags.writeable and amps.flags.owndata
    return amps


def writable_amplitudes():
    """Amplitudes of 20 qubits in a writable complex128 array, as a caller
    usually holds them."""
    amps = np.array(read_only_amplitudes())
    assert amps.flags.writeable and amps.flags.owndata
    return amps


MEMORY_SEQUENCE = "AAB" * 6 + "AA"  # 20 qubits


def test_dense_payoff_allocates_one_work_buffer():
    # No copy of init and no final state: the work buffer and a few blocks.
    # The Evaluator keeps that buffer, so a later evaluation allocates none.
    amps = read_only_amplitudes()
    evaluators = []
    first = traced_peak(lambda: evaluators.append(payoff.Evaluator(MEMORY_SEQUENCE, amps))
                        or evaluators[0].payoff(0.01))
    assert evaluators[0].plan.total_qubits == MEMORY_QUBITS
    assert first < 1.25 * amps.nbytes
    assert traced_peak(lambda: evaluators[0].payoff(0.02)) < 0.1 * amps.nbytes


def test_one_window_dense_total_uses_no_work_buffer(monkeypatch):
    # A real one-window plan has at most 7 qubits, fewer amplitudes than its
    # window's operator has entries, so the driver is handed only the last
    # window of the 20-qubit plan.  It then plays nothing: the work buffer
    # stays unwritten, and the reduction reads init directly.
    plan = compile_sequence(MEMORY_SEQUENCE)
    init = read_only_amplitudes()
    coins = games_from_bias(0.01)
    work = np.full_like(init, math.nan)
    windows = wiring._windows
    monkeypatch.setattr(wiring, "_windows", lambda plan, gates: iter(deque(windows(plan, gates), 1)))
    total_of = payoff._compile_window(plan, init, work)
    peak = traced_peak(lambda: total_of(coins))
    assert peak < 0.1 * init.nbytes
    assert np.isnan(work).all()


@pytest.mark.parametrize(
    "entry",
    [
        lambda amps: payoff_epsilon_expansion(MEMORY_SEQUENCE, init=amps),
        lambda amps: sequence_payoff(MEMORY_SEQUENCE, 0.01, init=amps),
    ],
    ids=["payoff_epsilon_expansion", "sequence_payoff"],
)
def test_dense_entry_points_read_a_writable_state_in_place(entry):
    # The caller's array is read, not copied: the work buffer and a few
    # blocks are all that is allocated
    amps = writable_amplitudes()
    assert traced_peak(lambda: entry(amps)) < 1.25 * amps.nbytes


def test_later_evaluations_of_a_writable_state_allocate_no_state():
    amps = writable_amplitudes()
    evaluator = Evaluator(MEMORY_SEQUENCE, amps)
    evaluator.payoff(0.01)
    assert traced_peak(lambda: evaluator.payoff(0.02)) < 0.1 * amps.nbytes


def test_real_amplitudes_are_converted_once():
    # One complex conversion that the Evaluator owns, and the work buffer
    real = writable_amplitudes().real.copy()
    real /= np.linalg.norm(real)
    complex_bytes = 2 * real.nbytes
    assert traced_peak(lambda: payoff_epsilon_expansion(MEMORY_SEQUENCE, init=real)) < 2.25 * complex_bytes


def test_dense_evaluations_do_not_leak_into_each_other():
    # The kept work buffer of the window route ("ABABAB") is written before it
    # is read in every evaluation; the block route ("AABBA") keeps its
    # densities, the imaginary parts taken at the first phased evaluation
    rng = np.random.default_rng(760)
    for seq in ("AABBA", "AB" * 3):
        init = random_state(compile_sequence(seq).total_qubits, rng)
        evaluator = payoff.Evaluator(seq, init)
        phases = random_phases(rng)
        values = [evaluator.payoff(eps, phases) for eps in (0.01, -0.02, 0.01)]
        assert values[0] == values[2] != values[1]
        assert values[0] == payoff.Evaluator(seq, init).payoff(0.01, phases)


# --- the caller's amplitudes: read in place, never written ---

# Every dense entry point on custom amplitudes.  "AABBA" (blocks AABB and A)
# and "B" take the block route; "ABABAB" is one block of seven qubits and
# takes the window route.
DENSE_ENTRY_POINTS = {
    "Evaluator.payoff": lambda seq, amps: Evaluator(seq, amps).payoff(0.01),
    "Evaluator.expansion": lambda seq, amps: Evaluator(seq, amps).expansion(),
    "sequence_payoff": lambda seq, amps: sequence_payoff(seq, 0.01, init=amps),
    "payoff_epsilon_expansion": lambda seq, amps: payoff_epsilon_expansion(seq, init=amps),
    "optimize_phases": lambda seq, amps: optimize_phases(seq, init=amps, max_sweeps=1),
}


@pytest.mark.parametrize("seq", ["AABBA", "B", "AB" * 3])
@pytest.mark.parametrize("entry", DENSE_ENTRY_POINTS.values(), ids=DENSE_ENTRY_POINTS.keys())
@pytest.mark.parametrize("writeable", [True, False], ids=["writable", "read-only"])
def test_dense_entry_points_never_write_the_callers_state(entry, seq, writeable):
    amps = np.array(random_state(compile_sequence(seq).total_qubits, np.random.default_rng(770)).amplitudes)
    amps.setflags(write=writeable)
    before = amps.copy()
    flags = (amps.flags.writeable, amps.flags.owndata)
    entry(seq, amps)
    assert np.array_equal(amps, before)
    assert (amps.flags.writeable, amps.flags.owndata) == flags


def test_evaluator_on_a_state_vector_ignores_writes_to_its_source():
    rng = np.random.default_rng(780)
    amps = np.array(random_state(5, rng).amplitudes)
    evaluator = Evaluator("AABBA", StateVector(5, amps))
    value = evaluator.payoff(0.01)
    amps[:] = random_state(5, rng).amplitudes
    assert evaluator.payoff(0.01) == value
    assert Evaluator("AABBA", amps).payoff(0.01) != value


@pytest.mark.parametrize("seq", ["AABBA", "B"])
def test_evaluator_rejects_a_raw_state_scaled_after_construction(seq):
    # The raw array is read at every evaluation, and the final norm check
    # rejects a change to it that breaks the normalization
    amps = np.array(random_state(compile_sequence(seq).total_qubits, np.random.default_rng(790)).amplitudes)
    evaluator = Evaluator(seq, amps)
    evaluator.payoff(0.01)
    amps *= 1 + 1e-6
    with pytest.raises(ValueError, match=r"^state is not normalized: \|psi\|\^2 = "):
        evaluator.payoff(0.01)


# --- the block route: plans that split into independent blocks ---

def token_strings(max_len):
    for length in range(1, max_len + 1):
        for k in range(1 << length):
            yield format(k, f"0{length}b").translate(str.maketrans("01", "AB"))


def takes_block_route(seq) -> bool:
    blocks = wiring._blocks(compile_sequence(seq))
    return all(last - first < wiring._MAX_WINDOW for first, last, _ in blocks)


def reads(plan, game):
    """The qubits game ``game`` (0-based) reads by the wiring rule."""
    target = plan.seed_count + game + 1
    return {target - 2, target - 1} if plan.tokens[game] == "B" else set()


def test_blocks_are_the_finest_cut_no_later_game_reads_across():
    # The rule restated from what each game reads: the plan is cut before
    # game k exactly where no game from k on reads a qubit before k's target
    for seq in token_strings(10):
        plan = compile_sequence(seq)
        cuts = [
            k for k in range(1, len(seq))
            if all(q > plan.seed_count + k for j in range(k, len(seq)) for q in reads(plan, j))
        ]
        firsts = [1] + [plan.seed_count + k + 1 for k in cuts]
        lasts = [first - 1 for first in firsts[1:]] + [plan.total_qubits]
        starts = [0] + cuts
        tokens = [seq[a:b] for a, b in zip(starts, starts[1:] + [len(seq)])]
        assert wiring._blocks(plan) == list(zip(firsts, lasts, tokens)), seq


ROUTES = [
    ("AAB" * 7 + "A", [(1 + 3 * b, 3 + 3 * b, "AAB") for b in range(7)] + [(22, 22, "A")]),
    ("AABBA", [(1, 4, "AABB"), (5, 5, "A")]),
    ("B", [(1, 3, "B")]),
    ("B" * 19, None),
    ("AB" * 10, None),
]


@pytest.mark.parametrize("seq, blocks", ROUTES, ids=["(AAB)^7A", "AABBA", "B", "B^19", "(AB)^10"])
def test_route_choice(seq, blocks, monkeypatch):
    # Plans whose blocks all have at most _MAX_WINDOW qubits take the block
    # route; the others keep the window driver
    plan = compile_sequence(seq)
    taken, spans = [], []
    real = payoff._compile_blocks

    def compile_blocks(*args, **kwargs):
        real(*args, **kwargs)  # its density pass, which the spy below records
        return lambda coins: taken.append("block") or 0.0

    monkeypatch.setattr(payoff, "_compile_blocks", compile_blocks)
    monkeypatch.setattr(payoff, "_compile_window",
                        lambda *args: lambda coins: taken.append("window") or 0.0)
    monkeypatch.setattr(statevector, "_reduced_densities",
                        lambda amps, s, imag=False: spans.extend(s))
    init = make_basis_state(plan.total_qubits, "0" * plan.total_qubits)
    Evaluator(seq, init).payoff(0.01)
    if blocks is None:
        assert taken == ["window"] and spans == []
        assert len(wiring._blocks(plan)) == 1
    else:
        assert taken == ["block"]
        assert wiring._blocks(plan) == blocks
        assert spans == [(first, last) for first, last, _ in blocks]


def block_route_coins(rng):
    """Zero-phase coins and phased coins at one bias |eps| < 0.09."""
    eps = rng.uniform(-0.09, 0.09)
    return games_from_bias(eps), games_from_bias(eps, random_phases(rng))


def test_block_route_matches_the_window_driver_on_every_short_plan():
    # All 267 plans of at most 8 tokens that take the block route, seeded
    # custom states, real and complex coins
    rng = np.random.default_rng(800)
    plans = [seq for seq in token_strings(8) if takes_block_route(seq)]
    assert len(plans) == 267
    for seq in plans:
        plan = compile_sequence(seq)
        init = np.array(random_state(plan.total_qubits, rng).amplitudes)
        evaluator = Evaluator(seq, init)
        window = payoff._compile_window(plan, init, np.empty_like(init))
        for coins in block_route_coins(rng) + (random_coins(rng),):
            want = window(coins)
            assert abs(evaluator.payoff_of_coins(coins, normalize=False) - want) <= 1e-13, seq


def test_custom_ghz_matches_the_named_walk_on_every_block_plan():
    # GHZ amplitudes handed in as a custom array take the block route; the
    # named "ghz" takes the walk.  Every block-route plan of at most 10 tokens.
    rng = np.random.default_rng(810)
    for seq in filter(takes_block_route, token_strings(10)):
        n = compile_sequence(seq).total_qubits
        dense = Evaluator(seq, np.array(make_named_state(n, "ghz").amplitudes))
        walk = Evaluator(seq, "ghz")
        for coins in block_route_coins(rng):
            got = dense.payoff_of_coins(coins, normalize=False)
            assert abs(got - walk.payoff_of_coins(coins, normalize=False)) <= 1e-13, seq


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seq=st.text("AB", min_size=1, max_size=14).filter(
        lambda seq: compile_sequence(seq).total_qubits <= 14 and takes_block_route(seq)
    ),
    seed=st.integers(0, 2**32 - 1),
    tile=st.sampled_from([2, 8, 32, 256]),
)
def test_block_route_matches_the_run_state_with_small_tiles(seq, seed, tile):
    # Small tiles send blocks across tile boundaries and into both sweeps of
    # the density pass; zero-phase coins first, then complex ones, which take
    # the imaginary parts.  The route agrees with the run state and with the
    # kernel-free reference.
    rng = np.random.default_rng(seed)
    plan = compile_sequence(seq)
    init = random_state(plan.total_qubits, rng)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statevector, "_TILE", tile)
        evaluator = Evaluator(seq, init)
        for coins in block_route_coins(rng) + (random_coins(rng),):
            got = evaluator.payoff_of_coins(coins, normalize=False)
            assert abs(got - payoff_expectation(run(plan, coins, init))) <= 1e-13
            assert abs(got - ref_total(ref_play(plan, coins, init.amplitudes))) <= 1e-13


def test_imaginary_parts_are_taken_once_at_the_first_complex_coins(monkeypatch):
    passes = []
    real = statevector._reduced_densities
    monkeypatch.setattr(statevector, "_reduced_densities",
                        lambda *args, **kwargs: passes.append(kwargs) or real(*args, **kwargs))
    rng = np.random.default_rng(820)
    evaluator = Evaluator("AABAABA", random_state(7, rng))
    evaluator.expansion()
    assert passes == [{}]
    phases = random_phases(rng)
    values = [evaluator.payoff(0.01, phases) for _ in range(2)]
    assert passes == [{}, {"imag": True}]
    assert values[0] == values[1]


def test_block_route_allocates_no_work_buffer():
    # Tiles of the density pass, no state-sized buffer, real and complex coins
    amps = writable_amplitudes()
    phases = random_phases(np.random.default_rng(830))
    peak = traced_peak(lambda: Evaluator(MEMORY_SEQUENCE, amps).payoff(0.01, phases))
    assert peak < 0.25 * amps.nbytes


def test_the_benchmark_input_agrees_on_both_routes():
    # The 22-qubit (AAB)^7 A expansion on seeded custom amplitudes, generated
    # as the benchmark generates them: c0 within 1e-15, c1 within 1e-12
    seq = "AAB" * 7 + "A"
    plan = compile_sequence(seq)
    rng = np.random.default_rng([1601, 1])
    amps = np.empty(1 << plan.total_qubits, dtype=complex)
    amps.real = rng.standard_normal(amps.size)
    amps.imag = rng.standard_normal(amps.size)
    amps /= np.linalg.norm(amps)
    block = Evaluator(seq, amps).expansion()
    total_of = payoff._compile_window(plan, amps, np.empty_like(amps))
    window = bias_expansion(
        lambda eps: per_qubit(total_of(games_from_bias(eps)), plan.total_qubits))
    assert abs(block.c0 - window[0]) <= 1e-15
    assert abs(block.c1 - window[1]) <= 1e-12


# The window route keeps its work buffer: a plan of one 20-qubit block.
WINDOW_SEQUENCE = "AB" * 9 + "B"


def test_window_route_allocates_one_work_buffer():
    amps = read_only_amplitudes()
    evaluator = Evaluator(WINDOW_SEQUENCE, amps)
    assert len(wiring._blocks(evaluator.plan)) == 1
    first = traced_peak(lambda: Evaluator(WINDOW_SEQUENCE, amps).payoff(0.01))
    assert 0.9 * amps.nbytes < first < 1.25 * amps.nbytes
    evaluator.payoff(0.01)
    assert traced_peak(lambda: evaluator.payoff(0.02)) < 0.1 * amps.nbytes


@pytest.mark.parametrize("seq", ["AABBA", "AB" * 3])
def test_both_routes_read_the_callers_norm_at_every_evaluation(seq):
    # "AABBA" takes the block route and "ABABAB" the window driver; neither
    # writes the caller's array, and both reject it once it is scaled
    n = compile_sequence(seq).total_qubits
    amps = np.array(random_state(n, np.random.default_rng(840)).amplitudes)
    before = amps.copy()
    evaluator = Evaluator(seq, amps)
    evaluator.expansion(random_phases(np.random.default_rng(841)))
    assert np.array_equal(amps, before)
    amps *= 1 + 1e-6
    with pytest.raises(ValueError, match=r"^state is not normalized: \|psi\|\^2 = "):
        evaluator.payoff(0.01)


@pytest.mark.parametrize("source, reads_per_evaluation", [
    ("state vector", 0), ("converted array", 0), ("caller's array", 1),
])
def test_block_route_rereads_only_an_array_a_caller_can_change(source, reads_per_evaluation,
                                                                monkeypatch):
    # A StateVector's amplitudes are unchangeable, and a real array is
    # converted into the Evaluator's own copy: neither is read for its norm
    # again after the check at construction.  A caller's complex128 array is
    # read once per evaluation.
    rng = np.random.default_rng(850)
    state = random_state(5, rng)
    real = rng.standard_normal(32)
    init = {
        "state vector": state,
        "converted array": real / np.linalg.norm(real),
        "caller's array": np.array(state.amplitudes),
    }[source]
    evaluator = Evaluator("AABBA", init)
    reads = []
    norm_sq = statevector._norm_sq
    monkeypatch.setattr(statevector, "_norm_sq", lambda amps: reads.append(1) or norm_sq(amps))
    evaluator.payoff(0.01)
    evaluator.expansion(random_phases(rng))
    assert len(reads) == 4 * reads_per_evaluation


# --- every dense route against the kernel-free reference at 20 qubits ---

@pytest.mark.parametrize("seq, block", [("B" * 18, False), ("AAB" * 6 + "AA", True)],
                         ids=["B^18-window", "(AAB)^6AA-block"])
def test_every_dense_route_matches_the_reference_at_20_qubits(seq, block):
    # Above one tile of 2**16 amplitudes, at the real tile size: B^18 takes
    # the window route in groups of windows, and (AAB)^6 AA the block route,
    # whose first blocks take the density pass's second sweep.  run, the
    # window route and the Evaluator's route agree with the reference, one
    # einsum per game, on custom amplitudes and random SU(2) coins.
    plan = compile_sequence(seq)
    assert plan.total_qubits == 20
    assert takes_block_route(seq) == block
    rng = np.random.default_rng(1700)
    amps = np.array(random_state(20, rng).amplitudes)
    coins = random_coins(rng)
    evaluator = Evaluator(seq, amps)
    routes = [
        lambda coins: ref_total(run(plan, coins, amps).amplitudes),
        payoff._compile_window(plan, amps, np.empty_like(amps)),
        lambda coins: evaluator.payoff_of_coins(coins, normalize=False),
    ]
    want = ref_total(ref_play(plan, coins, amps))
    got = [total_of(coins) for total_of in routes]
    assert all(abs(total - want) <= 1e-13 for total in got), (want, got)
    # (c0, c1) of the total at random phases, by the same central difference
    # on every route and on the reference: totals within 1e-13 at both
    # biases cannot differ by more than 1e-13 / 1e-4 = 1e-9 in c1.
    phases = random_phases(rng)

    def expansion(total_of):
        return bias_expansion(lambda eps: total_of(games_from_bias(eps, phases)))

    want_c0, want_c1 = expansion(lambda coins: ref_total(ref_play(plan, coins, amps)))
    got = [expansion(total_of) for total_of in routes]
    assert all(abs(c0 - want_c0) <= 1e-13 for c0, _ in got), (want_c0, got)
    assert all(abs(c1 - want_c1) <= 1e-9 for _, c1 in got), (want_c1, got)


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
