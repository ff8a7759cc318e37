import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qparrondo
from qparrondo import payoff, statevector, wiring
from qparrondo.coins import games_from_bias, su2_matrix
from qparrondo.statevector import (
    MAX_QUBITS,
    STRUCTURAL_TOL,
    StateVector,
    apply_multiplexed,
    check_coins,
    check_unitary2,
    make_basis_state,
    make_named_state,
)
from qparrondo.payoff import Evaluator, payoff_expectation
from qparrondo.wiring import compile_sequence, run

from helpers import (
    random_coins,
    random_phases,
    random_state,
    random_unitary,
    ref_game,
    ref_play,
    traced_peak,
)

ATOL = 1e-12


# --- independent reference kernels (slow, per-basis-state) ---

def ref_apply_single(amps, n, target, u):
    out = np.zeros_like(amps)
    pos = n - target
    for idx, a in enumerate(amps):
        if a == 0:
            continue
        bit = (idx >> pos) & 1
        base = idx & ~(1 << pos)
        for new_bit in (0, 1):
            out[base | (new_bit << pos)] += u[new_bit, bit] * a
    return out


def ref_apply_multiplexed(amps, n, hi, lo, target, mats):
    out = np.zeros_like(amps)
    pos = n - target
    for idx, a in enumerate(amps):
        if a == 0:
            continue
        branch = 2 * ((idx >> (n - hi)) & 1) + ((idx >> (n - lo)) & 1)
        u = mats[branch]
        bit = (idx >> pos) & 1
        base = idx & ~(1 << pos)
        for new_bit in (0, 1):
            out[base | (new_bit << pos)] += u[new_bit, bit] * a
    return out


def block_diag(mats):
    """The block-diagonal matrix diag(mats[0], mats[1], ...) of square blocks."""
    d = len(mats[0])
    out = np.zeros((d * len(mats), d * len(mats)), dtype=complex)
    for k, u in enumerate(mats):
        out[d * k : d * (k + 1), d * k : d * (k + 1)] = u
    return out


def play_game(buf, target, mats):
    """One game on ``buf`` in place, by the kernel: one matrix acts on the
    target (game A), or four, picked by the two qubits before it (game B)."""
    apply_multiplexed(buf, [(target - (0 if len(mats) == 1 else 2), mats)])


def applied(state, target, mats):
    """play_game on a copy of the state's amplitudes; returns the copy."""
    buf = np.array(state.amplitudes)
    play_game(buf, target, mats)
    return buf


# --- construction ---

def test_basis_state_single_qubit():
    s = make_basis_state(1, "0")
    assert np.allclose(s.amplitudes, [1, 0], atol=ATOL)


def test_basis_state_all_zero():
    s = make_basis_state(3, "000")
    assert s.amplitudes[0] == 1.0
    assert np.count_nonzero(s.amplitudes) == 1


def test_basis_state_bit_order_msb_first():
    # qubit 1 is the most significant bit: "110" lands on index 6
    s = make_basis_state(3, "110")
    assert s.amplitudes[6] == 1.0
    assert np.count_nonzero(s.amplitudes) == 1


@pytest.mark.parametrize("label", ["0", "0000", "012"])
def test_basis_state_rejects_bad_labels(label):
    with pytest.raises(ValueError):
        make_basis_state(3, label)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ghz_amplitudes(n):
    s = make_named_state(n, "ghz")
    expected = np.zeros(1 << n, dtype=complex)
    expected[0] = expected[-1] = 1 / math.sqrt(2)
    assert np.allclose(s.amplitudes, expected, atol=ATOL)


def test_statevector_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(2, np.array([1.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_statevector_rejects_non_finite_amplitudes(bad):
    amps = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    amps[1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        StateVector(2, amps)


def test_statevector_rejects_wrong_length():
    with pytest.raises(ValueError):
        StateVector(2, np.array([1.0, 0.0]))


def test_statevector_capacity_cap():
    with pytest.raises(ValueError, match="capacity"):
        make_named_state(MAX_QUBITS + 1, "ghz")
    with pytest.raises(ValueError, match="capacity"):
        make_basis_state(MAX_QUBITS + 1, "0" * (MAX_QUBITS + 1))
    with pytest.raises(ValueError):
        StateVector(0, np.array([1.0]))
    with pytest.raises(ValueError):
        make_named_state(0, "ghz")


def test_amplitudes_are_read_only():
    s = make_named_state(2, "ghz")
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def test_state_is_unchanged_by_later_writes_to_its_source():
    amps = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    s = StateVector(2, amps)
    amps[:] = [0.0, 1.0, 0.0, 0.0]
    assert s.amplitudes[0] == 1.0 and s.amplitudes[1] == 0.0


def test_read_only_view_of_a_writable_array_is_copied():
    amps = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    view = amps.view()
    view.setflags(write=False)
    s = StateVector(2, view)
    assert not np.shares_memory(s.amplitudes, amps)
    amps[0], amps[1] = 0.0, 1.0
    assert s.amplitudes[0] == 1.0


# The norm check's rejections: (amplitude 1 set to, message).  A norm off by
# 2e-12 is printed as the value |psi|^2 = 1 +/- 2e-12 carries.
NORM_REJECTIONS = [
    (np.nan, "state has non-finite amplitudes: |psi|^2 = nan"),
    (np.inf, "state has non-finite amplitudes: |psi|^2 = inf"),
    (-np.inf, "state has non-finite amplitudes: |psi|^2 = inf"),
    ("+2e-12", "state is not normalized: |psi|^2 = "),
    ("-2e-12", "state is not normalized: |psi|^2 = "),
]


def norm_rejection(bad) -> str:
    """The message StateVector raises for a 2-qubit state spoiled by ``bad``."""
    amps = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    if isinstance(bad, str):
        amps[0] = math.sqrt(1.0 + float(bad))
    else:
        amps[1] = bad
    try:
        StateVector(2, amps)
    except ValueError as exc:
        return str(exc)
    return "accepted"


@pytest.mark.parametrize("bad, message", NORM_REJECTIONS)
def test_norm_check_rejections_keep_their_messages(bad, message):
    got = norm_rejection(bad)
    assert got.startswith(message)
    if isinstance(bad, str):
        assert float(got[len(message):]) == pytest.approx(1.0 + float(bad), abs=1e-15)
    else:
        assert got == message


def test_norm_check_rejections_hold_under_python_O():
    # -O strips assert statements; the norm check must not depend on them
    src = str(Path(qparrondo.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from test_statevector import NORM_REJECTIONS, norm_rejection\n"
        "for bad, _ in NORM_REJECTIONS: print(norm_rejection(bad))\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert all(line.startswith(message) for line, (_, message) in zip(lines, NORM_REJECTIONS))
    assert lines == [norm_rejection(bad) for bad, _ in NORM_REJECTIONS]


# --- single-qubit gate ---

def test_identity_leaves_state_unchanged():
    rng = np.random.default_rng(7)
    s = random_state(3, rng)
    out = applied(s, 2, (np.eye(2),))
    assert np.allclose(out, s.amplitudes, atol=ATOL)


def test_rotation_on_zero_gives_first_column():
    u = su2_matrix(math.pi / 4)
    out = applied(make_basis_state(1, "0"), 1, (u,))
    assert np.allclose(out, [math.sqrt(2) / 2, math.sqrt(2) / 2], atol=ATOL)


def test_unitary_then_inverse_roundtrips():
    rng = np.random.default_rng(11)
    s = random_state(4, rng)
    u = random_unitary(rng)
    buf = applied(s, 3, (u,))
    play_game(buf, 3, (u.conj().T,))
    assert np.allclose(buf, s.amplitudes, atol=ATOL)


def test_single_qubit_matches_reference_kernel():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        target = int(rng.integers(1, n + 1))
        s = random_state(n, rng)
        u = random_unitary(rng)
        out = applied(s, target, (u,))
        ref = ref_apply_single(s.amplitudes, n, target, u)
        assert np.allclose(out, ref, atol=ATOL)


# --- multiplexed gate (game B: the window t-2, t-1 picks the coin) ---

def test_all_identity_branches_do_nothing():
    rng = np.random.default_rng(3)
    s = random_state(4, rng)
    out = applied(s, 3, (np.eye(2),) * 4)
    assert np.allclose(out, s.amplitudes, atol=ATOL)


def test_branch_one_selected_for_zero_controls():
    # |000> has controls (0,0): branch 1 rotates the target out of |0>
    phi = 0.83
    mats = [su2_matrix(phi + 0.2 * k) for k in range(4)]
    out = applied(make_basis_state(3, "000"), 3, mats)
    expected = np.zeros(8, dtype=complex)
    expected[0] = math.cos(phi)
    expected[1] = math.sin(phi)
    assert np.allclose(out, expected, atol=ATOL)


def test_branch_four_selected_for_one_controls():
    phi4 = 1.1
    mats = [su2_matrix(0.3) for _ in range(3)]
    mats.append(su2_matrix(phi4))
    out = applied(make_basis_state(3, "110"), 3, mats)
    expected = np.zeros(8, dtype=complex)
    expected[6] = math.cos(phi4)
    expected[7] = math.sin(phi4)
    assert np.allclose(out, expected, atol=ATOL)


def test_equal_branches_reduce_to_single_qubit_gate():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(3, 6))
        target = int(rng.integers(3, n + 1))
        s = random_state(n, rng)
        u = random_unitary(rng)
        multiplexed = applied(s, target, (u,) * 4)
        single = applied(s, target, (u,))
        assert np.allclose(multiplexed, single, atol=ATOL)


def test_multiplexed_on_adjacent_qubits_is_block_diagonal():
    # with controls (1,2) and target 3 the gate IS the 8x8 block-diagonal
    # matrix diag(U1, U2, U3, U4); apply that literal matrix as the oracle
    rng = np.random.default_rng(97)
    mats = [random_unitary(rng) for _ in range(4)]
    big = block_diag(mats)
    for _ in range(5):
        s = random_state(3, rng)
        out = applied(s, 3, mats)
        assert np.allclose(out, big @ s.amplitudes, atol=ATOL)


def test_multiplexed_matches_reference_kernel():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(3, 6))
        target = int(rng.integers(3, n + 1))
        s = random_state(n, rng)
        mats = [random_unitary(rng) for _ in range(4)]
        out = applied(s, target, mats)
        ref = ref_apply_multiplexed(s.amplitudes, n, target - 2, target - 1, target, mats)
        assert np.allclose(out, ref, atol=ATOL)


def test_controls_undisturbed_on_basis_input():
    # a B at target 4 reads qubits 2 and 3 and changes no qubit but the target
    rng = np.random.default_rng(53)
    for _ in range(10):
        label = "".join(rng.choice(["0", "1"], size=4))
        s = make_basis_state(4, label)
        mats = [random_unitary(rng) for _ in range(4)]
        out = applied(s, 4, mats)
        support = np.nonzero(out)[0]
        for idx in support:
            assert format(idx, "04b")[:3] == label[:3]


# --- cross-cutting properties ---

def test_norm_preserved_by_random_gates():
    rng = np.random.default_rng(61)
    buf = np.array(random_state(5, rng).amplitudes)
    for _ in range(30):
        if rng.random() < 0.5:
            play_game(buf, int(rng.integers(1, 6)), (random_unitary(rng),))
        else:
            mats = [random_unitary(rng) for _ in range(4)]
            play_game(buf, int(rng.integers(3, 6)), mats)
        assert abs(np.sum(np.abs(buf) ** 2) - 1.0) < ATOL


def test_gate_application_is_linear():
    rng = np.random.default_rng(71)
    n = 4
    for _ in range(10):
        x = random_state(n, rng)
        y = random_state(n, rng)
        alpha = rng.standard_normal() + 1j * rng.standard_normal()
        beta = rng.standard_normal() + 1j * rng.standard_normal()
        combo = alpha * x.amplitudes + beta * y.amplitudes
        scale = np.linalg.norm(combo)
        target = int(rng.integers(1, n + 1))
        u = random_unitary(rng)
        lhs = scale * applied(StateVector(n, combo / scale), target, (u,))
        gx = applied(x, target, (u,))
        gy = applied(y, target, (u,))
        assert np.allclose(lhs, alpha * gx + beta * gy, atol=ATOL)


def test_check_unitary2_accepts_su2_and_rejects_junk():
    rng = np.random.default_rng(83)
    for _ in range(50):
        check_unitary2(random_unitary(rng))
    with pytest.raises(ValueError):
        check_unitary2(np.eye(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0)])
def test_check_unitary2_rejects_non_finite_entries(bad):
    for index in np.ndindex(2, 2):
        m = np.eye(2, dtype=complex)
        m[index] = bad
        with pytest.raises(ValueError, match="not unitary"):
            check_unitary2(m)


@pytest.mark.parametrize("shape", [(4, 2, 2), (6, 2, 2), (5, 3, 3)])
def test_check_coins_rejects_wrong_shapes(shape):
    coins = np.zeros(shape, dtype=complex)
    coins[:, [0, 1], [0, 1]] = 1.0
    with pytest.raises(ValueError, match=r"shape \(5, 2, 2\)"):
        check_coins(coins)


def test_check_unitary2_tolerance_matches_the_allclose_rule():
    # max |(m^H m - I)_ij| <= STRUCTURAL_TOL, as np.allclose(atol, rtol=0)
    rng = np.random.default_rng(84)
    u = random_unitary(rng)
    for scale in (1 + 4e-13, 1 + 6e-13, 1 - 4e-13, 1 - 6e-13):
        m = u * np.array([[scale], [1.0]])
        gram = m.conj().T @ m
        within = np.allclose(gram, np.eye(2), atol=STRUCTURAL_TOL, rtol=0.0)
        if within and abs(abs(np.linalg.det(m)) - 1.0) <= STRUCTURAL_TOL:
            check_unitary2(m)
        else:
            with pytest.raises(ValueError):
                check_unitary2(m)
    with pytest.raises(ValueError, match="not unitary"):
        check_unitary2(np.array([[1.0, 1e-11], [0.0, 1.0]]))


# --- the in-place kernel against the reference kernels ---

def check_inplace_against_reference(s, rng, targets, windows_ending_at):
    n = s.num_qubits
    for target in targets:
        u = random_unitary(rng)
        buf = applied(s, target, (u,))
        assert np.allclose(buf, ref_apply_single(s.amplitudes, n, target, u), atol=ATOL)
    for target in windows_ending_at:
        mats = [random_unitary(rng) for _ in range(4)]
        buf = applied(s, target, mats)
        ref = ref_apply_multiplexed(s.amplitudes, n, target - 2, target - 1, target, mats)
        assert np.allclose(buf, ref, atol=ATOL), target


@pytest.mark.parametrize("n", range(3, 9), ids=lambda n: f"default-{n}")
def test_inplace_kernels_match_reference_for_every_qubit_ordering(n):
    # every gate run can produce on n qubits: game A on each target, and
    # game B on each window (t-2, t-1, t) for t = 3..n
    rng = np.random.default_rng(300 + n)
    qubits = range(1, n + 1)
    check_inplace_against_reference(random_state(n, rng), rng, qubits, range(3, n + 1))


def test_inplace_kernels_match_reference_above_block_size():
    # 16 qubits, twice a product block of apply_multiplexed: a gate on the top
    # qubit is split into column blocks, the others into row blocks
    rng = np.random.default_rng(316)
    check_inplace_against_reference(random_state(16, rng), rng, (1, 8, 13, 16), (3, 8, 16))


@pytest.mark.parametrize("n", range(3, 11))
def test_reference_game_matches_the_per_basis_kernels(n):
    # The tests' kernel-free reference, one einsum per game, against the
    # per-basis kernels: game A on every target and game B on every window,
    # with random SU(2) coins
    rng = np.random.default_rng(1000 + n)
    amps = random_state(n, rng).amplitudes
    for target in range(1, n + 1):
        u = random_unitary(rng)
        want = ref_apply_single(amps, n, target, u)
        assert np.allclose(ref_game(amps, target, (u,)), want, atol=ATOL, rtol=0.0), target
    for target in range(3, n + 1):
        mats = [random_unitary(rng) for _ in range(4)]
        want = ref_apply_multiplexed(amps, n, target - 2, target - 1, target, mats)
        assert np.allclose(ref_game(amps, target, mats), want, atol=ATOL, rtol=0.0), target


# --- run against a gate-by-gate chain of the reference kernels ---

def played_games(plan):
    """(token, target, controls) of each game, by the wiring rule as the
    tests state it: outcome qubits are the seeds, then each game's target as
    it is played; a game writes the next fresh qubit, and a B reads the two
    latest outcomes."""
    outcomes = list(range(1, plan.seed_count + 1))
    games = []
    for token in plan.tokens:
        target = len(outcomes) + 1
        games.append((token, target, tuple(outcomes[-2:]) if token == "B" else ()))
        outcomes.append(target)
    assert len(outcomes) == plan.total_qubits
    return games


def random_run_case(rng, max_qubits=10, kinds=("zero", "ghz", "custom")):
    while True:
        seq = "".join(rng.choice(["A", "B"], size=int(rng.integers(1, 9))))
        plan = compile_sequence(seq)
        if plan.total_qubits <= max_qubits:
            break
    kind = kinds[int(rng.integers(len(kinds)))]
    n = plan.total_qubits
    init = random_state(n, rng) if kind == "custom" else make_named_state(n, kind)
    phases = random_phases(rng)
    eps = rng.uniform(-0.09, 0.09)
    return plan, init, games_from_bias(eps, phases)


def coin_matrices(coins):
    return {"A": coins[:1], "B": coins[1:]}


def test_run_matches_chain_of_reference_kernels():
    rng = np.random.default_rng(401)
    for _ in range(60):
        plan, init, coins = random_run_case(rng)
        before = init.amplitudes.copy()
        out = run(plan, coins, init)
        assert np.array_equal(init.amplitudes, before)

        n = plan.total_qubits
        mats = coin_matrices(coins)
        chain = init.amplitudes
        for token, target, controls in played_games(plan):
            if token == "A":
                chain = ref_apply_single(chain, n, target, *mats["A"])
            else:
                chain = ref_apply_multiplexed(chain, n, *controls, target, mats["B"])
        assert np.allclose(out.amplitudes, chain, atol=ATOL, rtol=0.0), plan


def test_run_matches_kronecker_unitaries():
    # Each game as one 2^n x 2^n matrix, kron(I, block_diag(mats), I): the
    # block spans the controls and the target, which the wiring rule puts on
    # adjacent qubits, older control first.
    rng = np.random.default_rng(403)
    for _ in range(60):
        plan, init, coins = random_run_case(rng, max_qubits=8, kinds=("custom",))
        n = plan.total_qubits
        mats = coin_matrices(coins)
        expected = init.amplitudes
        for token, target, controls in played_games(plan):
            first = controls[0] if controls else target
            assert (*controls, target) == tuple(range(first, target + 1))
            game = np.kron(
                np.kron(np.eye(1 << (first - 1)), block_diag(mats[token])),
                np.eye(1 << (n - target)),
            )
            expected = game @ expected
        out = run(plan, coins, init)
        assert np.allclose(out.amplitudes, expected, atol=1e-12, rtol=0.0), plan


def test_run_returns_read_only_amplitudes_and_leaves_init_untouched():
    rng = np.random.default_rng(402)
    plan, init, coins = random_run_case(rng)
    before = init.amplitudes.copy()
    out = run(plan, coins, init)
    assert not out.amplitudes.flags.writeable
    assert not np.shares_memory(out.amplitudes, init.amplitudes)
    assert np.array_equal(init.amplitudes, before)


# --- the fused run: windows of games against the per-gate loop ---

def token_strings(length):
    """All 2**length strings over {A, B} of one length."""
    return [format(k, f"0{length}b").translate(str.maketrans("01", "AB")) for k in range(1 << length)]


@pytest.mark.parametrize("games", range(1, 6))
def test_run_matches_gate_loop_at_every_window_offset(games, monkeypatch):
    # Every sequence of up to 8 tokens, played in windows of `games`: every
    # window content occurs, opening with A and with B, and the first window
    # holds each count of games from 1 to `games`.
    monkeypatch.setattr(wiring, "_window_games", lambda num_qubits: games)
    rng = np.random.default_rng(900 + games)
    for length in range(1, 9):
        for seq in token_strings(length):
            plan = compile_sequence(seq)
            init = random_state(plan.total_qubits, rng)
            coins = random_coins(rng)
            out = run(plan, coins, init)
            expected = ref_play(plan, coins, init.amplitudes)
            assert np.allclose(out.amplitudes, expected, atol=ATOL, rtol=0.0), seq


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seq=st.text("AB", min_size=1, max_size=14).filter(
        lambda seq: compile_sequence(seq).total_qubits <= 14
    ),
    seed=st.integers(0, 2**32 - 1),
    chunk=st.sampled_from([4, 64, 1024, statevector._CHUNK]),
)
def test_run_matches_gate_loop_on_random_plans(seq, seed, chunk):
    # 1-14 qubits, seed qubits included; windows as long as the register
    # allows; small product blocks send small states through every block loop
    rng = np.random.default_rng(seed)
    plan = compile_sequence(seq)
    init = random_state(plan.total_qubits, rng)
    coins = random_coins(rng)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statevector, "_CHUNK", chunk)
        out = run(plan, coins, init)
    expected = ref_play(plan, coins, init.amplitudes)
    assert np.allclose(out.amplitudes, expected, atol=ATOL, rtol=0.0)


@pytest.mark.parametrize("games", range(1, 6))
def test_window_operators_are_unitary_and_keep_their_controls(games):
    # The whole operator of each window, from ref_game on every identity
    # column of its controls and targets, is unitary, never maps one control
    # value into another, and its diagonal blocks are the window's operator.
    rng = np.random.default_rng(950 + games)
    gates = coin_matrices(random_coins(rng))
    for window in token_strings(games):
        controls = 2 if window[0] == "B" else 1 if window[1:2] == "B" else 0
        ops = wiring._window_operator(window, gates)
        assert ops.shape == (1 << controls, 1 << games, 1 << games)
        size = 1 << (controls + games)
        whole = np.eye(size, dtype=complex).reshape(-1)
        for target, token in enumerate(window, start=controls + 1):
            whole = ref_game(whole, target, gates[token])
        whole = whole.reshape(size, size)
        assert np.abs(whole.conj().T @ whole - np.eye(size)).max() <= STRUCTURAL_TOL
        blocks = whole.reshape(1 << controls, 1 << games, 1 << controls, 1 << games)
        for c in range(1 << controls):
            for other in range(1 << controls):
                if other != c:
                    assert not blocks[c, :, other].any(), (window, c, other)
            gram = ops[c].conj().T @ ops[c]
            assert np.abs(gram - np.eye(1 << games)).max() <= STRUCTURAL_TOL
            assert np.allclose(ops[c], blocks[c, :, c], atol=1e-15, rtol=0.0)


@pytest.mark.parametrize("chunk", [4, 64, None])
def test_multiplexed_operator_matches_kronecker_reference(chunk, monkeypatch):
    # Any stack of 2**w (2**m x 2**m) blocks at any position of an n-qubit
    # register: kron(I, block_diag(ops), I) is the operator it applies
    if chunk is not None:
        monkeypatch.setattr(statevector, "_CHUNK", chunk)
    rng = np.random.default_rng(970)
    for n in range(1, 9):
        amps = random_state(n, rng).amplitudes
        for w in range(3):
            for m in range(1, 4):
                for first in range(1, n - w - m + 2):
                    shape = (1 << w, 1 << m, 1 << m)
                    ops = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    whole = np.kron(
                        np.kron(np.eye(1 << (first - 1)), block_diag(ops)),
                        np.eye(1 << (n - first - w - m + 1)),
                    )
                    buf = np.array(amps)
                    apply_multiplexed(buf, [(first, ops)])
                    assert np.allclose(buf, whole @ amps, atol=ATOL, rtol=0.0), (n, w, m, first)


# --- groups of windows: one pass per group, real products for real operators ---

def random_window(rng, n):
    """(first, ops) of a random window on n qubits, with real operators half
    of the time."""
    w = int(rng.integers(0, min(2, n - 1) + 1))
    m = int(rng.integers(1, min(3, n - w) + 1))
    first = int(rng.integers(1, n - w - m + 2))
    shape = (1 << w, 1 << m, 1 << m)
    ops = rng.standard_normal(shape)
    if rng.integers(2):
        ops = ops + 1j * rng.standard_normal(shape)
    return first, ops


def kronecker_operator(n, first, ops):
    """kron(I, block_diag(ops), I): the operator a window applies on n qubits."""
    qubits = (len(ops) * len(ops[0])).bit_length() - 1
    return np.kron(
        np.kron(np.eye(1 << (first - 1)), block_diag(ops)),
        np.eye(1 << (n - first - qubits + 1)),
    )


@pytest.mark.parametrize("tile", [4, 16, 64, None])
def test_groups_match_kronecker_reference(tile, monkeypatch):
    # Groups of one to three windows anywhere on 1-8 qubits, real and complex
    # operators, whose spans overlap or leave qubits between them: the group
    # applies the product of its windows' operators, in play order.  Small
    # tiles send small states through every tile loop.  Tiles filled with NaN
    # must be written before they are read.
    if tile is not None:
        monkeypatch.setattr(statevector, "_TILE", tile)
        monkeypatch.setattr(statevector, "_CHUNK", tile)
    rng = np.random.default_rng(980)
    for n in range(1, 9):
        amps = random_state(n, rng).amplitudes
        for _ in range(40):
            group = [random_window(rng, n) for _ in range(int(rng.integers(1, 4)))]
            expected = amps
            for first, ops in group:
                expected = kronecker_operator(n, first, ops) @ expected
            tiles = np.full((2, 1 << n), math.nan, dtype=complex)
            for kept in (None, tiles):
                buf = np.array(amps)
                apply_multiplexed(buf, group, tiles=kept)
                assert np.allclose(buf, expected, atol=ATOL, rtol=1e-13), (n, group)


def test_real_operators_take_real_products(monkeypatch):
    # An operator with no imaginary part plays on the float64 view of the
    # state; a complex one, and the right multiplication of a window that
    # ends on the last qubit, on the complex state.
    calls = []
    real_matmul = np.matmul

    def matmul(a, b, out):
        calls.append((a.dtype.kind, b.dtype.kind, out.dtype.kind))
        return real_matmul(a, b, out=out)

    monkeypatch.setattr(statevector.np, "matmul", matmul)
    amps = np.array(random_state(6, np.random.default_rng(981)).amplitudes)
    rotation = su2_matrix(0.7)
    apply_multiplexed(amps, [(2, (rotation,))])
    apply_multiplexed(amps, [(2, (random_unitary(np.random.default_rng(982)),))])
    apply_multiplexed(amps, [(6, (rotation,))])
    assert calls == [("f", "f", "f"), ("c", "c", "c"), ("c", "c", "c")]


def real_coins(rng):
    """Five real rotations: SU(2) coins with zero phases."""
    coins = np.array([su2_matrix(rng.uniform(-math.pi, math.pi)) for _ in range(5)])
    assert not coins.imag.any()
    return coins


def multi_window_groups(plan, coins):
    """How many groups of the plan's dense driver hold several windows, the
    last group and the others."""
    groups = list(wiring._groups(plan, wiring._windows(plan, coin_matrices(coins))))
    return len(groups[-1]) > 1, sum(len(group) > 1 for group in groups[:-1])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seq=st.text("AB", min_size=6, max_size=14).filter(
        lambda seq: 8 <= compile_sequence(seq).total_qubits <= 14
    ),
    seed=st.integers(0, 2**32 - 1),
    tile=st.sampled_from([4, 5, 6]),
    row=st.sampled_from([1, 2]),
    real=st.booleans(),
)
def test_grouped_driver_matches_gate_loop(seq, seed, tile, row, real):
    # Tiles of 2**4 to 2**6 amplitudes and rows of 2 or 4 split 8-14-qubit
    # plans into several groups.  run, and the dense total played into a work
    # buffer and tiles filled with NaN, agree with the game-by-game loop and
    # with the payoff of the run state, on random complex coins and on real
    # coins (zero phases).
    rng = np.random.default_rng(seed)
    plan = compile_sequence(seq)
    n = plan.total_qubits
    init = random_state(n, rng)
    coins = real_coins(rng) if real else random_coins(rng)
    expected = ref_play(plan, coins, init.amplitudes)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statevector, "_TILE", 1 << tile)
        patch.setattr(statevector, "_CHUNK", 1 << tile)
        patch.setattr(wiring, "_ROW", 1 << row)
        out = run(plan, coins, init)
        work = np.full_like(init.amplitudes, math.nan)
        tiles = np.full((2, 1 << n), math.nan, dtype=complex)
        total = payoff._compile_window(plan, init.amplitudes, work, tiles)(coins)
    assert np.allclose(out.amplitudes, expected, atol=ATOL, rtol=0.0)
    assert abs(total - payoff_expectation(out)) <= 1e-13
    assert abs(total - payoff_expectation(StateVector(n, expected))) <= 1e-13


def test_small_tiles_make_groups_of_several_windows(monkeypatch):
    # The property test above is not vacuous: with tiles of 2**6 amplitudes
    # and rows of 2, many plans of 11 tokens play groups of several windows,
    # last and not last.
    monkeypatch.setattr(statevector, "_TILE", 1 << 6)
    monkeypatch.setattr(wiring, "_ROW", 1 << 1)
    coins = games_from_bias(0.0)
    found = [multi_window_groups(compile_sequence(seq), coins) for seq in token_strings(11)]
    assert sum(last for last, _ in found) > 100
    assert sum(others > 0 for _, others in found) > 100


@pytest.mark.parametrize("seq", ["AAB" * 6, "B" * 16])
@pytest.mark.parametrize("phased", [False, True], ids=["real", "phased"])
def test_grouped_driver_at_the_real_tile_size(seq, phased):
    # 18 qubits, above one tile of 2**16 amplitudes: the plan plays in groups
    # of several windows with the real constants, on real coins (zero phases)
    # and on phased coins.
    rng = np.random.default_rng(990)
    plan = compile_sequence(seq)
    n = plan.total_qubits
    assert n == 18
    phases = random_phases(rng) if phased else None
    coins = games_from_bias(0.013, phases)
    assert bool(coins.imag.any()) == phased
    assert multi_window_groups(plan, coins)[0]
    init = random_state(n, rng)
    expected = ref_play(plan, coins, init.amplitudes)
    out = run(plan, coins, init)
    assert np.allclose(out.amplitudes, expected, atol=ATOL, rtol=0.0)
    work = np.empty_like(init.amplitudes)
    total = payoff._compile_window(plan, init.amplitudes, work)(coins)
    assert abs(total - payoff_expectation(StateVector(n, expected))) <= 1e-13
    assert abs(total - payoff_expectation(out)) <= 1e-13

# --- memory: no state-sized temporaries (tracemalloc sees numpy's buffers) ---

MEMORY_QUBITS = 20


@pytest.mark.parametrize("spoil", ["scale", "nan"])
def test_a_state_vector_is_a_snapshot_of_a_read_only_array(spoil):
    # Whoever owns a read-only array can make it writable again and change
    # it.  The StateVector built on it, an Evaluator built on that (block
    # route, which does not re-read a StateVector) and its payoff
    # expectation must not see the change.
    a = np.array(random_state(3, np.random.default_rng(601)).amplitudes)
    before = a.copy()
    a.setflags(write=False)
    sv = StateVector(3, a)
    ev = Evaluator("AAB", sv)
    payoff, expectation = ev.payoff(), payoff_expectation(sv)
    a.setflags(write=True)
    if spoil == "scale":
        a[:] = 0
        a[3] = 2
    else:
        a[3] = math.nan
    assert np.array_equal(sv.amplitudes, before)
    assert ev.payoff() == payoff
    assert payoff_expectation(sv) == expectation


@pytest.mark.parametrize(
    "build",
    [
        lambda n: make_named_state(n, "zero"),
        lambda n: make_named_state(n, "ghz"),
        lambda n: make_basis_state(n, "01" * (n // 2)),
    ],
    ids=["zero", "ghz", "basis"],
)
def test_named_and_basis_states_allocate_their_amplitudes_once(build):
    peak = traced_peak(lambda: build(MEMORY_QUBITS))
    assert peak <= 1.05 * (16 << MEMORY_QUBITS)


def test_run_allocates_one_work_buffer():
    plan = compile_sequence("AAB" * 6 + "AA")
    assert plan.total_qubits == MEMORY_QUBITS
    init = random_state(MEMORY_QUBITS, np.random.default_rng(602))
    coins = games_from_bias(0.01)
    peak = traced_peak(lambda: run(plan, coins, init))
    assert peak < 1.25 * init.amplitudes.nbytes



def test_run_makes_no_second_state_sized_array():
    # 16 qubits: a product block is half the state, so one more state-sized
    # array would show.  Allowed: the work buffer, one product block and the
    # window's operator (64 KiB).
    n = 16
    plan = compile_sequence("AAB" * 5 + "A")
    assert plan.total_qubits == n
    init = random_state(n, np.random.default_rng(603))
    peak = traced_peak(lambda: run(plan, games_from_bias(0.01), init))
    state_bytes = init.amplitudes.nbytes
    block_bytes = 16 * statevector._CHUNK
    assert block_bytes == state_bytes // 2
    assert peak < state_bytes + 1.25 * block_bytes


@pytest.mark.parametrize("dtype", [complex, float], ids=["complex128", "float64"])
def test_custom_amplitudes_are_copied_once(dtype):
    # run reads complex128 amplitudes in place and converts real ones once:
    # its state-sized arrays are the work buffer its result adopts and, for
    # real input, the one converted copy
    plan = compile_sequence("A" * MEMORY_QUBITS)
    amps = np.random.default_rng(604).standard_normal(1 << MEMORY_QUBITS).astype(dtype)
    amps /= np.linalg.norm(amps)
    arrays = 1 if dtype is complex else 2
    peak = traced_peak(lambda: run(plan, games_from_bias(0.01), amps))
    assert peak < (arrays + 0.25) * (16 << MEMORY_QUBITS)
