import math
import numpy as np
import pytest

from qparrondo import statevector
from qparrondo.coins import CoinParams, PhaseAssignment, games_from_bias, su2_matrix
from qparrondo.statevector import (
    MAX_QUBITS,
    STRUCTURAL_TOL,
    StateVector,
    apply_gate,
    check_unitary2,
    make_basis_state,
    make_ghz,
)
from qparrondo.wiring import compile_sequence, initial_state_for, run

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
    """The block-diagonal matrix diag(mats[0], mats[1], ...) of 2x2 blocks."""
    out = np.zeros((2 * len(mats), 2 * len(mats)), dtype=complex)
    for k, u in enumerate(mats):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = u
    return out


def applied(state, target, mats):
    """apply_gate on a copy of the state's amplitudes; returns the copy."""
    buf = np.array(state.amplitudes)
    apply_gate(buf, target, mats)
    return buf


def random_state(n, rng):
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


def random_unitary(rng):
    return su2_matrix(
        CoinParams(
            theta=rng.uniform(-math.pi, math.pi),
            gamma=rng.uniform(0, 2 * math.pi),
            delta=rng.uniform(0, 2 * math.pi),
        )
    )


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
    s = make_ghz(n)
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
        make_ghz(MAX_QUBITS + 1)
    with pytest.raises(ValueError, match="capacity"):
        make_basis_state(MAX_QUBITS + 1, "0" * (MAX_QUBITS + 1))
    with pytest.raises(ValueError):
        StateVector(0, np.array([1.0]))
    with pytest.raises(ValueError):
        make_ghz(0)


def test_amplitudes_are_read_only():
    s = make_ghz(2)
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


# --- single-qubit gate ---

def test_identity_leaves_state_unchanged():
    rng = np.random.default_rng(7)
    s = random_state(3, rng)
    out = applied(s, 2, (np.eye(2),))
    assert np.allclose(out, s.amplitudes, atol=ATOL)


def test_rotation_on_zero_gives_first_column():
    u = su2_matrix(CoinParams(theta=math.pi / 4))
    out = applied(make_basis_state(1, "0"), 1, (u,))
    assert np.allclose(out, [math.sqrt(2) / 2, math.sqrt(2) / 2], atol=ATOL)


def test_unitary_then_inverse_roundtrips():
    rng = np.random.default_rng(11)
    s = random_state(4, rng)
    u = random_unitary(rng)
    buf = applied(s, 3, (u,))
    apply_gate(buf, 3, (u.conj().T,))
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


def test_single_qubit_rejects_bad_target():
    buf = np.array(make_ghz(3).amplitudes)
    before = buf.copy()
    for target in (0, 4, -1):
        with pytest.raises(ValueError, match="out of range"):
            apply_gate(buf, target, (np.eye(2),))
    assert np.array_equal(buf, before)


# --- multiplexed gate (game B: the window t-2, t-1 picks the coin) ---

def test_all_identity_branches_do_nothing():
    rng = np.random.default_rng(3)
    s = random_state(4, rng)
    out = applied(s, 3, (np.eye(2),) * 4)
    assert np.allclose(out, s.amplitudes, atol=ATOL)


def test_branch_one_selected_for_zero_controls():
    # |000> has controls (0,0): branch 1 rotates the target out of |0>
    phi = 0.83
    mats = [su2_matrix(CoinParams(theta=phi + 0.2 * k)) for k in range(4)]
    out = applied(make_basis_state(3, "000"), 3, mats)
    expected = np.zeros(8, dtype=complex)
    expected[0] = math.cos(phi)
    expected[1] = math.sin(phi)
    assert np.allclose(out, expected, atol=ATOL)


def test_branch_four_selected_for_one_controls():
    phi4 = 1.1
    mats = [su2_matrix(CoinParams(theta=0.3)) for _ in range(3)]
    mats.append(su2_matrix(CoinParams(theta=phi4)))
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


def test_multiplexed_rejects_index_collisions():
    # a B's window must lie inside the register, so its target is 3..n
    buf = np.array(make_ghz(3).amplitudes)
    before = buf.copy()
    for target in (1, 2, 4, 0):
        with pytest.raises(ValueError, match="out of range"):
            apply_gate(buf, target, (np.eye(2),) * 4)
    assert np.array_equal(buf, before)


@pytest.mark.parametrize("count", [0, 2, 3, 5])
def test_gate_rejects_wrong_matrix_count(count):
    buf = np.array(make_ghz(3).amplitudes)
    before = buf.copy()
    with pytest.raises(ValueError, match="matrices"):
        apply_gate(buf, 3, (np.eye(2),) * count)
    assert np.array_equal(buf, before)


# --- cross-cutting properties ---

def test_norm_preserved_by_random_gates():
    rng = np.random.default_rng(61)
    buf = np.array(random_state(5, rng).amplitudes)
    for _ in range(30):
        if rng.random() < 0.5:
            apply_gate(buf, int(rng.integers(1, 6)), (random_unitary(rng),))
        else:
            mats = [random_unitary(rng) for _ in range(4)]
            apply_gate(buf, int(rng.integers(3, 6)), mats)
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

# Shrinking the block and row thresholds sends small states through every
# branch of the blocked update (column walks, row chunks, per-row recursion)
# that the default thresholds reserve for states above 12 qubits.
BLOCKINGS = {"default": None, "tiny-blocks": (4, 4)}


@pytest.fixture(params=sorted(BLOCKINGS))
def blocking(request, monkeypatch):
    if BLOCKINGS[request.param] is not None:
        block, min_row = BLOCKINGS[request.param]
        monkeypatch.setattr(statevector, "_BLOCK", block)
        monkeypatch.setattr(statevector, "_MIN_ROW", min_row)
    return request.param


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


@pytest.mark.parametrize("n", range(3, 9))
def test_inplace_kernels_match_reference_for_every_qubit_ordering(n, blocking):
    # every gate run can produce on n qubits: game A on each target, and
    # game B on each window (t-2, t-1, t) for t = 3..n
    rng = np.random.default_rng(300 + n)
    qubits = range(1, n + 1)
    check_inplace_against_reference(random_state(n, rng), rng, qubits, range(3, n + 1))


def test_inplace_kernels_match_reference_above_block_size():
    # 16 qubits: every view the kernels update is larger than the default
    # block, so the default thresholds take the blocked branches too
    rng = np.random.default_rng(316)
    check_inplace_against_reference(random_state(16, rng), rng, (1, 8, 13, 16), (3, 8, 16))


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
    init = random_state(plan.total_qubits, rng) if kind == "custom" else kind
    phases = PhaseAssignment(
        gamma=rng.uniform(0, 2 * math.pi),
        delta=rng.uniform(0, 2 * math.pi),
        alphas=tuple(rng.uniform(0, 2 * math.pi, 4)),
        betas=tuple(rng.uniform(0, 2 * math.pi, 4)),
    )
    eps = rng.uniform(-0.09, 0.09)
    return plan, initial_state_for(plan, init), games_from_bias(eps, phases)


def coin_matrices(a, b):
    return {"A": (su2_matrix(a),), "B": tuple(su2_matrix(p) for p in b.branches)}


def test_run_matches_chain_of_reference_kernels():
    rng = np.random.default_rng(401)
    for _ in range(60):
        plan, init, (a, b) = random_run_case(rng)
        before = init.amplitudes.copy()
        out = run(plan, a, b, init)
        assert np.array_equal(init.amplitudes, before)

        n = plan.total_qubits
        mats = coin_matrices(a, b)
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
        plan, init, (a, b) = random_run_case(rng, max_qubits=8, kinds=("custom",))
        n = plan.total_qubits
        mats = coin_matrices(a, b)
        expected = init.amplitudes
        for token, target, controls in played_games(plan):
            first = controls[0] if controls else target
            assert (*controls, target) == tuple(range(first, target + 1))
            game = np.kron(
                np.kron(np.eye(1 << (first - 1)), block_diag(mats[token])),
                np.eye(1 << (n - target)),
            )
            expected = game @ expected
        out = run(plan, a, b, init)
        assert np.allclose(out.amplitudes, expected, atol=1e-12, rtol=0.0), plan


def test_run_returns_read_only_amplitudes_and_leaves_init_untouched():
    rng = np.random.default_rng(402)
    plan, init, (a, b) = random_run_case(rng)
    before = init.amplitudes.copy()
    out = run(plan, a, b, init)
    assert not out.amplitudes.flags.writeable
    assert not np.shares_memory(out.amplitudes, init.amplitudes)
    assert np.array_equal(init.amplitudes, before)
