import math
from itertools import permutations

import numpy as np
import pytest

from qparrondo import statevector
from qparrondo.coins import CoinParams, PhaseAssignment, games_from_bias, su2_matrix
from qparrondo.statevector import (
    MAX_QUBITS,
    StateVector,
    apply_single_qubit,
    apply_single_qubit_inplace,
    apply_two_controlled_multiplexed,
    apply_two_controlled_multiplexed_inplace,
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


# --- single-qubit gate ---

def test_identity_leaves_state_unchanged():
    rng = np.random.default_rng(7)
    s = random_state(3, rng)
    out = apply_single_qubit(s, 2, np.eye(2))
    assert np.allclose(out.amplitudes, s.amplitudes, atol=ATOL)


def test_rotation_on_zero_gives_first_column():
    u = su2_matrix(CoinParams(theta=math.pi / 4))
    out = apply_single_qubit(make_basis_state(1, "0"), 1, u)
    assert np.allclose(out.amplitudes, [math.sqrt(2) / 2, math.sqrt(2) / 2], atol=ATOL)


def test_unitary_then_inverse_roundtrips():
    rng = np.random.default_rng(11)
    s = random_state(4, rng)
    u = random_unitary(rng)
    back = apply_single_qubit(apply_single_qubit(s, 3, u), 3, u.conj().T)
    assert np.allclose(back.amplitudes, s.amplitudes, atol=ATOL)


def test_single_qubit_matches_reference_kernel():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        target = int(rng.integers(1, n + 1))
        s = random_state(n, rng)
        u = random_unitary(rng)
        out = apply_single_qubit(s, target, u)
        ref = ref_apply_single(s.amplitudes, n, target, u)
        assert np.allclose(out.amplitudes, ref, atol=ATOL)


def test_single_qubit_rejects_bad_target():
    s = make_ghz(3)
    for target in (0, 4, -1):
        with pytest.raises(ValueError):
            apply_single_qubit(s, target, np.eye(2))


def test_non_unitary_matrix_rejected():
    s = make_ghz(2)
    with pytest.raises(ValueError, match="unitary"):
        apply_single_qubit(s, 1, np.array([[1.0, 0.0], [1.0, 1.0]]))


# --- multiplexed gate ---

def test_all_identity_branches_do_nothing():
    rng = np.random.default_rng(3)
    s = random_state(4, rng)
    out = apply_two_controlled_multiplexed(s, 1, 2, 3, (np.eye(2),) * 4)
    assert np.allclose(out.amplitudes, s.amplitudes, atol=ATOL)


def test_branch_one_selected_for_zero_controls():
    # |000> has controls (0,0): branch 1 rotates the target out of |0>
    phi = 0.83
    mats = [su2_matrix(CoinParams(theta=phi + 0.2 * k)) for k in range(4)]
    out = apply_two_controlled_multiplexed(make_basis_state(3, "000"), 1, 2, 3, mats)
    expected = np.zeros(8, dtype=complex)
    expected[0] = math.cos(phi)
    expected[1] = math.sin(phi)
    assert np.allclose(out.amplitudes, expected, atol=ATOL)


def test_branch_four_selected_for_one_controls():
    phi4 = 1.1
    mats = [su2_matrix(CoinParams(theta=0.3)) for _ in range(3)]
    mats.append(su2_matrix(CoinParams(theta=phi4)))
    out = apply_two_controlled_multiplexed(make_basis_state(3, "110"), 1, 2, 3, mats)
    expected = np.zeros(8, dtype=complex)
    expected[6] = math.cos(phi4)
    expected[7] = math.sin(phi4)
    assert np.allclose(out.amplitudes, expected, atol=ATOL)


def test_equal_branches_reduce_to_single_qubit_gate():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(3, 6))
        qubits = rng.permutation(np.arange(1, n + 1))[:3]
        hi, lo, target = (int(q) for q in qubits)
        s = random_state(n, rng)
        u = random_unitary(rng)
        multiplexed = apply_two_controlled_multiplexed(s, hi, lo, target, (u,) * 4)
        single = apply_single_qubit(s, target, u)
        assert np.allclose(multiplexed.amplitudes, single.amplitudes, atol=ATOL)


def test_multiplexed_on_adjacent_qubits_is_block_diagonal():
    # with controls (1,2) and target 3 the gate IS the 8x8 block-diagonal
    # matrix diag(U1, U2, U3, U4); apply that literal matrix as the oracle
    rng = np.random.default_rng(97)
    mats = [random_unitary(rng) for _ in range(4)]
    big = np.zeros((8, 8), dtype=complex)
    for k, u in enumerate(mats):
        big[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = u
    for _ in range(5):
        s = random_state(3, rng)
        out = apply_two_controlled_multiplexed(s, 1, 2, 3, mats)
        assert np.allclose(out.amplitudes, big @ s.amplitudes, atol=ATOL)


def test_multiplexed_matches_reference_kernel():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(3, 6))
        qubits = rng.permutation(np.arange(1, n + 1))[:3]
        hi, lo, target = (int(q) for q in qubits)
        s = random_state(n, rng)
        mats = [random_unitary(rng) for _ in range(4)]
        out = apply_two_controlled_multiplexed(s, hi, lo, target, mats)
        ref = ref_apply_multiplexed(s.amplitudes, n, hi, lo, target, mats)
        assert np.allclose(out.amplitudes, ref, atol=ATOL)


def test_controls_undisturbed_on_basis_input():
    rng = np.random.default_rng(53)
    for _ in range(10):
        label = "".join(rng.choice(["0", "1"], size=4))
        s = make_basis_state(4, label)
        mats = [random_unitary(rng) for _ in range(4)]
        out = apply_two_controlled_multiplexed(s, 2, 1, 4, mats)
        support = np.nonzero(out.amplitudes)[0]
        for idx in support:
            bits = format(idx, "04b")
            assert bits[0] == label[0] and bits[1] == label[1]


def test_multiplexed_rejects_index_collisions():
    s = make_ghz(3)
    mats = (np.eye(2),) * 4
    with pytest.raises(ValueError, match="distinct"):
        apply_two_controlled_multiplexed(s, 1, 1, 3, mats)
    with pytest.raises(ValueError):
        apply_two_controlled_multiplexed(s, 1, 2, 5, mats)


# --- cross-cutting properties ---

def test_norm_preserved_by_random_gates():
    rng = np.random.default_rng(61)
    s = random_state(5, rng)
    for _ in range(30):
        if rng.random() < 0.5:
            s = apply_single_qubit(s, int(rng.integers(1, 6)), random_unitary(rng))
        else:
            qs = rng.permutation(np.arange(1, 6))[:3]
            mats = [random_unitary(rng) for _ in range(4)]
            s = apply_two_controlled_multiplexed(s, int(qs[0]), int(qs[1]), int(qs[2]), mats)
        assert abs(np.sum(np.abs(s.amplitudes) ** 2) - 1.0) < ATOL


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
        lhs = scale * apply_single_qubit(StateVector(n, combo / scale), target, u).amplitudes
        gx = apply_single_qubit(x, target, u).amplitudes
        gy = apply_single_qubit(y, target, u).amplitudes
        assert np.allclose(lhs, alpha * gx + beta * gy, atol=ATOL)


def test_check_unitary2_accepts_su2_and_rejects_junk():
    rng = np.random.default_rng(83)
    for _ in range(50):
        check_unitary2(random_unitary(rng))
    with pytest.raises(ValueError):
        check_unitary2(np.eye(3))


# --- in-place kernels against the reference kernels ---

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


def check_inplace_against_reference(s, rng, targets, triples):
    n = s.num_qubits
    for target in targets:
        u = random_unitary(rng)
        buf = np.array(s.amplitudes)
        apply_single_qubit_inplace(buf, target, u)
        assert np.allclose(buf, ref_apply_single(s.amplitudes, n, target, u), atol=ATOL)
    for hi, lo, target in triples:
        mats = [random_unitary(rng) for _ in range(4)]
        buf = np.array(s.amplitudes)
        apply_two_controlled_multiplexed_inplace(buf, hi, lo, target, mats)
        ref = ref_apply_multiplexed(s.amplitudes, n, hi, lo, target, mats)
        assert np.allclose(buf, ref, atol=ATOL), (hi, lo, target)


@pytest.mark.parametrize("n", range(3, 9))
def test_inplace_kernels_match_reference_for_every_qubit_ordering(n, blocking):
    # every (control_hi, control_lo, target) triple, so every relative order,
    # including targets below, between and above their controls
    rng = np.random.default_rng(300 + n)
    qubits = range(1, n + 1)
    check_inplace_against_reference(random_state(n, rng), rng, qubits, permutations(qubits, 3))


def test_inplace_kernels_match_reference_above_block_size():
    # 16 qubits: every view the kernels update is larger than the default
    # block, so the default thresholds take the blocked branches too
    rng = np.random.default_rng(316)
    triples = [(14, 15, 16), (1, 2, 3), (16, 1, 8), (3, 9, 2)]
    check_inplace_against_reference(random_state(16, rng), rng, (1, 8, 13, 16), triples)


# --- run against a gate-by-gate chain of the public wrappers ---

def random_run_case(rng):
    while True:
        seq = "".join(rng.choice(["A", "B"], size=int(rng.integers(1, 9))))
        plan = compile_sequence(seq)
        if plan.total_qubits <= 10:
            break
    kind = ("zero", "ghz", "custom")[int(rng.integers(3))]
    init = random_state(plan.total_qubits, rng) if kind == "custom" else kind
    phases = PhaseAssignment(
        gamma=rng.uniform(0, 2 * math.pi),
        delta=rng.uniform(0, 2 * math.pi),
        alphas=tuple(rng.uniform(0, 2 * math.pi, 4)),
        betas=tuple(rng.uniform(0, 2 * math.pi, 4)),
    )
    eps = rng.uniform(-0.09, 0.09)
    return plan, initial_state_for(plan, init), games_from_bias(eps, phases)


def test_run_matches_chain_of_public_wrappers():
    rng = np.random.default_rng(401)
    for _ in range(60):
        plan, init, (a, b) = random_run_case(rng)
        before = init.amplitudes.copy()
        out = run(plan, a, b, init)
        assert np.array_equal(init.amplitudes, before)

        a_mat = su2_matrix(a)
        b_mats = tuple(su2_matrix(p) for p in b.branches)
        chain = init
        for step in plan.steps:
            if step.token == "A":
                chain = apply_single_qubit(chain, step.target, a_mat)
            else:
                hi, lo = step.controls
                chain = apply_two_controlled_multiplexed(chain, hi, lo, step.target, b_mats)
        assert np.allclose(out.amplitudes, chain.amplitudes, atol=ATOL, rtol=0.0), plan.sequence

