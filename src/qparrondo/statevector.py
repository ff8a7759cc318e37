"""Dense complex statevector storage and gate kernels for small registers.

Bit-order convention used throughout the package: qubit indices are 1-based
and qubit 1 is the *most significant* bit of a basis label, so for three
qubits the label "110" is basis index 6.  This makes a state written
|q1 q2 q3> read left to right in both math and code.

States are immutable at the API: a StateVector owns a read-only copy of its
amplitudes, validated (shape, finiteness, unit norm) when it is built, and
the public gate functions return a new StateVector.  Underneath, every gate
is an in-place kernel on a private, writable buffer: the buffer is reshaped
so that the target and control qubits get their own length-2 axes, and each
2x2 update runs on basic-index views of it.  ``wiring.run`` copies the
initial state into one such buffer, validates the coin matrices once, runs
every game on it and wraps the result once; the in-place kernels check only
qubit indices and trust their caller for the rest.

Capacity is capped at MAX_QUBITS = 24 (about 256 MiB of amplitudes), which
comfortably covers every register this package needs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tolerances import STRUCTURAL_TOL

MAX_QUBITS = 24


@dataclass(frozen=True)
class StateVector:
    """A normalized pure state over ``num_qubits`` qubits.

    Invariants (enforced at construction): the amplitude array has length
    ``2**num_qubits``, finite entries and unit norm within STRUCTURAL_TOL.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        n = self.num_qubits
        _check_register_size(n)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << n,):
            raise ValueError(
                f"amplitude array has shape {amps.shape}, expected ({1 << n},) for {n} qubits"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        # A NaN or infinite amplitude makes the norm non-finite, and a NaN
        # norm would slip through the tolerance comparison below.
        if not np.isfinite(norm_sq):
            raise ValueError(f"state has non-finite amplitudes: |psi|^2 = {norm_sq!r}")
        if abs(norm_sq - 1.0) > STRUCTURAL_TOL:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq!r}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "num_qubits", int(n))

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits


def check_unitary2(u: np.ndarray) -> np.ndarray:
    """Validate a 2x2 unitary with |det| = 1; returns it as a complex array."""
    m = np.asarray(u, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not np.allclose(m.conj().T @ m, np.eye(2), atol=STRUCTURAL_TOL, rtol=0.0):
        raise ValueError("matrix is not unitary within tolerance")
    if abs(abs(np.linalg.det(m)) - 1.0) > STRUCTURAL_TOL:
        raise ValueError("matrix determinant does not have unit modulus")
    return m


def _check_register_size(num_qubits: int) -> None:
    if not isinstance(num_qubits, (int, np.integer)) or num_qubits < 1:
        raise ValueError(f"num_qubits must be a positive integer, got {num_qubits!r}")
    if num_qubits > MAX_QUBITS:
        raise ValueError(f"num_qubits={num_qubits} exceeds the {MAX_QUBITS}-qubit capacity cap")


def make_basis_state(num_qubits: int, label: str) -> StateVector:
    """Computational basis state |label>, with label[0] the qubit-1 (MSB) bit."""
    _check_register_size(num_qubits)
    if len(label) != num_qubits:
        raise ValueError(f"label {label!r} has length {len(label)}, expected {num_qubits}")
    if any(ch not in "01" for ch in label):
        raise ValueError(f"label {label!r} must contain only '0' and '1'")
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[int(label, 2)] = 1.0
    return StateVector(num_qubits, amps)


def make_ghz(num_qubits: int) -> StateVector:
    """Maximally entangled state (|00...0> + |11...1>) / sqrt(2)."""
    _check_register_size(num_qubits)
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return StateVector(num_qubits, amps)


def _check_qubit_index(num_qubits: int, qubit: int, name: str) -> None:
    if not 1 <= qubit <= num_qubits:
        raise ValueError(f"{name}={qubit} out of range for a {num_qubits}-qubit state")


# Amplitudes per operand in one update step.  The step's operands and
# temporaries (64 KiB apiece) stay in cache, so a large state passes through
# memory about once per gate rather than once per arithmetic pass.
_BLOCK = 4096
# Views whose contiguous rows are shorter than this are walked one column at a
# time: numpy pays a fixed cost per row, which would dominate short rows.
_MIN_ROW = 16


def _rotate(a: np.ndarray, b: np.ndarray, m: np.ndarray) -> None:
    """In place (a, b) <- (m00 a + m01 b, m10 a + m11 b) for same-shape views.

    Every amplitude gets the same arithmetic however the views are split into
    blocks, so results are deterministic and independent of the blocking.
    """
    if a.size <= _BLOCK:
        a_old = a.copy()
        a *= m[0, 0]
        a += m[0, 1] * b
        b *= m[1, 1]
        a_old *= m[1, 0]
        b += a_old
    elif a.ndim > 1 and a.shape[-1] < _MIN_ROW:
        for r in range(a.shape[-1]):
            _rotate(a[..., r], b[..., r], m)
    else:
        inner = a.size // a.shape[0]
        if inner >= _BLOCK:
            for i in range(a.shape[0]):
                _rotate(a[i], b[i], m)
        else:
            rows = _BLOCK // inner
            for i in range(0, a.shape[0], rows):
                _rotate(a[i : i + rows], b[i : i + rows], m)


def _qubit_pairs(
    buf: np.ndarray, target: int, controls: dict[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Views of ``buf`` with the target bit at 0 and at 1 and every control fixed.

    The flat buffer is reshaped so that the target and each control qubit get
    their own length-2 axis; qubit 1 is the most significant bit, so the axes
    come in ascending qubit order.  Only basic indexing is used, so both
    results are views that write through to ``buf``.
    """
    n = buf.size.bit_length() - 1
    shape: list[int] = []
    axes: dict[int, int] = {}
    prev = 0
    for q in sorted((target, *controls)):
        if q - prev > 1:
            shape.append(1 << (q - prev - 1))
        axes[q] = len(shape)
        shape.append(2)
        prev = q
    if n > prev:
        shape.append(1 << (n - prev))
    view = buf.reshape(shape)
    index: list = [slice(None)] * len(shape)
    for q, bit in controls.items():
        index[axes[q]] = bit
    index[axes[target]] = 0
    zero = view[(*index, ...)]
    index[axes[target]] = 1
    return zero, view[(*index, ...)]


def apply_single_qubit_inplace(buf: np.ndarray, target: int, m: np.ndarray) -> None:
    """Apply a validated 2x2 unitary to one qubit of a writable amplitude buffer.

    ``buf`` is a C-contiguous complex array of length 2**n; ``m`` must already
    have passed :func:`check_unitary2`.
    """
    _check_qubit_index(buf.size.bit_length() - 1, target, "target")
    _rotate(*_qubit_pairs(buf, target, {}), m)


def apply_two_controlled_multiplexed_inplace(
    buf: np.ndarray,
    control_hi: int,
    control_lo: int,
    target: int,
    mats: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """In-place form of :func:`apply_two_controlled_multiplexed`.

    ``buf`` is a C-contiguous complex array of length 2**n; every matrix in
    ``mats`` must already have passed :func:`check_unitary2`.
    """
    n = buf.size.bit_length() - 1
    for name, q in (("control_hi", control_hi), ("control_lo", control_lo), ("target", target)):
        _check_qubit_index(n, q, name)
    if len({control_hi, control_lo, target}) != 3:
        raise ValueError(
            f"control/target qubits must be distinct, got ({control_hi}, {control_lo}, {target})"
        )
    for branch in range(4):
        controls = {control_hi: branch >> 1, control_lo: branch & 1}
        _rotate(*_qubit_pairs(buf, target, controls), mats[branch])


def apply_single_qubit(state: StateVector, target: int, u: np.ndarray) -> StateVector:
    """Apply a 2x2 unitary to one qubit; returns a new state."""
    m = check_unitary2(u)
    buf = np.array(state.amplitudes)
    apply_single_qubit_inplace(buf, target, m)
    return StateVector(state.num_qubits, buf)


def apply_two_controlled_multiplexed(
    state: StateVector,
    control_hi: int,
    control_lo: int,
    target: int,
    branch_units: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> StateVector:
    """Apply one of four 2x2 unitaries to the target, selected by the controls.

    Branch selection: (control_hi, control_lo) bits (0,0) pick branch_units[0],
    (0,1) -> [1], (1,0) -> [2], (1,1) -> [3].  Control bits are never altered.
    """
    if len(branch_units) != 4:
        raise ValueError(f"expected 4 branch unitaries, got {len(branch_units)}")
    mats = tuple(check_unitary2(u) for u in branch_units)
    buf = np.array(state.amplitudes)
    apply_two_controlled_multiplexed_inplace(buf, control_hi, control_lo, target, mats)
    return StateVector(state.num_qubits, buf)
