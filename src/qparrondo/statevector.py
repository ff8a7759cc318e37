"""Dense complex statevector storage and gate kernels for small registers.

Bit-order convention used throughout the package: qubit indices are 1-based
and qubit 1 is the *most significant* bit of a basis label, so for three
qubits the label "110" is basis index 6.  This makes a state written
|q1 q2 q3> read left to right in both math and code.

States are immutable at the API: a StateVector holds read-only amplitudes,
validated (shape, finiteness, unit norm) when it is built and copied unless
the array given is already read-only and owns its memory.  Every game is one
gate, :func:`apply_gate`: a 2x2 unitary on a fresh target qubit, picked for
game B by the window of two qubits just before the target (the wiring rule of
``wiring``).  It runs in place on a private, writable buffer, reshaped so
that the window and the target get their own axes, and each 2x2 update runs
on basic-index views of it.  ``wiring.run`` copies the initial state into one
such buffer, validates the coin matrices once, runs every game on it and
hands the buffer, made read-only, to the result; the kernel checks only the
target's range and the matrix count and trusts its caller for the rest.

The named initial states live in one table, NAMED_STATES, which the dense
states here, the transfer walk and the evaluator all read.

Capacity is capped at MAX_QUBITS = 24 (about 256 MiB of amplitudes).  The cap
binds the dense path only: sequences of any length compile, and on the
all-zero and GHZ states their payoff comes from the linear-time walk in
``transfer``, which allocates no statevector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 24

# Guards exact structural facts: norms, unitarity and stochastic rows.
STRUCTURAL_TOL = 1e-12

# Named initial states, as the weights of |0...0> and then |1...1> (a weight
# left out is 0).
NAMED_STATES = {"zero": (1.0,), "ghz": (math.sqrt(0.5), math.sqrt(0.5))}


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
        # A read-only array that owns its memory cannot change under us.
        if amps.flags.writeable or not amps.flags.owndata:
            amps = amps.copy()
            amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "num_qubits", int(n))


def check_unitary2(u: np.ndarray) -> np.ndarray:
    """Validate a 2x2 unitary with |det| = 1; returns it as a complex array."""
    m = np.asarray(u, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    # Entries of m^H m - I and det(m) from the four scalars.  Every bound is
    # tested as "<=", which a NaN fails, so NaN and infinite entries are
    # rejected too (max() would not do: it can drop a NaN).
    (p, q), (r, s) = m.tolist()
    gram_errors = (
        abs(p) ** 2 + abs(r) ** 2 - 1.0,
        abs(q) ** 2 + abs(s) ** 2 - 1.0,
        p.conjugate() * q + r.conjugate() * s,
    )
    if not all(abs(e) <= STRUCTURAL_TOL for e in gram_errors):
        raise ValueError("matrix is not unitary within tolerance")
    if not abs(abs(p * s - q * r) - 1.0) <= STRUCTURAL_TOL:
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


def make_named_state(num_qubits: int, name: str) -> StateVector:
    """The state NAMED_STATES[name] on ``num_qubits`` qubits."""
    if name not in NAMED_STATES:
        raise ValueError(
            f"unknown initial-state kind {name!r}; the named states are {tuple(NAMED_STATES)}"
        )
    _check_register_size(num_qubits)
    weights = NAMED_STATES[name]
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[[0, -1][: len(weights)]] = weights
    return StateVector(num_qubits, amps)


def make_ghz(num_qubits: int) -> StateVector:
    """Maximally entangled state (|00...0> + |11...1>) / sqrt(2)."""
    return make_named_state(num_qubits, "ghz")


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


def apply_gate(buf: np.ndarray, target: int, mats: tuple[np.ndarray, ...]) -> None:
    """Apply one game to the fresh ``target`` qubit of ``buf``, in place.

    One matrix is game A: ``mats[0]`` acts on the target.  Four are game B:
    the two qubits just before the target, read as ``(older << 1) | newer``,
    pick ``mats[c]`` (the index of ``GameBSpec.branches``), and those two
    qubits are never altered.  ``buf`` is a writable C-contiguous complex
    array of length 2**n; every matrix must already have passed
    :func:`check_unitary2`.
    """
    n = buf.size.bit_length() - 1
    if len(mats) not in (1, 4):
        raise ValueError(
            f"a gate takes 1 matrix (game A) or 4 matrices (game B), got {len(mats)}"
        )
    window = 0 if len(mats) == 1 else 2
    if not window < target <= n:
        raise ValueError(
            f"target={target} out of range for a {len(mats)}-matrix gate on {n} qubits"
        )
    # Axes: the qubits before the window, the window's branch index, the
    # target bit and the qubits after it.  Basic indexing keeps every
    # operand a view that writes through to ``buf``.
    view = buf.reshape(1 << (target - 1 - window), len(mats), 2, 1 << (n - target))
    for c, m in enumerate(mats):
        _rotate(view[:, c, 0], view[:, c, 1], m)
