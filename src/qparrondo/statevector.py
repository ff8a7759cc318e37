"""Dense complex statevector storage and gate kernels for small registers.

Bit-order convention used throughout the package: qubit indices are 1-based
and qubit 1 is the *most significant* bit of a basis label, so for three
qubits the label "110" is basis index 6.  This makes a state written
|q1 q2 q3> read left to right in both math and code.

States are immutable at the API: a StateVector is a snapshot that holds
read-only amplitudes, always a copy of the caller's array (even a read-only
array can be made writable again by its owner), validated when it is built.
The checks of the engine's inputs live here, each written once:
:func:`check_amplitudes` is the StateVector rule on one array (register size,
length, finite entries, unit norm, in one pass that allocates nothing),
:func:`check_norm` its norm rule on its own, for a norm summed elsewhere, and
:func:`check_coins` the rule of a five-coin array.  The named and basis
states, and ``wiring.run``'s final state, are arrays the package makes
itself: ``_adopt`` holds them without a copy.

One kernel does the arithmetic.  :func:`multiplexed_products` plays a group
of windows, each a stack of matrices applied to consecutive qubits, one
matrix for each value of the control qubits just before them.  It cuts the
state into tiles of about _TILE amplitudes, the group's qubits times a run of
the qubits after them (blocks of _CHUNK for a window played alone), reads
each tile once, plays every window of the group on it in cache between two
tile buffers, and yields the tile's product.  So a large state passes
through memory once per group.  The products are BLAS matrix products, run
as real products on the float64 view where an operator has no imaginary
part, as the coins of the paper's games have at zero phases.
:func:`apply_multiplexed` writes those products into a writable buffer, in
place or from a separate source.  ``wiring`` builds a window's operator
with it, in one call that plays each game of the window (a 2x2 unitary on a
fresh target qubit, picked for game B by the two qubits just before the
target) on identity columns.  Neither kernel checks its arguments: both
trust their caller.

The block route of ``payoff`` reads a state through
:func:`_reduced_densities`: the reduced density matrices of several runs of
qubits, in at most two reads of the state in tiles.

The named initial states live in one table, NAMED_STATES, which the dense
states here, the transfer walk, the evaluator and the CLI all read.

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
    It is a read-only copy of the array given, so the state is a snapshot.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        # Always a copy, so the copy is what gets checked and kept: whoever
        # owns an array, read-only or not, can write it.
        _adopt(self.num_qubits, np.array(self.amplitudes, dtype=complex, order="C"), self)


def _adopt(num_qubits: int, amps: np.ndarray, state: StateVector | None = None) -> StateVector:
    """``state``, or a new StateVector, holding the complex128 array
    ``amps`` itself, made read-only and checked by the StateVector rule.
    Only for an array no caller holds: one the package has just made."""
    amps.setflags(write=False)
    check_amplitudes(num_qubits, amps)
    state = object.__new__(StateVector) if state is None else state
    object.__setattr__(state, "amplitudes", amps)
    object.__setattr__(state, "num_qubits", int(num_qubits))
    return state


def check_amplitudes(num_qubits: int, amps: np.ndarray) -> None:
    """The StateVector rule on a C-contiguous complex128 array: ``num_qubits``
    within the cap, length 2**num_qubits, finite entries and unit norm.  The
    array is only read."""
    n = num_qubits
    check_register_size(n)
    if amps.shape != (1 << n,):
        raise ValueError(
            f"amplitude array has shape {amps.shape}, expected ({1 << n},) for {n} qubits"
        )
    check_norm(_norm_sq(amps))


def _norm_sq(amps: np.ndarray) -> float:
    """|psi|^2 of a C-contiguous complex128 array, in one pass with no
    temporaries: the dot product of the interleaved real and imaginary parts
    with themselves, a sum of squares that cannot cancel.  (A complex vdot
    would turn an infinite amplitude into NaN.)"""
    parts = amps.view(np.float64)
    return float(np.dot(parts, parts))


def check_norm(norm_sq: float) -> None:
    """The norm rule of every state: |psi|^2 is finite and within
    STRUCTURAL_TOL of 1."""
    # A NaN or infinite amplitude makes the norm non-finite, and a NaN norm
    # would slip through the tolerance comparison below.
    if not np.isfinite(norm_sq):
        raise ValueError(f"state has non-finite amplitudes: |psi|^2 = {norm_sq!r}")
    if abs(norm_sq - 1.0) > STRUCTURAL_TOL:
        raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq!r}")


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


def check_coins(coins: np.ndarray) -> np.ndarray:
    """Validate the (5, 2, 2) coin array of ``coins.games_from_bias``: game A's
    coin, then game B's four, each passing :func:`check_unitary2`.  Returns it
    as a complex array."""
    c = np.asarray(coins, dtype=complex)
    if c.shape != (5, 2, 2):
        raise ValueError(f"expected five 2x2 coins, shape (5, 2, 2), got shape {c.shape}")
    for m in c:
        check_unitary2(m)
    return c


def check_register_size(num_qubits: int) -> None:
    """``num_qubits`` is a positive integer within the MAX_QUBITS cap."""
    if not isinstance(num_qubits, (int, np.integer)) or num_qubits < 1:
        raise ValueError(f"num_qubits must be a positive integer, got {num_qubits!r}")
    if num_qubits > MAX_QUBITS:
        raise ValueError(f"num_qubits={num_qubits} exceeds the {MAX_QUBITS}-qubit capacity cap")


def make_basis_state(num_qubits: int, label: str) -> StateVector:
    """Computational basis state |label>, with label[0] the qubit-1 (MSB) bit."""
    check_register_size(num_qubits)
    if len(label) != num_qubits:
        raise ValueError(f"label {label!r} has length {len(label)}, expected {num_qubits}")
    if any(ch not in "01" for ch in label):
        raise ValueError(f"label {label!r} must contain only '0' and '1'")
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[int(label, 2)] = 1.0
    return _adopt(num_qubits, amps)


def make_named_state(num_qubits: int, name: str) -> StateVector:
    """The state NAMED_STATES[name] on ``num_qubits`` qubits."""
    if name not in NAMED_STATES:
        raise ValueError(
            f"unknown initial-state kind {name!r}; the named states are {tuple(NAMED_STATES)}"
        )
    check_register_size(num_qubits)
    weights = NAMED_STATES[name]
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[[0, -1][: len(weights)]] = weights
    return _adopt(num_qubits, amps)


# Amplitudes per block of a window played alone: a block and its product
# (512 KiB apiece) stay in cache, so a large state passes through memory once
# per window however many qubits the operator spans.  The payoff reduction
# takes its chunks of this size too.
_CHUNK = 1 << 15

# Amplitudes per tile of a group of windows: the group's qubits times a run
# of the qubits after them.  Two tiles (1 MiB apiece) stay in cache while
# every window of the group plays on them.
_TILE = 1 << 16


def window_span(first: int, ops) -> tuple[int, int]:
    """The first and the last qubit that the window ``(first, ops)`` of
    :func:`multiplexed_products` acts on."""
    return first, first + (len(ops) * len(ops[0])).bit_length() - 2


def _group_span(group) -> tuple[int, int]:
    """The first and the last qubit that the windows of ``group`` act on."""
    spans = [window_span(*window) for window in group]
    return min(top for top, _ in spans), max(bottom for _, bottom in spans)


def multiplexed_products(src: np.ndarray, group, tiles: np.ndarray | None = None):
    """Yield the products of a group of multiplexed operators on ``src``,
    tile by tile.

    ``group`` is a sequence of windows ``(first, ops)``, played in order.
    ``ops`` has shape (2**w, d, d) with d = 2**m: where the w qubits from
    ``first`` on read c (older qubit first), ``ops[c]`` acts on the m qubits
    after them, and those w qubits are never altered.  ``src`` is a
    C-contiguous complex array of length 2**n that holds every window's
    qubits; it is only read.

    The group's span, from its first window's ``first`` to the last qubit
    any window acts on, is cut into tiles: each is the span times a run of
    the qubits after it, at most _TILE amplitudes (_CHUNK for a window played
    alone) unless the span alone is more.  The first window's product reads
    each tile from ``src``, and every later window plays between the two
    rows of ``tiles``, a (2, size) complex array, or between fresh arrays if
    it is None.  A product whose operator has no imaginary part runs as a
    real product on the float64 view.

    Each item is ``(index, product)``: the group applied to the tile
    ``index`` of the view ``reshape(2**(top - 1), 2**span, -1)`` of the
    state, with ``top`` the span's first qubit.  ``product`` is a row of
    ``tiles``, overwritten by the next item.  When the span ends on the last
    qubit, every product is a contiguous run of the state, the runs come in
    state order and all have the same length.
    """
    group = [(first, np.asarray(ops, dtype=complex)) for first, ops in group]
    top, bottom = _group_span(group)
    view = src.reshape(1 << (top - 1), 1 << (bottom - top + 1), -1)
    pre, span, post = view.shape
    # A window alone needs one block, not two tiles: on a register of one
    # tile a tile-sized block would be a second copy of the state.
    budget = _CHUNK if len(group) == 1 else _TILE
    # Rows of at least two amplitudes unless they are whole: rows of one
    # amplitude take a right multiplication, which needs them to merge with
    # the qubits above them, and only whole rows do.
    cols = min(post, max(2, budget // span))
    step = min(pre, max(1, budget // (span * cols)))
    size = step * span * cols
    if tiles is None:
        tiles = np.empty((min(2, len(group)), size), dtype=complex)
    outs = [tile[:size].reshape(step, span, cols) for tile in tiles]
    # Every product's operands, as views made once: the first window reads
    # the whole state, sliced to the tile in the loop; each later one reads
    # the tile the window before it wrote.
    products = []
    for k, (first, ops) in enumerate(group):
        last = window_span(first, ops)[1]
        source = view if k == 0 else outs[(k - 1) % 2]
        products.append(_operands(first - top, bottom - last, ops, source, outs[k % 2]))
    pair, _, side = products[0]
    head = pair[side]
    above, per_col = group[0][0] - top, head.shape[-1] // post
    for i in range(0, pre, step):
        # The rows axis of ``head`` is its first, but its second when it is
        # the left operand of a right multiplication.
        rows = (slice(None),) * (1 - side) + (slice(i << above, (i + step) << above), Ellipsis)
        for j in range(0, post, cols):
            pair[side] = head[rows + (slice(j * per_col, (j + cols) * per_col),)]
            for (left, right), out, _ in products:
                np.matmul(left, right, out=out)
            yield (slice(i, i + step), slice(None), slice(j, j + cols)), outs[(len(group) - 1) % 2]


def _operands(above, below, ops, src, out) -> tuple[list, np.ndarray, int]:
    """``([left, right], out, side)``, with ``np.matmul(left, right,
    out=out)`` the product of one window on ``src`` into ``out``, arrays
    (rows, span, cols) whose span has ``above`` qubits before the window's
    and ``below`` after.  The operand that reads ``src`` is ``left`` if
    ``side`` is 0, else ``right``."""
    branches, d = ops.shape[:2]
    whole_rows = src.shape[-1] == out.shape[-1]
    x, y = (a.reshape(len(a) << above, branches, d, 1 << below, a.shape[-1]) for a in (src, out))
    if whole_rows:
        # The qubits after the window and the rows form one contiguous axis.
        x, y = (a.reshape(*a.shape[:3], -1) for a in (x, y))
    else:
        # One matrix product per value of the qubits between the window and
        # the rows.
        x, y = (a.transpose(0, 3, 1, 2, 4) for a in (x, y))
    if x.shape[-1] == 1:
        # The window ends the span and the rows are single amplitudes: per
        # control value the tile is a (rows, d) matrix, so right-multiply by
        # ops[c]^T, one product per control value rather than one per row.
        x, y = x[..., 0].transpose(1, 0, 2), y[..., 0].transpose(1, 0, 2)
        return [x, ops.transpose(0, 2, 1)], y, 0
    if not ops.imag.any():
        return [np.ascontiguousarray(ops.real), x.view(np.float64)], y.view(np.float64), 1
    return [ops, x], y, 1


def _reduced_densities(src: np.ndarray, spans, imag: bool = False) -> list[np.ndarray]:
    """The real part, or the imaginary part if ``imag``, of the reduced
    density matrix of each span ``(first, last)`` of qubits of the state
    ``src``: rho[i, j] = sum over the other qubits of psi[i] conj(psi[j]),
    with i and j the span's basis labels.  ``src`` is only read.

    The state is read in tiles of about _TILE amplitudes, and every span
    that a tile holds is taken from it while it sits in cache.  A span among
    the last log2(_TILE) qubits is in every contiguous run of that many, read
    in one pass; the others are in the tiles that hold every qubit up to the
    last of them times a run of the lowest qubits, copied out of the state in
    a second pass.  No state-sized temporary is made.
    """
    n = src.size.bit_length() - 1
    tile = min(src.size, _TILE).bit_length() - 1
    sums = [0.0] * len(spans)
    low = [k for k, (first, _) in enumerate(spans) if first > n - tile]
    high = [k for k in range(len(spans)) if k not in low]
    top = max((spans[k][1] for k in high), default=0)
    # A tile is view[i : i + step, j : j + cols] of the state's view with the
    # first ``head`` qubits as rows: one row, a contiguous run of the low
    # qubits, or every row times a run of the lowest qubits.  ``shift`` counts
    # the qubits before the tile's first.
    for members, head, shift in ((low, n - tile, n - tile), (high, top, 0)):
        if not members:
            continue
        view = src.reshape(1 << head, -1)
        if members is low:
            step, cols = 1, view.shape[1]
        else:
            step, cols = len(view), max(1, (1 << tile) >> head)
        # Tiles that are not contiguous runs are copied out of the state.
        copy = np.empty((step, cols), dtype=complex) if 1 < step and cols < view.shape[1] else None
        rotated = np.empty((step, cols), dtype=complex) if imag else None
        for i in range(0, len(view), step):
            for j in range(0, view.shape[1], cols):
                psi = view[i : i + step, j : j + cols]
                if copy is not None:
                    np.copyto(copy, psi)
                    psi = copy
                # -i psi has the float64 view (Im psi, -Re psi), whose products
                # with (Re psi, Im psi) sum to Im(psi[i] conj(psi[j])).
                left = (np.multiply(psi, -1j, out=rotated) if imag else psi).view(np.float64)
                right = psi.view(np.float64)
                for k in members:
                    first, last = (q - shift for q in spans[k])
                    shape = (1 << (first - 1), 1 << (last - first + 1), -1)
                    sums[k] = sums[k] + _gram(left.reshape(shape), right.reshape(shape))
    return [np.asarray(s) for s in sums]


def _gram(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum over p and c of x[p, i, c] * y[p, j, c], as an (i, j) array."""
    rows, span, cols = x.shape
    if cols * cols <= rows:
        # Rows too short for one matrix product each: one product over the
        # rows instead, of every (i, c) with every (j, c'), traced over c = c'.
        g = x.reshape(rows, -1).T @ y.reshape(rows, -1)
        return np.einsum("icjc->ij", g.reshape(span, cols, span, cols))
    return np.matmul(x, y.transpose(0, 2, 1)).sum(0)


def apply_multiplexed(buf: np.ndarray, group, src: np.ndarray | None = None,
                      tiles: np.ndarray | None = None) -> None:
    """Write the group of :func:`multiplexed_products` applied to ``src`` (by
    default ``buf`` itself, in place) into ``buf``, a writable C-contiguous
    complex array of the same length.

    Each tile's product is copied into ``buf`` once its every window has
    played, so no state-sized temporary is made (``out=`` on an operand that
    aliases ``buf`` would make numpy copy the whole state).
    """
    top, bottom = _group_span(group)
    view = buf.reshape(1 << (top - 1), 1 << (bottom - top + 1), -1)
    for index, product in multiplexed_products(buf if src is None else src, group, tiles):
        view[index] = product

