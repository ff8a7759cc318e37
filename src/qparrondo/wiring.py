"""Compile token strings over {A, B} into qubit wirings and execute them.

The wiring rule, stated here once for the whole package: every game writes
to a fresh target qubit, and a game B reads, as its coin's controls, the two
qubits just before its target, older first.  The qubits before the first game
are seed qubits, the results of games played before the sequence starts.
There are seed_count = max(0, 2 - number of tokens before the first B) of
them, and none when the sequence has no B, so that the first B has two
qubits to read.  Game k (1-based) targets qubit seed_count + k, and
total_qubits = seed_count + len(tokens).  A plan is therefore its seed count
and its tokens: the dense kernel, the transfer walk and the classical chain
read the tokens in order and take everything else from this rule.  ``run``
plays a plan with the five coins of ``coins.games_from_bias``: game A tosses
coin 0, and game B tosses coin 1 + ((older << 1) | newer) of its two controls.
``ghz_phase_sensitive`` reads the same rule to tell whether any phase can
move a plan's payoff on the GHZ state.

Dense evaluation plays the games by windows.  Consecutive games target
consecutive qubits, so a window of m games acts on its m targets and reads,
as controls, at most the two qubits just above them, which it never changes.
Its operator is one 2**m-square matrix per value of those controls, built
on identity columns by the one kernel, so this rule is written once.
Consecutive windows are played in groups, one pass of
``statevector.multiplexed_products`` over the state each (``_groups``): on
the 22 qubits of (AAB)^7 A, windows 1-2 and then windows 3-5, two passes
instead of five.
``play_to_last_window`` is the one driver: it plays every group but the
last, reading the initial amplitudes in the first and never writing them.

The same rule cuts a plan into independent blocks (``_blocks``).  A plan is
cut before every game but the first that is an A followed by an A or by
nothing: no game from there on reads an earlier qubit, so the circuit is a
tensor product of one unitary per block, and the first block holds the seed
qubits.  (AAB)^7 A is seven AAB blocks and one A; B^19 and (AB)^10 do not
cut at all.  A block's operator is its games' window operator
(``_window_operator``), which ``payoff`` evaluates on the block's reduced
density matrix when every block has at most _MAX_WINDOW qubits.

Each engine input enters once.  ``initial_amplitudes`` turns a caller's
initial state (a name, a StateVector or amplitudes) into the amplitudes the
driver reads, validated once; ``run`` checks a caller's coins with
``statevector.check_coins``.  The driver trusts both.

For pure-B strings, alternating AB strings and AAB blocks this reproduces
the standard sliding-window layouts exactly.  For arbitrary mixed strings
(say "ABBAB") the same last-two-results rule is applied; that
generalization is this library's own extension of the two-previous-results
principle.

Sequences are plain case-sensitive strings like "AAB", no separators.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import statevector
from .statevector import (
    StateVector,
    apply_multiplexed,
    check_amplitudes,
    check_coins,
    check_register_size,
    make_named_state,
    window_span,
)

# Most games fused into one window.  A window of m games costs 2**m complex
# multiply-adds per amplitude in its one pass over the state, so past a few
# games the arithmetic outweighs the memory traffic the window saves.
_MAX_WINDOW = 5

# Narrowest contiguous row, in amplitudes, that a group of windows other than
# the last may leave in its tiles and in the state (``_groups``): narrower
# rows make the matrix products and the copies slower than the passes they
# save.
_ROW = 1 << 7


@dataclass(frozen=True)
class CircuitPlan:
    """Compiled wiring for a game sequence: its seed qubits and its tokens."""

    seed_count: int
    tokens: str

    @property
    def total_qubits(self) -> int:
        return self.seed_count + len(self.tokens)


def validate_sequence(seq: str) -> str:
    if not isinstance(seq, str) or not seq:
        raise ValueError("game sequence must be a non-empty string")
    bad = set(seq) - {"A", "B"}
    if bad:
        raise ValueError(f"game sequence may contain only 'A' and 'B', got {sorted(bad)!r}")
    return seq


def compile_sequence(seq: str) -> CircuitPlan:
    """Compile a token string into its seed count and validated tokens."""
    tokens = validate_sequence(seq)
    first_b = tokens.find("B")
    return CircuitPlan(0 if first_b < 0 else max(0, 2 - first_b), tokens)


def ghz_phase_sensitive(plan: CircuitPlan) -> bool:
    """Whether any phase of the coins can move the plan's payoff on the GHZ
    state: only if the plan has no seed qubit and every qubit but the last is
    a control of a later B.

    On one basis input a game's outcome has probability |<y|U|x>|^2, which no
    phase changes, so phases act only through the cross pairs (b, b') of
    the walk in ``transfer``, whose factor for a qubit is conj(<y|U|0>)
    <y|U|1>.  Summed over the outcome y this is (U^H U)[0,1] = 0.  A qubit
    that no later gate reads is summed out on its own, so it zeroes every
    cross term unless it carries the payoff term being summed: the last
    qubit does this for every payoff term but its own, and that one term
    survives only if every other qubit is read by a later B.  A seed
    qubit's identity factor is 0 on a cross pair for every y.  That every
    plan passing this rule does depend on the phases is held by the tests,
    against the walk.

    What is left on a plan the rule calls phase-blind is classical.  The
    walk's diagonal pairs (b, b) carry |<y|U|b>|^2, real transition
    probabilities over the last two outcomes: each is a
    ``classical.HistoryChain``.  Pair (1, 0) is the complex conjugate of
    (0, 1), so the cross pairs add 2 Re of one chain, which sums to zero
    here.  The GHZ total is then the mean of two classical totals: seeds
    (0, 0) with the lose probabilities, and seeds (1, 1) with their
    complements, since a coin on |1> wins with the lose probability.  The
    tests hold this identity, with the walk and ``classical`` kept as two
    separate routes.
    """
    # With no seed qubit, game k's target is read by games k + 1 and k + 2.
    tokens = plan.tokens
    return plan.seed_count == 0 and all(
        "B" in tokens[k + 1 : k + 3] for k in range(len(tokens) - 1)
    )


def initial_amplitudes(plan: CircuitPlan, init) -> np.ndarray:
    """The amplitudes a dense evaluation reads for the initial state ``init``:
    a name in NAMED_STATES, a StateVector, or amplitudes.

    A name builds its state, and a StateVector gives its own amplitudes.  A
    C-contiguous complex128 array is returned itself, never copied; any other
    amplitudes (real or non-contiguous, say) are converted once into a fresh
    array.  Amplitudes are checked once, by the StateVector rule
    (``check_amplitudes``), and every input must fit the plan's register.
    """
    n = plan.total_qubits
    if isinstance(init, str):
        return make_named_state(n, init).amplitudes
    check_register_size(n)
    # A StateVector has passed the StateVector rule when it was built.
    checked = isinstance(init, StateVector)
    amps = init.amplitudes if checked else np.ascontiguousarray(init, dtype=complex)
    if amps.shape != (1 << n,):
        raise ValueError(
            f"initial state has shape {amps.shape}, plan needs ({1 << n},) for {n} qubits"
        )
    if not checked:
        check_amplitudes(n, amps)
    return amps


def _blocks(plan: CircuitPlan) -> list[tuple[int, int, str]]:
    """``(first qubit, last qubit, tokens)`` of each independent block of the
    plan, in order; the first block holds the seed qubits.

    The plan is cut before game k > 1 when game k is an A and game k + 1 is
    an A or does not exist.  Neither reads a qubit, and a B at game k + 2
    reads only games k and k + 1, so no game after the cut reads a qubit
    before it: the circuit is a tensor product of one unitary per block.
    """
    tokens = plan.tokens
    starts = [0] + [k for k in range(1, len(tokens)) if tokens[k : k + 2] in ("A", "AA")]
    ends = starts[1:] + [len(tokens)]
    return [
        (1 if start == 0 else plan.seed_count + start + 1, plan.seed_count + end, tokens[start:end])
        for start, end in zip(starts, ends)
    ]


def _window_games(num_qubits: int) -> int:
    """Games per window on a register of ``num_qubits``: the most, up to
    _MAX_WINDOW, whose operator costs no more to build than one pass over the
    state.  Building m games touches m * 2**(w + 2m) amplitudes, w <= 2."""
    m = 1
    while m < _MAX_WINDOW and (m + 1) << (2 + 2 * (m + 1)) <= 1 << num_qubits:
        m += 1
    return m


def _window_operator(window: str, gates: dict) -> np.ndarray:
    """The operator of consecutive games, as a (2**w, 2**m, 2**m) stack: one
    block for each value c of the w qubits above the window that its games
    read as controls (2 if it opens with a B, 1 if its second game is a B,
    else 0), older qubit first, acting on its m targets.

    One game's operator is its own coins.  Longer windows are built on
    identity columns of a register of those w qubits and the m targets, in
    one ``apply_multiplexed`` call that plays every game as a window of its
    own: game A's coin on its target, or one of game B's four picked by the
    two qubits before it.  No game alters its controls, so the columns that
    carry control value c map into themselves, and the register holds for
    each c only those 2**m columns.
    """
    if len(window) == 1:
        return gates[window]
    w = max((2 - k for k, token in enumerate(window[:2]) if token == "B"), default=0)
    d = 1 << len(window)
    # Axes: control value, the targets (the row index, which the games read
    # and write), and the column index, which they never touch.
    columns = np.zeros((1 << w, d, d), dtype=complex)
    columns.reshape(1 << w, d * d)[:, :: d + 1] = 1.0
    # Game A acts on its target alone; game B reads the two qubits before it.
    games = [
        (target - (2 if token == "B" else 0), gates[token])
        for target, token in enumerate(window, start=w + 1)
    ]
    apply_multiplexed(columns.reshape(-1), games)
    return columns


def _windows(plan: CircuitPlan, gates: dict):
    """(first qubit, operator) of each window of the plan, in play order.

    The games are played in windows of up to m consecutive games, m set by
    the register size (``_window_games``), and each window's operator is
    built when it is reached (``_window_operator``).  The windows are cut
    back from the last game, so every window but the last leaves at least
    2**m amplitudes after its qubits, which keeps each matrix product wide,
    and the last window ends on the last qubit.
    """
    m = _window_games(plan.total_qubits)
    tokens = plan.tokens
    for end in range(len(tokens), 0, -m)[::-1]:
        window = tokens[max(0, end - m) : end]
        ops = _window_operator(window, gates)
        controls = len(ops).bit_length() - 1
        yield plan.seed_count + end - len(window) + 1 - controls, ops


def _groups(plan: CircuitPlan, windows):
    """The windows of the plan, in play order, cut into groups that
    ``statevector.multiplexed_products`` plays in one pass over the state.

    A group's span runs from its first qubit to the last that any of its
    windows acts on, and a tile holds the span times a run of the qubits after it, at
    most _TILE amplitudes in all.  A window joins the group before it while
    the joined span leaves rows of at least _ROW amplitudes in a tile, or
    while the group's first qubit and every qubit after it fit one tile: the
    group then takes every later window and is the last.  So a group before
    the last also leaves at least _ROW amplitudes after its span in the
    state.  A register that fits one tile already sits in cache, so there
    every window is its own group.
    """
    n = plan.total_qubits
    tile = statevector._TILE.bit_length() - 1
    row = _ROW.bit_length() - 1
    if n <= tile:
        yield from ([window] for window in windows)
        return
    group, top = [], n
    for window in windows:
        first, last = window_span(*window)
        joined = min(top, first)
        if group and (last - joined + 1 <= tile - row or n - joined < tile):
            group.append(window)
            top = joined
            continue
        if group:
            yield group
        group, top = [window], first
    yield group


def play_to_last_window(
    plan: CircuitPlan, coins: np.ndarray, init: np.ndarray, work: np.ndarray,
    tiles: np.ndarray | None = None,
) -> tuple[np.ndarray, list]:
    """The driver of every dense evaluation: play every group of windows of
    the plan (``_groups``) but the last, each in one pass of
    ``statevector.apply_multiplexed``, and return ``(amplitudes, group)``,
    the state before the last group and that group, which holds the last
    window, for the caller to finish with ``multiplexed_products`` or
    ``apply_multiplexed``.

    ``coins`` is a checked (5, 2, 2) complex array.  ``init`` is the initial
    amplitudes of ``initial_amplitudes`` and is only read: the first group
    reads it and writes the work buffer ``work``, a writable complex array of
    the same length that shares no memory with ``init``, and every later
    group updates that buffer in place.  ``tiles`` is handed to the kernel.
    For a one-group plan nothing is played and ``work`` is not touched: the
    amplitudes returned are ``init`` itself; otherwise they are ``work``.
    """
    groups = _groups(plan, _windows(plan, {"A": coins[:1], "B": coins[1:]}))
    state, group = init, next(groups)
    for following in groups:
        apply_multiplexed(work, group, src=state, tiles=tiles)
        state, group = work, following
    return state, group


def run(plan: CircuitPlan, coins: np.ndarray, init) -> StateVector:
    """Play every game of the plan on the initial state ``init`` (any input
    of ``initial_amplitudes``) with the five coins of
    ``coins.games_from_bias``: game A tosses ``coins[0]``, game B one of
    ``coins[1:]``.  The coins are checked by ``check_coins``.

    The groups of windows are played by ``play_to_last_window`` in one fresh
    buffer, so ``init`` is left unchanged.  The last group writes its
    products into that buffer too, and the buffer is handed, read-only and
    uncopied, to the returned StateVector, which checks the final norm.
    """
    coins = check_coins(coins)
    amps = initial_amplitudes(plan, init)
    buf = np.empty_like(amps)
    state, group = play_to_last_window(plan, coins, amps, buf)
    apply_multiplexed(buf, group, src=state)
    return statevector._adopt(plan.total_qubits, buf)
