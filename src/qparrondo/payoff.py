"""Payoff expectation over a final state and its first-order bias expansion.

Measuring a qubit pays +1 for |1> and -1 for |0>, so a basis label with j
ones out of n qubits pays 2j - n.  The expectation over a state is the
probability-weighted sum of those payoffs.

Normalization convention: n is the TOTAL number of qubits in the state,
seed qubits included, and "per qubit" divides by that same total.  This is
the unique reading that reproduces the reference results for entangled
initial states (e.g. the pure-B GHZ value 1/15).

Payoffs are reported "to first order" as a pair (c0, c1), payoff ~ c0 +
c1*eps, with c1 the central difference of ``coins.bias_expansion``.

``Evaluator`` is the one selection point: it compiles a sequence once and
picks one of three routes once, each compiled into a function of the coins.
The all-zero and GHZ states, named by the strings "zero" and "ghz", take the
linear-time transfer-matrix walk (``transfer._compile_walk``, any sequence
length); a StateVector or amplitudes (at most MAX_QUBITS qubits), validated
once by ``wiring.initial_amplitudes``, take the block route
(``_compile_blocks``) or the window route (``_compile_window``).
Each route is described in its compile function's docstring.  Each
evaluation builds the five coins of ``coins.games_from_bias``, SU(2) by
construction, and hands that one array, unchecked, to the route; every route
checks the final norm.  Both dense totals equal
``payoff_expectation(run(...))``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import statevector, transfer, wiring
from .coins import PhaseAssignment, bias_expansion, games_from_bias
from .statevector import NAMED_STATES, StateVector, check_norm, multiplexed_products
from .wiring import (
    compile_sequence,
    ghz_phase_sensitive,
    initial_amplitudes,
    play_to_last_window,
)


def _marginal_sum(m: np.ndarray) -> float:
    """sum_q (P(q reads 1) - P(q reads 0)) of the probabilities ``m`` over
    log2(len(m)) qubits, by successive halving: splitting the probabilities in
    two separates the most significant qubit, and summing the halves
    marginalizes it out, leaving the same problem on the remaining qubits.
    Each difference is summed directly rather than formed as 2 P(1) - |psi|^2,
    which would cancel to a few ulps of |psi|^2 on a near-zero payoff.
    """
    biases = np.empty(m.size.bit_length() - 1)
    for k in range(biases.size):
        m = m.reshape(2, -1)
        biases[k] = (m[1] - m[0]).sum()
        m = m[0] + m[1]
    return float(biases.sum())


def _reduce(chunks) -> tuple[float, float]:
    """(payoff, |psi|^2) of a state given as consecutive chunks of equal
    power-of-two length, in state order.

    The payoff comes from the per-qubit marginals, sum_q (P(q reads 1) -
    P(q reads 0)), in O(2**n) and without a state-sized temporary.  A chunk's
    index holds the top qubits and the offset in it the low ones, so the
    probabilities of each chunk are added into ``low`` (the marginal of the
    low qubits) and their total stored in ``high`` (the marginal of the top
    ones); the payoff, linear in the probabilities, is the successive-halving
    sum of each, and |psi|^2 is the sum of ``high``.  Its three working
    arrays are all it allocates.
    """
    high = []
    for chunk in chunks:
        if not high:
            prob = np.empty(chunk.size)
            low = np.zeros(chunk.size)
        np.abs(chunk, out=prob)
        prob *= prob
        low += prob
        high.append(prob.sum())
    high = np.array(high)
    return _marginal_sum(high) + _marginal_sum(low), float(high.sum())


def payoff_expectation(state: StateVector) -> float:
    """Expected payoff sum((2*popcount(label) - n) * |amp|^2); lies in [-n, n].

    Reduced in chunks of ``statevector._CHUNK`` amplitudes.  A state of at
    most one chunk is reduced exactly as a whole.  The |psi|^2 the reduction
    sums goes through ``check_norm``, the StateVector rule.
    """
    amps = state.amplitudes
    total, norm_sq = _reduce(amps.reshape(-1, min(amps.size, statevector._CHUNK)))
    check_norm(norm_sq)
    return total


def _compile_window(plan, init: np.ndarray, work: np.ndarray, tiles: np.ndarray | None = None):
    """The window route of ``plan`` on the initial amplitudes ``init``,
    compiled: a function of the five coins that returns the total payoff,
    ``payoff_expectation(run(plan, coins, StateVector(n, init)))``, without
    the final state.  It takes every plan the block route does not.

    An evaluation plays the groups of windows before the last
    (``wiring.play_to_last_window``) in the work buffer ``work``, reading
    ``init`` in the first, and sends the last group's product tiles,
    contiguous runs of the state in order, straight to the reduction: the
    final state is never written, and its norm is checked from the
    reduction's own chunk sums by ``check_norm``, the StateVector rule.
    ``tiles`` is handed to the kernel (``statevector.multiplexed_products``).
    Only this route keeps a state-sized buffer.
    """

    def evaluate(coins: np.ndarray) -> float:
        state, group = play_to_last_window(plan, coins, init, work, tiles)
        total, norm_sq = _reduce(
            product.reshape(-1) for _, product in multiplexed_products(state, group, tiles)
        )
        check_norm(norm_sq)
        return total

    return evaluate


def _block_payoffs(size: int) -> np.ndarray:
    """The payoff 2 * popcount(j) - size of each basis label j of ``size``
    qubits."""
    z = np.zeros(1)
    for _ in range(size):
        z = np.concatenate([z - 1, z + 1])
    return z


def _compile_blocks(blocks, amps: np.ndarray, reread: bool):
    """The block route on the initial amplitudes ``amps``, compiled: a
    function of the five coins that returns the total payoff of a plan cut
    into independent blocks (``wiring._blocks``), each of at most
    _MAX_WINDOW qubits, such as (AAB)^7 A.

    A block's payoff depends on the initial state only through the block's
    reduced density matrix rho, which no bias or phase changes: the total is
    the sum over the blocks of Tr(U^H Z U rho), with U the block's unitary
    and Z its payoff summed over its qubits, seeds included.  The real parts
    of the blocks' rho are taken here, in one pass
    (``statevector._reduced_densities``), and so is each distinct block's
    payoff diagonal Z; the imaginary parts are taken once more, at the first
    coins whose block operators are complex.  An evaluation builds each
    distinct block's operator from its coins and sums small traces; no work
    buffer is kept.

    If ``reread``, every evaluation reads ``amps`` for its norm alone, by
    the StateVector norm rule; the caller passes False where no one can have
    changed it since it was checked.  Each block's Tr(U^H U rho) goes
    through that rule too: it is the final norm.
    """
    spans = [(first, last) for first, last, _ in blocks]
    densities = [statevector._reduced_densities(amps, spans)]
    # Blocks with the same games share one operator and one payoff diagonal:
    # only the first block can open with a B.
    payoffs = {tokens: _block_payoffs(last - first + 1)[:, None] for first, last, tokens in blocks}

    def evaluate(coins: np.ndarray) -> float:
        if reread:
            check_norm(statevector._norm_sq(amps))
        gates = {"A": coins[:1], "B": coins[1:]}
        # (U^H U, U^H Z U) of each distinct block.
        operators = {}
        for tokens, z in payoffs.items():
            ops = wiring._window_operator(tokens, gates)
            # The window's games act on its targets once per value of the
            # seed qubits it reads, the block's first qubits.
            u = np.einsum("ab,aij->aibj", np.eye(len(ops)), ops).reshape(len(ops) * len(ops[0]), -1)
            uh = u.conj().T
            operators[tokens] = (uh @ u, uh @ (z * u))
        if len(densities) == 1 and any(m.imag.any() for pair in operators.values() for m in pair):
            densities.append(statevector._reduced_densities(amps, spans, imag=True))
        total = 0.0
        for k, (_, _, tokens) in enumerate(blocks):
            # Tr(M rho) = sum of M[i, j] conj(rho[i, j]), for Hermitian M and rho.
            norm_sq, value = (
                sum(np.vdot(part[k], m) for part, m in zip(densities, (op.real, op.imag)))
                for op in operators[tokens]
            )
            check_norm(norm_sq)
            total += value
        return float(total)

    return evaluate


def per_qubit(total: float, num_qubits: int) -> float:
    """Payoff per qubit; the divisor is the total qubit count, seeds included."""
    if num_qubits < 1:
        raise ValueError(f"num_qubits must be positive, got {num_qubits}")
    return total / num_qubits


@dataclass(frozen=True)
class PayoffExpansion:
    """Payoff ~ c0 + c1 * eps; per_qubit records the normalization used."""

    c0: float
    c1: float
    per_qubit: bool = True


class Evaluator:
    """The payoff of one sequence on one initial state, at any bias and phases.

    ``plan`` is compiled and the route chosen once, and the route compiled
    into a function of the coins: NAMED_STATES take the transfer-matrix walk
    (``transfer._compile_walk``); a StateVector or amplitudes are validated
    once, here, and take the block route (``_compile_blocks``) if every
    independent block of the plan has at most _MAX_WINDOW qubits, else the
    window route (``_compile_window``).  Every route checks the final norm of
    every evaluation.  One Evaluator must not evaluate in two threads at once.

    ``phase_sensitive`` records, from the plan and the initial state alone,
    whether any phase can move the payoff: never on "zero", whose one branch
    has no cross pairs to interfere; on "ghz" by the plan rule
    ``wiring.ghz_phase_sensitive``; always on a StateVector or amplitudes,
    where no rule is proven.

    A C-contiguous complex128 array is not copied: every evaluation reads
    the caller's array, and none writes it.  Do not change it while the
    Evaluator is in use; pass a StateVector, always a snapshot, instead.  A
    change that breaks the normalization is still rejected by the norm check
    of the next evaluation; on the block route a change that keeps it goes
    unseen.  Any other array (real, non-contiguous or byte-swapped) is
    converted once into an array of the Evaluator's own.
    """

    def __init__(self, seq: str, init="ghz"):
        self.plan = plan = compile_sequence(seq)
        if isinstance(init, str) and init in NAMED_STATES:
            self._total = transfer._compile_walk(plan, init)
            self.phase_sensitive = init == "ghz" and ghz_phase_sensitive(plan)
        else:
            amps = initial_amplitudes(plan, init)
            blocks = wiring._blocks(plan)
            self.phase_sensitive = True
            if all(last - first < wiring._MAX_WINDOW for first, last, _ in blocks):
                # Only the caller's own array can change after its check: a
                # StateVector's is unchangeable, and a converted one is ours.
                self._total = _compile_blocks(blocks, amps, reread=amps is init)
            else:
                # One work buffer and one pair of tiles for every evaluation:
                # a fresh state-sized array would be faulted into memory page
                # by page on each of them.
                work = np.empty_like(amps)
                tiles = np.empty((2, min(statevector._TILE, amps.size)), dtype=complex)
                self._total = _compile_window(plan, amps, work, tiles)

    def payoff(
        self,
        eps: float = 0.0,
        phases: PhaseAssignment | None = None,
        normalize: bool = True,
    ) -> float:
        """The payoff at bias ``eps``, per qubit unless ``normalize`` is False."""
        return self.payoff_of_coins(games_from_bias(eps, phases), normalize)

    def payoff_of_coins(self, coins: np.ndarray, normalize: bool = True) -> float:
        """The payoff with the five coins ``coins``, which must be SU(2), as
        the coins of ``games_from_bias`` are by construction: they are not
        checked, and the final norm check is the only one."""
        total = self._total(coins)
        return per_qubit(total, self.plan.total_qubits) if normalize else total

    def expansion(
        self,
        phases: PhaseAssignment | None = None,
        normalize: bool = True,
    ) -> PayoffExpansion:
        """(c0, c1) of the payoff around eps = 0."""
        c0, c1 = bias_expansion(lambda eps: self.payoff(eps, phases, normalize))
        return PayoffExpansion(c0=c0, c1=c1, per_qubit=normalize)


def sequence_payoff(
    seq: str,
    eps: float = 0.0,
    phases: PhaseAssignment | None = None,
    init="ghz",
    normalize: bool = True,
) -> float:
    """Evaluate one sequence at one bias and return its payoff."""
    return Evaluator(seq, init).payoff(eps, phases, normalize)


def payoff_epsilon_expansion(
    seq: str,
    init="ghz",
    phases: PhaseAssignment | None = None,
    normalize: bool = True,
) -> PayoffExpansion:
    """(c0, c1) of the payoff around eps = 0 by central difference."""
    return Evaluator(seq, init).expansion(phases, normalize)
