"""Helpers shared by the test modules: seeded random inputs, a memory probe,
and a reference engine that shares no code with ``qparrondo``'s kernels.

Every random helper draws from the ``numpy.random.Generator`` it is given,
in a fixed order, so a seeded test sees the same inputs wherever it runs.
"""
import math
import tracemalloc

import numpy as np

from qparrondo.coins import PhaseAssignment, su2_matrix
from qparrondo.statevector import StateVector


def random_state(n, rng):
    """A StateVector of ``n`` qubits with Gaussian complex amplitudes."""
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


def random_unitary(rng):
    """An SU(2) coin with random angle and phases."""
    return su2_matrix(
        theta=rng.uniform(-math.pi, math.pi),
        gamma=rng.uniform(0, 2 * math.pi),
        delta=rng.uniform(0, 2 * math.pi),
    )


def random_coins(rng):
    """Five random SU(2) coins, as a (5, 2, 2) array: game A's, then game B's
    four, whose middle branches differ."""
    return np.array([random_unitary(rng) for _ in range(5)])


def random_phases(rng):
    """A PhaseAssignment with every phase drawn from [0, 2 pi)."""
    return PhaseAssignment(
        gamma=rng.uniform(0, 2 * math.pi),
        delta=rng.uniform(0, 2 * math.pi),
        alphas=tuple(rng.uniform(0, 2 * math.pi, 4)),
        betas=tuple(rng.uniform(0, 2 * math.pi, 4)),
    )


def traced_peak(f) -> int:
    """Peak bytes traced while ``f()`` runs, its result included."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# --- the reference engine: one einsum per game, no qparrondo kernel ---

def ref_game(amps, target, mats):
    """One game on the amplitudes ``amps`` (qubit 1 most significant), as a
    new array: one matrix is game A, acting on qubit ``target``; four are
    game B, ``mats[c]`` acting where the two qubits before the target read c,
    older first."""
    w = 0 if len(mats) == 1 else 2
    x = np.asarray(amps).reshape(1 << (target - 1 - w), len(mats), 2, -1)
    return np.einsum("cij,acjb->acib", np.asarray(mats), x).reshape(-1)


def ref_play(plan, coins, amps):
    """Every game of ``plan`` on ``amps``, one ref_game each, with the five
    coins of ``coins.games_from_bias``: game A tosses coin 0, game B one of
    coins 1-4."""
    gates = {"A": coins[:1], "B": coins[1:]}
    for target, token in enumerate(plan.tokens, start=plan.seed_count + 1):
        amps = ref_game(amps, target, gates[token])
    return amps


def ref_total(amps) -> float:
    """The total payoff of the amplitudes ``amps``: the sum over the qubits
    of P(qubit reads 1) - P(qubit reads 0)."""
    p = np.abs(amps) ** 2
    n = p.size.bit_length() - 1
    return float(sum(p.reshape(1 << q, 2, -1).sum(axis=(0, 2)) @ [-1.0, 1.0] for q in range(n)))
