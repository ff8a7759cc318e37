"""SU(2) coins and the five coins that make up games A and B.

One coin is a general SU(2) rotation

    A(theta, gamma, delta) =
        [ exp(-i(gamma+delta)/2) cos(theta)   -exp(-i(gamma-delta)/2) sin(theta) ]
        [ exp(+i(gamma-delta)/2) sin(theta)    exp(+i(gamma+delta)/2) cos(theta) ]

which is unitary with unit determinant for any finite angles; by convention
theta lies in [-pi, pi] and gamma, delta in [0, 2*pi).  With the project-wide
encoding |0> = lose, |1> = win, tossing the coin on a fresh |0> qubit stays
|0> (loses) with probability cos(theta)^2, so a classical lose probability p
maps to theta = arccos(sqrt(p)), chosen on [0, pi/2] so sin(theta) >= 0.

The two games are five such coins in one (5, 2, 2) array, the output of
``games_from_bias``.  Coin 0 is game A's.  Coins 1-4 are game B's, one per
two-game history: coin 1 + ((older << 1) | newer), with 0 = lost and 1 = won,
so (lost,lost), (lost,won), (won,lost), (won,won) in turn.  That is the index
the gate kernel and the classical ``HistoryChain`` read.  Built from checked,
finite angles, every coin is SU(2) by construction.

Both games are fixed by five lose probabilities in that order, ``BASE_LOSE``
= (1/2, 1/10, 3/4, 3/4, 3/10) raised by the bias eps.  ``lose_probs(eps)`` is
the one place that adds eps and checks its range; the coins, the classical
chains and the closed forms of ``analytic`` all read its array.

Caveat, stated loudly because it is easy to trip over: acting on a target
already in |1>, the coin *wins* (stays |1>) with probability cos(theta)^2 --
the column structure of the unitary, not a replay of the classical coin.
That behavior is inherent to this quantization and is exactly what produces
the entangled-initial-state results this package reproduces.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi

# Lose probabilities at zero bias, indexed like the five coins: game A, then
# game B's four branches in history order (lost,lost), (lost,won),
# (won,lost), (won,won).
BASE_LOSE = (0.5, 0.1, 0.75, 0.75, 0.3)

# Derived probabilities stay strictly inside (0,1) only for |eps| below this
# (the tightest branch has lose probability 0.1 + eps).
MAX_EPS = 0.1

BIAS_STEP = 1e-4


def bias_expansion(value: Callable[[float], float]) -> tuple[float, float]:
    """(c0, c1) with value(eps) ~ c0 + c1 * eps: value(0.0) and the central
    difference over +/- BIAS_STEP.  Payoffs are smooth in eps (through
    arccos(sqrt(p + eps))), so the truncation error is negligible."""
    c0 = value(0.0)
    c1 = (value(BIAS_STEP) - value(-BIAS_STEP)) / (2.0 * BIAS_STEP)
    return c0, c1


def lose_probs(eps: float) -> np.ndarray:
    """``BASE_LOSE + eps``; raises ValueError unless eps is finite with |eps| < MAX_EPS."""
    e = float(eps)
    if not math.isfinite(e) or abs(e) >= MAX_EPS:
        raise ValueError(f"bias eps={e!r} must satisfy |eps| < {MAX_EPS}")
    return np.array(BASE_LOSE) + e


def _check_finite_angle(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"angle {name}={value!r} must be finite")


@dataclass(frozen=True)
class PhaseAssignment:
    """Full phase assignment: game A's (gamma, delta) and per-branch (alpha, beta).

    Amplitude angles are not part of this; they come from the bias.  Angles
    may be given outside [0, 2*pi]; builders reduce them mod 2*pi.  Every
    angle must be finite.
    """

    gamma: float = 0.0
    delta: float = 0.0
    alphas: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    betas: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        for name in ("alphas", "betas"):
            v = tuple(float(x) for x in getattr(self, name))
            if len(v) != 4:
                raise ValueError(f"{name} must have exactly 4 entries, got {len(v)}")
            for k, x in enumerate(v):
                _check_finite_angle(f"{name}[{k}]", x)
            object.__setattr__(self, name, v)
        for name in ("gamma", "delta"):
            v = float(getattr(self, name))
            _check_finite_angle(name, v)
            object.__setattr__(self, name, v)


def reduce_angle(x: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    return float(np.mod(x, TWO_PI))


def su2_matrix(theta: float, gamma: float = 0.0, delta: float = 0.0) -> np.ndarray:
    """The 2x2 SU(2) matrix A(theta, gamma, delta); ValueError names a non-finite angle."""
    if not math.isfinite(theta + gamma + delta):
        for name, value in (("theta", theta), ("gamma", gamma), ("delta", delta)):
            _check_finite_angle(name, value)
    c = math.cos(theta)
    s = math.sin(theta)
    gp = (gamma + delta) / 2.0
    gm = (gamma - delta) / 2.0
    return np.array(
        [
            [np.exp(-1j * gp) * c, -np.exp(-1j * gm) * s],
            [np.exp(1j * gm) * s, np.exp(1j * gp) * c],
        ],
        dtype=complex,
    )


def lose_prob_to_theta(p_lose: float) -> float:
    """theta in [0, pi/2] with cos(theta)^2 = p_lose."""
    if not 0.0 <= p_lose <= 1.0:
        raise ValueError(f"lose probability {p_lose!r} outside [0, 1]")
    return math.acos(math.sqrt(p_lose))


def games_from_bias(eps: float, phases: PhaseAssignment | None = None) -> np.ndarray:
    """The five coins at bias ``eps`` as one (5, 2, 2) array.

    Coin k tosses with lose probability ``lose_probs(eps)[k]``.  Coin 0 is
    game A's, with phases (gamma, delta).  Coins 1-4 are game B's, indexed
    1 + ((older << 1) | newer) by the history they follow, with phases
    (alphas[k], betas[k]).  Phases default to zero and are reduced mod 2*pi.
    """
    # Python floats: numpy scalars would slow the per-coin math below.
    lose = lose_probs(eps).tolist()
    if phases is None:
        phases = PhaseAssignment()
    return np.array(
        [
            su2_matrix(lose_prob_to_theta(p), reduce_angle(g), reduce_angle(d))
            for p, g, d in zip(
                lose,
                (phases.gamma, *phases.alphas),
                (phases.delta, *phases.betas),
            )
        ]
    )
