"""SU(2) coin operators and the four-branch history game built from them.

One coin is a general SU(2) rotation

    A(theta, gamma, delta) =
        [ exp(-i(gamma+delta)/2) cos(theta)   -exp(-i(gamma-delta)/2) sin(theta) ]
        [ exp(+i(gamma-delta)/2) sin(theta)    exp(+i(gamma+delta)/2) cos(theta) ]

with theta in [-pi, pi] and gamma, delta in [0, 2*pi].  With the project-wide
encoding |0> = lose, |1> = win, tossing the coin on a fresh |0> qubit stays
|0> (loses) with probability cos(theta)^2, so a classical lose probability p
maps to theta = arccos(sqrt(p)), chosen on [0, pi/2] so sin(theta) >= 0.

Game B is four such coins, one per two-game history branch, in the fixed
order (lost,lost), (lost,won), (won,lost), (won,won).

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

# Lose probabilities at zero bias: game A, then the four B branches in
# history order (lost,lost), (lost,won), (won,lost), (won,won).
GAME_A_LOSE = 0.5
GAME_B_LOSE = (0.1, 0.75, 0.75, 0.3)

HISTORY_ORDER = ("lost,lost", "lost,won", "won,lost", "won,won")

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


@dataclass(frozen=True)
class EpsilonBias:
    """Bias shifting every lose probability by +eps; |eps| must be < 1/10."""

    eps: float

    def __post_init__(self) -> None:
        e = float(self.eps)
        if not math.isfinite(e) or abs(e) >= MAX_EPS:
            raise ValueError(f"bias eps={self.eps!r} must satisfy |eps| < {MAX_EPS}")
        object.__setattr__(self, "eps", e)


def _coerce_eps(e: "EpsilonBias | float") -> float:
    if isinstance(e, EpsilonBias):
        return e.eps
    return EpsilonBias(float(e)).eps


@dataclass(frozen=True)
class CoinParams:
    """Angles (theta, gamma, delta) of one SU(2) coin."""

    theta: float
    gamma: float = 0.0
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not -math.pi <= self.theta <= math.pi:
            raise ValueError(f"theta={self.theta!r} outside [-pi, pi]")
        for name in ("gamma", "delta"):
            v = getattr(self, name)
            if not 0.0 <= v <= TWO_PI:
                raise ValueError(f"{name}={v!r} outside [0, 2*pi]")


@dataclass(frozen=True)
class GameBSpec:
    """Four coins for game B, indexed by history per HISTORY_ORDER."""

    branches: tuple[CoinParams, CoinParams, CoinParams, CoinParams]

    def __post_init__(self) -> None:
        if len(self.branches) != 4 or not all(isinstance(b, CoinParams) for b in self.branches):
            raise ValueError("GameBSpec needs exactly four CoinParams branches")
        object.__setattr__(self, "branches", tuple(self.branches))


def _check_finite_angle(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"phase angle {name}={value!r} must be finite")


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


def su2_matrix(p: CoinParams) -> np.ndarray:
    """The 2x2 SU(2) matrix for the given coin angles."""
    c = math.cos(p.theta)
    s = math.sin(p.theta)
    gp = (p.gamma + p.delta) / 2.0
    gm = (p.gamma - p.delta) / 2.0
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


def game_a_from_bias(e: EpsilonBias | float, gamma: float = 0.0, delta: float = 0.0) -> CoinParams:
    """Game A coin: lose probability 1/2 + eps, phases passed through."""
    eps = _coerce_eps(e)
    return CoinParams(
        theta=lose_prob_to_theta(GAME_A_LOSE + eps),
        gamma=reduce_angle(gamma),
        delta=reduce_angle(delta),
    )


def game_b_from_bias(
    e: EpsilonBias | float,
    phases: "tuple[tuple[float, float], ...] | None" = None,
) -> GameBSpec:
    """Game B branch coins from lose probabilities (0.1, 0.75, 0.75, 0.3) + eps.

    ``phases`` is an optional sequence of four (alpha, beta) pairs in the
    history order of HISTORY_ORDER; defaults to all zeros.
    """
    eps = _coerce_eps(e)
    if phases is None:
        phases = ((0.0, 0.0),) * 4
    phases = tuple(phases)
    if len(phases) != 4:
        raise ValueError(f"expected 4 (alpha, beta) pairs, got {len(phases)}")
    branches = tuple(
        CoinParams(
            theta=lose_prob_to_theta(p + eps),
            gamma=reduce_angle(a),
            delta=reduce_angle(b),
        )
        for p, (a, b) in zip(GAME_B_LOSE, phases)
    )
    return GameBSpec(branches)


def games_from_bias(
    e: EpsilonBias | float,
    phases: PhaseAssignment | None = None,
) -> tuple[CoinParams, GameBSpec]:
    """Both game operators for one bias and one phase assignment."""
    if phases is None:
        phases = PhaseAssignment()
    a = game_a_from_bias(e, phases.gamma, phases.delta)
    b = game_b_from_bias(e, tuple(zip(phases.alphas, phases.betas)))
    return a, b
