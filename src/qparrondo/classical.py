"""Exact classical analysis of the biased-coin games.

One model serves every analysis: a Markov chain, ``HistoryChain``, over the
last two results, built by one private builder from the four per-history win
probabilities of a game.  Both games' chains read the five-entry array of
lose probabilities that the quantum coins read, ``coins.lose_probs(eps)``.  A
finite sequence walks the chains of games A and B from a starting
distribution over the seed results; stationary play solves the chain of one
policy (pure A, pure B or a randomized A/B mixture); the bias thresholds are
where a winning game turns losing.

Probabilities (lose side, at bias eps, the order of ``coins.BASE_LOSE``): game
A loses with 1/2 + eps; game B picks a branch from the previous two results
and loses with 1/10 + eps after (lost,lost), 3/4 + eps after (lost,won) or
(won,lost), and 3/10 + eps after (won,won).  A game variant is an edited
array: ``lose[1:] = lose[1]`` plays B's (lost,lost) branch whatever the
history.

Sequence payoffs follow the same conventions as the quantum engine: seed
results are averaged (uniform by default), seed qubits contribute their
own +/-1 payoff, and "per qubit" divides by the total qubit count of the
compiled plan, seeds included.  That shared normalization is what makes the
classical oracle directly comparable to the quantum engine on basis-state
inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coins import bias_expansion, lose_probs
from .statevector import STRUCTURAL_TOL
from .wiring import CircuitPlan, compile_sequence


@dataclass(frozen=True)
class HistoryChain:
    """Markov chain over the four last-two-results histories (older, newer),
    indexed ``(older << 1) | newer`` with 0 = lost and 1 = won.

    ``transition[i, j]`` is the probability of moving from history i to j in
    one game; ``reward[i]`` is the expected +/-1 payoff of that game.
    """

    transition: np.ndarray
    reward: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.transition, dtype=float)
        r = np.asarray(self.reward, dtype=float)
        if t.shape != (4, 4) or r.shape != (4,):
            raise ValueError("HistoryChain needs a 4x4 transition matrix and 4 rewards")
        # Twenty scalars: Python floats check them faster than numpy
        # reductions would.  Each bound is written so that a NaN fails it.
        rows, rewards = t.tolist(), r.tolist()
        if not all(abs(sum(row) - 1.0) <= STRUCTURAL_TOL for row in rows):
            raise ValueError("transition rows must each sum to 1")
        if not (
            all(p >= -STRUCTURAL_TOL for row in rows for p in row)
            and all(abs(x) <= 1.0 + STRUCTURAL_TOL for x in rewards)
        ):
            raise ValueError("transition entries must be probabilities and rewards in [-1, 1]")
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "reward", r)


def _game_wins(lose: np.ndarray) -> dict[str, np.ndarray]:
    """Each game's win probability from each history, as a ``HistoryChain``
    indexes them, from five lose probabilities (the chain checks the entries)."""
    lose = np.asarray(lose, dtype=float)
    if lose.shape != (5,):
        raise ValueError(f"lose must hold five probabilities, got shape {lose.shape}")
    return {"A": np.full(4, 1.0 - lose[0]), "B": 1.0 - lose[1:]}


# History (a, b) moves to (b, won) or to (b, lost): the flat indices, in a
# 4x4 transition matrix, of the entries a game's win and lose probabilities fill.
_HISTORY = np.arange(4)
_WON_ENTRY = 4 * _HISTORY + ((_HISTORY & 1) << 1) + 1
_LOST_ENTRY = _WON_ENTRY - 1


def _chain(win: np.ndarray) -> HistoryChain:
    """Chain of a game that wins with ``win[i]`` from history i: (a, b) moves to (b, result)."""
    t = np.zeros(16)
    t[_WON_ENTRY] = win
    t[_LOST_ENTRY] = 1.0 - win
    return HistoryChain(t.reshape(4, 4), 2.0 * win - 1.0)


def build_history_chain(policy: str, e: float, q: float = 0.5) -> HistoryChain:
    """Chain of pure A, pure B, or the mixture playing A with probability q."""
    win = _game_wins(lose_probs(e))
    if policy == "mix":
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"mixing weight q={q!r} outside [0, 1]")
        return _chain(q * win["A"] + (1.0 - q) * win["B"])
    if policy not in win:
        raise ValueError(f"policy must be 'A', 'B' or 'mix', got {policy!r}")
    return _chain(win[policy])


def stationary_distribution(chain: HistoryChain) -> np.ndarray:
    """Stationary pi with pi T = pi, by direct linear solve."""
    a = chain.transition.T - np.eye(4)
    a[-1, :] = 1.0
    b = np.array([0.0, 0.0, 0.0, 1.0])
    pi = np.linalg.solve(a, b)
    if np.any(pi < -1e-10) or abs(pi.sum() - 1.0) > 1e-10:
        raise RuntimeError(f"stationary solve produced an invalid distribution: {pi}")
    return np.clip(pi, 0.0, None) / np.clip(pi, 0.0, None).sum()


def stationary_payoff(policy: str, e: float, q: float = 0.5) -> float:
    """Long-run expected payoff per game under the given policy."""
    chain = build_history_chain(policy, e, q)
    pi = stationary_distribution(chain)
    return float(pi @ chain.reward)


# The +/-1 payoff of the older and of the newer previous result, by history.
_PREVIOUS_PAYOFF = np.array([[-1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0]])


def _seed_start(seed_count: int, seeds) -> tuple[float, np.ndarray]:
    """Expected payoff of the seed qubits and the starting history distribution.

    The seeds are the two results before the sequence; a plan pays only for
    its last ``seed_count`` of them, and the first B reads no history that a
    game has not overwritten.
    """
    if isinstance(seeds, str):
        if seeds != "uniform":
            raise ValueError(f"seeds must be 'uniform' or a bit pair, got {seeds!r}")
        start = np.full(4, 0.25)
    else:
        pair = tuple(int(b) for b in seeds)
        if len(pair) != 2 or any(b not in (0, 1) for b in pair):
            raise ValueError(f"fixed seeds must be a pair of bits, got {seeds!r}")
        start = np.zeros(4)
        start[(pair[0] << 1) | pair[1]] = 1.0
    return float(_PREVIOUS_PAYOFF[2 - seed_count :].sum(axis=0) @ start), start


def classical_sequence_total(
    seq: str,
    e: float = 0.0,
    seeds="uniform",
    lose: np.ndarray | None = None,
) -> tuple[float, CircuitPlan]:
    """Expected total payoff (seed qubits included) of a sequence and its compiled plan,
    with five lose probabilities ``lose`` (default ``lose_probs(e)``; given, ``e`` is ignored)."""
    plan = compile_sequence(seq)
    if lose is None:
        lose = lose_probs(e)
    chains = {token: _chain(win) for token, win in _game_wins(lose).items()}
    total, dist = _seed_start(plan.seed_count, seeds)
    for token in plan.tokens:
        chain = chains[token]
        total += dist @ chain.reward
        dist = dist @ chain.transition
    return float(total), plan


def classical_sequence_payoff(
    seq: str,
    e: float = 0.0,
    seeds="uniform",
    lose: np.ndarray | None = None,
) -> float:
    """Expected payoff per qubit (total divided by the full qubit count)."""
    total, plan = classical_sequence_total(seq, e, seeds, lose)
    return total / plan.total_qubits


def classical_sequence_expansion(
    seq: str,
    seeds="uniform",
    divisor: int | None = None,
) -> tuple[float, float]:
    """(c0, c1) of the classical payoff around eps = 0.

    ``divisor`` overrides the per-qubit divisor (defaults to the plan's total
    qubit count); the reference-table layer uses this for rows published
    under a per-unit normalization.
    """

    def value(eps: float) -> float:
        total, plan = classical_sequence_total(seq, eps, seeds)
        return total / (divisor if divisor is not None else plan.total_qubits)

    return bias_expansion(value)


_BISECTION_TOL = 1e-10


def _threshold(f, lo: float, hi: float, solve) -> float | None:
    """``lo`` if f(lo) is 0 within 1e-13, None unless f(lo) > 0 >= f(hi), else solve()."""
    f_lo = f(lo)
    if abs(f_lo) < 1e-13:
        return lo
    if f_lo < 0.0 or f(hi) > 0.0:
        return None
    return solve()


def paradox_threshold(
    policy: str,
    q: float = 0.5,
    lo: float = 0.0,
    hi: float = 0.05,
) -> float | None:
    """Bias in [lo, hi] where the stationary per-game payoff of a policy
    'A', 'B' or 'mix' (weight ``q`` on A) crosses zero, by bisection to 1e-10.

    Returns None when the payoff has no sign change on the interval, and
    ``lo`` when the payoff there is zero within 1e-13.
    """

    def f(eps: float) -> float:
        return stationary_payoff(policy, eps, q)

    def bisect() -> float:
        a, b = lo, hi
        while b - a > _BISECTION_TOL:
            mid = 0.5 * (a + b)
            if f(mid) > 0.0:
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    return _threshold(f, lo, hi, bisect)


def sequence_threshold(seq: str, lo: float = 0.0, hi: float = 0.05) -> float | None:
    """Bias in [lo, hi] where the per-qubit payoff of any sequence, one token
    included, crosses zero (uniform seeds; None and ``lo`` as in ``paradox_threshold``).

    The threshold is the zero of the first-order payoff c0 + c1*eps, returned
    in closed form as -c0/c1: finite sequences are reported to first order in
    the bias throughout this package, and the published sequence thresholds
    are the zeros of that first-order form (the exact enumerated payoff of a
    finite sequence has higher-order bias terms that shift its root by a few
    1e-5).
    """
    c0, c1 = classical_sequence_expansion(seq)
    # f(lo) > 0 >= f(hi) with hi > lo, so the slope c1 is negative.
    return _threshold(lambda eps: c0 + c1 * eps, lo, hi, lambda: -c0 / c1)
