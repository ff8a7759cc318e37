"""Exact classical analysis of the biased-coin games.

One model serves every analysis: a Markov chain, ``HistoryChain``, over the
last two results, built by one private builder from the four per-history win
probabilities of a game.  A finite sequence walks the chains of games A and B
from a starting distribution over the seed results; stationary play solves
the chain of one policy (pure A, pure B or a randomized A/B mixture); the
bias thresholds are where a winning game turns losing.

Probabilities (lose side, at bias eps): game A loses with 1/2 + eps; game B
picks a branch from the previous two results and loses with 1/10 + eps after
(lost,lost), 3/4 + eps after (lost,won) or (won,lost), and 3/10 + eps after
(won,won).

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

from .coins import GAME_A_LOSE, GAME_B_LOSE, EpsilonBias, _coerce_eps, bias_expansion
from .statevector import STRUCTURAL_TOL
from .wiring import CircuitPlan, compile_sequence


@dataclass(frozen=True)
class ClassicalGameSpec:
    """Win probabilities: one for game A, four for game B by history."""

    a_win: float
    b_win: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        probs = (self.a_win, *self.b_win)
        if len(self.b_win) != 4:
            raise ValueError("b_win must have exactly four history branches")
        if not all(0.0 < p < 1.0 for p in probs):
            raise ValueError(f"all win probabilities must lie in (0, 1), got {probs}")
        object.__setattr__(self, "b_win", tuple(float(p) for p in self.b_win))
        object.__setattr__(self, "a_win", float(self.a_win))

    @classmethod
    def from_bias(cls, e: "EpsilonBias | float") -> "ClassicalGameSpec":
        eps = _coerce_eps(e)
        return cls(
            a_win=1.0 - (GAME_A_LOSE + eps),
            b_win=tuple(1.0 - (p + eps) for p in GAME_B_LOSE),
        )

    @classmethod
    def single_branch(cls, e: "EpsilonBias | float", branch: int) -> "ClassicalGameSpec":
        """Variant where every B history is forced to one branch (0-based)."""
        eps = _coerce_eps(e)
        w = 1.0 - (GAME_B_LOSE[branch] + eps)
        return cls(a_win=1.0 - (GAME_A_LOSE + eps), b_win=(w, w, w, w))


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
        if not np.all(np.abs(t.sum(axis=1) - 1.0) <= STRUCTURAL_TOL):
            raise ValueError("transition rows must each sum to 1")
        if np.any(t < -STRUCTURAL_TOL) or np.any(np.abs(r) > 1.0 + STRUCTURAL_TOL):
            raise ValueError("transition entries must be probabilities and rewards in [-1, 1]")
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "reward", r)


def _game_wins(spec: ClassicalGameSpec) -> dict[str, np.ndarray]:
    """Each game's win probability from each history, as a ``HistoryChain`` indexes them."""
    return {"A": np.full(4, spec.a_win), "B": np.array(spec.b_win)}


def _chain(win: np.ndarray) -> HistoryChain:
    """Chain of a game that wins with ``win[i]`` from history i: (a, b) moves to (b, result)."""
    rows = np.arange(4)
    newer = (rows & 1) << 1
    t = np.zeros((4, 4))
    t[rows, newer | 1] = win
    t[rows, newer] = 1.0 - win
    return HistoryChain(t, 2.0 * win - 1.0)


def build_history_chain(policy: str, e: "EpsilonBias | float", q: float = 0.5) -> HistoryChain:
    """Chain of pure A, pure B, or the mixture playing A with probability q."""
    win = _game_wins(ClassicalGameSpec.from_bias(e))
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


def stationary_payoff(policy: str, e: "EpsilonBias | float", q: float = 0.5) -> float:
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
    e: "EpsilonBias | float" = 0.0,
    seeds="uniform",
    spec: ClassicalGameSpec | None = None,
) -> tuple[float, CircuitPlan]:
    """Expected total payoff (seed qubits included) of a sequence and its compiled plan."""
    plan = compile_sequence(seq)
    if spec is None:
        spec = ClassicalGameSpec.from_bias(e)
    chains = {token: _chain(win) for token, win in _game_wins(spec).items()}
    total, dist = _seed_start(plan.seed_count, seeds)
    for token in plan.tokens:
        chain = chains[token]
        total += dist @ chain.reward
        dist = dist @ chain.transition
    return float(total), plan


def classical_sequence_payoff(
    seq: str,
    e: "EpsilonBias | float" = 0.0,
    seeds="uniform",
    spec: ClassicalGameSpec | None = None,
) -> float:
    """Expected payoff per qubit (total divided by the full qubit count)."""
    total, plan = classical_sequence_total(seq, e, seeds, spec)
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


def monte_carlo_sequence_payoff(
    seq: str,
    e: "EpsilonBias | float" = 0.0,
    trials: int = 100_000,
    seed: int | None = None,
) -> tuple[float, float]:
    """Simulated per-qubit payoff with uniform seeds: (mean, standard error).

    Sanity harness for the exact enumeration, not a precision tool.
    """
    plan = compile_sequence(seq)
    spec = ClassicalGameSpec.from_bias(e)
    rng = np.random.default_rng(seed)
    chains = {token: _chain(win) for token, win in _game_wins(spec).items()}
    hist = rng.integers(0, 4, size=trials)
    payoff = _PREVIOUS_PAYOFF[2 - plan.seed_count :].sum(axis=0)[hist]
    for token in plan.tokens:
        # Inverse-CDF draw of the next history from row ``hist`` of the chain.
        cdf = np.cumsum(chains[token].transition, axis=1)[hist, :3]
        hist = (cdf < rng.random((trials, 1))).sum(axis=1)
        payoff = payoff + _PREVIOUS_PAYOFF[1, hist]

    samples = payoff / plan.total_qubits
    return float(samples.mean()), float(samples.std(ddof=1) / np.sqrt(trials))


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
