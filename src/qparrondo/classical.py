"""Exact classical analysis of the biased-coin games.

Covers finite-sequence enumeration (expected payoff of a token string),
stationary analysis of repeated play as a Markov chain over the last-two
-results history, randomized A/B mixtures, and the bias thresholds where a
winning game turns losing.

Probabilities (lose side, at bias eps): game A loses with 1/2 + eps; game B
picks a branch from the previous two results and loses with 1/10 + eps after
(lost,lost), 3/4 + eps after (lost,won) or (won,lost), and 3/10 + eps after
(won,won).

Sequence payoffs follow the same conventions as the quantum engine: seed
results are enumerated (uniform by default), seed qubits contribute their
own +/-1 payoff, and "per qubit" divides by the total qubit count of the
compiled plan, seeds included.  That shared normalization is what makes the
classical oracle directly comparable to the quantum engine on basis-state
inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coins import GAME_A_LOSE, GAME_B_LOSE, EpsilonBias, _coerce_eps, bias_expansion
from .tolerances import STRUCTURAL_TOL
from .wiring import CircuitPlan, compile_sequence

HISTORY_STATES = ("LL", "LW", "WL", "WW")


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
    """Markov chain over the four last-two-results histories.

    ``transition[i, j]`` is the probability of moving from history i to j in
    one game; ``reward[i]`` is the expected +/-1 payoff of that game.
    """

    states: tuple[str, str, str, str]
    transition: np.ndarray
    reward: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.transition, dtype=float)
        r = np.asarray(self.reward, dtype=float)
        if t.shape != (4, 4) or r.shape != (4,):
            raise ValueError("HistoryChain needs a 4x4 transition matrix and 4 rewards")
        if not np.allclose(t.sum(axis=1), 1.0, atol=STRUCTURAL_TOL, rtol=0.0):
            raise ValueError("transition rows must each sum to 1")
        if np.any(t < -STRUCTURAL_TOL) or np.any(np.abs(r) > 1.0 + STRUCTURAL_TOL):
            raise ValueError("transition entries must be probabilities and rewards in [-1, 1]")
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "reward", r)


def _win_probs_for_policy(policy: str, eps: float, q: float) -> np.ndarray:
    """Per-history win probability for pure A, pure B, or a q/(1-q) A-B mix."""
    a = 1.0 - (GAME_A_LOSE + eps)
    b = np.array([1.0 - (p + eps) for p in GAME_B_LOSE])
    if policy == "A":
        return np.full(4, a)
    if policy == "B":
        return b
    if policy == "mix":
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"mixing weight q={q!r} outside [0, 1]")
        return q * a + (1.0 - q) * b
    raise ValueError(f"policy must be 'A', 'B' or 'mix', got {policy!r}")


def build_history_chain(policy: str, e: "EpsilonBias | float", q: float = 0.5) -> HistoryChain:
    """Chain induced by one policy: history (a,b) moves to (b, result)."""
    eps = _coerce_eps(e)
    win = _win_probs_for_policy(policy, eps, q)
    t = np.zeros((4, 4))
    for i in range(4):
        newer = i & 1
        t[i, (newer << 1) | 1] += win[i]
        t[i, (newer << 1) | 0] += 1.0 - win[i]
    return HistoryChain(HISTORY_STATES, t, 2.0 * win - 1.0)


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


def _seed_assignments(seed_count: int, seeds) -> list[tuple[float, tuple[int, ...]]]:
    """(weight, bits) pairs for the seed qubits, oldest first."""
    if isinstance(seeds, str):
        if seeds != "uniform":
            raise ValueError(f"seeds must be 'uniform' or a bit pair, got {seeds!r}")
        w = 1.0 / (1 << seed_count)
        return [
            (w, tuple((k >> (seed_count - 1 - i)) & 1 for i in range(seed_count)))
            for k in range(1 << seed_count)
        ]
    pair = tuple(int(b) for b in seeds)
    if len(pair) != 2 or any(b not in (0, 1) for b in pair):
        raise ValueError(f"fixed seeds must be a pair of bits, got {seeds!r}")
    # A plan with fewer than two seed qubits only materializes the newest
    # of the two virtual previous results.
    return [(1.0, pair[2 - seed_count :])] if seed_count else [(1.0, ())]


def _sequence_total_for_assignment(
    plan: CircuitPlan, spec: ClassicalGameSpec, seed_bits: tuple[int, ...]
) -> float:
    """Exact expected total payoff (seed qubits included) for fixed seeds."""
    total = float(sum(2 * b - 1 for b in seed_bits))

    # Joint distribution over the (older, newer) result pair.  Entries the
    # first B will never see are initialized arbitrarily to 0: a B can only
    # occur once two real outcomes precede it.
    dist = np.zeros(4)
    older = seed_bits[0] if len(seed_bits) == 2 else 0
    newer = seed_bits[-1] if seed_bits else 0
    dist[(older << 1) | newer] = 1.0

    a_win = spec.a_win
    b_win = np.asarray(spec.b_win)
    for step in plan.steps:
        win = np.full(4, a_win) if step.token == "A" else b_win
        total += float(dist @ (2.0 * win - 1.0))
        new_dist = np.zeros(4)
        for h in range(4):
            if dist[h] == 0.0:
                continue
            newer_bit = h & 1
            new_dist[(newer_bit << 1) | 1] += dist[h] * win[h]
            new_dist[(newer_bit << 1) | 0] += dist[h] * (1.0 - win[h])
        dist = new_dist
    return total


def classical_sequence_total(
    seq: str,
    e: "EpsilonBias | float" = 0.0,
    seeds="uniform",
    spec: ClassicalGameSpec | None = None,
) -> tuple[float, CircuitPlan]:
    """Expected total payoff of a sequence and its compiled plan."""
    plan = compile_sequence(seq)
    if spec is None:
        spec = ClassicalGameSpec.from_bias(e)
    total = 0.0
    for weight, bits in _seed_assignments(plan.seed_count, seeds):
        total += weight * _sequence_total_for_assignment(plan, spec, bits)
    return total, plan


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
    eps = _coerce_eps(e)
    plan = compile_sequence(seq)
    spec = ClassicalGameSpec.from_bias(eps)
    rng = np.random.default_rng(seed)

    older = rng.integers(0, 2, size=trials)
    newer = rng.integers(0, 2, size=trials)
    if plan.seed_count == 2:
        payoff = (2 * older - 1) + (2 * newer - 1)
    elif plan.seed_count == 1:
        payoff = (2 * newer - 1).astype(np.int64)
    else:
        payoff = np.zeros(trials, dtype=np.int64)

    b_win = np.asarray(spec.b_win)
    for step in plan.steps:
        win = np.full(trials, spec.a_win) if step.token == "A" else b_win[(older << 1) | newer]
        result = (rng.random(trials) < win).astype(np.int64)
        payoff = payoff + (2 * result - 1)
        older, newer = newer, result

    samples = payoff / plan.total_qubits
    return float(samples.mean()), float(samples.std(ddof=1) / np.sqrt(trials))


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
    tol: float = 1e-10,
) -> float | None:
    """Bias in [lo, hi] where the stationary per-game payoff of a policy
    'A', 'B' or 'mix' (weight ``q`` on A) crosses zero, by bisection to ``tol``.

    Returns None when the payoff has no sign change on the interval, and
    ``lo`` when the payoff there is zero within 1e-13.
    """

    def f(eps: float) -> float:
        return stationary_payoff(policy, eps, q)

    def bisect() -> float:
        a, b = lo, hi
        while b - a > tol:
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
