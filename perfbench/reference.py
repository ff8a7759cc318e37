"""Independent dense evaluator that the benchmark checks answers against.

It shares no code with ``qparrondo``: it builds the coins from their defining
formula, wires A/B strings by the last-two-outcomes rule, keeps the state as
a ``(2,) * n`` array and applies each gate through index views on that
array, and reads the payoff from per-qubit marginals instead of a popcount
table.  The bias slope c1 is the exact derivative, carried forward next to
the state (forward mode), not a finite difference.

Phases are dicts ``{"gamma", "delta", "alphas": [4], "betas": [4]}``.
"""
from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
A_LOSE = 0.5
B_LOSE = (0.1, 0.75, 0.75, 0.3)

ZERO_PHASES = {"gamma": 0.0, "delta": 0.0, "alphas": [0.0] * 4, "betas": [0.0] * 4}

# Exact values pinned by the acceptance suite.
AAB_MAX_PER_QUBIT = (3 / 5 + math.sqrt(3) + 2 * math.sqrt(0.21)) / 12
AAB_THRESHOLD = 1 / 112
MIX_THRESHOLD = 1 / 168
QUANTUM_GHZ_EXACT = {  # per-qubit (c0, c1) on the GHZ state
    "AAAA": (0.0, 0.0),
    "B": (1 / 15, 0.0),
    "BB": (13 / 400, 1 / 20),
    "AB": (1 / 30, 1 / 15),
    "AABAABAABAAB": (0.0, 2 / 15),
}
CLASSICAL_EXACT = {  # (c0, c1) with the published divisor
    "AAAA": (0.0, -2.0),
    "B": (1 / 60, -2 / 3),
    "BB": (1 / 75, -19 / 15),
    "AB": (1 / 60, -19 / 15),
    "AAB": (1 / 60, -28 / 15),
    "AABAABAABAAB": (1 / 60, -28 / 15),
}
# Extremal AAB phases on the GHZ state (delta = 0): betas aligned with the
# sign of each interference term for the maximum, opposed for the minimum.
AAB_EXTREMAL_BETAS = {"max": (0.0, math.pi, math.pi, 0.0), "min": (math.pi, 0.0, 0.0, math.pi)}


def wiring(seq: str) -> tuple[int, list[tuple[int, int | None, int | None]]]:
    """(qubits, steps) with 0-based (target, control_hi, control_lo) per game."""
    first_b = seq.find("B")
    seeds = 0 if first_b < 0 else max(0, 2 - first_b)
    outcomes = list(range(seeds))
    steps = []
    for k, tok in enumerate(seq):
        target = seeds + k
        if tok == "B":
            steps.append((target, outcomes[-2], outcomes[-1]))
        else:
            steps.append((target, None, None))
        outcomes.append(target)
    return seeds + len(seq), steps


def _coin(p_lose: float, gamma: float, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """SU(2) coin with lose probability p_lose and its derivative in p_lose."""
    theta = math.acos(math.sqrt(p_lose))
    dtheta = -1.0 / (2.0 * math.sqrt(p_lose * (1.0 - p_lose)))
    gamma, delta = gamma % TWO_PI, delta % TWO_PI
    ep = np.exp(-0.5j * (gamma + delta))
    em = np.exp(-0.5j * (gamma - delta))
    c, s = math.cos(theta), math.sin(theta)
    u = np.array([[ep * c, -em * s], [np.conj(em) * s, np.conj(ep) * c]])
    du = np.array([[-ep * s, -em * c], [np.conj(em) * c, -np.conj(ep) * s]]) * dtheta
    return u, du


def _index(n: int, fixed: dict[int, int]) -> tuple:
    # The trailing Ellipsis keeps a fully fixed index a writable 0-d view.
    return tuple(fixed.get(q, slice(None)) for q in range(n)) + (Ellipsis,)


def _apply(u, src, out, n, target, fixed, accumulate=False):
    """out[.., target=j, ..] (+)= sum_k u[j, k] src[.., target=k, ..] on the
    sub-block where the qubits in ``fixed`` hold the given values."""
    i0 = _index(n, {**fixed, target: 0})
    i1 = _index(n, {**fixed, target: 1})
    a, b = src[i0], src[i1]
    for j, o in enumerate((out[i0], out[i1])):
        if accumulate:
            o += u[j, 0] * a
        else:
            np.multiply(a, u[j, 0], out=o)
        o += u[j, 1] * b


def evolve(seq: str, init, eps: float, phases: dict, derivative: bool = False):
    """Final state (and its eps-derivative if asked) as ``(2,) * n`` arrays."""
    n, steps = wiring(seq)
    psi = initial_state(n, init)
    dpsi = np.zeros_like(psi) if derivative else None
    a_coin = _coin(A_LOSE + eps, phases["gamma"], phases["delta"])
    b_coins = [
        _coin(p + eps, al, be) for p, al, be in zip(B_LOSE, phases["alphas"], phases["betas"])
    ]
    for target, hi, lo in steps:
        if hi is None:
            blocks = [({}, a_coin)]
        else:
            blocks = [({hi: k >> 1, lo: k & 1}, b_coins[k]) for k in range(4)]
        new = np.empty_like(psi)
        new_d = np.empty_like(psi) if derivative else None
        for fixed, (u, du) in blocks:
            _apply(u, psi, new, n, target, fixed)
            if derivative:
                _apply(u, dpsi, new_d, n, target, fixed)
                _apply(du, psi, new_d, n, target, fixed, accumulate=True)
        psi, dpsi = new, new_d
    return psi, dpsi


def initial_state(n: int, init) -> np.ndarray:
    """'zero', 'ghz', a basis label string of 0/1, or 2**n amplitudes."""
    if isinstance(init, str) and init in ("zero", "ghz"):
        amps = np.zeros(1 << n, dtype=complex)
        amps[0] = 1.0
        if init == "ghz":
            amps[0] = amps[-1] = math.sqrt(0.5)
    elif isinstance(init, str):
        amps = np.zeros(1 << n, dtype=complex)
        amps[int(init, 2)] = 1.0
    else:
        amps = np.array(init, dtype=complex)
    return amps.reshape((2,) * n)


def _z_total(n: int, weights: np.ndarray) -> float:
    """sum over qubits of (weight on |1>) - (weight on |0>)."""
    return float(sum(
        weights[_index(n, {q: 1})].sum() - weights[_index(n, {q: 0})].sum() for q in range(n)
    ))


def payoff(seq: str, init, eps: float, phases: dict = ZERO_PHASES) -> float:
    """Total expected payoff of the sequence at bias eps."""
    psi, _ = evolve(seq, init, eps, phases)
    return _z_total(psi.ndim, np.abs(psi) ** 2)


def expansion(seq: str, init, phases: dict = ZERO_PHASES) -> tuple[float, float]:
    """Total payoff (c0, c1) at eps = 0, with c1 the exact derivative."""
    psi, dpsi = evolve(seq, init, 0.0, phases, derivative=True)
    n = psi.ndim
    return _z_total(n, np.abs(psi) ** 2), _z_total(n, 2.0 * (psi.conj() * dpsi).real)


def classical_expansion(seq: str) -> tuple[float, float]:
    """Total classical (c0, c1), seeds averaged uniformly.

    A basis input has a definite history, so each game acts as its
    classical coin: the quantum payoff of |seeds, 0...0> is the classical
    payoff for those seeds.
    """
    n, _ = wiring(seq)
    seeds = n - len(seq)
    histories = [format(s, f"0{seeds}b") if seeds else "" for s in range(1 << seeds)]
    pairs = [expansion(seq, h + "0" * len(seq)) for h in histories]
    return sum(p[0] for p in pairs) / len(pairs), sum(p[1] for p in pairs) / len(pairs)


def aab_extremal_phases(direction: str) -> dict:
    return {**ZERO_PHASES, "betas": list(AAB_EXTREMAL_BETAS[direction])}


def selfcheck(tol: float = 1e-12) -> list[str]:
    """Compare this evaluator with the acceptance suite's exact values."""
    problems = []

    def near(what, got, want):
        if abs(got - want) > tol:
            problems.append(f"reference {what}: {got!r} != {want!r}")

    for seq, (c0, c1) in QUANTUM_GHZ_EXACT.items():
        n, _ = wiring(seq)
        got0, got1 = expansion(seq, "ghz")
        near(f"quantum {seq} c0", got0 / n, c0)
        near(f"quantum {seq} c1", got1 / n, c1)
    for seq, (c0, c1) in CLASSICAL_EXACT.items():
        n, _ = wiring(seq)
        divisor = 3 if seq == "BB" else n
        got0, got1 = classical_expansion(seq)
        near(f"classical {seq} c0", got0 / divisor, c0)
        near(f"classical {seq} c1", got1 / divisor, c1)
    for direction, sign in (("max", 1.0), ("min", -1.0)):
        got0, _ = expansion("AAB", "ghz", aab_extremal_phases(direction))
        near(f"AAB {direction}", got0 / 3, sign * AAB_MAX_PER_QUBIT)
    c0, c1 = classical_expansion("AAB")
    near("AAB threshold", -c0 / c1, AAB_THRESHOLD)
    return problems
