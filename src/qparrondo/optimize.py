"""Coordinate search over phase parameters at fixed amplitude angles.

The per-qubit payoff of any sequence is, in each single phase with the
others held fixed, a low-order trigonometric polynomial, so a cyclic
coordinate search with a uniform periodic grid is near-exact and
derivative-free.  A three-point quadratic fit around the best grid point
closes the remaining gap from grid resolution (about 2e-3) to ~1e-6.

The search is deterministic: it starts from the all-zero assignment, scans
each coordinate over the same grid in order, and breaks ties toward the
smaller angle by accepting strict improvements only.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coins import PhaseAssignment, games_from_bias
from .payoff import payoff_expectation, per_qubit
from .wiring import compile_sequence, initial_state_for, run

COORD_NAMES = (
    "gamma",
    "delta",
    "alpha1",
    "alpha2",
    "alpha3",
    "alpha4",
    "beta1",
    "beta2",
    "beta3",
    "beta4",
)


@dataclass
class OptimizationResult:
    best_value: float
    best_phases: PhaseAssignment
    direction: str
    converged: bool
    evaluations: int
    trace: list[float] = field(default_factory=list)


def _assignment_from_vector(x: np.ndarray) -> PhaseAssignment:
    return PhaseAssignment(
        gamma=float(x[0]),
        delta=float(x[1]),
        alphas=tuple(float(v) for v in x[2:6]),
        betas=tuple(float(v) for v in x[6:10]),
    )


def optimize_phases(
    seq: str,
    init="ghz",
    eps: float = 0.0,
    direction: str = "max",
    max_sweeps: int = 40,
    grid_points: int = 64,
    tol: float = 1e-9,
) -> OptimizationResult:
    """Maximize or minimize the per-qubit payoff over all ten phase angles."""
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    sign = 1.0 if direction == "max" else -1.0
    plan = compile_sequence(seq)
    init_state = initial_state_for(plan, init)

    evaluations = 0

    def objective(x: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        a, b = games_from_bias(eps, _assignment_from_vector(x))
        return per_qubit(payoff_expectation(run(plan, a, b, init_state)), plan.total_qubits)

    x = np.zeros(len(COORD_NAMES))
    grid = np.linspace(0.0, 2.0 * np.pi, grid_points, endpoint=False)
    step = grid[1] - grid[0]

    best = objective(x)
    trace = [best]
    converged = False
    for _ in range(max_sweeps):
        sweep_start = best
        for i in range(len(x)):
            x_before = x[i]

            # Grid scan; strict improvement breaks ties toward smaller angles.
            values = np.empty(grid_points)
            for k, g in enumerate(grid):
                x[i] = g
                values[k] = objective(x)
            k_best = int(np.argmax(sign * values))
            if sign * values[k_best] > sign * best:
                best = float(values[k_best])
                x[i] = grid[k_best]
            else:
                x[i] = x_before

            # Quadratic refinement through the best grid point and neighbors.
            f_m = values[(k_best - 1) % grid_points]
            f_0 = values[k_best]
            f_p = values[(k_best + 1) % grid_points]
            denom = f_m - 2.0 * f_0 + f_p
            if abs(denom) > 1e-15:
                offset = 0.5 * step * (f_m - f_p) / denom
                if abs(offset) <= step:
                    x_current = x[i]
                    x[i] = float(np.mod(grid[k_best] + offset, 2.0 * np.pi))
                    if sign * (v := objective(x)) > sign * best:
                        best = v
                    else:
                        x[i] = x_current
        trace.append(best)
        if sign * (best - sweep_start) < tol:
            converged = True
            break

    # Purity: a fresh evaluation at the reported phases must reproduce the
    # reported value bit for bit.  An explicit check, so it survives -O.
    final_value = objective(x)
    if final_value != best:
        raise RuntimeError(
            f"re-evaluation at the reported phases gave {final_value!r}, not {best!r}"
        )
    return OptimizationResult(
        best_value=best,
        best_phases=_assignment_from_vector(x),
        direction=direction,
        converged=converged,
        evaluations=evaluations,
        trace=trace,
    )


def objective_span(
    seq: str,
    init="ghz",
    eps: float = 0.0,
    **kwargs,
) -> tuple[OptimizationResult, OptimizationResult, float]:
    """Run both directions; returns (max_result, min_result, span)."""
    hi = optimize_phases(seq, init, eps, "max", **kwargs)
    lo = optimize_phases(seq, init, eps, "min", **kwargs)
    return hi, lo, hi.best_value - lo.best_value
