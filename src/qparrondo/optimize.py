"""Coordinate search over phase parameters at fixed amplitude angles.

The per-qubit payoff of any sequence is, in each single phase with the
others held fixed, a low-order trigonometric polynomial, so a cyclic
coordinate search with a uniform periodic grid is near-exact and
derivative-free.  A three-point quadratic fit around the best grid point
closes the remaining gap from grid resolution (about 2e-3) to ~1e-6.

The search is deterministic: it starts from the all-zero assignment, scans
each coordinate over the same grid in order, and breaks ties toward the
smaller angle by accepting strict improvements only.

Only five of the ten phases are searched: game A's delta and the four B
betas.  Every coin is Rz(gamma) R(theta) Rz(delta) (see ``coins.su2_matrix``),
so game A's gamma and each B branch's alpha are a diagonal phase applied
after the coin on its own target.  Every later gate reads that qubit only as
a control, and the payoff is measured in the computational basis, so those
five phases change no payoff on any initial state.  They are reported as 0.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coins import PhaseAssignment
from .payoff import Evaluator

COORD_NAMES = ("delta", "beta1", "beta2", "beta3", "beta4")

# Grid angles scanned per coordinate; a sweep gaining less than the tolerance ends the search.
GRID_POINTS = 64
CONVERGENCE_TOL = 1e-9


@dataclass
class OptimizationResult:
    best_value: float
    best_phases: PhaseAssignment
    direction: str
    converged: bool
    evaluations: int
    trace: list[float] = field(default_factory=list)


def _assignment_from_vector(x: np.ndarray) -> PhaseAssignment:
    return PhaseAssignment(delta=float(x[0]), betas=tuple(float(v) for v in x[1:5]))


def optimize_phases(
    seq: str,
    init="ghz",
    eps: float = 0.0,
    direction: str = "max",
    max_sweeps: int = 40,
) -> OptimizationResult:
    """Maximize or minimize the per-qubit payoff over the five phases that
    can change it; gamma and the alphas are reported as 0."""
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps!r}")
    sign = 1.0 if direction == "max" else -1.0
    evaluator = Evaluator(seq, init)

    evaluations = 0

    def objective(x: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        return evaluator.payoff(eps, _assignment_from_vector(x))

    x = np.zeros(len(COORD_NAMES))
    grid = np.linspace(0.0, 2.0 * np.pi, GRID_POINTS, endpoint=False)
    step = grid[1] - grid[0]

    best = objective(x)
    trace = [best]
    converged = False
    for _ in range(max_sweeps):
        sweep_start = best
        for i in range(len(x)):
            x_before = x[i]

            # Grid scan; strict improvement breaks ties toward smaller angles.
            values = np.empty(GRID_POINTS)
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
            f_m = values[(k_best - 1) % GRID_POINTS]
            f_0 = values[k_best]
            f_p = values[(k_best + 1) % GRID_POINTS]
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
        if sign * (best - sweep_start) < CONVERGENCE_TOL:
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
