"""Coordinate search over phase parameters at fixed amplitude angles.

The per-qubit payoff of any sequence is, in each single phase with the
others held fixed, a low-order trigonometric polynomial, so a cyclic
coordinate search with a uniform periodic grid is near-exact and
derivative-free.  A three-point quadratic fit around the best grid point
closes the remaining gap from grid resolution (about 2e-3) to ~1e-6.

The search is deterministic: it starts from the all-zero assignment, scans
each coordinate over the same grid in order, and breaks ties toward the
smaller angle by accepting strict improvements only.  One trial rule serves
every point it tries, a grid angle and a quadratic refinement alike: the
current coins, with the coin of the coordinate it moves swapped for the same
coin of ``games_from_bias`` with every searched phase at the trial angle.
Each coin reads only its own phases, so a trial holds the coins that
``games_from_bias`` builds at the trial phases.  The grid angles' coins are
built once per search.

Only five of the ten phases are searched: game A's delta and the four B
betas.  Every coin is Rz(gamma) R(theta) Rz(delta) (see ``coins.su2_matrix``),
so game A's gamma and each B branch's alpha are a diagonal phase applied
after the coin on its own target.  Every later gate reads that qubit only as
a control, and the payoff is measured in the computational basis, so those
five phases change no payoff on any initial state.  They are reported as 0.

The search runs only where a phase can move the payoff, as
``Evaluator.phase_sensitive`` decides once from the plan and the initial
state: never on the all-zero state, by ``wiring.ghz_phase_sensitive`` on
GHZ, always on a custom state.  Elsewhere the result is the one evaluation
at the zero phases, with ``phase_sensitive=False``: a proven fact about the
plan, not a guess from the values seen.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coins import PhaseAssignment, games_from_bias
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
    phase_sensitive: bool
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
    can change it; gamma and the alphas are reported as 0.  On a plan and
    initial state that no phase can move, return the one evaluation at the
    zero phases."""
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps!r}")
    sign = 1.0 if direction == "max" else -1.0
    evaluator = Evaluator(seq, init)

    evaluations = 0

    def objective(coins: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        return evaluator.payoff_of_coins(coins)

    def coins_with_phase(a: float) -> np.ndarray:
        return games_from_bias(eps, PhaseAssignment(delta=a, betas=(a,) * 4))

    x = np.zeros(len(COORD_NAMES))
    coins = coins_with_phase(0.0)
    best = objective(coins)
    trace = [best]
    converged = True
    if evaluator.phase_sensitive:
        grid = np.linspace(0.0, 2.0 * np.pi, GRID_POINTS, endpoint=False)
        step = grid[1] - grid[0]
        grid_coins = np.array([coins_with_phase(g) for g in grid])
        converged = False
        for _ in range(max_sweeps):
            sweep_start = best
            for i in range(len(x)):
                # Grid scan; strict improvement breaks ties toward smaller angles.
                trial = coins.copy()
                values = np.empty(GRID_POINTS)
                for k in range(GRID_POINTS):
                    trial[i] = grid_coins[k, i]
                    values[k] = objective(trial)
                k_best = int(np.argmax(sign * values))
                if sign * values[k_best] > sign * best:
                    best = float(values[k_best])
                    x[i] = grid[k_best]
                    coins[i] = grid_coins[k_best, i]

                # Quadratic refinement through the best grid point and neighbors.
                f_m = values[(k_best - 1) % GRID_POINTS]
                f_0 = values[k_best]
                f_p = values[(k_best + 1) % GRID_POINTS]
                denom = f_m - 2.0 * f_0 + f_p
                if abs(denom) > 1e-15:
                    offset = 0.5 * step * (f_m - f_p) / denom
                    if abs(offset) <= step:
                        a = float(np.mod(grid[k_best] + offset, 2.0 * np.pi))
                        trial[i] = coins_with_phase(a)[i]
                        if sign * (v := objective(trial)) > sign * best:
                            best = v
                            x[i] = a
                            coins[i] = trial[i]
            trace.append(best)
            if sign * (best - sweep_start) < CONVERGENCE_TOL:
                converged = True
                break

        # Purity: a fresh evaluation at the reported phases, its coins built
        # anew by games_from_bias, must reproduce the reported value bit for
        # bit.  An explicit check, so it survives -O.
        final_value = objective(games_from_bias(eps, _assignment_from_vector(x)))
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
        phase_sensitive=evaluator.phase_sensitive,
        trace=trace,
    )
