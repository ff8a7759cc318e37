"""Linear-time payoff of a sequence on the all-zero or the GHZ initial state.

By the wiring rule of ``wiring``, every game writes a fresh qubit and a B
game reads only the two qubits just before its target.  On a basis input x
the amplitude of an outcome y is therefore a product of one factor per qubit,
<y_q| U_q(y_{q-2}, y_{q-1}) |x_q>: a matrix product state whose bond is the
last two outcome bits.  A seed qubit's factor is <y_q|x_q>, game A's does not
depend on the controls, and game B's picks its coin by them: the factors are
read off the five-coin array of ``coins.games_from_bias``.  The GHZ state is
the sum of the two branches x = 0...0 and x = 1...1, each weighted
1/sqrt(2); the all-zero state is the first branch alone.  The weights are
those of ``statevector.NAMED_STATES``, the dense states' table.

The payoff is a sum of one +/-1 term per qubit, so its expectation contracts
that chain qubit by qubit.  For each ordered pair of input branches (b, b')
the walk carries two 2x2 arrays over (y_{q-1}, y_q): W, the sum over the
earlier outcome bits of conj(amp_b) * amp_b', and S, the same sum weighted by
the payoff of those outcomes.  A sequence of any length costs O(len(seq))
time and O(1) memory.

The walk is compiled once per plan and state (``_compile_walk``): the
branch weights, the seed pair table, the gate order and the start are fixed
there, and an evaluation builds only the pair tables of games A and B from
its coins before it runs the chain.  ``payoff.Evaluator``, its one caller,
compiles once and evaluates at every bias and phase it is asked for.  The
compiled walk trusts its coins and checks the carried norm at the end.
"""
from __future__ import annotations

import numpy as np

from .statevector import NAMED_STATES, STRUCTURAL_TOL
from .wiring import CircuitPlan

# Payoff of an outcome bit: -1 for a loss (0), +1 for a win (1).
_PAYOFF = np.array([-1.0, 1.0])

# A seed qubit is never played: its factor <y_q|x> is the identity.
_SEED = np.eye(2)[:, None, None, :]


def _compile_walk(plan: CircuitPlan, kind: str):
    """The walk of ``plan`` on the state named ``kind``, compiled: a function
    of a checked (5, 2, 2) complex coin array that returns the total payoff.

    What the plan and the state fix is built here, once: the branch weights,
    the seed pair table, the gate order and the walk's start.  An evaluation
    builds only the A and B pair tables from its coins.  At the end it
    requires the carried norm to be 1 within STRUCTURAL_TOL, the bound a
    StateVector enforces, and raises ValueError otherwise."""
    # Input-branch amplitudes: branch b starts every qubit in |b>.
    amps = np.array(NAMED_STATES[kind])
    n_branches = len(amps)
    weights = np.outer(amps, amps).ravel()

    def pair_table(f: np.ndarray) -> np.ndarray:
        # f[x, i, j, k] = <k| U(i, j) |x> for controls (i, j) = (y_{q-2},
        # y_{q-1}), with length-1 axes where U ignores them.  Returns
        # g[p, i, j, k] = conj(f[b]) * f[b'] for pair p = (b, b').
        f = f[:n_branches]
        return (f.conj()[:, None] * f).reshape(n_branches**2, *f.shape[1:])

    seed = pair_table(_SEED)
    gates = ["seed"] * plan.seed_count + list(plan.tokens)
    # start[0] is W and start[1] is S, each indexed [pair, y_{q-1}, y_q];
    # before the first qubit the history is a placeholder (0, 0) that no gate
    # reads.  Every plan has a game, and the first einsum makes a new array,
    # so no evaluation writes ``start``.
    start = np.zeros((2, n_branches**2, 2, 2), dtype=complex)
    start[0, :, 0, 0] = 1.0

    def evaluate(coins: np.ndarray) -> float:
        tables = {
            "seed": seed,
            "A": pair_table(coins[0].T[:, None, None, :]),
            "B": pair_table(coins[1:].reshape(2, 2, 2, 2).transpose(3, 0, 1, 2)),
        }
        walk = start
        for gate in gates:
            walk = np.einsum("tpij,pijk->tpjk", walk, tables[gate])
            walk[1] += _PAYOFF * walk[0]
        norm, total = walk.sum(axis=(2, 3)) @ weights
        if not abs(norm - 1.0) <= STRUCTURAL_TOL:
            raise ValueError(f"transfer-matrix walk lost normalization: |psi|^2 = {norm!r}")
        return float(total.real)

    return evaluate
