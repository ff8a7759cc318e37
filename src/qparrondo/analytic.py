"""Closed-form payoffs for a single AAB round, used to cross-check the engine.

Both forms give the TOTAL payoff over the 3 qubits of one AAB round; divide
by 3 for the per-qubit figure.  ``theta`` is game A's amplitude angle and
``phis`` the four branch angles of game B in history order; at bias eps they
are the angles of the five lose probabilities ``coins.lose_probs(eps)``, the
same that build the quantum coins.

On the all-zero initial state the payoff is phase-independent:

    sin(theta)^4 (2 - cos 2phi4) - cos(theta)^4 (2 + cos 2phi1)
        - (1/4) sin(2theta)^2 (cos 2phi2 + cos 2phi3)

On the GHZ initial state interference brings in game A's delta and the
branch betas (alphas and gamma drop out):

    (1/2) cos 2theta (cos 2phi4 - cos 2phi1)
        + (1/4) sin(2theta)^2 [  cos(2delta + beta1) sin 2phi1
                               - cos(2delta + beta2) sin 2phi2
                               - cos(2delta + beta3) sin 2phi3
                               + cos(2delta + beta4) sin 2phi4 ]

The GHZ form is extremized over phases by aligning each cos(2delta + beta_i)
with the sign of its term, giving

    (1/2) cos 2theta (cos 2phi4 - cos 2phi1)
        +/- (1/4) sin(2theta)^2 sum_i |sin 2phi_i|
"""
from __future__ import annotations

import math

from .coins import PhaseAssignment, bias_expansion, lose_prob_to_theta, lose_probs

PI = math.pi


def aab_angles_from_bias(e: float) -> tuple[float, tuple[float, float, float, float]]:
    """(theta, four phis): ``lose_prob_to_theta`` of the five ``lose_probs(e)``."""
    theta, *phis = (lose_prob_to_theta(p) for p in lose_probs(e))
    return theta, tuple(phis)


def aab_payoff_zero_state(theta: float, phis: tuple[float, float, float, float]) -> float:
    """Total AAB payoff from |000>; equals the classical (loss, loss) value."""
    p1, p2, p3, p4 = phis
    s2 = math.sin(theta) ** 2
    c2 = math.cos(theta) ** 2
    sin_2t_sq = math.sin(2.0 * theta) ** 2
    return (
        s2 * s2 * (2.0 - math.cos(2.0 * p4))
        - c2 * c2 * (2.0 + math.cos(2.0 * p1))
        - 0.25 * sin_2t_sq * (math.cos(2.0 * p2) + math.cos(2.0 * p3))
    )


def aab_payoff_ghz(
    theta: float,
    phis: tuple[float, float, float, float],
    phases: PhaseAssignment | None = None,
) -> float:
    """Total AAB payoff from the 3-qubit GHZ state.

    Depends on phases only through delta and the betas; alphas and gamma are
    irrelevant and ignored.
    """
    if phases is None:
        phases = PhaseAssignment()
    p1, p2, p3, p4 = phis
    d2 = 2.0 * phases.delta
    b1, b2, b3, b4 = phases.betas
    interference = (
        math.cos(d2 + b1) * math.sin(2.0 * p1)
        - math.cos(d2 + b2) * math.sin(2.0 * p2)
        - math.cos(d2 + b3) * math.sin(2.0 * p3)
        + math.cos(d2 + b4) * math.sin(2.0 * p4)
    )
    return 0.5 * math.cos(2.0 * theta) * (math.cos(2.0 * p4) - math.cos(2.0 * p1)) + (
        0.25 * math.sin(2.0 * theta) ** 2 * interference
    )


def aab_ghz_phase_extreme(
    theta: float,
    phis: tuple[float, float, float, float],
    direction: str = "max",
) -> float:
    """Extremal value of the GHZ payoff over all phase choices."""
    sign = _direction_sign(direction)
    p1, p2, p3, p4 = phis
    envelope = sum(abs(math.sin(2.0 * p)) for p in (p1, p2, p3, p4))
    return 0.5 * math.cos(2.0 * theta) * (math.cos(2.0 * p4) - math.cos(2.0 * p1)) + (
        sign * 0.25 * math.sin(2.0 * theta) ** 2 * envelope
    )


def _direction_sign(direction: str) -> int:
    if direction == "max":
        return 1
    if direction == "min":
        return -1
    raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")


def aab_extremal_phases(direction: str, delta: float = 0.0) -> PhaseAssignment:
    """Phase assignment reaching the GHZ extreme for the standard angles.

    Maximum: beta2 = beta3 = pi - 2*delta, beta1 = beta4 = -2*delta.
    Minimum: the swapped assignment.  Alphas and gamma are irrelevant; zeros.
    Betas are reduced mod 2*pi.
    """
    sign = _direction_sign(direction)
    aligned = -2.0 * delta
    opposed = PI - 2.0 * delta
    if sign > 0:
        betas = (aligned, opposed, opposed, aligned)
    else:
        betas = (opposed, aligned, aligned, opposed)
    betas = tuple(float(b % (2.0 * PI)) for b in betas)
    return PhaseAssignment(gamma=0.0, delta=delta, alphas=(0.0,) * 4, betas=betas)


def aab_ghz_extremum_expansion(direction: str, delta: float = 0.0) -> tuple[float, float]:
    """(c0, c1) of the total extremal GHZ payoff around eps = 0.

    The extremal phase assignment is bias-independent, so the slope is the
    central difference of the closed form at fixed extremal phases.
    """
    phases = aab_extremal_phases(direction, delta)
    return bias_expansion(lambda eps: aab_payoff_ghz(*aab_angles_from_bias(eps), phases))
