"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to see the
lines as they go).  Tolerances are pinned here, not configurable."""

import math
import time

import numpy as np

from qparrondo.analytic import (
    aab_angles_from_bias,
    aab_extremal_phases,
    aab_ghz_phase_extreme,
    aab_payoff_ghz,
    aab_payoff_zero_state,
)
from qparrondo.classical import (
    classical_sequence_expansion,
    classical_sequence_payoff,
    classical_sequence_total,
    paradox_threshold,
    sequence_threshold,
    stationary_payoff,
)
from qparrondo.coins import PhaseAssignment, games_from_bias, lose_probs, su2_matrix
from qparrondo.optimize import optimize_phases
from qparrondo.payoff import (
    payoff_epsilon_expansion,
    payoff_expectation,
    sequence_payoff,
)
from qparrondo.statevector import make_basis_state
from qparrondo.table import build_table
from qparrondo.wiring import compile_sequence, run

TABLE_SEQUENCES = ("AAAA", "B", "BB", "BBB", "AB", "ABAB", "AAB", "AABAAB")

# exact per-qubit extreme of the AAB payoff over phases
MAX_PER_QUBIT = (3 / 5 + math.sqrt(3) + 2 * math.sqrt(0.21)) / 12


def _report(name, failures):
    status = "PASS" if not failures else "FAIL"
    detail = ("  --  " + "; ".join(failures)) if failures else ""
    print(f"[{status}] {name}{detail}")
    assert not failures, f"{name}: " + "; ".join(failures)


def _check(failures, ok, message):
    if not ok:
        failures.append(message)


def _random_phases(rng):
    return PhaseAssignment(
        gamma=rng.uniform(0, 2 * math.pi),
        delta=rng.uniform(0, 2 * math.pi),
        alphas=tuple(rng.uniform(0, 2 * math.pi, 4)),
        betas=tuple(rng.uniform(0, 2 * math.pi, 4)),
    )


def test_criterion_1_quantum_reference_column():
    failures = []
    exact_rows = {
        "AAAA": (0.0, 0.0),
        "B": (1 / 15, 0.0),
        "BB": (13 / 400, 1 / 20),
        "AB": (1 / 30, 1 / 15),
        "AABAAB": (0.0, 2 / 15),
        "AABAABAAB": (0.0, 2 / 15),
        "AABAABAABAAB": (0.0, 2 / 15),
    }
    for seq, (c0, c1) in exact_rows.items():
        e = payoff_epsilon_expansion(seq, init="ghz")
        _check(failures, abs(e.c0 - c0) < 1e-9, f"{seq}: c0 {e.c0} != {c0}")
        _check(failures, abs(e.c1 - c1) < 1e-6, f"{seq}: c1 {e.c1} != {c1}")
    for seq, (c0, c1) in {"BBB": (0.017, 0.03), "ABAB": (0.019, 0.08)}.items():
        e = payoff_epsilon_expansion(seq, init="ghz")
        _check(failures, abs(e.c0 - c0) < 5e-4, f"{seq}: c0 {e.c0} !~ {c0}")
        _check(failures, abs(e.c1 - c1) < 5e-2, f"{seq}: c1 {e.c1} !~ {c1}")
    _report("criterion 1: quantum reference column (GHZ)", failures)


def test_criterion_2_classical_reference_column():
    failures = []
    # (sequence, published divisor or None for total qubits, c0, c1, exact?)
    rows = (
        ("AAAA", None, 0.0, -2.0, True),
        ("B", None, 1 / 60, -2 / 3, True),
        ("BB", 3, 1 / 75, -19 / 15, True),
        ("AB", None, 1 / 60, -19 / 15, True),
        ("AAB", None, 1 / 60, -28 / 15, True),
        ("AABAABAABAAB", None, 1 / 60, -28 / 15, True),
        ("BBB", None, 0.008, -1.1, False),
        ("ABAB", 3, 0.032, -2.5, False),
    )
    for seq, divisor, c0, c1, exact in rows:
        got0, got1 = classical_sequence_expansion(seq, divisor=divisor)
        tol0, tol1 = (1e-9, 1e-6) if exact else (5e-4, 5e-2)
        _check(failures, abs(got0 - c0) < tol0, f"{seq}: c0 {got0} != {c0}")
        _check(failures, abs(got1 - c1) < tol1, f"{seq}: c1 {got1} != {c1}")
    _report("criterion 2: classical reference column", failures)


def test_criterion_3_aab_extremes():
    failures = []
    hi = optimize_phases("AAB", direction="max")
    lo = optimize_phases("AAB", direction="min")

    _check(failures, abs(hi.best_value - 0.2707138) < 1e-6, f"max {hi.best_value}")
    _check(failures, abs(lo.best_value + 0.2707138) < 1e-6, f"min {lo.best_value}")

    # closed form agrees with the optimizer
    theta, phis = aab_angles_from_bias(0.0)
    _check(
        failures,
        abs(aab_ghz_phase_extreme(theta, phis, "max") / 3 - hi.best_value) < 1e-6,
        "closed-form max disagrees with optimizer",
    )
    _check(
        failures,
        abs(aab_ghz_phase_extreme(theta, phis, "min") / 3 - lo.best_value) < 1e-6,
        "closed-form min disagrees with optimizer",
    )

    # bias slopes at the optimal phases
    h = 1e-4
    for result, target in ((hi, 0.24), (lo, 0.03)):
        up = sequence_payoff("AAB", eps=h, phases=result.best_phases)
        down = sequence_payoff("AAB", eps=-h, phases=result.best_phases)
        slope = (up - down) / (2 * h)
        _check(failures, abs(slope - target) < 5e-3, f"{result.direction} slope {slope}")

    # extremal phases match the aligned/opposed pattern up to 2*pi and the
    # delta degeneracy: only cos(2*delta + beta_i) is pinned
    for result, pattern in ((hi, (1, -1, -1, 1)), (lo, (-1, 1, 1, -1))):
        phases = result.best_phases
        for beta, want in zip(phases.betas, pattern):
            got = math.cos(2 * phases.delta + beta)
            _check(
                failures,
                abs(got - want) < 1e-3,
                f"{result.direction}: cos(2d+b) {got} != {want}",
            )
    # and the stated assignment itself is extremal for any delta
    for delta in (0.0, 0.9):
        value = aab_payoff_ghz(theta, phis, aab_extremal_phases("max", delta))
        _check(failures, abs(value / 3 - MAX_PER_QUBIT) < 1e-12, "stated max assignment off")
    _report("criterion 3: AAB phase extremes", failures)


def test_criterion_4_single_branch_interference():
    failures = []
    rng = np.random.default_rng(4)
    plan = compile_sequence("AAB")
    for eps in (0.0, 0.005):
        for _ in range(3):
            alpha1 = rng.uniform(0, 2 * math.pi)
            beta1 = rng.uniform(0, 2 * math.pi)
            coins = games_from_bias(
                eps,
                PhaseAssignment(
                    gamma=rng.uniform(0, 2 * math.pi),
                    delta=rng.uniform(0, 2 * math.pi),
                    alphas=(alpha1,) * 4,
                    betas=(beta1,) * 4,
                ),
            )
            # Game B tosses its (lost,lost) coin whatever the history.
            coins[1:] = coins[1]
            value = payoff_expectation(run(plan, coins, "ghz"))
            _check(failures, abs(value) < 1e-10, f"quantum single-branch payoff {value} at eps={eps}")
        # The classical game does the same to its lose probabilities.
        lose = lose_probs(eps)
        lose[1:] = lose[1]
        total, _ = classical_sequence_total("AAB", lose=lose)
        _check(failures, abs(total - (4 / 5 - 6 * eps)) < 1e-9, f"classical single-branch total {total}")
    # interference makes the full game beat its best branch played alone
    _check(failures, 3 * MAX_PER_QUBIT > 4 / 5, "quantum maximum does not exceed 4/5")
    _report("criterion 4: best-branch-only AAB destructive interference", failures)


def test_criterion_5_thresholds():
    failures = []
    t_seq = sequence_threshold("AAB")
    _check(failures, t_seq is not None and abs(t_seq - 1 / 112) < 1e-6, f"AAB threshold {t_seq}")
    t_mix = paradox_threshold("mix")
    _check(failures, t_mix is not None and abs(t_mix - 1 / 168) < 1e-6, f"mix threshold {t_mix}")
    for eps in np.linspace(0.0, 0.01, 11):
        _check(failures, stationary_payoff("A", eps) <= 1e-12, f"pure A positive at {eps}")
        _check(failures, stationary_payoff("B", eps) <= 1e-12, f"pure B positive at {eps}")
    _check(failures, abs(stationary_payoff("B", 0.0)) < 1e-12, "pure B not fair at eps=0")
    _report("criterion 5: paradox thresholds", failures)


def test_criterion_6_quantum_classical_equivalence():
    failures = []
    rng = np.random.default_rng(6)
    for seq in TABLE_SEQUENCES:
        for eps in (0.0, 0.005):
            quantum = sequence_payoff(seq, eps=eps, init="zero")
            classical = classical_sequence_payoff(seq, eps, seeds=(0, 0))
            _check(
                failures,
                abs(quantum - classical) < 1e-9,
                f"{seq} eps={eps}: quantum {quantum} vs classical {classical}",
            )
        base = sequence_payoff(seq, eps=0.002, init="zero")
        for _ in range(20):
            value = sequence_payoff(seq, eps=0.002, init="zero", phases=_random_phases(rng))
            _check(failures, abs(value - base) < 1e-9, f"{seq}: phase-dependent on zero init")
    _report("criterion 6: quantum-classical equivalence on the all-zero state", failures)


def test_criterion_7_structural_invariants():
    failures = []
    rng = np.random.default_rng(7)

    # closed forms match the simulator on random parameter draws
    plan = compile_sequence("AAB")
    for _ in range(100):
        theta = rng.uniform(-math.pi, math.pi)
        phis = tuple(rng.uniform(-math.pi, math.pi, 4))
        phases = _random_phases(rng)
        coins = np.array(
            [su2_matrix(theta, phases.gamma, phases.delta)]
            + [su2_matrix(*angles) for angles in zip(phis, phases.alphas, phases.betas)]
        )
        sim_zero = payoff_expectation(run(plan, coins, "zero"))
        sim_ghz = payoff_expectation(run(plan, coins, "ghz"))
        _check(
            failures,
            abs(sim_zero - aab_payoff_zero_state(theta, phis)) < 1e-10,
            "zero-state closed form mismatch",
        )
        _check(
            failures,
            abs(sim_ghz - aab_payoff_ghz(theta, phis, phases)) < 1e-10,
            "GHZ closed form mismatch",
        )

    # support preservation (exact zeros outside the allowed labels)
    for seq, keep in (("BBB", 2), ("ABAB", 1)):
        plan = compile_sequence(seq)
        coins = games_from_bias(0.003, _random_phases(rng))
        for _ in range(4):
            label = "".join(rng.choice(["0", "1"], size=plan.total_qubits))
            out = run(plan, coins, make_basis_state(plan.total_qubits, label))
            for idx in np.nonzero(out.amplitudes)[0]:
                bits = format(idx, f"0{plan.total_qubits}b")
                _check(failures, bits[:keep] == label[:keep], f"{seq}: leading qubits disturbed")

    # block factorization of repeated AAB on the all-zero state
    coins = games_from_bias(0.0)
    plan3 = compile_sequence("AAB")
    block = run(plan3, coins, "zero").amplitudes
    for reps in (2, 3, 4):
        plan_n = compile_sequence("AAB" * reps)
        full = run(plan_n, coins, "zero").amplitudes
        tensor = block
        for _ in range(reps - 1):
            tensor = np.kron(tensor, block)
        _check(failures, np.allclose(full, tensor, atol=1e-12), f"AAB^{reps} not factorized")

    # unitarity and norm preservation
    eye = np.eye(2)
    for _ in range(1000):
        m = su2_matrix(
            rng.uniform(-math.pi, math.pi),
            rng.uniform(0, 2 * math.pi),
            rng.uniform(0, 2 * math.pi),
        )
        _check(failures, np.allclose(m.conj().T @ m, eye, atol=1e-12), "non-unitary coin")
    coins = games_from_bias(0.01, _random_phases(rng))
    out = run(compile_sequence("ABBAB"), coins, "ghz")
    _check(
        failures,
        abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-12,
        "norm drift in mixed sequence",
    )
    _report("criterion 7: structural invariants", failures)


def test_criterion_8_performance():
    failures = []
    start = time.perf_counter()
    plan = compile_sequence("B" * 18)  # 2 seeds + 18 games = 20 qubits
    coins = games_from_bias(0.0)
    state = run(plan, coins, "ghz")
    payoff_expectation(state)
    elapsed = time.perf_counter() - start
    _check(failures, plan.total_qubits == 20, "plan is not 20 qubits")
    _check(failures, elapsed < 60.0, f"20-qubit simulation took {elapsed:.1f}s")

    start = time.perf_counter()
    build_table(repetitions=4)
    table_elapsed = time.perf_counter() - start
    _check(failures, table_elapsed < 10.0, f"table reproduction took {table_elapsed:.1f}s")
    print(
        f"    timings: 20-qubit sequence {elapsed:.2f}s, full table {table_elapsed:.2f}s"
    )
    _report("criterion 8: performance", failures)
