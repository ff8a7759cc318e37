"""The benchmark's three workloads: seeded inputs, task lists and answer checks.

The child process that is measured calls ``inputs`` and ``tasks``; the parent
calls ``inputs`` and ``checker``.  Both regenerate the same inputs from the
seed, so the program only ever sees the generated files and arrays, and the
expected answers come from ``reference`` (an evaluator that shares no code
with ``qparrondo``) or from the acceptance suite's exact values.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

import reference as ref

WORKLOADS = ("payoff-b19-ghz", "expansion-mixed22-custom", "small-sweep")

B19 = "B" * 19  # 21 qubits with its two seed qubits
B19_EPS = 0.01
MIXED22 = "AAB" * 7 + "A"  # 22 qubits, no seed qubits
SMALL_SWEEP = (
    ("optimize", "--sequence", "AAB", "--direction", "max"),
    ("optimize", "--sequence", "AAB", "--direction", "min"),
    ("optimize", "--sequence", "ABB", "--eps", "0.01"),
    ("table1", "--repetitions", "4"),
    ("classical", "--mode", "threshold", "--sequence", "AAB"),
    ("classical", "--mode", "threshold", "--policy", "mix"),
)
TABLE_ROWS = (  # label, sequence at 4 repetitions, published classical divisor
    ("AA...A", "AAAA", None),
    ("B", "B", None),
    ("BB", "BB", 3),
    ("BBB", "BBB", None),
    ("AB", "AB", None),
    ("ABAB", "ABAB", 3),
    ("AAB", "AAB", None),
    ("AAB...AAB", "AAB" * 4, None),
)
OPTIMIZER_PROBES = 64  # random phase points an optimum must not lose to

# Tolerances, per qubit: the acceptance suite's 1e-9 on values and 1e-6 on
# bias slopes (the engine takes c1 by finite difference, the reference
# exactly) and on optimizer optima.  REL_TOL covers the CLI's rounding of
# every float to 9 significant digits.
C0_TOL = 1e-9
C1_TOL = 1e-6
OPT_TOL = 1e-6
REL_TOL = 1e-8


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _random_phases(rng: np.random.Generator) -> dict:
    x = rng.uniform(0.0, 2.0 * math.pi, 10)
    return {"gamma": x[0], "delta": x[1], "alphas": list(x[2:6]), "betas": list(x[6:10])}


def inputs(workload: str, seed: int) -> dict:
    """The seeded inputs of one workload."""
    rng = _rng(workload, seed)
    if workload == "payoff-b19-ghz":
        return {"phases": _random_phases(rng)}
    if workload == "expansion-mixed22-custom":
        n = ref.wiring(MIXED22)[0]
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        return {"amps": amps / np.linalg.norm(amps)}
    return {
        "order": [int(i) for i in rng.permutation(len(SMALL_SWEEP))],
        "probes": [_random_phases(rng) for _ in range(OPTIMIZER_PROBES)],
    }


# --- the measured side ------------------------------------------------------


def _cli_call(args: list[str]):
    def call() -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            # Looked up at call time, so a traced run sees the wrapped binding.
            sys.modules["qparrondo.cli"].main(args, standalone_mode=False)
        return out.getvalue()

    return call


def tasks(workload: str, data: dict, workdir: Path) -> list[tuple[str, object]]:
    """(label, zero-argument callable returning the answer) per task."""
    if workload == "payoff-b19-ghz":
        p = data["phases"]
        path = workdir / "phases.json"
        path.write_text(json.dumps({
            "A": {"gamma": p["gamma"], "delta": p["delta"]},
            "B": [{"alpha": a, "beta": b} for a, b in zip(p["alphas"], p["betas"])],
        }))
        args = ["payoff", "--sequence", B19, "--init", "ghz", "--eps", str(B19_EPS),
                "--phases", str(path)]
        return [("payoff", _cli_call(args))]
    if workload == "expansion-mixed22-custom":
        def expansion():
            e = sys.modules["qparrondo.payoff"].payoff_epsilon_expansion(MIXED22, init=data["amps"])
            return [e.c0, e.c1]

        return [("expansion", expansion)]
    return [(" ".join(SMALL_SWEEP[i]), _cli_call(list(SMALL_SWEEP[i]))) for i in data["order"]]


# --- the checking side ------------------------------------------------------


def _close(got, want: float, atol: float) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= atol + REL_TOL * abs(want)


def _compare(got: dict, want: dict) -> list[str]:
    problems = []
    for key, value in want.items():
        if key not in got:
            problems.append(f"missing {key}")
        elif isinstance(value, float):
            if not _close(got[key], value, C1_TOL if key.endswith("c1") else C0_TOL):
                problems.append(f"{key} = {got[key]!r}, expected {value!r}")
        elif got[key] != value:
            problems.append(f"{key} = {got[key]!r}, expected {value!r}")
    return problems


def _table_rows() -> list[dict]:
    rows = []
    for label, seq, divisor in TABLE_ROWS:
        n = ref.wiring(seq)[0]
        cl = ref.CLASSICAL_EXACT.get(seq) or tuple(
            v / (divisor or n) for v in ref.classical_expansion(seq)
        )
        row = {"label": label, "sequence": seq, "qubits": n,
               "classical_c0": float(cl[0]), "classical_c1": float(cl[1])}
        quantum = {k: None for k in ("quantum_c0", "quantum_c1", "quantum_min_c0",
                                     "quantum_min_c1", "quantum_max_c0", "quantum_max_c1")}
        if label == "AAB":
            for direction, sign in (("min", -1.0), ("max", 1.0)):
                _, c1 = ref.expansion(seq, "ghz", ref.aab_extremal_phases(direction))
                quantum[f"quantum_{direction}_c0"] = sign * ref.AAB_MAX_PER_QUBIT
                quantum[f"quantum_{direction}_c1"] = c1 / n
        else:
            q = ref.QUANTUM_GHZ_EXACT.get(seq) or tuple(v / n for v in ref.expansion(seq, "ghz"))
            quantum.update(quantum_c0=float(q[0]), quantum_c1=float(q[1]))
        rows.append({**row, **quantum})
    return rows


def _optimize_check(args: tuple, probes: list[dict]):
    opts = dict(zip(args[1::2], args[2::2]))
    seq, eps = opts["--sequence"], float(opts.get("--eps", 0.0))
    direction = opts.get("--direction", "max")
    sign = 1.0 if direction == "max" else -1.0
    n = ref.wiring(seq)[0]
    if seq == "AAB" and eps == 0.0:
        bound = sign * ref.AAB_MAX_PER_QUBIT
    else:
        values = [ref.payoff(seq, "ghz", eps, p) / n for p in [ref.ZERO_PHASES, *probes]]
        bound = sign * max(sign * v for v in values)

    def check(out: dict) -> list[str]:
        best = out.get("best_value")
        if not isinstance(best, (int, float)):
            return [f"best_value = {best!r}"]
        problems = []
        realized = ref.payoff(seq, "ghz", eps, out["best_phases"]) / n
        if not _close(best, realized, C0_TOL):
            problems.append(f"best_value {best!r} but its phases give {realized!r}")
        if sign * (best - bound) < -OPT_TOL:  # one-sided: a better optimum passes
            problems.append(f"best_value {best!r} is worse than {bound!r}")
        return problems

    return check


def _compare_rows(got: list, rows: list[dict]) -> list[str]:
    if len(got) != len(rows):
        return [f"{len(got)} table rows, expected {len(rows)}"]
    return [p for g, want in zip(got, rows) for p in _compare(g, want)]


def checker(workload: str, data: dict):
    """A function (label, answer) -> list of problems, with the reference
    answers computed up front (outside any timed region).  CLI answers are
    the JSON text the command printed."""
    problems = ref.selfcheck()
    if workload == "payoff-b19-ghz":
        n = ref.wiring(B19)[0]
        total = ref.payoff(B19, "ghz", B19_EPS, data["phases"])
        c0, c1 = ref.expansion(B19, "ghz", data["phases"])
        want = {"sequence": B19, "qubits": n, "payoff_total": total,
                "payoff_per_qubit": total / n, "c0": c0 / n, "c1": c1 / n}
        checks = {"payoff": lambda out: _compare(out, want)}
    elif workload == "expansion-mixed22-custom":
        n = ref.wiring(MIXED22)[0]
        c0, c1 = ref.expansion(MIXED22, data["amps"])
        want = {"c0": c0 / n, "c1": c1 / n}
        checks = {"expansion": lambda pair: _compare(dict(zip(("c0", "c1"), pair)), want)}
    else:
        rows = _table_rows()
        thresholds = {"AAB": ref.AAB_THRESHOLD, "mix": ref.MIX_THRESHOLD}
        checks = {}
        for args in SMALL_SWEEP:
            label = " ".join(args)
            if args[0] == "optimize":
                checks[label] = _optimize_check(args, data["probes"])
            elif args[0] == "table1":
                checks[label] = lambda out: _compare_rows(out, rows)
            else:
                want = {"threshold": thresholds[args[-1]]}
                checks[label] = lambda out, want=want: _compare(out, want)

    def check(label: str, answer) -> list[str]:
        try:
            return problems + checks[label](json.loads(answer) if isinstance(answer, str) else answer)
        except (ValueError, TypeError, KeyError) as exc:  # malformed answer
            return problems + [f"unreadable answer: {exc!r}"]

    return check
