"""Command-line front end: simulation, table reproduction, optimization,
and classical analysis, with JSON or CSV output.

Exit codes: 0 on success, 2 for command-line usage errors, 3 when an input
value fails validation (bad sequence alphabet, out-of-range bias, malformed
phases file, non-finite or non-normalized custom state, an ``--out`` path that
cannot be written, ...).  Angles and amplitudes in the files must be JSON
numbers; booleans and strings are rejected.

Phase files are JSON documents of the form

    {"A": {"gamma": 0.0, "delta": 0.0},
     "B": [{"alpha": 0.0, "beta": 0.0}, ...four entries...]}

with angles in radians and the B entries in history order (lost,lost),
(lost,won), (won,lost), (won,won).  Custom initial states are JSON arrays
of [re, im] pairs of length 2**num_qubits, checked on load for finite
entries and unit norm; they run on the dense statevector, so at most 24
qubits.  "zero" and "ghz" need no statevector and take sequences of any
length.  JSON output is strict: a non-finite number is an
error (exit code 3), never a bare NaN.
"""
from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

import click
import numpy as np

from .classical import (
    classical_sequence_expansion,
    classical_sequence_total,
    paradox_threshold,
    sequence_threshold,
    stationary_payoff,
)
from .coins import PhaseAssignment, bias_expansion
from .optimize import optimize_phases
from .payoff import Evaluator, per_qubit
from .statevector import NAMED_STATES
from .table import build_table


def _sig9(value):
    """Round floats to 9 significant digits for stable, readable output."""
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {k: _sig9(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sig9(v) for v in value]
    return value


def _emit(data, fmt: str, out: str | None) -> None:
    data = _sig9(data)
    if fmt == "json":
        text = json.dumps(data, indent=2, allow_nan=False) + "\n"
    else:
        rows = data if isinstance(data, list) else [data]
        cols = list(rows[0].keys())
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            # A nested value goes in one cell as compact JSON.
            writer.writerow(
                json.dumps(v, separators=(",", ":")) if isinstance(v, (dict, list)) else v
                for v in (row.get(c) for c in cols)
            )
        text = buf.getvalue()
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise ValueError(f"--out: {exc}") from exc
    else:
        click.echo(text, nl=False)


def _json_number(value) -> float:
    """A JSON number (int or float, not bool) as a float; TypeError otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a JSON number")
    return float(value)


def _load_phases(path: str | None) -> PhaseAssignment | None:
    if path is None:
        return None
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"phases file: {exc}") from exc
    try:
        a = doc["A"]
        b = doc["B"]
        if len(b) != 4:
            raise ValueError("field 'B' must list exactly 4 branches")
        return PhaseAssignment(
            gamma=_json_number(a["gamma"]),
            delta=_json_number(a["delta"]),
            alphas=tuple(_json_number(entry["alpha"]) for entry in b),
            betas=tuple(_json_number(entry["beta"]) for entry in b),
        )
    except KeyError as exc:
        raise ValueError(f"phases file: missing field {exc.args[0]!r}") from exc
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"phases file: malformed document ({exc})") from exc
    except ValueError as exc:
        raise ValueError(f"phases file: {exc}") from exc


def _load_init(init: str):
    """Pass a named initial state through; read anything else as a state file."""
    if init in NAMED_STATES:
        return init
    try:
        doc = json.loads(Path(init).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"init file: {exc}") from exc
    try:
        amps = np.array([complex(_json_number(re), _json_number(im)) for re, im in doc])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"init file: expected an array of [re, im] pairs ({exc})") from exc
    return amps


format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True
)
out_option = click.option("--out", type=click.Path(dir_okay=False), default=None)


class _Main(click.Group):
    """The command group, and the one error boundary of every command: an
    input value that fails validation (ValueError) prints one ``error:``
    line and exits with code 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)


@click.group(cls=_Main)
def main():
    """History-dependent quantum Parrondo games: simulate and analyze."""


@main.command("payoff")
@click.option("--sequence", required=True, help="Token string over {A, B}, e.g. AAB.")
@click.option("--init", default="ghz", show_default=True, help="zero, ghz, or a JSON state file.")
@click.option("--eps", type=float, default=0.0, show_default=True, help="Bias, |eps| < 0.1.")
@click.option("--phases", "phases_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--per-qubit/--total", "normalized", default=True, show_default=True)
@format_option
@out_option
def cmd_payoff(sequence, init, eps, phases_path, normalized, fmt, out):
    """Simulate one sequence and report its payoff and bias expansion."""
    phases = _load_phases(phases_path)
    evaluator = Evaluator(sequence, _load_init(init))
    qubits = evaluator.plan.total_qubits
    total = evaluator.payoff(eps, phases, normalize=False)

    def value(e: float) -> float:
        # Each distinct bias is evaluated once: at --eps 0, c0 reuses total.
        t = total if e == eps else evaluator.payoff(e, phases, normalize=False)
        return per_qubit(t, qubits) if normalized else t

    c0, c1 = bias_expansion(value)
    _emit(
        {
            "sequence": sequence,
            "qubits": qubits,
            "init": init,
            "eps": eps,
            "per_qubit": normalized,
            "payoff_total": total,
            "payoff_per_qubit": per_qubit(total, qubits),
            "c0": c0,
            "c1": c1,
        },
        fmt,
        out,
    )


@main.command("table1")
@click.option("--repetitions", type=int, default=4, show_default=True)
@format_option
@out_option
def cmd_table1(repetitions, fmt, out):
    """Reproduce the reference payoff table (classical and quantum columns)."""
    _emit(build_table(repetitions), fmt, out)


@main.command("optimize")
@click.option("--sequence", required=True)
@click.option("--init", default="ghz", show_default=True)
@click.option("--eps", type=float, default=0.0, show_default=True)
@click.option("--direction", type=click.Choice(["max", "min"]), default="max", show_default=True)
@click.option("--max-sweeps", type=int, default=40, show_default=True)
@format_option
@out_option
def cmd_optimize(sequence, init, eps, direction, max_sweeps, fmt, out):
    """Search phase angles for the extremal per-qubit payoff.

    The search is skipped where no phase can move the payoff: on --init zero,
    and on ghz unless the sequence compiles with no seed qubit and every
    qubit but the last is a control of a later B.  The output is then the
    payoff at zero phases after 1 evaluation, and flat_objective is true, a
    fact proven from the sequence and the state.  A custom state file is
    always searched and reports flat_objective false.
    """
    result = optimize_phases(sequence, _load_init(init), eps, direction, max_sweeps=max_sweeps)
    phases = result.best_phases
    _emit(
        {
            "sequence": sequence,
            "init": init,
            "eps": eps,
            "direction": direction,
            "best_value": result.best_value,
            "best_phases": {
                "gamma": phases.gamma,
                "delta": phases.delta,
                "alphas": list(phases.alphas),
                "betas": list(phases.betas),
            },
            "converged": result.converged,
            "evaluations": result.evaluations,
            "flat_objective": not result.phase_sensitive,
        },
        fmt,
        out,
    )


@main.command("classical")
@click.option("--mode", type=click.Choice(["sequence", "stationary", "threshold"]), required=True)
@click.option("--sequence", default=None, help="Token string (sequence/threshold modes).")
@click.option("--policy", type=click.Choice(["A", "B", "mix"]), default=None)
@click.option("--mix-q", type=float, default=0.5, show_default=True)
@click.option("--eps", type=float, default=0.0, show_default=True)
@click.option(
    "--seeds",
    default="uniform",
    show_default=True,
    help="'uniform' or two bits like 00 (0 = loss, 1 = win; oldest first).",
)
@format_option
@out_option
def cmd_classical(mode, sequence, policy, mix_q, eps, seeds, fmt, out):
    """Exact classical game analysis: enumeration, stationary play, thresholds."""
    if mode == "sequence":
        if sequence is None:
            raise ValueError("mode 'sequence' needs --sequence")
        seed_arg = seeds if seeds == "uniform" else tuple(int(c) for c in seeds)
        total, plan = classical_sequence_total(sequence, eps, seed_arg)
        c0, c1 = classical_sequence_expansion(sequence, seed_arg)
        _emit(
            {
                "mode": mode,
                "sequence": sequence,
                "eps": eps,
                "seeds": seeds,
                "qubits": plan.total_qubits,
                "payoff_total": total,
                "payoff_per_qubit": total / plan.total_qubits,
                "c0": c0,
                "c1": c1,
            },
            fmt,
            out,
        )
    elif mode == "stationary":
        if policy is None:
            raise ValueError("mode 'stationary' needs --policy")
        _emit(
            {
                "mode": mode,
                "policy": policy,
                "mix_q": mix_q if policy == "mix" else None,
                "eps": eps,
                "payoff_per_game": stationary_payoff(policy, eps, mix_q),
            },
            fmt,
            out,
        )
    else:
        if sequence is not None and policy is not None:
            raise ValueError("mode 'threshold' takes --sequence or --policy, not both")
        if sequence is not None:
            target, threshold = sequence, sequence_threshold(sequence)
        elif policy is not None:
            target, threshold = policy, paradox_threshold(policy, q=mix_q)
        else:
            raise ValueError("mode 'threshold' needs --sequence or --policy")
        report = {
            "mode": mode,
            "target": target,
            "mix_q": mix_q if target == "mix" else None,
            "threshold": threshold,
        }
        if threshold is None:
            report["note"] = "no sign change on the search interval"
        _emit(report, fmt, out)


if __name__ == "__main__":
    main()
