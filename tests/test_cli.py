import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import qparrondo
from qparrondo.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def parse_json(result):
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def error_text(result):
    try:
        return result.stderr
    except (AttributeError, ValueError):
        return result.output


# --- payoff command ---

def test_payoff_b_on_ghz(runner):
    out = parse_json(invoke(runner, "payoff", "--sequence", "B", "--init", "ghz", "--eps", "0"))
    assert out["payoff_per_qubit"] == pytest.approx(1 / 15, abs=1e-7)
    assert out["qubits"] == 3
    assert out["c1"] == pytest.approx(0.0, abs=1e-6)


def test_payoff_aab_on_zero_state(runner):
    out = parse_json(invoke(runner, "payoff", "--sequence", "AAB", "--init", "zero"))
    assert out["payoff_per_qubit"] == pytest.approx(1 / 60, abs=1e-7)


def test_payoff_single_a_with_bias(runner):
    out = parse_json(
        invoke(runner, "payoff", "--sequence", "A", "--init", "zero", "--eps", "0.01")
    )
    assert out["payoff_total"] == pytest.approx(-0.02, abs=1e-9)


def test_payoff_total_normalization_flag(runner):
    out = parse_json(invoke(runner, "payoff", "--sequence", "B", "--total"))
    assert out["per_qubit"] is False
    assert out["c0"] == pytest.approx(0.2, abs=1e-7)  # 3x the per-qubit value


def test_payoff_with_custom_state_file(runner, tmp_path):
    amps = np.zeros(8)
    amps[0] = amps[7] = 1 / math.sqrt(2)
    path = tmp_path / "ghz3.json"
    path.write_text(json.dumps([[a, 0.0] for a in amps]))
    out = parse_json(invoke(runner, "payoff", "--sequence", "B", "--init", str(path)))
    assert out["payoff_per_qubit"] == pytest.approx(1 / 15, abs=1e-7)


def test_payoff_rejects_unnormalized_custom_state(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([[1.0, 0.0]] * 8))
    result = runner.invoke(main, ["payoff", "--sequence", "B", "--init", str(path)])
    assert result.exit_code == 3
    assert "error" in error_text(result)


def write_nan_state(tmp_path):
    # "AB" needs one seed qubit: 3 qubits, 8 amplitudes
    amps = [[0.0, 0.0]] * 8
    amps[0] = [float("nan"), 0.0]
    amps[7] = [1.0, 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(amps))
    return path


def test_payoff_rejects_nan_custom_state(runner, tmp_path):
    path = write_nan_state(tmp_path)
    result = runner.invoke(main, ["payoff", "--sequence", "AB", "--init", str(path)])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert "non-finite" in error_text(result)


def test_checks_hold_under_python_O(tmp_path):
    # -O strips assert statements; input validation and the optimizer's
    # re-evaluation check must not depend on them
    src = str(Path(qparrondo.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cli = [sys.executable, "-O", "-m", "qparrondo.cli"]

    def call(*args):
        return subprocess.run(cli + list(args), capture_output=True, text=True, env=env, timeout=300)

    bad = call("payoff", "--sequence", "AB", "--init", str(write_nan_state(tmp_path)))
    assert bad.returncode == 3
    assert bad.stdout == ""
    assert "non-finite" in bad.stderr

    ok = call("optimize", "--sequence", "AAB")
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["best_value"] == pytest.approx(0.2707138, abs=1e-5)


def test_payoff_with_phases_file(runner, tmp_path):
    phases = {
        "A": {"gamma": 0.0, "delta": 0.0},
        "B": [
            {"alpha": 0.0, "beta": 0.0},
            {"alpha": 0.0, "beta": math.pi},
            {"alpha": 0.0, "beta": math.pi},
            {"alpha": 0.0, "beta": 0.0},
        ],
    }
    path = tmp_path / "phases.json"
    path.write_text(json.dumps(phases))
    out = parse_json(
        invoke(runner, "payoff", "--sequence", "AAB", "--phases", str(path))
    )
    assert out["c0"] == pytest.approx(0.2707138, abs=1e-6)


def test_payoff_rejects_malformed_phases_file(runner, tmp_path):
    path = tmp_path / "phases.json"
    path.write_text(json.dumps({"A": {"gamma": 0.0}, "B": []}))
    result = runner.invoke(main, ["payoff", "--sequence", "AAB", "--phases", str(path)])
    assert result.exit_code == 3
    text = error_text(result)
    assert "delta" in text or "'B'" in text


def test_payoff_rejects_bad_sequence_with_exit_3(runner):
    result = runner.invoke(main, ["payoff", "--sequence", "AXB"])
    assert result.exit_code == 3


def test_payoff_rejects_out_of_range_eps_with_exit_3(runner):
    result = runner.invoke(main, ["payoff", "--sequence", "AB", "--eps", "0.5"])
    assert result.exit_code == 3


def test_unknown_option_is_usage_error(runner):
    result = runner.invoke(main, ["payoff", "--sequence", "AB", "--bogus", "1"])
    assert result.exit_code == 2


# --- table command ---

def test_table_reproduces_reference_rows(runner):
    rows = parse_json(invoke(runner, "table1"))
    by_label = {row["label"]: row for row in rows}

    ab = by_label["AB"]
    assert ab["classical_c0"] == pytest.approx(1 / 60, abs=1e-7)
    assert ab["classical_c1"] == pytest.approx(-19 / 15, abs=1e-6)
    assert ab["quantum_c0"] == pytest.approx(1 / 30, abs=1e-7)
    assert ab["quantum_c1"] == pytest.approx(1 / 15, abs=1e-6)

    bb = by_label["BB"]
    assert bb["quantum_c0"] == pytest.approx(13 / 400, abs=1e-7)
    assert bb["quantum_c1"] == pytest.approx(1 / 20, abs=1e-6)
    assert bb["classical_c0"] == pytest.approx(1 / 75, abs=1e-7)

    rep = by_label["AAB...AAB"]
    assert rep["sequence"] == "AAB" * 4
    assert rep["quantum_c0"] == pytest.approx(0.0, abs=1e-7)
    assert rep["quantum_c1"] == pytest.approx(2 / 15, abs=1e-6)

    aab = by_label["AAB"]
    assert aab["quantum_c0"] is None
    assert aab["quantum_max_c0"] == pytest.approx(0.2707138, abs=1e-6)
    assert aab["quantum_min_c0"] == pytest.approx(-0.2707138, abs=1e-6)


def test_table_csv_and_json_hold_identical_values(runner, tmp_path):
    json_rows = parse_json(invoke(runner, "table1"))
    csv_path = tmp_path / "table.csv"
    result = invoke(runner, "table1", "--format", "csv", "--out", str(csv_path))
    assert result.exit_code == 0
    lines = csv_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    for line, row in zip(lines[1:], json_rows):
        cells = line.split(",")
        for key, cell in zip(header, cells):
            if cell == "":
                assert row[key] is None
            elif key in ("label", "sequence"):
                assert cell == str(row[key])
            else:
                assert float(cell) == row[key]


def test_table_respects_repetitions_flag(runner):
    rows = parse_json(invoke(runner, "table1", "--repetitions", "2"))
    by_label = {row["label"]: row for row in rows}
    assert by_label["AA...A"]["sequence"] == "AA"
    assert by_label["AAB...AAB"]["sequence"] == "AABAAB"


# --- optimize command ---

def test_optimize_aab_maximum(runner):
    out = parse_json(invoke(runner, "optimize", "--sequence", "AAB", "--direction", "max"))
    assert out["best_value"] == pytest.approx(0.2707138, abs=1e-5)
    assert out["converged"] is True
    assert out["flat_objective"] is False


def test_optimize_aab_minimum(runner):
    out = parse_json(invoke(runner, "optimize", "--sequence", "AAB", "--direction", "min"))
    assert out["best_value"] == pytest.approx(-0.2707138, abs=1e-5)


def test_optimize_reports_flat_objective(runner):
    out = parse_json(
        invoke(runner, "optimize", "--sequence", "B", "--direction", "max", "--max-sweeps", "2")
    )
    assert out["flat_objective"] is True
    assert out["best_value"] == pytest.approx(1 / 15, abs=1e-9)


# --- classical command ---

def test_classical_sequence_mode(runner):
    out = parse_json(
        invoke(runner, "classical", "--mode", "sequence", "--sequence", "B", "--eps", "0")
    )
    assert out["payoff_per_qubit"] == pytest.approx(1 / 60, abs=1e-7)
    assert out["c1"] == pytest.approx(-2 / 3, abs=1e-6)


def test_classical_stationary_mode(runner):
    out = parse_json(
        invoke(runner, "classical", "--mode", "stationary", "--policy", "A", "--eps", "0.005")
    )
    assert out["payoff_per_game"] == pytest.approx(-0.01, abs=1e-9)


def test_classical_threshold_modes(runner):
    out = parse_json(invoke(runner, "classical", "--mode", "threshold", "--sequence", "AAB"))
    assert out["threshold"] == pytest.approx(1 / 112, abs=1e-6)
    out = parse_json(invoke(runner, "classical", "--mode", "threshold", "--policy", "mix"))
    assert out["threshold"] == pytest.approx(1 / 168, abs=1e-6)


def test_classical_threshold_boundary_root(runner):
    # pure B is exactly fair at zero bias: the root sits on the interval edge
    out = parse_json(invoke(runner, "classical", "--mode", "threshold", "--policy", "B"))
    assert out["threshold"] == 0.0


def test_classical_requires_mode_arguments(runner):
    result = runner.invoke(main, ["classical", "--mode", "sequence"])
    assert result.exit_code == 3


# --- output discipline ---

def test_round_trip_reparse_and_rerun_is_bit_identical(runner):
    first = invoke(runner, "payoff", "--sequence", "AAB", "--init", "ghz", "--eps", "0.003")
    echoed = json.loads(first.output)
    second = invoke(
        runner,
        "payoff",
        "--sequence",
        echoed["sequence"],
        "--init",
        echoed["init"],
        "--eps",
        repr(echoed["eps"]),
    )
    assert first.output == second.output


def test_csv_and_json_payoff_values_match(runner):
    args = ("payoff", "--sequence", "BB", "--init", "ghz", "--eps", "0.001")
    as_json = parse_json(invoke(runner, *args))
    csv_result = invoke(runner, *args, "--format", "csv")
    header, values = csv_result.output.strip().splitlines()
    record = dict(zip(header.split(","), values.split(",")))
    assert float(record["payoff_per_qubit"]) == as_json["payoff_per_qubit"]
    assert float(record["c0"]) == as_json["c0"]
    assert float(record["c1"]) == as_json["c1"]


def test_success_runs_emit_no_diagnostics(runner):
    result = runner.invoke(main, ["payoff", "--sequence", "AB"])
    assert result.exit_code == 0
    assert "error" not in result.output
