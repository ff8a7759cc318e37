import csv
import io
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


@pytest.mark.parametrize("eps, dense_runs", [("0", 3), ("0.01", 4)])
def test_payoff_evaluates_each_distinct_bias_once(runner, tmp_path, monkeypatch, eps, dense_runs):
    # c0 is the payoff at eps = 0, so the default --eps 0 needs one run fewer.
    # "B" is one block of three qubits, evaluated by the block route.
    runs = []
    compile_blocks = qparrondo.payoff._compile_blocks

    def counted(*args, **kwargs):
        total_of = compile_blocks(*args, **kwargs)
        return lambda coins: runs.append(1) or total_of(coins)

    monkeypatch.setattr(qparrondo.payoff, "_compile_blocks", counted)
    amps = np.zeros(8)
    amps[0] = amps[7] = 1 / math.sqrt(2)
    path = tmp_path / "ghz3.json"
    path.write_text(json.dumps([[a, 0.0] for a in amps]))
    out = parse_json(invoke(runner, "payoff", "--sequence", "B", "--init", str(path), "--eps", eps))
    assert len(runs) == dense_runs
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


def test_importing_the_cli_loads_only_the_stdlib_numpy_and_click():
    # A CLI call's set-up time is mostly this import, so a module that
    # another dependency pulls in would show there first
    src = str(Path(qparrondo.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import qparrondo.cli\n"
        "for name in sorted({name.partition('.')[0] for name in set(sys.modules) - before}):\n"
        "    print(name)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    loaded = set(out.stdout.split())
    assert "qparrondo" in loaded
    assert loaded - set(sys.stdlib_module_names) <= {"numpy", "click", "qparrondo"}


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


def test_payoff_rejects_nan_phase_with_exit_3(runner, tmp_path):
    path = tmp_path / "phases.json"
    path.write_text(
        '{"A": {"gamma": NaN, "delta": 0.0}, "B": ['
        + ", ".join(['{"alpha": 0.0, "beta": 0.0}'] * 4)
        + "]}"
    )
    result = runner.invoke(main, ["payoff", "--sequence", "AAB", "--phases", str(path)])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert "gamma" in error_text(result)


@pytest.mark.parametrize(
    "option, doc, prefix",
    [
        ("--phases", "not json", "phases file: Expecting value"),
        (
            "--phases",
            json.dumps({"A": {"gamma": 0.0}, "B": [{"alpha": 0.0, "beta": 0.0}] * 4}),
            "phases file: missing field 'delta'",
        ),
        ("--init", None, "init file: [Errno 2]"),
    ],
    ids=["phases-not-json", "phases-no-delta", "init-missing"],
)
def test_unreadable_input_files_exit_3(runner, tmp_path, option, doc, prefix):
    path = tmp_path / "input.json"
    if doc is not None:
        path.write_text(doc)
    result = runner.invoke(main, ["payoff", "--sequence", "AB", option, str(path)])
    assert result.exit_code == 3
    assert result.stdout == ""
    text = error_text(result)
    assert text.startswith(f"error: {prefix}")
    assert text.count("\n") == 1


PHASES_DOC = (
    '{"A": {"gamma": %s, "delta": 0.0}, "B": ['
    + ", ".join(['{"alpha": 0.0, "beta": 0.0}'] * 4)
    + "]}"
)
# "AB" runs on 3 qubits: 8 amplitudes, the first one given as %s.
STATE_DOC = "[[%s, 0.0], " + ", ".join(["[0.0, 0.0]"] * 6) + ", [1.0, 0.0]]"


@pytest.mark.parametrize(
    "value",
    ["true", "false", '"abc"', '"1.0"', "null", "[1.0]", "{}",
     # An integer too large for a float is a JSON number that cannot be read.
     pytest.param("1" + "0" * 400, id="1e400")],
)
@pytest.mark.parametrize(
    "option, doc, prefix",
    [("--phases", PHASES_DOC, "phases file:"), ("--init", STATE_DOC, "init file:")],
    ids=["phases", "init"],
)
def test_file_values_must_be_json_numbers(runner, tmp_path, option, doc, prefix, value):
    path = tmp_path / "input.json"
    path.write_text(doc % value)
    result = runner.invoke(main, ["payoff", "--sequence", "AB", option, str(path)])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert error_text(result).startswith(f"error: {prefix}")


@pytest.mark.parametrize("value", ["1", "0.0"])
def test_file_values_accept_json_ints_and_floats(runner, tmp_path, value):
    phases = tmp_path / "phases.json"
    phases.write_text(PHASES_DOC % value)
    state = tmp_path / "state.json"
    state.write_text(STATE_DOC % "0")
    args = ["payoff", "--sequence", "AB", "--phases", str(phases), "--init", str(state)]
    parse_json(invoke(runner, *args))


def test_unwritable_out_is_an_input_error(runner, tmp_path):
    out = tmp_path / "missing" / "t.csv"
    result = runner.invoke(main, ["table1", "--format", "csv", "--out", str(out)])
    assert result.exit_code == 3
    assert error_text(result).startswith("error: --out:")
    assert "Traceback" not in result.output
    assert not out.parent.exists()


def test_payoff_of_a_sequence_past_the_dense_cap(runner):
    sequence = "AABBA" * 6  # 30 tokens and 30 qubits: the first B has two A's before it
    out = parse_json(invoke(runner, "payoff", "--sequence", sequence, "--init", "ghz"))
    assert out["qubits"] == 30
    for key in ("payoff_total", "payoff_per_qubit", "c0", "c1"):
        assert math.isfinite(out[key])


def test_payoff_rejects_custom_state_past_the_dense_cap(runner, tmp_path):
    # The plan needs 25 qubits; a custom state runs on the dense statevector,
    # which refuses it before reading its amplitudes.
    path = tmp_path / "state.json"
    path.write_text(json.dumps([[1.0, 0.0], [0.0, 0.0]]))
    result = runner.invoke(main, ["payoff", "--sequence", "A" * 25, "--init", str(path)])
    assert result.exit_code == 3
    assert "cap" in error_text(result)


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
    assert header == list(json_rows[0])
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


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_optimize_rejects_a_non_positive_sweep_budget(runner, budget):
    result = runner.invoke(main, ["optimize", "--sequence", "AAB", "--max-sweeps", budget])
    assert result.exit_code == 3
    assert "max_sweeps" in error_text(result)


def test_optimize_reports_flat_objective(runner):
    out = parse_json(
        invoke(runner, "optimize", "--sequence", "B", "--direction", "max", "--max-sweeps", "2")
    )
    assert out["flat_objective"] is True
    assert out["evaluations"] == 1
    assert out["best_value"] == pytest.approx(1 / 15, abs=1e-9)


def test_optimize_flat_objective_sees_a_maximum_at_the_start(runner):
    # On one GHZ qubit, delta moves the payoff of A from -1 to +1, and the
    # zero phases already give +1: the search finds no gain, yet the
    # objective is not flat.
    out = parse_json(invoke(runner, "optimize", "--sequence", "A", "--direction", "max"))
    assert out["best_value"] == pytest.approx(1.0, abs=1e-12)
    assert out["flat_objective"] is False
    assert out["evaluations"] > 1


@pytest.mark.parametrize("sequence", ["A", "B", "AAB", "ABBAB"])
def test_optimize_on_the_zero_state_is_flat(runner, sequence):
    out = parse_json(invoke(runner, "optimize", "--sequence", sequence, "--init", "zero"))
    assert out["flat_objective"] is True
    assert out["evaluations"] == 1


def test_optimize_on_a_custom_state_is_searched(runner, tmp_path):
    path = tmp_path / "ghz.json"
    path.write_text(json.dumps([[math.sqrt(0.5), 0.0]] + [[0.0, 0.0]] * 6 + [[math.sqrt(0.5), 0.0]]))
    out = parse_json(
        invoke(runner, "optimize", "--sequence", "B", "--init", str(path), "--max-sweeps", "1")
    )
    assert out["flat_objective"] is False
    assert out["evaluations"] > 1
    assert out["best_value"] == pytest.approx(1 / 15, abs=1e-9)


def test_optimize_csv_row_parses_into_the_header_columns(runner):
    result = invoke(runner, "optimize", "--sequence", "B", "--max-sweeps", "2", "--format", "csv")
    assert result.exit_code == 0, result.output
    header, row = csv.reader(io.StringIO(result.output))
    assert len(row) == len(header) == 9
    phases = json.loads(row[header.index("best_phases")])
    assert set(phases) == {"gamma", "delta", "alphas", "betas"}
    assert len(phases["betas"]) == 4


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


def test_classical_threshold_of_a_one_token_sequence(runner):
    # the sequence B (c0 = 1/60, c1 = -2/3 per qubit), not the stationary policy B
    out = parse_json(invoke(runner, "classical", "--mode", "threshold", "--sequence", "B"))
    assert out["target"] == "B"
    assert out["threshold"] == pytest.approx(0.025, abs=1e-9)


def test_classical_threshold_sequence_mix_is_not_a_policy(runner):
    result = runner.invoke(main, ["classical", "--mode", "threshold", "--sequence", "mix"])
    assert result.exit_code == 3


def test_classical_threshold_boundary_root(runner):
    # pure B is exactly fair at zero bias: the root sits on the interval edge
    out = parse_json(invoke(runner, "classical", "--mode", "threshold", "--policy", "B"))
    assert out["threshold"] == 0.0


def test_classical_threshold_rejects_both_sequence_and_policy(runner):
    result = runner.invoke(
        main, ["classical", "--mode", "threshold", "--sequence", "AAB", "--policy", "mix"]
    )
    assert result.exit_code == 3
    assert "--sequence" in error_text(result) and "--policy" in error_text(result)


@pytest.mark.parametrize(
    "args, message",
    [
        (["classical", "--mode", "sequence"], "mode 'sequence' needs --sequence"),
        (["classical", "--mode", "stationary"], "mode 'stationary' needs --policy"),
        (["classical", "--mode", "threshold"], "mode 'threshold' needs --sequence or --policy"),
        (["table1", "--repetitions", "1"], "repetitions must be at least 2"),
    ],
    ids=["sequence", "stationary", "threshold", "table1-repetitions"],
)
def test_missing_or_invalid_arguments_exit_3(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 3
    assert result.stdout == ""
    assert error_text(result) == f"error: {message}\n"


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
