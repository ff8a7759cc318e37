"""The repository benchmark: time to solution of three workloads, checked.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh child
processes (child.py) with BLAS threads capped at the core count; this
process regenerates the seeded inputs, computes the reference answers after
the timed runs, and checks every answer.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (median
of several fresh interpreters from start to ready), ``wall_s`` (median time
of one pass over the task list) and ``peak_rss_mib`` (the measuring child's
own peak resident set).  With ``--trace 1`` they are the per-layer figures
of tracer.py, per pass, plus the tracing overhead.

Before the final JSON line it prints one human-readable line per metric and
a ``{"record": ...}`` line (environment, every pass, every problem) that
compare.py reads.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 150  # every run must end within 180 s
UNITS = {
    "peak_rss_mib": "MiB",
    "statevector.ns_per_amp": "ns",
    "statevector.bytes_computed": "B",
    "optimize.evals_per_s": "1/s",
}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(_nproc())
    return env


def _child(workload, seed, mode, seconds, workdir) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), workload, str(seed), mode,
            str(seconds), str(workdir)]


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _git(*args: str) -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                              env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int) -> dict:
    """Machine and software facts, read without changing anything."""
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level").strip(), _read(index / "type").strip()
        caches[f"L{level} {kind}"] = _read(index / "size").strip()
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "nproc": _nproc(), "cpu_model": model, "caches": caches,
        "python": platform.python_version(), "numpy": np.__version__,
        "git_sha": sha, "git_dirty": bool(status) if sha else None, "seed": seed,
    }


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Seconds from starting a fresh interpreter to its ``ready`` line."""
    t0 = time.perf_counter()
    with subprocess.Popen(_child(workload, seed, "setup", 0, workdir), env=_child_env(),
                          stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            ready = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)[0]
            line = proc.stdout.readline() if ready else ""
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed with exit code {proc.returncode}")
    return elapsed


def run_child(workload: str, seed: int, mode: str, seconds: float, workdir: Path) -> dict:
    done = subprocess.run(_child(workload, seed, mode, seconds, workdir), env=_child_env(),
                          capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{mode} run of {workload} failed with exit code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def check_passes(workload: str, seed: int, passes: list[dict], labels: list[str]):
    """(attempted, failed, problems) over every answer of every pass."""
    check = workloads.checker(workload, workloads.inputs(workload, seed))
    attempted, failed, problems = 0, 0, []
    for p in passes:
        for label, answer, error in zip(labels, p["answers"], p["errors"]):
            attempted += 1
            found = [error] if error else check(label, answer)
            if found:
                failed += 1
                problems.extend(f"{label}: {msg}" for msg in found)
    return attempted, failed, problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [] if trace else [measure_setup(workload, seed, workdir)
                                   for _ in range(SETUP_RUNS)]
        child = run_child(workload, seed, "trace" if trace else "measure", seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            workdir.parent.rmdir()
    passes = child["untraced"] + child["traced"]
    attempted, failed, problems = check_passes(workload, seed, passes, child["labels"])
    problems += child.get("selftest", [])
    untraced = statistics.median(p["wall_s"] for p in child["untraced"])
    if trace:
        traced_wall = statistics.median(p["wall_s"] for p in child["traced"])
        metrics = {**child["layers"], "trace.wall_s": traced_wall,
                   "trace.untraced_wall_s": untraced, "trace.overhead_s": traced_wall - untraced}
    else:
        metrics = {"setup_s": statistics.median(setups), "wall_s": untraced,
                   "peak_rss_mib": child["peak_rss_mib"]}
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
        "metrics": metrics, "setups_s": setups,
        "passes_s": [p["wall_s"] for p in child["untraced"]],
        "passes_cpu_s": [p["cpu_s"] for p in child["untraced"]],
        "traced_passes_s": [p["wall_s"] for p in child["traced"]],
        "problems": problems[:20], "env": environment(seed),
    }


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith(("_s", ".s")) else "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qparrondo").is_dir():
        print(f"no qparrondo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        results.append(result)
        for metric, value in result["metrics"].items():
            print(f"{name:26s} {metric:58s} {value:>16.6g} {_unit(metric)}")
        print(f"{name:26s} tasks attempted {result['attempted']}, failed {result['failed']}")
        for problem in result["problems"]:
            print(f"{name:26s} problem: {problem}")
        print(json.dumps({"record": result}))

    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{m}" if prefix else m): {"value": v, "unit": _unit(m)}
            for r in results for m, v in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
