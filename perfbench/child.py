"""One workload in a fresh interpreter; started by run.py, not by hand.

    python3 perfbench/child.py WORKLOAD SEED MODE SECONDS WORKDIR

Set-up (importing ``qparrondo`` and ``qparrondo.cli`` and generating the
seeded inputs) ends with a ``ready`` line on stdout.  MODE ``setup`` exits
there.  MODE ``measure`` then runs the task list in a closed loop, one pass
after another, for about SECONDS.  MODE ``trace`` alternates an untraced and
a traced pass.  The last stdout line is a JSON result for run.py.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def run_pass(tasks) -> dict:
    """Every task once; wall_s is the time to produce all answers."""
    answers, errors, times = [], [], []
    cpu0 = time.process_time()
    for label, call in tasks:
        t0 = time.perf_counter()
        try:
            answer = call()
        except (Exception, SystemExit) as exc:  # a task that raises counts as failed
            answer, error = None, f"{label}: {exc!r}"
        else:
            error = None
        times.append(time.perf_counter() - t0)
        answers.append(answer)
        errors.append(error)
    return {"wall_s": sum(times), "cpu_s": time.process_time() - cpu0, "task_s": times,
            "answers": answers, "errors": errors}


def peak_rss_mib() -> float:
    """This process image's own peak resident set.

    ``ru_maxrss`` would also count the parent: Linux carries the parent's
    high-water mark over fork and exec.  ``VmHWM`` starts afresh at exec.
    """
    try:
        status = Path("/proc/self/status").read_text().splitlines()
    except OSError:
        status = []
    for line in status:
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    workload, seed, mode, seconds, workdir = sys.argv[1:6]
    seed, seconds, workdir = int(seed), float(seconds), Path(workdir)
    src = (Path(__file__).resolve().parent.parent / "src").resolve()

    import qparrondo
    import qparrondo.cli  # noqa: F401  (the CLI is part of set-up)

    if not Path(qparrondo.__file__).resolve().is_relative_to(src):
        print(f"qparrondo imported from {qparrondo.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    tasks = workloads.tasks(workload, workloads.inputs(workload, seed), workdir)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    labels = [label for label, _ in tasks]
    untraced, traced, result = [], [], {"labels": labels}
    start = time.perf_counter()
    if mode == "measure":
        while True:
            untraced.append(run_pass(tasks))
            elapsed = time.perf_counter() - start
            # Start another pass only if one more like the last still fits.
            if elapsed + untraced[-1]["wall_s"] > seconds:
                break
    else:
        from tracer import Tracer

        tracer = Tracer()
        while True:
            untraced.append(run_pass(tasks))
            with tracer.installed(), tracer.root():
                traced.append(run_pass(tasks))
            elapsed = time.perf_counter() - start
            if elapsed + untraced[-1]["wall_s"] + traced[-1]["wall_s"] > seconds:
                break
        result["layers"] = tracer.metrics(len(traced))
        result["selftest"] = tracer.selftest()
    result["untraced"] = untraced
    result["traced"] = traced
    result["peak_rss_mib"] = peak_rss_mib()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
