"""Compare two result sets of run.py, metric by metric and workload by workload.

    python3 perfbench/compare.py PARENT.txt CHANGE.txt

Each file holds the standard output of untraced run.py runs (any number,
concatenated); the ``{"record": ...}`` lines are read and the rest ignored.
Runs are paired in file order per workload, so run the two sides
alternately, one pair per seed.  For every workload and end-to-end metric it
prints each side's median and quartiles, the change in the median, the
pairs each side won and a verdict by the pair rule: ``better`` when the
change wins at least nine tenths of at least ten pairs (ties count for
neither) and the medians differ by more than the parent's quartile spread,
``worse`` for the mirror case, and ``unresolved`` otherwise.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> dict[str, list[dict]]:
    """Untraced metrics per workload, in file order."""
    runs: dict[str, list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.startswith('{"record"'):
            record = json.loads(line)["record"]
            if not record["trace"]:
                runs.setdefault(record["workload"], []).append(record["metrics"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: list[float], change: list[float], lower_is_better: bool) -> tuple[str, int, int]:
    """(verdict, pairs the change won, pairs the parent won)."""
    sign = 1.0 if lower_is_better else -1.0
    change_wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    parent_wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pairs = min(len(parent), len(change))
    q1, med_p, q3 = quartiles(parent)
    gap = abs(statistics.median(change) - med_p)
    if pairs >= MIN_PAIRS and gap > q3 - q1:
        if change_wins >= WIN_SHARE * pairs:
            return "better", change_wins, parent_wins
        if parent_wins >= WIN_SHARE * pairs:
            return "worse", change_wins, parent_wins
    return "unresolved", change_wins, parent_wins


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    print(f"{'workload':26s} {'metric':13s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'delta':>8s} {'won':>7s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        for m in metrics:
            name = m["name"]
            p = [r[name] for r in parent[workload] if name in r]
            c = [r[name] for r in change[workload] if name in r]
            if not p or not c:
                continue
            pq, cq = quartiles(p), quartiles(c)
            result, won, lost = verdict(p, c, m["better"] == "lower")
            print(f"{workload:26s} {name:13s} "
                  f"{pq[1]:11.5g} [{pq[0]:9.5g}, {pq[2]:9.5g}] "
                  f"{cq[1]:11.5g} [{cq[0]:9.5g}, {cq[2]:9.5g}] "
                  f"{100 * (cq[1] - pq[1]) / pq[1]:+7.2f}% {won:3d}/{lost:<3d}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
