"""Mutation gate: every mutant in mutants.json must make the test suite fail.

    python3 tools/mutate.py

Run from anywhere; the tree is the checkout this script lives in.  A mutant
names a file, the exact text it replaces (which must occur exactly once in
that file), the new text and the fault it models.  For each mutant the
script copies the tree into a temporary directory, applies the mutant there
and runs

    python -m pytest -x -q -p no:cacheprovider

on the copy.  A mutant may also hold ``killed_by``, the test that killed it
last time.  That test runs first, alone; if it fails, the mutant is killed
by it, and only if it passes (or no longer exists) does the whole suite
run.  The whole suite holds that test, so the verdict is the one the whole
suite would give, and a killed mutant usually costs one test instead of
every test before it.  First the script runs the whole suite on an
unmutated copy, since a failing baseline would count every mutant as
killed.  At the end it writes each mutant's ``killed_by`` back into
mutants.json (removing it from a mutant that was not killed); that is the
only file of the checkout it writes.

Each mutant prints one JSON line: its id, its status (``killed``, ``survived``
or ``stale``, where stale means the text to replace no longer occurs exactly
once), the id of the test that killed it and the seconds it took.  The exit
code is 0 if every mutant was killed, 1 if any survived or is stale, and 2
if the unmutated suite fails.
"""
from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = Path(__file__).with_name("mutants.json")
IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work", "*.egg-info"
)
# pytest's short summary line for a failing test or an error.
FAILED = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", re.M)


# pytest's exit code when tests ran and some failed; a test id that no
# longer exists gives another code, so it never counts as a kill.
TESTS_FAILED = 1


def run_suite(tree: Path, *tests: str) -> tuple[int, str | None]:
    """(pytest's exit code, the first failing test's id) on the tree: the
    whole suite, or only ``tests`` if any are given."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    match = FAILED.search(proc.stdout)
    return proc.returncode, match.group(1) if match else None


def check(mutant: dict, work: Path) -> dict:
    """Apply one mutant to a fresh copy of the tree and run the suite on it."""
    start = time.perf_counter()
    report = {"id": mutant["id"], "status": "stale", "killed_by": None}
    source = (ROOT / mutant["file"]).read_text() if (ROOT / mutant["file"]).is_file() else ""
    if source.count(mutant["old"]) == 1:
        tree = work / mutant["id"]
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        (tree / mutant["file"]).write_text(source.replace(mutant["old"], mutant["new"]))
        code, test = run_suite(tree, mutant["killed_by"]) if mutant.get("killed_by") else (0, None)
        if code != TESTS_FAILED:
            code, test = run_suite(tree)
        report.update(status="killed" if code != 0 else "survived", killed_by=test)
        shutil.rmtree(tree)
    report["seconds"] = round(time.perf_counter() - start, 1)
    return report


def main() -> int:
    mutants = json.loads(MUTANTS.read_text())
    with tempfile.TemporaryDirectory(prefix="qparrondo-mutate-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT, work / "baseline", ignore=IGNORE)
        code, test = run_suite(work / "baseline")
        if code != 0:
            print(f"the unmutated suite fails ({test}); no mutant can be judged", file=sys.stderr)
            return 2
        shutil.rmtree(work / "baseline")
        failed = False
        for mutant in mutants:
            report = check(mutant, work)
            print(json.dumps(report), flush=True)
            failed |= report["status"] != "killed"
            if report["killed_by"]:
                mutant["killed_by"] = report["killed_by"]
            else:
                mutant.pop("killed_by", None)
    MUTANTS.write_text(json.dumps(mutants, indent=2) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
