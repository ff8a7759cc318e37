"""The package index and the README's library example match the code, so a
deleted or renamed public name cannot leave either of them stale."""
import contextlib
import io
import re
from fractions import Fraction
from pathlib import Path

import qparrondo

README = Path(__file__).resolve().parents[1] / "README.md"
VALUE_TOL = 1e-9


def test_every_name_in_all_imports():
    namespace = {}
    exec("from qparrondo import *", namespace)
    assert [name for name in qparrondo.__all__ if name not in namespace] == []
    assert len(set(qparrondo.__all__)) == len(qparrondo.__all__)


def quick_example() -> str:
    section = README.read_text().split("## Quick library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_example_prints_its_documented_values():
    # Each print line's comment lists the values it prints: a fraction such
    # as 13/400, or the leading digits of a decimal, as in 0.2707138...
    code = quick_example()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    printed = out.getvalue().splitlines()
    documented = [line.split("#", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(documented) == 4
    for line, comment in zip(printed, documented):
        got, want = line.split(), [w.strip() for w in comment.split(",")]
        assert len(got) == len(want), (line, comment)
        for value, expected in zip(got, want):
            if expected.endswith("..."):
                assert value.startswith(expected[:-3]), (value, expected)
            else:
                assert abs(float(value) - float(Fraction(expected))) < VALUE_TOL, (value, expected)
