"""The package index and the README's library example match the code, so a
deleted or renamed public name cannot leave either of them stale."""
import contextlib
import importlib
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


def test_readme_layout_rows_name_every_module_and_only_existing_names():
    # One row per module, and each backticked name in a row is an attribute of
    # that module or of the package (or the package's own name), so a module
    # or a name deleted from the code cannot stay in the table.
    rows = re.findall(r"^\| `qparrondo\.(\w+)` \| (.*) \|$", README.read_text(), re.M)
    package = Path(qparrondo.__file__).parent
    assert sorted(m for m, _ in rows) == sorted(
        p.stem for p in package.glob("*.py") if p.stem != "__init__"
    )
    for module, contents in rows:
        mod = importlib.import_module(f"qparrondo.{module}")
        for name in re.findall(r"`([A-Za-z_]\w*)`", contents):
            known = hasattr(mod, name) or hasattr(qparrondo, name) or name == "qparrondo"
            assert known, (module, name)


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
