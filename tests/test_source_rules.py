"""Source rules for the summation contract: no module of the package may
call the builtin ``sum`` or ``math.fsum``, or import ``statistics`` or
``numpy``.  CPython 3.12 made ``sum()`` compensated for floats, ``fsum``
rounds exactly and NumPy sums pairwise, so any of them would change result
bits, or make them depend on the interpreter version."""

import ast
from pathlib import Path

import pytest

import msetsim

MODULES = sorted(Path(msetsim.__file__).parent.glob("*.py"))
BANNED_IMPORTS = {"statistics", "numpy"}


def violations(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("sum", "fsum"):
                found.append(f"{where}: calls {func.id}()")
            elif (isinstance(func, ast.Attribute) and func.attr == "fsum"
                  and isinstance(func.value, ast.Name) and func.value.id == "math"):
                found.append(f"{where}: calls math.fsum()")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in BANNED_IMPORTS:
                    found.append(f"{where}: imports {alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] in BANNED_IMPORTS:
                found.append(f"{where}: imports from {node.module}")
            elif node.module == "math" and any(a.name == "fsum" for a in node.names):
                found.append(f"{where}: imports math.fsum")
    return found


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"indices.py", "msetops.py", "stats.py", "io.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_banned_summation(path):
    assert violations(path) == []


@pytest.mark.parametrize("src, bad", [
    ("total = sum(xs)", "calls sum()"),
    ("import math\nmath.fsum(xs)", "calls math.fsum()"),
    ("from math import fsum\nfsum(xs)", "imports math.fsum"),
    ("import statistics", "imports statistics"),
    ("import numpy as np", "imports numpy"),
    ("from numpy.linalg import norm", "imports from numpy.linalg"),
    ("from statistics import fmean", "imports from statistics"),
])
def test_rule_catches(tmp_path, src, bad):
    p = tmp_path / "m.py"
    p.write_text(src + "\n")
    assert any(bad in v for v in violations(p))
