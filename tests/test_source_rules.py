"""Source rules of the package.

The summation contract: no module may call the builtin ``sum`` or
``math.fsum``, or import ``statistics`` or ``numpy``.  CPython 3.12 made
``sum()`` compensated for floats, ``fsum`` rounds exactly and NumPy sums
pairwise, so any of them would change result bits, or make them depend on
the interpreter version.

Validate once: samples are checked in ``Signal``, so only the functions
that bring samples in (``io.read_csv``) or produce a standardized signal
(``stats.standardize`` and the CLI command that writes one) may call
``Signal(...)`` or ``standardize(...)``; code below them works on
validated value tuples.

One output rule: every file the package writes is opened by
``io._outputs``, which stages an existing file and removes what a failed
write created, so no other code may call ``open()`` with a mode that
writes (one holding ``w``, ``a``, ``x`` or ``+``, or one that is not a
constant), ``os.open`` or ``tempfile.mkstemp``.

One parameter rule: what counts as a valid parameter is decided in
``msetops``, by ``_real``, ``_whole`` and ``_member``.  So the tables a
parameter picks from (``_GATED``, ``_ROWS`` and ``_SCORERS``) are
subscripted only inside ``msetops._member``, and only ``msetops`` calls
``isinstance`` with ``bool`` among its types, the test that refuses a bool
where a number is meant.

One operand rule: each public pointwise function takes its operands by
``msetops._operands`` and tests no finiteness of its own, and the CLI's
per-sample loop calls no checked pointwise function: its samples are
validated by ``Signal``."""

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


SIGNAL_BUILDERS = {"io.read_csv", "stats.standardize", "cli._cmd_standardize"}


def signal_builds(path: Path) -> list[str]:
    """Calls of ``Signal`` or ``standardize``, by plain or attribute name,
    outside :data:`SIGNAL_BUILDERS`, each as ``scope:line: calls name()``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in ("Signal", "standardize") and scope not in SIGNAL_BUILDERS:
                    found.append(f"{scope}:{child.lineno}: calls {name}()")
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem)
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_signals_built_only_where_samples_enter(path):
    assert signal_builds(path) == []


@pytest.mark.parametrize("name, src, bad", [
    ("m.py", "def f(v):\n    return Signal(v.values)", "m.f:2: calls Signal()"),
    ("stats.py", "def double_pearson(x, y):\n    return standardize(x)",
     "stats.double_pearson:2: calls standardize()"),
    ("m.py", "class C:\n    def g(self, v):\n        return stats.standardize(v)",
     "m.C.g:3: calls standardize()"),
    ("m.py", "S = msetops.Signal((1.0,))", "m:1: calls Signal()"),
])
def test_signal_rule_catches(tmp_path, name, src, bad):
    p = tmp_path / name
    p.write_text(src + "\n")
    assert signal_builds(p) == [bad]


def test_signal_rule_allows_the_builders(tmp_path):
    p = tmp_path / "stats.py"
    p.write_text("def standardize(v):\n    return Signal(v.values)\n")
    assert signal_builds(p) == []


WRITE_OPENER = "io._outputs"


def write_opens(path: Path) -> list[str]:
    """Calls that may open a file for writing outside :data:`WRITE_OPENER`,
    each as ``scope:line: calls name()``: ``os.open`` and ``mkstemp`` by
    plain or attribute name, and ``open`` by either, whose mode (the second
    argument of a plain ``open()``, the first of a method such as
    ``Path.open``, or ``mode=``) is given and is not a constant string free
    of ``w``, ``a``, ``x`` and ``+``."""
    found = []

    def writes(call: ast.Call) -> bool:
        func = call.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name == "mkstemp" or ast.unparse(func) == "os.open":
            return True
        if name != "open":
            return False
        at = 0 if isinstance(func, ast.Attribute) else 1
        modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[at:at + 1]
        return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str)
                        and not set(m.value) & set("wax+")) for m in modes)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call) and scope != WRITE_OPENER and writes(child):
                found.append(f"{scope}:{child.lineno}: calls {ast.unparse(child.func)}()")
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_files_are_written_only_through_the_output_rule(path):
    assert write_opens(path) == []


@pytest.mark.parametrize("name, src, bad", [
    ("m.py", "def f(p):\n    return open(p, 'w')", "m.f:2: calls open()"),
    ("m.py", "def f(p):\n    return open(p, mode='ab')", "m.f:2: calls open()"),
    ("m.py", "def f(p):\n    return open(p, 'r+b')", "m.f:2: calls open()"),
    ("m.py", "def f(p, mode):\n    return open(p, mode)", "m.f:2: calls open()"),
    ("m.py", "def f(p):\n    return p.open('x')", "m.f:2: calls p.open()"),
    ("m.py", "import os\nfd = os.open('f', os.O_RDONLY)", "m:2: calls os.open()"),
    ("m.py", "import tempfile\nfd, name = tempfile.mkstemp()", "m:2: calls tempfile.mkstemp()"),
    ("m.py", "from tempfile import mkstemp\nfd, name = mkstemp()", "m:2: calls mkstemp()"),
    ("io.py", "def write_csv(p):\n    return open(p, 'w')", "io.write_csv:2: calls open()"),
    ("io.py", "class C:\n    def _outputs(self, p):\n        return open(p, 'w')",
     "io.C._outputs:3: calls open()"),
])
def test_output_rule_catches(tmp_path, name, src, bad):
    p = tmp_path / name
    p.write_text(src + "\n")
    assert write_opens(p) == [bad]


def test_output_rule_allows_reads_and_the_opener(tmp_path):
    p = tmp_path / "io.py"
    p.write_text("def read(p):\n    return open(p), open(p, 'rb'), open(p, newline=''), p.open()\n"
                 "def _outputs(p, mode):\n    return open(p, mode), open(p, 'w')\n")
    assert write_opens(p) == []


PARAMETER_TABLES = {"_GATED", "_ROWS", "_SCORERS"}
TABLE_LOOKUP = "msetops._member"


def parameter_decisions(path: Path) -> list[str]:
    """Subscripts of a parameter table, by plain or attribute name, outside
    :data:`TABLE_LOOKUP`, and ``isinstance`` calls whose type, or a member
    of whose type tuple, is ``bool`` outside ``msetops``, each as
    ``scope:line: what``."""
    found = []

    def names_bool(types) -> bool:
        members = types.elts if isinstance(types, ast.Tuple) else [types]
        return any(isinstance(t, ast.Name) and t.id == "bool" for t in members)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Subscript) and scope != TABLE_LOOKUP:
                name = getattr(child.value, "id", None) or getattr(child.value, "attr", None)
                if name in PARAMETER_TABLES:
                    found.append(f"{scope}:{child.lineno}: subscripts {name}")
            elif (isinstance(child, ast.Call) and getattr(child.func, "id", None) == "isinstance"
                  and len(child.args) == 2 and names_bool(child.args[1])
                  and path.stem != "msetops"):
                found.append(f"{scope}:{child.lineno}: isinstance names bool")
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_parameters_are_decided_only_in_msetops(path):
    assert parameter_decisions(path) == []


@pytest.mark.parametrize("name, src, bad", [
    ("fields.py", "def field_rows(expr):\n    return _ROWS[expr]",
     "fields.field_rows:2: subscripts _ROWS"),
    ("sliding.py", "def slide(i):\n    return sliding._SCORERS[i]",
     "sliding.slide:2: subscripts _SCORERS"),
    ("msetops.py", "def _weights(kind):\n    return _GATED[kind]",
     "msetops._weights:2: subscripts _GATED"),
    ("io.py", "class R:\n    def f(self, v):\n        return isinstance(v, (str, bool))",
     "io.R.f:3: isinstance names bool"),
    ("fields.py", "ok = isinstance(n, int) and not isinstance(n, bool)",
     "fields:1: isinstance names bool"),
])
def test_parameter_rule_catches(tmp_path, name, src, bad):
    p = tmp_path / name
    p.write_text(src + "\n")
    assert parameter_decisions(p) == [bad]


def test_parameter_rule_allows_the_rules(tmp_path):
    p = tmp_path / "msetops.py"
    p.write_text("def _member(key):\n    return _GATED[key]\n"
                 "def _real(v):\n    return isinstance(v, (str, bool))\n")
    assert parameter_decisions(p) == []


POINTWISE = ["msetops.kernel", "signs.sign", "signs.conjoint_signs", "signs.gen_kronecker",
             "fields.jr_value"]


def names_in(where: str) -> set[str]:
    """The plain and attribute names that the function ``module.name`` uses."""
    module, name = where.split(".")
    tree = ast.parse((Path(msetsim.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))
    func = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
    return {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(func)}


@pytest.mark.parametrize("where", POINTWISE)
def test_pointwise_operands_are_taken_by_the_operand_rule(where):
    used = names_in(where)
    assert "_operands" in used and "isfinite" not in used


def test_signs_command_maps_the_unchecked_gates():
    used = names_in("cli._cmd_signs")
    assert "_conjoint" in used and "conjoint_signs" not in used
