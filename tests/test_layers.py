"""One state representation outside qcore, and one axis convention.

The package works on raw arrays: state vectors and density matrices.  The
dense density-matrix ops stay in ``qpv.qcore`` as the reference the kernel
tests compare against; no module outside ``qpv/qcore`` may call them.

Qubits map to array axes in one place, ``qpv/qcore/layout.py``
(``rows_first``/``rows_back``): no other module contracts with
``np.tensordot`` or reshapes a state into per-qubit axes (``[2] * n``,
``(2,) * n``).

Every name a subpackage exports is used by the program, the benchmark or
the README: library surface that only tests reach is deleted.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qpv"
QCORE = SRC / "qcore"

DENSE_NAMES = {
    "apply_matrix", "partial_trace", "fidelity", "von_neumann_entropy",
    "conditional_entropy", "dephase_register", "random_pure_state",
}


def dense_references(tree):
    """(line, name) of every reference to a dense op in a module's AST."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in DENSE_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in DENSE_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in DENSE_NAMES]
    return sorted(found)


MODULES = sorted(p for p in SRC.rglob("*.py") if QCORE not in p.parents)


def test_scan_covers_the_package():
    names = {p.relative_to(SRC).as_posix() for p in MODULES}
    assert {"cli.py", "protocol/runs.py", "attacks/good_sets.py",
            "checks/suites.py"} <= names
    assert not any(n.startswith("qcore/") for n in names)


def test_scan_finds_each_kind_of_reference():
    code = ("from qpv.qcore import fidelity\n"
            "qc.partial_trace(s, 'R')\n"
            "conditional_entropy(s, 'R')\n"
            "qc.conditional_entropy_pure(v, lay, 'R')\n")
    assert [name for _, name in dense_references(ast.parse(code))] == [
        "fidelity", "partial_trace", "conditional_entropy"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_dense_state_ops_outside_qcore(path):
    assert dense_references(ast.parse(path.read_text(), str(path))) == []


AXIS_OWNER = SRC / "qcore" / "layout.py"


def per_qubit_axes(tree):
    """(line, what) of every ``tensordot`` reference and every ``[2] * n`` /
    ``(2,) * n`` product (either operand order) in a module's AST."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id == "tensordot"
                or isinstance(node, ast.Attribute) and node.attr == "tensordot"):
            found.append((node.lineno, "tensordot"))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            for side in (node.left, node.right):
                if (isinstance(side, (ast.List, ast.Tuple)) and len(side.elts) == 1
                        and isinstance(side.elts[0], ast.Constant) and side.elts[0].value == 2):
                    found.append((node.lineno, "per-qubit axes"))
    return sorted(found)


def test_axis_scan_finds_each_form():
    code = ("t = vec.reshape([2] * n)\n"
            "u = np.reshape(v, (-1,) + (2,) * n)\n"
            "w = n * [2]\n"
            "np.tensordot(a, t, axes=1)\n"
            "x = [3] * n + (2, 2) * n\n")
    assert per_qubit_axes(ast.parse(code)) == [
        (1, "per-qubit axes"), (2, "per-qubit axes"), (3, "per-qubit axes"), (4, "tensordot")]


@pytest.mark.parametrize("path", sorted(p for p in SRC.rglob("*.py") if p != AXIS_OWNER),
                         ids=lambda p: p.relative_to(SRC).as_posix())
def test_qubit_axes_only_in_layout(path):
    assert per_qubit_axes(ast.parse(path.read_text(), str(path))) == []


PACKAGES = ("qcore", "protocol", "attacks", "checks", "analysis")


def unreferenced(names, sources):
    """The names with no word-boundary reference in ``sources`` besides their
    own top-level ``def``, ``class`` or assignment."""
    text = "\n".join(sources)
    return sorted(name for name in names if len(re.findall(rf"\b{name}\b", text)) == len(
        re.findall(rf"^(?:(?:def|class) {name}\b|{name} *[:=])", text, re.M)))


def test_reference_scan_skips_definitions():
    code = "X = 1\nclass C:\n    pass\ndef f(x):\n    return g(C)\n"
    assert unreferenced({"X", "C", "f", "g"}, [code]) == ["X", "f"]


def test_every_export_is_used_outside_the_tests():
    exports = {name for pkg in PACKAGES for mod in [importlib.import_module(f"qpv.{pkg}")]
               for name in mod.__all__ if not inspect.ismodule(getattr(mod, name))}
    sources = [p.read_text() for p in SRC.rglob("*.py") if p.name != "__init__.py"]
    sources += [p.read_text() for p in (ROOT / "perfbench").glob("*.py")]
    assert unreferenced(exports, sources + [(ROOT / "README.md").read_text()]) == []
