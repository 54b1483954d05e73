"""One state representation outside qcore.

The package works on raw arrays: state vectors and density matrices.  The
dense density-matrix ops stay in ``qpv.qcore`` as the reference the kernel
tests compare against; no module outside ``qpv/qcore`` may call them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qpv"
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
