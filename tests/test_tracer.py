"""The benchmark tracer (``perfbench/tracing.py``) patches names inside qpv.

A refactor that renames one of those names breaks only traced benchmark
runs.  Installing and removing the tracer here catches that in the test
suite, and checks that every patched name is restored afterwards.
"""

import importlib
from pathlib import Path

import qpv.analysis
import qpv.attacks
import qpv.checks
import qpv.cli
import qpv.protocol
import qpv.protocol.repetition
import qpv.qcore

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = (qpv.analysis, qpv.attacks, qpv.checks, qpv.cli, qpv.protocol,
           qpv.protocol.repetition, qpv.qcore)


def _snapshot():
    """Every name of each module: a subpackage loads a name on first use, so
    reading its ``__all__`` first makes the snapshot the same whichever
    modules earlier tests imported."""
    for mod in MODULES:
        for name in getattr(mod, "__all__", ()):
            getattr(mod, name)
    names = {mod.__name__: dict(vars(mod)) for mod in MODULES}
    names["RUNNERS"] = dict(qpv.protocol.RUNNERS)
    names["CHECKS"] = dict(qpv.checks.CHECKS)
    return names


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    before = _snapshot()
    with tracing.Tracer().installed():
        assert qpv.protocol.repetition.accept_probability \
            is not before["qpv.protocol.repetition"]["accept_probability"]
        assert qpv.protocol.constant_round_probability \
            is not before["qpv.protocol"]["constant_round_probability"]
        assert qpv.cli.stream is not before["qpv.cli"]["stream"]
        assert all(qpv.protocol.RUNNERS[p] is not before["RUNNERS"][p]
                   for p in qpv.protocol.PROTOCOLS)
        assert qpv.qcore.apply_vector_matrix \
            is not before["qpv.qcore"]["apply_vector_matrix"]
    after = _snapshot()
    assert after.keys() == before.keys()
    for owner, names in before.items():
        assert after[owner].keys() == names.keys(), owner
        changed = [k for k, v in names.items() if after[owner][k] is not v]
        assert not changed, (owner, changed)
