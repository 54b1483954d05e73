"""Each command loads only the modules it calls.

The subpackages ``analysis``, ``attacks``, ``checks`` and ``protocol`` load a
submodule when one of its exported names is first used (``qpv.lazy_exports``).
What a test sees in ``sys.modules`` depends on what earlier tests imported, so
the footprint checks run in a fresh interpreter.
"""

import json
import os
import re
import subprocess
import sys

import pytest

import qpv.attacks

LAZY = ("qpv.analysis", "qpv.attacks", "qpv.checks", "qpv.protocol")
NEVER_ON_START = ("mpmath", "qpv.checks.suites", "qpv.attacks.seesaw",
                  "qpv.attacks.gardenhose", "qpv.attacks.good_sets", "qpv.analysis.counting")


def fresh(script: str):
    """The JSON a fresh interpreter prints after running ``script``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


# what only simulate and attack-optimize read: the protocol names, the provers
# and the strategy format
PROTOCOL_SIDE = ("qpv.protocol.runs", "qpv.protocol.provers", "qpv.protocol.geometry",
                 "qpv.attacks.strategy")


def test_cli_import_loads_no_command_module():
    loaded = fresh("import json, sys, qpv.cli; print(json.dumps(sorted(sys.modules)))")
    assert [m for m in NEVER_ON_START + PROTOCOL_SIDE if m in loaded] == []


def test_bounds_counting_loads_no_protocol_module(tmp_path):
    cfg = tmp_path / "b.json"
    cfg.write_text(json.dumps({"kind": "counting", "n": 10, "q": 0}))
    out = tmp_path / "out.json"
    loaded = fresh(f"import json, sys, qpv.cli\n"
                   f"assert qpv.cli.main(['bounds', '--config', {str(cfg)!r}, "
                   f"'--out', {str(out)!r}]) == 0\n"
                   f"print(json.dumps(sorted(sys.modules)))")
    assert out.is_file()
    assert "qpv.analysis.counting" in loaded
    assert [m for m in PROTOCOL_SIDE if m in loaded] == []


def test_simulate_loads_no_search_check_or_bound_module(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"protocol": "route_entangled", "n": 1,
                               "f": {"kind": "xor", "n": 1}, "rounds": 5,
                               "prover": {"kind": "keep_q"}}))
    out = tmp_path / "out.json"
    loaded = fresh(f"import json, sys, qpv.cli\n"
                   f"assert qpv.cli.main(['simulate', '--config', {str(cfg)!r}, "
                   f"'--out', {str(out)!r}]) == 0\n"
                   f"print(json.dumps(sorted(sys.modules)))")
    assert out.is_file()
    assert {"qpv.protocol.repetition", "qpv.attacks.execute"} <= set(loaded)
    assert [m for m in NEVER_ON_START + ("qpv.checks.report", "qpv.analysis.commcplx")
            if m in loaded] == []


@pytest.mark.parametrize("package", LAZY)
def test_every_export_is_its_home_modules_object(package):
    """In a fresh interpreter, each ``__all__`` name resolves to the object of
    that name in a submodule and is then stored in the package."""
    bad = fresh(f"""
import importlib, inspect, json
pkg = importlib.import_module({package!r})
subs = [importlib.import_module(f"{{pkg.__name__}}.{{n}}") for n in pkg.__all__
        if inspect.ismodule(getattr(pkg, n))]
bad = []
for name in pkg.__all__:
    value = getattr(pkg, name)
    if value is not vars(pkg)[name] or not (
            any(value is s or vars(s).get(name, bad) is value for s in subs)):
        bad.append(name)
print(json.dumps([len(subs), bad]))
""")
    assert bad[0] > 0 and bad[1] == []


def test_unknown_name_names_the_package():
    with pytest.raises(AttributeError,
                       match=re.escape("module 'qpv.attacks' has no attribute 'nope'")):
        qpv.attacks.nope
    with pytest.raises(ImportError, match="nope"):
        from qpv.attacks import nope  # noqa: F401


def test_from_import_and_attribute_give_one_object():
    from qpv.attacks import seesaw_optimize
    assert seesaw_optimize is qpv.attacks.seesaw_optimize
    assert seesaw_optimize.__module__ == "qpv.attacks.seesaw"
