"""Runs one workload in a fresh process and writes its measurements as JSON.

Started by ``run.py`` with OpenBLAS pinned to one thread and ``QPV_THREADS``
unset.  One process, one thread, one client in a closed loop: each op is an
in-process ``qpv.cli.main(argv)`` call that starts when the previous one
returned.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 \
        --scratch DIR --result FILE [--spans FILE]
    python3 perfbench/worker.py --setup-only --workload W --seed S --scratch DIR --result FILE
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _setup(workload: str, seed: int, scratch: Path):
    """Import qpv and generate the workload's configs: what ``setup_s`` times."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import qpv.cli
    import workloads

    scratch.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(workload, seed, scratch)
    return qpv.cli.main, wl, time.perf_counter() - start


def _run_pass(wl, main, tracer=None):
    """Run every op once; returns (pass seconds, per-op seconds, per-op errors)."""
    for op in wl.ops:  # so a missing output cannot be read from an earlier pass
        for path in op.outputs:
            Path(path).unlink(missing_ok=True)
    gc.collect()
    seconds, errors = [], []
    clock = time.perf_counter
    start = clock()
    for op in wl.ops:
        if tracer is not None:
            tracer.op_id += 1
        t = clock()
        try:
            rc = main(op.argv)
            errors.append(None if rc == 0 else f"exit code {rc}")
        except Exception as exc:  # an op that raises counts as failed
            errors.append(f"raised {exc!r}")
        seconds.append(clock() - t)
    return clock() - start, seconds, errors


def _read_outputs(wl) -> dict:
    outs = {}
    for op in wl.ops:
        try:
            outs[op.name] = [Path(p).read_bytes() for p in op.outputs]
        except FileNotFoundError:
            outs[op.name] = None
    return outs


def _check_pass(wl, outs, errors, first_digests) -> tuple[dict, dict]:
    """(unexpected, known) problems per op name for one pass.  Only a
    ledgered op's own check can fail as known; an error never does."""
    unexpected, known = {}, {}
    for op, err in zip(wl.ops, errors):
        if err is not None or outs[op.name] is None:
            unexpected[op.name] = [err or "no output written"]
            continue
        try:
            found = list(op.check(outs[op.name]))
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            found = [f"output unreadable: {exc!r}"]
        (known if op.known_defect else unexpected)[op.name] = found
        digest = hashlib.sha256(b"\0".join(outs[op.name])).hexdigest()
        if first_digests.setdefault(op.name, digest) != digest:
            unexpected.setdefault(op.name, []).append("output bytes differ from the first pass")
    if all(v is not None for v in outs.values()):
        for name, relation in wl.relations:
            unexpected[name] = unexpected.get(name, []) + list(relation(outs))
    return unexpected, known


def _class_throughputs(wl, seconds) -> dict:
    units, spent = {}, {}
    for op, sec in zip(wl.ops, seconds):
        units[op.cls] = units.get(op.cls, 0) + op.units
        spent[op.cls] = spent.get(op.cls, 0.0) + sec
    return {cls: units[cls] / spent[cls] for cls in units if spent[cls] > 0 and units[cls]}


def _metadata(workload: str, seed: int) -> dict:
    import mpmath
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(), "numpy": np.__version__,
        "mpmath": mpmath.__version__, "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "qpv_threads": os.environ.get("QPV_THREADS"),
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "git_commit": _git_commit(), "source_sha256": src.hexdigest(),
    }


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text(encoding="ascii").strip()
        return head
    except OSError:
        return None


def _median(values):
    return statistics.median(values) if values else 0.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    main_fn, wl, setup_s = _setup(args.workload, args.seed, args.scratch)
    if args.setup_only:
        args.result.write_text(json.dumps({"setup_s": setup_s}), encoding="ascii")
        return 0

    from tracing import Tracer
    from workloads import PATH_METRICS

    tracer = Tracer() if args.trace else None
    traced_main = tracer.wrap("cli.main", main_fn) if tracer else None
    digests, failures, known = {}, {}, {}
    walls, class_rates, work_rates = [], [], []
    traced_walls = []
    attempted = failed = 0
    begin = time.perf_counter()
    while True:
        # with tracing, passes alternate: untraced, then traced
        for traced in ((False, True) if tracer else (False,)):
            if traced:
                with tracer.installed():
                    wall, seconds, errors = _run_pass(wl, traced_main, tracer)
                traced_walls.append(wall)
            else:
                wall, seconds, errors = _run_pass(wl, main_fn)
                walls.append(wall)
                class_rates.append(_class_throughputs(wl, seconds))
                work = sum(op.units for op in wl.ops if op.cls in wl.work_classes)
                work_s = sum(s for op, s in zip(wl.ops, seconds) if op.cls in wl.work_classes)
                work_rates.append(work / work_s)
            outs = _read_outputs(wl)
            problems, known_problems = _check_pass(wl, outs, errors, digests)
            if attempted == 0:
                output_bytes = sum(len(b) for v in outs.values() if v for b in v)
                for name, check in wl.untimed_checks:
                    if outs[name] is not None:
                        problems[name] = problems.get(name, []) + check(outs[name])
            attempted += len(wl.ops)
            for op in wl.ops:
                if problems.get(op.name) or known_problems.get(op.name):
                    failed += 1
                failures.setdefault(op.name, set()).update(problems.get(op.name, ()))
                known.setdefault(op.name, set()).update(known_problems.get(op.name, ()))
        if time.perf_counter() - begin >= args.seconds:
            break

    result = {
        "attempted": attempted,
        "failed": failed,
        "unexpected_failures": {k: sorted(v) for k, v in failures.items() if v},
        "known_defects": {op.name: {"ledger": op.known_defect,
                                    "problems": sorted(known.get(op.name, ()))}
                          for op in wl.ops if op.known_defect},
        "passes": len(walls),
        "pass_walls": walls,
        "traced_pass_walls": traced_walls,
        "ops_per_pass": len(wl.ops),
        "setup_s": setup_s,
        "wall_s": _median(walls),
        "work_per_s": _median(work_rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "paths": {m.name: _median([r[m.cls] for r in class_rates if m.cls in r])
                  for m in PATH_METRICS},
        "path_units": {m.name: m.unit for m in PATH_METRICS},
        "meta": _metadata(args.workload, args.seed),
    }
    if tracer:
        layers = tracer.layer_totals(len(traced_walls))
        traced_wall = sum(traced_walls) / len(traced_walls)
        untraced_wall = sum(walls) / len(walls)
        layers.update(result["paths"])
        layers["cli.output_bytes"] = output_bytes
        layers["trace.self_s_sum"] = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        layers["trace.traced_wall_s"] = traced_wall
        layers["trace.untraced_wall_s"] = untraced_wall
        layers["trace.overhead_s"] = traced_wall - untraced_wall
        layers["trace.spans_per_pass"] = len(tracer.spans) / len(traced_walls)
        result["layers"] = layers
        if args.spans is not None:
            tracer.write_spans(args.spans)
    args.result.write_text(json.dumps(result, sort_keys=True), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
