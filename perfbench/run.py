"""qpv benchmark: one run of one workload, measured from outside the package.

    python3 perfbench/run.py --workload {simulate,attack,verify,bounds} \
        --seed N --seconds T --trace {0,1}

Run from the root of a source checkout (the package is imported from
``src/``).  The run starts fresh processes only: a few that time the set-up
alone, then one worker that runs the workload's ops in passes until T
seconds have gone and checks every output (see ``worker.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it print the same figures by name with units, the
per-path throughputs, the run's provenance and any failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("simulate", "attack", "verify", "bounds")
# setup_s is the median over this many fresh processes plus the worker
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 150


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("QPV_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # the same string hashes, hence dict layouts, in every worker: one less
    # source of process-to-process variance
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args: list, result: Path, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--result", str(result)]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    return json.loads(result.read_text(encoding="ascii"))


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the worker before this process exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "qpv" / "__init__.py").is_file():
        print(f"error: no qpv source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _load_spec()
    env = _child_env()
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                probe = _worker(common + ["--setup-only", "--scratch", str(run_dir / f"s{i}")],
                                run_dir / f"s{i}.json", env)
                setups.append(probe["setup_s"])
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        res = _worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                "--scratch", str(run_dir / "run"), "--spans", str(spans)],
                      run_dir / "result.json", env)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        values = {m["name"]: (res["layers"][m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        setups.append(res["setup_s"])
        measured = dict(res, setup_s=statistics.median(setups),
                        pass_ratio=(res["attempted"] - res["failed"]) / res["attempted"])
        values = {m["name"]: (measured[m["name"]], m["unit"]) for m in spec["end_to_end"]}

    print(f"# qpv benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} passes={res['passes']} "
          f"ops/pass={res['ops_per_pass']}")
    print("# provenance " + json.dumps(res["meta"], sort_keys=True))
    print(f"# untraced pass seconds: {', '.join(f'{w:.4f}' for w in res['pass_walls'])}")
    if args.trace:
        print(f"# traced pass seconds: {', '.join(f'{w:.4f}' for w in res['traced_pass_walls'])}")
    else:
        print(f"# setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    for name, (value, unit) in values.items():
        print(f"{name:48s} {_fmt(value):>14s} {unit}")
    if not args.trace:  # the traced run reports them among the per-layer metrics
        print("# per-path throughput (median over passes; 0 = path not in this workload)")
        for name, value in res["paths"].items():
            print(f"{name:48s} {_fmt(value):>14s} {res['path_units'][name]}")
    for name, entry in res["known_defects"].items():
        state = "still fails" if entry["problems"] else "now passes: update the ledger"
        print(f"# known defect, {state}: {name}: {entry['ledger']} {entry['problems']}")
    for name, problems in res["unexpected_failures"].items():
        print(f"# FAILED {name}: {problems}")
    print(json.dumps({
        "correct": not res["unexpected_failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
