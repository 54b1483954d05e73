"""Command-line orchestration: simulate protocols, optimize attacks, compute
bounds, and run the verification suites.

Outputs are JSON / JSON-lines / CSV only, carry a provenance header
(config hash, seed, version), and are byte-identical for identical config
and seed.  Exit codes: 0 ok, 1 verification failure, 2 usage or config
error, 3 enumeration/resource budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, analysis, attacks, checks, protocol
from .analysis.commcplx import BudgetExceeded
from .qcore.rng import stream  # noqa: F401  (perfbench/tracing.py wraps qpv.cli.stream)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3

ROUND_SIM_LIMIT = 5_000_000
# CSV text is rendered and written in blocks of about this many rounds, so
# memory stays bounded whatever the output size
CSV_BLOCK_CELLS = 1 << 12


class ConfigError(Exception):
    pass


def _number(cast, expected: str):
    """A cast to ``cast``.  A value it rejects or cannot carry out (null, a
    list, a non-numeric string, "1/0"), a boolean, and for ``int`` a float
    with a fractional part are refused, not truncated to a number."""
    def read(value, where):
        fraction = cast is int and isinstance(value, float) and not value.is_integer()
        try:
            if not (isinstance(value, bool) or fraction):
                return cast(value)
        except (ArithmeticError, TypeError, ValueError):
            pass
        raise ConfigError(f"{where}: expected {expected}, got {value!r}")
    return read


INT, NUMBER, FRACTION = (_number(int, "an integer"), _number(float, "a number"),
                         _number(Fraction, "a number"))


def _one_of(choices, message: str):
    """A cast admitting only ``choices``; ``message`` formats a refused value."""
    def read(value, where):
        if value not in choices:
            raise ConfigError(message.format(value))
        return value
    return read


def _boolean(value, where):
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected true or false, got {value!r}")
    return value


def _split(value, where):
    if value is not None and (not isinstance(value, list) or len(value) != 3):
        raise ConfigError(f"{where}: expected three integers, got {value!r}")
    return None if value is None else tuple(INT(w, where) for w in value)


def _matchings(table, where):
    """A garden-hose matching table: an object from input to a list of node
    pairs, each node "S" (Alice's source) or a pipe number."""
    if not isinstance(table, dict):
        raise ConfigError(f"{where}: expected an object of pair lists")
    out = {}
    for key, pairs in table.items():
        at = f"{where}.{key}"
        if not isinstance(pairs, list) or not all(isinstance(p, list) for p in pairs):
            raise ConfigError(f"{at}: expected a list of node pairs")
        out[INT(key, where)] = tuple(
            tuple(node if node == "S" else INT(node, at) for node in pair) for pair in pairs)
    return out


def _schema(rows: dict, *required: str) -> dict:
    """A schema, key -> (cast, default, required), from rows key -> (cast,
    default).  A cast of None passes the value through."""
    return {key: (cast, default, key in required) for key, (cast, default) in rows.items()}


def _kinds(rows: dict, kinds: dict) -> dict:
    """One schema per kind of an object with a "kind" key, from ``kinds``:
    kind -> (the keys it admits besides "kind", None for every row; the keys
    it needs).  The None entry serves every other kind."""
    return {kind: _schema({key: row for key, row in rows.items()
                           if admits is None or key in ("kind", *admits)}, "kind", *needs)
            for kind, (admits, needs) in kinds.items()}


def _fields(obj, where: str, schema: dict):
    """Check a config object against its schema (or, for a dict of kinds,
    the one its "kind" picks) and return ``read``: ``read(key)`` is the key's
    value, or its default, through the key's cast.  Values are cast when
    read, so a config with two faults reports the first one read.  Without a
    "kind" no other missing key is reported: the kind decides which are."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    if None in schema:
        kind = obj.get("kind")
        # a kind that is not a string gets the None schema, whose cast refuses it
        schema = schema.get(kind if isinstance(kind, str) else None, schema[None])
    unknown = set(obj) - set(schema)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [key for key, (_, _, required) in schema.items() if required and key not in obj]
    if missing:
        raise ConfigError(f"{where}: missing keys {['kind'] if 'kind' in missing else missing}")

    def read(key):
        cast, default, _ = schema[key]
        value = obj.get(key, default)
        return value if cast is None else cast(value, f"{where}.{key}")
    return read


RAW = (None, None)  # a row passed through as given, None when missing
SIMULATE = _schema({
    "protocol": (_one_of(protocol.PROTOCOLS, "unknown protocol {!r}"), None), "n": RAW,
    "f": RAW, "rounds": (INT, None), "trials": (INT, 1), "eta": (NUMBER, 0.0),
    "prover": (None, {"kind": "honest"}), "noise_mode": (None, "bernoulli"),
}, "protocol", "n", "f", "rounds")
ATTACK_ROWS = {
    "f": RAW, "n": RAW, "kind": (None, "route"), "q": (INT, 2), "split": (_split, None),
    "restarts": (INT, 20), "iters": (INT, 60), "unentangled": (_boolean, False),
    "epsilon": (NUMBER, 0.1), "gardenhose": RAW,
}
ATTACK = _schema(ATTACK_ROWS, "f")
# a garden-hose compile reads none of the see-saw's search settings
ATTACK_GARDENHOSE = _schema(
    {key: ATTACK_ROWS[key] for key in ("f", "n", "epsilon", "gardenhose")}, "f")
GARDENHOSE = _schema({"pipes": (INT, None), "alice": (_matchings, None),
                      "bob": (_matchings, None)}, "pipes", "alice", "bob")
FUNCTION_ROWS = {"kind": RAW, "n": (INT, None), "seed": (INT, None), "table": RAW,
                 "bit": (INT, None), "path": RAW}
# each function kind admits only the keys it reads, and every kind admits the
# "n" a function object inherits from its config; an unknown kind, every key
FUNCTION = _kinds(FUNCTION_ROWS, {
    "ip": (("n",), ("n",)), "xor": (("n",), ("n",)), "constant": (("n", "bit"), ("n",)),
    "random": (("n", "seed"), ("n",)), "table": (("n", "table"), ("n", "table")),
    "file": (("n", "path"), ("path",)), None: (None, ("n",))})


# prover kind -> its prover, from the spec's reader and f
PROVERS = {
    "honest": lambda read, f: protocol.HONEST,
    "synthetic": lambda read, f: protocol.SyntheticAdversary(read("p")),
    "keep_q": lambda read, f: attacks.keep_q_attack(f),
    "strategy": lambda read, f: attacks.strategy_from_json(
        Path(read("path")).read_text(encoding="ascii")),
    "wrong_basis": lambda read, f: protocol.Prover(meas_mode="wrong_basis"),
    "random_bit": lambda read, f: protocol.Prover(meas_mode="random_bit"),
    "discard": lambda read, f: protocol.Prover(replace_with=read("state")),
    "measure_forward": lambda read, f: protocol.Prover(premeasure_basis=read("basis")),
    "route_wrong": lambda read, f: protocol.Prover(route_to="swapped"),
}
# each prover kind admits only the keys it reads; an unknown kind, every key
PROVER = _kinds({"kind": (_one_of(tuple(PROVERS), "prover: unknown kind {!r}"), None),
                 "p": (NUMBER, None), "state": (INT, 0), "basis": (INT, 0), "path": RAW},
                {**{kind: ((), ()) for kind in PROVERS}, "synthetic": (("p",), ("p",)),
                 "strategy": (("path",), ("path",)), "discard": (("state",), ()),
                 "measure_forward": (("basis",), ()), None: (None, ())})
BOUNDS_ROWS = {
    "kind": (_one_of(("counting", "net_size", "delta_margin", "volume", "qubit_bound", "cc"),
                     "unknown bounds kind {!r}"), None),
    "n": (INT, None), "q": (INT, None), "lambda": (FRACTION, None), "f": RAW, "k": (INT, None),
    "f_kind": (_one_of(("random", "cc"), "unknown f_kind {!r}"), None),
    "model": (_one_of(("smp", "oneway"), "unknown model {!r}"), "smp"),
}
# each bounds kind admits only the keys it reads; an unknown one, every key
BOUNDS = _kinds(BOUNDS_ROWS, {
    "counting": (("n", "q"), ("n", "q")), "net_size": (("q",), ("q",)),
    "delta_margin": ((), ()), "volume": (("n", "lambda"), ("n", "lambda")),
    "qubit_bound": (("f_kind", "n", "k", "f"), ("f_kind",)),
    "cc": (("f", "n", "k", "model"), ("f", "k")), None: (None, ())})
QUBIT_RANDOM = _schema(BOUNDS_ROWS, "n")


def _provenance(config: dict, seed: int) -> dict:
    canonical = json.dumps(config, sort_keys=True).encode()
    return {"config_sha256": hashlib.sha256(canonical).hexdigest(), "seed": seed,
            "version": __version__}


def _function_from_config(config: dict, seed: int):
    """The function of ``config["f"]``.  A spec without its own "n" (and not
    a file) inherits the config's; otherwise a config "n" must agree with it,
    as a file spec's own "n" must with the file's."""
    if "f" not in config:
        raise ConfigError("config: missing keys ['f']")
    spec = config["f"]
    inherits = isinstance(spec, dict) and "n" not in spec and spec.get("kind") != "file"
    if isinstance(spec, dict) and "n" in config:
        spec = {"n": config["n"], **spec}
    read = _fields(spec, "f", FUNCTION)
    if spec["kind"] == "file":
        own = read("n") if "n" in config["f"] else None
        f = analysis.load_function(spec["path"])
        if own not in (None, f.n):
            raise ConfigError(f"f.n = {own} disagrees with the file's n = {f.n}")
    else:
        spec = {key: read(key) for key in FUNCTION_ROWS if key in spec}
        if spec["kind"] == "random":
            spec.setdefault("seed", seed)
        f = analysis.function_from_spec(spec)
    if not inherits and "n" in config:
        n = INT(config["n"], "config.n")
        if n != f.n:
            raise ConfigError(f"config.n = {n} disagrees with f.n = {f.n}")
    return f


def _ci95(rate, n):
    if n <= 1:
        return [0.0, 1.0]
    half = 1.96 * math.sqrt(max(rate * (1 - rate), 1e-12) / n)
    return [max(0.0, rate - half), min(1.0, rate + half)]


def cmd_simulate(config: dict, seed: int, keep_rounds: bool = True):
    """The summary and the draws; with ``keep_rounds=False`` the draws hold
    only the accept counts, all the summary needs."""
    read = _fields(config, "config", SIMULATE)
    proto, rounds, trials, eta = read("protocol"), read("rounds"), read("trials"), read("eta")
    if rounds < 1 or trials < 1:
        raise ConfigError("rounds and trials must be positive")
    if rounds * trials > ROUND_SIM_LIMIT:
        raise BudgetExceeded(f"{rounds}x{trials} rounds exceed the simulation budget")
    f = _function_from_config(config, seed)
    prover_read = _fields(read("prover"), "prover", PROVER)
    prover = PROVERS[prover_read("kind")](prover_read, f)
    cfg = protocol.NoisyRepeatConfig(rounds=rounds, eta=eta)
    draws = protocol.draw_trials(cfg, proto, f, prover, seed, trials, read("noise_mode"),
                                 keep_rounds=keep_rounds)
    round_rate = int(draws.accept_counts.sum()) / (rounds * trials)
    thr_rate = float(np.mean(draws.accept_counts > cfg.threshold))
    return {
        "provenance": _provenance(config, seed), "protocol": proto, "rounds": rounds,
        "trials": trials, "eta": eta, "threshold": cfg.threshold,
        "acceptance_rate": round_rate, "acceptance_rate_ci95": _ci95(round_rate, rounds * trials),
        "threshold_acceptance_rate": thr_rate,
        "threshold_acceptance_rate_ci95": _ci95(thr_rate, trials),
        "per_round_probability": draws.per_round_probability,
    }, draws


def _csv_blocks(draws):
    """The CSV text, one ``trial,round,x,y,accepted`` line per round,
    trial-major, as a sequence of blocks of whole lines."""
    trials, rounds = draws.accepted.shape
    side = len(draws.table)
    # a line is "<trial>," then a cell "<round>,<x>,<y>,<accepted>\n"; a cell's
    # tail is one of 2*side^2, picked by (x, y, accepted)
    tails = np.array([f"{x},{y},{a}\n" for x in range(side) for y in range(side)
                      for a in (0, 1)], dtype=object)
    heads = np.array([f"{i}," for i in range(rounds)], dtype=object)
    # with enough trials, format every (round, tail) cell once and pick from
    # the table; a table string (~60 B) outweighs an output line (~15 B) about
    # 4 to 1, so from 5 trials per tail the table holds fewer bytes than the
    # text it renders
    table = heads[:, None] + tails if trials >= 5 * len(tails) else None
    step = max(1, CSV_BLOCK_CELLS // rounds)
    yield "trial,round,x,y,accepted\n"
    for start in range(0, trials, step):
        block = slice(start, start + step)
        codes = (draws.xs[block] * side + draws.ys[block]) * 2 + draws.accepted[block]
        cells = heads + tails[codes] if table is None else table[np.arange(rounds), codes]
        yield "".join([f"{t}," + f"{t},".join(row)
                       for t, row in enumerate(cells.tolist(), start)])


def cmd_attack_optimize(config: dict, seed: int):
    read = _fields(config, "config", ATTACK_GARDENHOSE if "gardenhose" in config else ATTACK)
    f = _function_from_config(config, seed)
    eps = read("epsilon")
    if "gardenhose" in config:
        gh_read = _fields(config["gardenhose"], "gardenhose", GARDENHOSE)
        gh = attacks.GardenHoseProtocol(pipes=gh_read("pipes"), alice=gh_read("alice"),
                                        bob=gh_read("bob"))
        strategy = attacks.compile_gardenhose(gh)
        report = attacks.epsilon_l_report(strategy, f)
        extra = {"gardenhose_computes_f": attacks.computes(gh, f)}
    else:
        kind, q, split = read("kind"), read("q"), read("split")
        fix_psi = None
        if read("unentangled"):
            a, at, ac = split if split else attacks.default_split(q)
            fix_psi = attacks.unentangled_product_state(attacks.attack_layout(a=a, at=at, ac=ac))
        outcome = attacks.seesaw_optimize(f, q=q, kind=kind, seed=seed, split=split,
                                          fix_psi=fix_psi, restarts=read("restarts"),
                                          iters=read("iters"))
        strategy, report = outcome.strategy, outcome.report
        extra = {"restart_values": list(outcome.restart_values),
                 "best_value": outcome.best_value}
    doc = {"provenance": _provenance(config, seed), "report": report.as_dict(eps), **extra}
    return doc, attacks.strategy_to_json(strategy)


def cmd_bounds(config: dict, seed: int):
    read = _fields(config, "config", BOUNDS)
    kind = read("kind")
    out = {"provenance": _provenance(config, seed), "kind": kind}
    if kind == "counting":
        out.update(analysis.counting_bound(read("n"), read("q")).as_dict())
    elif kind == "net_size":
        out.update(analysis.net_size_report(read("q")).as_dict())
    elif kind == "delta_margin":
        out["value"] = float(analysis.delta_margin_value())
        out["passes"] = analysis.delta_margin_check()
    elif kind == "volume":
        lam = read("lambda")
        out["passes"] = analysis.volume_entropy_check(read("n"), lam)
    elif kind == "qubit_bound" and read("f_kind") == "random":
        n = _fields(config, "config", QUBIT_RANDOM)("n")
        out["q_max"] = analysis.attacker_qubit_bound("random", n=n)
        if n < 10:
            out["precondition_note"] = "guarantee requires n >= 10"
    elif kind == "qubit_bound":
        if "k" in config:
            k = read("k")
        else:
            k = out["smp_cc"] = analysis.smp_cc(_function_from_config(config, seed))
        out["q_max"] = analysis.attacker_qubit_bound("cc", k=k)
    else:
        f = _function_from_config(config, seed)
        k, model = read("k"), read("model")
        bruteforce = analysis.smp_cc_bruteforce if model == "smp" else analysis.oneway_cc_bruteforce
        err = bruteforce(f, k)
        out.update(k=k, model=model, error=[err.numerator, err.denominator],
                   error_float=float(err))
    return out


def cmd_verify(names, seed: int):
    return checks.run_checks(None if names == ["all"] else names, seed=seed)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first call, not at import, and reused by every later one."""
    parser = argparse.ArgumentParser(
        prog="qpv", description="single-qubit position-verification simulator and verifier")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "attack-optimize", "bounds"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="overrides the config's 'seed' key (default 0)")
        p.add_argument("--out", default=None)
        if name == "simulate":
            p.add_argument("--format", choices=("json", "csv"), default="json",
                           help="stdout format when --out is not given")
    v = sub.add_parser("verify")
    v.add_argument("--suite", default="all", help="comma-separated check names, or 'all'")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None)
    return parser


def _write(*outputs):
    """Write each ``(path, blocks)`` output's string blocks to ``path``, or
    a single output's to stdout when its path is None.  Each file is written
    under a temporary name in its target directory, and the files replace
    their targets only once all are complete, the first target last.  On an
    error the temporaries are removed, so a failed run leaves the first
    target as it was, and the error names the target, not the temporary."""
    if outputs[0][0] is None:
        sys.stdout.writelines(outputs[0][1])
        return
    mask = os.umask(0)
    os.umask(mask)
    pending = []
    try:
        for path, blocks in outputs:
            fd, temp = tempfile.mkstemp(dir=os.path.dirname(path) or ".")
            pending.append((temp, path))
            with open(fd, "w", encoding="ascii") as fh:
                fh.writelines(blocks)
            # mkstemp makes the file private; give it the mode open() would
            os.chmod(temp, 0o666 & ~mask)
        for temp, path in pending[::-1]:
            os.replace(temp, path)
            pending.pop()
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        for temp, _ in pending:
            os.remove(temp)


def _json_line(doc) -> list:
    return [json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"]


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "verify":
            names = [n.strip() for n in args.suite.split(",") if n.strip()]
            reports = cmd_verify(names, args.seed)
            _write((args.out, ["\n".join(r.json_line() for r in reports) + "\n"]))
            return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ConfigError("config: expected an object")
        seed = config.pop("seed", 0)
        seed = INT(seed, "config.seed") if args.seed is None else args.seed
        if args.command == "simulate":
            csv = bool(args.out) or args.format == "csv"
            summary, draws = cmd_simulate(config, seed, keep_rounds=csv)
            if args.out:
                _write((args.out, _json_line(summary)), (args.out + ".csv", _csv_blocks(draws)))
            else:
                _write((None, _csv_blocks(draws) if csv else _json_line(summary)))
        elif args.command == "attack-optimize":
            doc, strategy_json = cmd_attack_optimize(config, seed)
            if args.out:
                _write((args.out, _json_line(doc)),
                       (args.out + ".strategy.json", [strategy_json + "\n"]))
            else:
                _write((None, _json_line({**doc, "strategy": json.loads(strategy_json)})))
        else:
            _write((args.out, _json_line(cmd_bounds(config, seed))))
        return EXIT_OK
    except (ConfigError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
