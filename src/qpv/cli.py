"""Command-line orchestration: simulate protocols, optimize attacks, compute
bounds, and run the verification suites.

Outputs are JSON / JSON-lines / CSV only, carry a provenance header
(config hash, seed, version), and are byte-identical for identical config
and seed.  Exit codes: 0 ok, 1 verification failure, 2 usage or config
error, 3 enumeration/resource budget exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

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


# keys that one kind of function, prover or bound needs beyond "kind"
FUNCTION_KEYS = {"file": ("path",), "table": ("n", "table")}
PROVER_KEYS = {"synthetic": ("p",), "strategy": ("path",)}
BOUNDS_KEYS = {"counting": ("n", "q"), "net_size": ("q",), "volume": ("n", "lambda"),
               "qubit_bound": ("f_kind",), "cc": ("f", "k")}


def _require_keys(obj: dict, where: str, required: tuple = (), optional: tuple = ()):
    """Reject a non-object, unknown keys and missing required keys; with
    ``optional=tuple(obj)`` only the required keys are checked."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")


def _number(value, where: str, cast=int):
    """``cast(value)`` for a config value.  A value the cast rejects (null, a
    list, a non-numeric string), a boolean, and for ``int`` a float with a
    fractional part are ConfigErrors naming the object and key, not values
    truncated to a number."""
    expected = "an integer" if cast is int else "a number"
    truncated = cast is int and isinstance(value, float) and not value.is_integer()
    if isinstance(value, bool) or truncated:
        raise ConfigError(f"{where}: expected {expected}, got {value!r}")
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected {expected}, got {value!r}") from None


def _parse_matchings(table, where: str) -> dict:
    """A garden-hose matching table: an object from input to a list of node
    pairs, each node "S" (Alice's source) or a pipe number."""
    if not isinstance(table, dict):
        raise ConfigError(f"{where}: expected an object of pair lists")
    out = {}
    for key, pairs in table.items():
        at = f"{where}.{key}"
        if not isinstance(pairs, list) or not all(isinstance(p, list) for p in pairs):
            raise ConfigError(f"{at}: expected a list of node pairs")
        out[_number(key, where)] = tuple(
            tuple(node if node == "S" else _number(node, at) for node in pair)
            for pair in pairs)
    return out


def _provenance(config: dict, seed: int) -> dict:
    canonical = json.dumps(config, sort_keys=True).encode()
    return {
        "config_sha256": hashlib.sha256(canonical).hexdigest(),
        "seed": seed,
        "version": __version__,
    }


def _function_from_config(config: dict, seed: int):
    _require_keys(config, "config", ("f",), tuple(config))
    _require_keys(config["f"], "f", ("kind",), ("n", "seed", "table", "bit", "path"))
    spec = dict(config["f"])
    if "n" in config:
        spec.setdefault("n", config["n"])
    _require_keys(spec, "f", FUNCTION_KEYS.get(spec["kind"], ("n",)), tuple(spec))
    if spec["kind"] == "file":
        return analysis.load_function(spec["path"])
    for key in ("n", "seed", "bit"):
        if key in spec:
            spec[key] = _number(spec[key], f"f.{key}")
    if spec["kind"] == "random" and "seed" not in spec:
        spec["seed"] = seed
    return analysis.function_from_spec(spec)


def _prover_from_config(config: dict, f):
    spec = config.get("prover", {"kind": "honest"})
    _require_keys(spec, "prover", ("kind",), ("p", "state", "basis", "path"))
    kind = spec["kind"]
    _require_keys(spec, "prover", PROVER_KEYS.get(kind, ()), tuple(spec))
    if kind == "honest":
        return protocol.HONEST
    if kind == "synthetic":
        return protocol.SyntheticAdversary(_number(spec["p"], "prover.p", float))
    if kind == "keep_q":
        return attacks.keep_q_attack(f)
    if kind == "strategy":
        with open(spec["path"], "r", encoding="ascii") as fh:
            return attacks.strategy_from_json(fh.read())
    if kind == "wrong_basis":
        return protocol.Prover(meas_mode="wrong_basis")
    if kind == "random_bit":
        return protocol.Prover(meas_mode="random_bit")
    if kind == "discard":
        return protocol.Prover(replace_with=_number(spec.get("state", 0), "prover.state"))
    if kind == "measure_forward":
        return protocol.Prover(premeasure_basis=_number(spec.get("basis", 0), "prover.basis"))
    if kind == "route_wrong":
        return protocol.Prover(route_to="swapped")
    raise ConfigError(f"prover: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(config: dict, seed: int):
    _require_keys(config, "config",
                  ("protocol", "n", "f", "rounds"),
                  ("eta", "trials", "prover", "noise_mode"))
    proto = config["protocol"]
    if proto not in protocol.PROTOCOLS:
        raise ConfigError(f"unknown protocol {proto!r}")
    rounds = _number(config["rounds"], "config.rounds")
    trials = _number(config.get("trials", 1), "config.trials")
    eta = _number(config.get("eta", 0.0), "config.eta", float)
    noise_mode = config.get("noise_mode", "bernoulli")
    if rounds < 1 or trials < 1:
        raise ConfigError("rounds and trials must be positive")
    if rounds * trials > ROUND_SIM_LIMIT:
        raise BudgetExceeded(f"{rounds}x{trials} rounds exceed the simulation budget")
    f = _function_from_config(config, seed)
    prover = _prover_from_config(config, f)
    cfg = protocol.NoisyRepeatConfig(rounds=rounds, eta=eta)
    draws = protocol.draw_trials(cfg, proto, f, prover, seed, trials, noise_mode)
    accept_counts = draws.accept_counts
    round_rate = int(accept_counts.sum()) / (rounds * trials)
    thr_rate = float(np.mean(accept_counts > cfg.threshold))

    def ci95(rate, n):
        if n <= 1:
            return [0.0, 1.0]
        half = 1.96 * math.sqrt(max(rate * (1 - rate), 1e-12) / n)
        return [max(0.0, rate - half), min(1.0, rate + half)]

    summary = {
        "provenance": _provenance(config, seed),
        "protocol": proto,
        "rounds": rounds,
        "trials": trials,
        "eta": eta,
        "threshold": cfg.threshold,
        "acceptance_rate": round_rate,
        "acceptance_rate_ci95": ci95(round_rate, rounds * trials),
        "threshold_acceptance_rate": thr_rate,
        "threshold_acceptance_rate_ci95": ci95(thr_rate, trials),
        "per_round_probability": draws.per_round_probability,
    }
    return summary, draws


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


# ---------------------------------------------------------------------------
# attack-optimize
# ---------------------------------------------------------------------------

def cmd_attack_optimize(config: dict, seed: int):
    _require_keys(config, "config", ("f",),
                  ("n", "kind", "q", "split", "restarts", "iters", "unentangled",
                   "epsilon", "gardenhose"))
    f = _function_from_config(config, seed)
    eps = _number(config.get("epsilon", 0.1), "config.epsilon", float)
    if "gardenhose" in config:
        gh_spec = config["gardenhose"]
        _require_keys(gh_spec, "gardenhose", ("pipes", "alice", "bob"), ())
        gh = attacks.GardenHoseProtocol(
            pipes=_number(gh_spec["pipes"], "gardenhose.pipes"),
            alice=_parse_matchings(gh_spec["alice"], "gardenhose.alice"),
            bob=_parse_matchings(gh_spec["bob"], "gardenhose.bob"))
        strategy = attacks.compile_gardenhose(gh)
        report = attacks.epsilon_l_report(strategy, f)
        extra = {"gardenhose_computes_f": attacks.computes(gh, f)}
    else:
        kind = config.get("kind", "route")
        q = _number(config.get("q", 2), "config.q")
        split = config.get("split")
        if split is not None:
            if not isinstance(split, list) or len(split) != 3:
                raise ConfigError(f"config.split: expected three integers, got {split!r}")
            split = tuple(_number(w, "config.split") for w in split)
        fix_psi = None
        if config.get("unentangled"):
            a, at, ac = split if split else attacks.default_split(q)
            fix_psi = attacks.unentangled_product_state(
                attacks.attack_layout(a=a, at=at, ac=ac))
        outcome = attacks.seesaw_optimize(
            f, q=q, kind=kind, seed=seed, split=split, fix_psi=fix_psi,
            restarts=_number(config.get("restarts", 20), "config.restarts"),
            iters=_number(config.get("iters", 60), "config.iters"))
        strategy = outcome.strategy
        report = outcome.report
        extra = {"restart_values": list(outcome.restart_values),
                 "best_value": outcome.best_value}
    doc = {
        "provenance": _provenance(config, seed),
        "report": report.as_dict(eps),
        **extra,
    }
    return doc, attacks.strategy_to_json(strategy)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def cmd_bounds(config: dict, seed: int):
    _require_keys(config, "config", ("kind",),
                  ("n", "q", "k", "f", "f_kind", "model", "lambda", "error"))
    kind = config["kind"]
    _require_keys(config, "config", BOUNDS_KEYS.get(kind, ()), tuple(config))
    out = {"provenance": _provenance(config, seed), "kind": kind}
    if kind == "counting":
        report = analysis.counting_bound(_number(config["n"], "config.n"),
                                         _number(config["q"], "config.q"))
        out.update(report.as_dict())
    elif kind == "net_size":
        out.update(analysis.net_size_report(_number(config["q"], "config.q")).as_dict())
    elif kind == "delta_margin":
        out["value"] = float(analysis.delta_margin_value())
        out["passes"] = analysis.delta_margin_check()
    elif kind == "volume":
        from fractions import Fraction
        lam = _number(config["lambda"], "config.lambda", Fraction)
        out["passes"] = analysis.volume_entropy_check(_number(config["n"], "config.n"), lam)
    elif kind == "qubit_bound":
        f_kind = config["f_kind"]
        if f_kind == "random":
            _require_keys(config, "config", ("n",), tuple(config))
            n = _number(config["n"], "config.n")
            out["q_max"] = analysis.attacker_qubit_bound("random", n=n)
            if n < 10:
                out["precondition_note"] = "guarantee requires n >= 10"
        elif f_kind == "cc":
            if "k" in config:
                k = _number(config["k"], "config.k")
            else:
                f = _function_from_config(config, seed)
                k = analysis.smp_cc(f)
                out["smp_cc"] = k
            out["q_max"] = analysis.attacker_qubit_bound("cc", k=k)
        else:
            raise ConfigError(f"unknown f_kind {f_kind!r}")
    elif kind == "cc":
        f = _function_from_config(config, seed)
        model = config.get("model", "smp")
        k = _number(config["k"], "config.k")
        if model == "smp":
            err = analysis.smp_cc_bruteforce(f, k)
        elif model == "oneway":
            err = analysis.oneway_cc_bruteforce(f, k)
        else:
            raise ConfigError(f"unknown model {model!r}")
        out["k"] = k
        out["model"] = model
        out["error"] = [err.numerator, err.denominator]
        out["error_float"] = float(err)
    else:
        raise ConfigError(f"unknown bounds kind {kind!r}")
    return out


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(names, seed: int):
    return checks.run_checks(None if names == ["all"] else names, seed=seed)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpv",
        description="single-qubit position-verification simulator and verifier")
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
    v.add_argument("--suite", default="all",
                   help="comma-separated check names, or 'all'")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None)
    return parser


def _write(path, text):
    """Write a string, or a sequence of string blocks, to ``path`` or stdout."""
    blocks = [text] if isinstance(text, str) else text
    if path is None:
        last = ""
        for last in blocks:
            sys.stdout.write(last)
        if not last.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines(blocks)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        if args.command == "verify":
            names = [n.strip() for n in args.suite.split(",") if n.strip()]
            reports = cmd_verify(names, args.seed)
            lines = "\n".join(r.json_line() for r in reports) + "\n"
            _write(args.out, lines)
            return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY

        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if args.seed is None:
            args.seed = _number(config.pop("seed", 0), "config.seed")
        else:
            config.pop("seed", None)

        if args.command == "simulate":
            summary, draws = cmd_simulate(config, args.seed)
            if args.out:
                _write(args.out, json.dumps(summary, sort_keys=True) + "\n")
                _write(args.out + ".csv", _csv_blocks(draws))
            elif args.format == "csv":
                _write(None, _csv_blocks(draws))
            else:
                _write(None, json.dumps(summary, sort_keys=True))
            return EXIT_OK

        if args.command == "attack-optimize":
            doc, strategy_json = cmd_attack_optimize(config, args.seed)
            if args.out:
                _write(args.out, json.dumps(doc, sort_keys=True) + "\n")
                _write(args.out + ".strategy.json", strategy_json + "\n")
            else:
                doc["strategy"] = json.loads(strategy_json)
                _write(None, json.dumps(doc, sort_keys=True))
            return EXIT_OK

        if args.command == "bounds":
            out = cmd_bounds(config, args.seed)
            _write(args.out, json.dumps(out, sort_keys=True) + ("\n" if args.out else ""))
            return EXIT_OK

        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, FileNotFoundError, json.JSONDecodeError, KeyError,
            ValueError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
