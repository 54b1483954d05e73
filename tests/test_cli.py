import contextlib
import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpv import analysis as an
from qpv import attacks as at
from qpv import cli
from qpv import protocol as pr
from qpv import qcore as qc
from qpv.attacks import strategy_from_json


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_honest(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", {
        "protocol": "route_bb84", "n": 2,
        "f": {"kind": "random", "seed": 3}, "rounds": 100,
    })
    code, out, _ = run_cli(capsys, "simulate", "--config", cfg, "--seed", "4")
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["acceptance_rate"] == 1.0
    assert doc["provenance"]["seed"] == 4
    assert doc["provenance"]["version"]


def test_simulate_writes_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", {
        "protocol": "meas", "n": 1, "f": {"kind": "xor", "n": 1},
        "rounds": 5, "trials": 2,
    })
    out_path = tmp_path / "res.json"
    code, _, _ = run_cli(capsys, "simulate", "--config", cfg, "--out", str(out_path))
    assert code == cli.EXIT_OK
    lines = (tmp_path / "res.json.csv").read_text().splitlines()
    assert lines[0] == "trial,round,x,y,accepted"
    assert len(lines) == 1 + 10
    trial, rnd, x, y, acc = lines[1].split(",")
    assert acc in ("0", "1")


def test_simulate_attack_prover(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", {
        "protocol": "route_entangled", "n": 1, "f": {"kind": "xor", "n": 1},
        "rounds": 400, "prover": {"kind": "keep_q"},
    })
    code, out, _ = run_cli(capsys, "simulate", "--config", cfg, "--seed", "5")
    assert code == cli.EXIT_OK
    rate = json.loads(out)["acceptance_rate"]
    assert abs(rate - 0.5) < 0.08


def test_simulate_rejects_unknown_key(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", {
        "protocol": "meas", "n": 1, "f": {"kind": "xor", "n": 1},
        "rounds": 5, "bogus": 1,
    })
    code, _, err = run_cli(capsys, "simulate", "--config", cfg)
    assert code == cli.EXIT_CONFIG
    assert "bogus" in err


@pytest.mark.parametrize("extra, needle", [
    ({"noise_mode": "gaussian"}, "gaussian"),
    ({"require_both": True}, "require_both"),
], ids=["noise_mode", "require_both"])
def test_simulate_rejects_bad_noise_mode_and_dropped_key(tmp_path, capsys, extra, needle):
    cfg = write_config(tmp_path, "sim.json", {
        "protocol": "meas", "n": 1, "f": {"kind": "xor", "n": 1},
        "rounds": 5, **extra,
    })
    code, _, err = run_cli(capsys, "simulate", "--config", cfg)
    assert code == cli.EXIT_CONFIG
    assert needle in err


def test_depolarizing_honest_rate_library_and_cli(tmp_path, capsys):
    # calibrated depolarizing noise fails an honest round with probability eta
    rounds, trials, eta, seed = 200, 50, 0.01, 4
    cfg = write_config(tmp_path, "sim.json", {
        "protocol": "route_entangled", "n": 1, "f": {"kind": "xor", "n": 1},
        "rounds": rounds, "trials": trials, "eta": eta, "noise_mode": "depolarizing",
    })
    code, out, _ = run_cli(capsys, "simulate", "--config", cfg, "--seed", str(seed))
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    lib = pr.noisy_threshold_trials(pr.NoisyRepeatConfig(rounds=rounds, eta=eta),
                                    "route_entangled", an.xor_function(1), seed=seed,
                                    trials=trials, noise_mode="depolarizing")
    sigma = math.sqrt(eta * (1 - eta) / (rounds * trials))
    for p_round, rate in ((doc["per_round_probability"], doc["acceptance_rate"]),
                          (lib["per_round_probability"], lib["mean_accept_count"] / rounds)):
        assert p_round == pytest.approx(1 - eta, abs=1e-12)
        assert abs(rate - (1 - eta)) <= 4 * sigma


def test_keep_q_counts_library_matches_cli(tmp_path, capsys):
    rounds, trials, seed = 100, 5, 6
    cfg = write_config(tmp_path, "sim.json", {
        "protocol": "route_bb84", "n": 2, "f": {"kind": "ip", "n": 2},
        "rounds": rounds, "trials": trials, "prover": {"kind": "keep_q"},
    })
    out_path = tmp_path / "res.json"
    code, _, _ = run_cli(capsys, "simulate", "--config", cfg, "--seed", str(seed),
                         "--out", str(out_path))
    assert code == cli.EXIT_OK
    cli_counts = np.zeros(trials, dtype=int)
    for line in (tmp_path / "res.json.csv").read_text().splitlines()[1:]:
        trial, _, _, _, accepted = map(int, line.split(","))
        cli_counts[trial] += accepted
    ip2 = an.ip_function(2)
    lib = pr.noisy_threshold_trials(pr.NoisyRepeatConfig(rounds=rounds, eta=0.0),
                                    "route_bb84", ip2, at.keep_q_attack(ip2),
                                    seed=seed, trials=trials)
    assert lib["per_round_probability"] is None
    assert lib["accept_counts"] == cli_counts.tolist()


def test_simulate_missing_config_file(capsys):
    code, _, err = run_cli(capsys, "simulate", "--config", "/nonexistent.json")
    assert code == cli.EXIT_CONFIG


def test_directory_config_and_out_are_config_errors(tmp_path, capsys):
    # exit 1 would report a verification failure
    refused = (cli.EXIT_CONFIG, "", f"error: [Errno 21] Is a directory: '{tmp_path}'\n")
    assert run_cli(capsys, "simulate", "--config", str(tmp_path)) == refused
    assert run_cli(capsys, "verify", "--suite", "m1_m2", "--out", str(tmp_path)) == refused


def test_bounds_counting_and_budget(tmp_path, capsys):
    cfg = write_config(tmp_path, "b.json", {"kind": "counting", "n": 10, "q": 0})
    code, out, _ = run_cli(capsys, "bounds", "--config", cfg)
    assert code == cli.EXIT_OK
    assert json.loads(out)["passes"] is True

    cfg = write_config(tmp_path, "b2.json", {
        "kind": "cc", "model": "smp", "k": 2,
        "f": {"kind": "ip", "n": 3},
    })
    code, _, err = run_cli(capsys, "bounds", "--config", cfg)
    assert code == cli.EXIT_BUDGET


def test_bounds_qubit_bound_via_smp(tmp_path, capsys):
    cfg = write_config(tmp_path, "b3.json", {
        "kind": "qubit_bound", "f_kind": "cc", "f": {"kind": "ip", "n": 2},
    })
    code, out, _ = run_cli(capsys, "bounds", "--config", cfg)
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["smp_cc"] == 1
    assert doc["q_max"] == -3

    cfg = write_config(tmp_path, "b4.json", {
        "kind": "qubit_bound", "f_kind": "random", "n": 9,
    })
    code, out, _ = run_cli(capsys, "bounds", "--config", cfg)
    doc = json.loads(out)
    assert doc["q_max"] == -1 and "n >= 10" in doc["precondition_note"]


@pytest.mark.parametrize("command, payload", [
    ("attack-optimize", {"f": {"kind": "ip"}}),
    ("bounds", {"kind": "cc", "k": 1, "f": {"kind": "ip"}}),
], ids=["attack-optimize", "bounds"])
def test_function_without_n_is_a_config_error(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path, "f.json", payload)
    code, out, err = run_cli(capsys, command, "--config", cfg)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err == "error: f: missing keys ['n']\n"


GH_PIPES = {"pipes": 2, "bob": {"0": [[1, 2]], "1": []}}


# a missing key, or a value of the wrong type or shape, is a config error
# that names the object and the key
@pytest.mark.parametrize("command, payload, message", [
    ("bounds", {"kind": "counting", "n": 12}, "config: missing keys ['q']"),
    ("bounds", {"kind": "qubit_bound", "f_kind": "random"}, "config: missing keys ['n']"),
    ("simulate", {"protocol": "meas", "n": 1, "f": {"kind": "xor"}, "rounds": 5,
                  "prover": {"kind": "synthetic"}}, "prover: missing keys ['p']"),
    ("simulate", {"protocol": "meas", "n": 1, "f": {"kind": "table"}, "rounds": 5},
     "f: missing keys ['table']"),
    ("attack-optimize", {"f": {"kind": "ip", "n": None}}, "f.n: expected an integer, got None"),
    ("simulate", {"protocol": "meas", "n": 1, "f": {"kind": "xor"}, "rounds": None},
     "config.rounds: expected an integer, got None"),
    ("simulate", {"protocol": "meas", "n": 1, "f": {"kind": "xor"}, "rounds": 5,
                  "prover": {"kind": "synthetic", "p": [1]}},
     "prover.p: expected a number, got [1]"),
    ("bounds", {"kind": "cc", "k": None, "f": {"kind": "ip", "n": 1}},
     "config.k: expected an integer, got None"),
    ("attack-optimize", {"f": {"kind": "xor", "n": 1}, "split": 5},
     "config.split: expected three integers, got 5"),
    ("attack-optimize", {"f": {"kind": "xor", "n": 1}, "gardenhose": {"alice": [], **GH_PIPES}},
     "gardenhose.alice: expected an object of pair lists"),
    # booleans and fractional integers are refused, not truncated
    ("simulate", {"protocol": "meas", "n": 1, "f": {"kind": "xor"}, "rounds": 2.5},
     "config.rounds: expected an integer, got 2.5"),
    ("simulate", {"protocol": "meas", "n": 1, "f": {"kind": "xor"}, "rounds": 5,
                  "trials": True}, "config.trials: expected an integer, got True"),
    ("simulate", {"protocol": "meas", "n": 1, "f": {"kind": "xor", "n": 1.9}, "rounds": 5},
     "f.n: expected an integer, got 1.9"),
    ("attack-optimize", {"f": {"kind": "xor", "n": 1}, "restarts": 2.5},
     "config.restarts: expected an integer, got 2.5"),
    ("simulate", {"protocol": "meas", "n": 1, "f": {"kind": "xor"}, "rounds": 5,
                  "prover": {"kind": "synthetic", "p": True}},
     "prover.p: expected a number, got True"),
], ids=["counting-q", "qubit_bound-n", "synthetic-p", "table", "f-n-null", "rounds-null",
        "synthetic-p-list", "cc-k-null", "split-int", "gardenhose-alice-list",
        "rounds-fraction", "trials-bool", "f-n-fraction", "restarts-fraction",
        "synthetic-p-bool"])
def test_missing_kind_key_names_object_and_key(tmp_path, capsys, command, payload, message):
    cfg = write_config(tmp_path, "k.json", payload)
    code, out, err = run_cli(capsys, command, "--config", cfg)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err == f"error: {message}\n"


def test_attack_optimize_gardenhose(tmp_path, capsys):
    cfg = write_config(tmp_path, "a.json", {
        "f": {"kind": "table", "n": 1, "table": "0101"},
        "gardenhose": {"pipes": 2,
                       "alice": {"0": [["S", 1]], "1": [["S", 1]]},
                       "bob": {"0": [[1, 2]], "1": []}},
        "epsilon": 0.1,
    })
    out_path = tmp_path / "res.json"
    code, _, _ = run_cli(capsys, "attack-optimize", "--config", cfg,
                         "--out", str(out_path))
    assert code == cli.EXIT_OK
    doc = json.loads(out_path.read_text())
    assert doc["report"]["average_success"] == pytest.approx(1.0, abs=1e-9)
    assert doc["report"]["l"] == 4
    strat = strategy_from_json((tmp_path / "res.json.strategy.json").read_text())
    assert strat.kind == "route"


def test_gardenhose_inputs_without_a_key_have_the_empty_matching(tmp_path, capsys):
    """n comes from f, not from the largest key: inputs 1 to 3 have no key."""
    cfg = write_config(tmp_path, "a.json", {
        "f": {"kind": "xor", "n": 2},
        "gardenhose": {"pipes": 1, "alice": {"0": [["S", 1]]}, "bob": {"0": []}},
    })
    out_path = tmp_path / "res.json"
    code, _, err = run_cli(capsys, "attack-optimize", "--config", cfg, "--out", str(out_path))
    assert (code, err) == (cli.EXIT_OK, "")
    doc = json.loads(out_path.read_text())
    assert len(doc["report"]["per_pair"]) == 16
    assert doc["gardenhose_computes_f"] is False


def test_strategy_prover_with_unnormalized_psi_is_a_config_error(tmp_path, capsys):
    doc = json.loads(at.strategy_to_json(at.keep_q_attack(an.xor_function(1))))
    doc["psi"]["data"][0][0] = f"{(2.0).hex()},{(0.0).hex()}"
    path = tmp_path / "bad.strategy.json"
    path.write_text(json.dumps(doc))
    cfg = write_config(tmp_path, "sim.json", {
        "protocol": "route_entangled", "n": 1, "f": {"kind": "xor", "n": 1},
        "rounds": 5, "prover": {"kind": "strategy", "path": str(path)},
    })
    code, out, err = run_cli(capsys, "simulate", "--config", cfg)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: psi has norm ") and err.endswith(", not 1\n")


def _simulate_strategy(tmp_path, capsys, doc):
    """``simulate`` with a strategy prover reading ``doc`` as its file."""
    path = tmp_path / "s.strategy.json"
    path.write_text(json.dumps(doc))
    cfg = write_config(tmp_path, "sim.json", {
        "protocol": "route_entangled", "n": 1, "f": {"kind": "xor", "n": 1},
        "rounds": 5, "prover": {"kind": "strategy", "path": str(path)},
    })
    return run_cli(capsys, "simulate", "--config", cfg)


@pytest.mark.parametrize("drop, add, message", [
    (["bob"], {}, None),
    (["psi"], {}, "strategy: missing keys ['psi']"),
    (["kind", "n", "layout"], {}, "strategy: missing keys ['kind', 'layout', 'n']"),
    ([], {"extra": 1}, "strategy: unknown keys ['extra']"),
    (["psi"], {"psi": {"kind": "pure"}}, "strategy.psi: missing keys ['data']"),
    (["psi"], {"psi": {"data": [], "norm": 1}}, "strategy.psi: unknown keys ['norm']"),
    ([], {"psi": {"kind": "pure", "data": []}},
     "strategy.psi.data: expected a non-empty list of equal-length rows of strings"),
    ([], {"layout": 5}, "strategy.layout: expected a list of [name, width] pairs, got 5"),
    ([], {"n": "1"}, "strategy.n: expected an integer, got '1'"),
    ([], {"kind": ["route"]}, "strategy.kind: expected a string, got ['route']"),
    ([], {"alice": [1]}, "strategy.alice: expected an object or null, got [1]"),
    ([], {"qubit_site": {"0,0": "C"}},
     "qubit_site[(0, 0)]: expected 'A' or 'B' at an input pair of n = 1, got 'C'"),
    ([], {"alice": {"a": []}}, "strategy.alice['a']: expected an integer"),
    ([], {"l_final": {"0": []}}, "strategy.l_final['0']: expected two integers x,y"),
    ([], {"psi": {"kind": "bogus", "data": [["0x1.0p+0,0x0.0p+0"]]}},
     "strategy.psi.kind: expected 'pure', got 'bogus' (purify a mixed state on wider registers)"),
    ([], {"n": -1}, "strategy.n: expected an integer >= 1, got -1"),
    ([], {"psi": {"kind": "pure", "data": [["zz"]]}},
     """strategy.psi.data[0][0]: expected "re,im" in float.hex spelling, got 'zz'"""),
    ([], {"psi": {"kind": "pure", "data": [["0x1p+0,0x0p+0,1"]]}},
     """strategy.psi.data[0][0]: expected "re,im" in float.hex spelling, got '0x1p+0,0x0p+0,1'"""),
    ([], {"alice": {"0": [["0x1.0000000000000p+0,0x0.0p+0", "0xzz,0x0.0p+0"]]}},
     """strategy.alice['0'][0][1]: expected "re,im" in float.hex spelling, got '0xzz,0x0.0p+0'"""),
    ([], {"psi": {"kind": "pure", "data": [["0.5,0"]]}},
     """strategy.psi.data[0][0]: expected "re,im" in float.hex spelling, got '0.5,0'"""),
], ids=["no-bob", "no-psi", "no-kind-n-layout", "extra", "no-psi-data", "psi-extra",
        "psi-data-empty", "layout-not-pairs", "n-not-int", "kind-not-str", "alice-not-object",
        "site-not-a-side", "alice-key-not-int", "pair-key-one-part", "psi-kind-unknown",
        "n-negative", "cell-one-part", "cell-three-parts", "cell-bad-hex", "cell-decimal"])
def test_strategy_prover_names_a_missing_or_unknown_key(tmp_path, capsys, drop, add, message):
    """An absent family reads as null; any other absent key, an unknown one
    or a value of the wrong type is a config error naming the place."""
    doc = json.loads(at.strategy_to_json(at.keep_q_attack(an.xor_function(1))))
    full = _simulate_strategy(tmp_path, capsys, doc)
    for key in drop:
        del doc[key]
    code, out, err = _simulate_strategy(tmp_path, capsys, {**doc, **add})
    if message is None:
        assert (code, out, err) == full and code == cli.EXIT_OK
    else:
        assert (code, out, err) == (cli.EXIT_CONFIG, "", f"error: {message}\n")


def test_attack_optimize_seesaw(tmp_path, capsys):
    cfg = write_config(tmp_path, "a2.json", {
        "f": {"kind": "constant", "n": 1, "bit": 0},
        "kind": "route", "q": 1, "restarts": 2, "iters": 20,
    })
    code, out, _ = run_cli(capsys, "attack-optimize", "--config", cfg, "--seed", "6")
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["best_value"] >= 1 - 1e-6
    assert "strategy" in doc


def test_attack_optimize_rejects_zero_restarts(tmp_path, capsys):
    cfg = write_config(tmp_path, "a0.json", {
        "f": {"kind": "xor", "n": 1}, "kind": "route", "q": 1, "restarts": 0,
    })
    code, out, err = run_cli(capsys, "attack-optimize", "--config", cfg)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert "restarts" in err


@pytest.mark.parametrize("extra, needle", [
    ({"kind": "routing"}, "'route' or 'meas'"),
    ({"iters": -3}, "iters"),
    ({"split": [2, 0, 0]}, "A register"),
    ({"kind": "meas", "q": 0, "split": [0, 0, 0]}, "A register"),
])
def test_attack_optimize_rejects_bad_search_settings(tmp_path, capsys, extra, needle):
    # each is refused before the first restart, not run as something else
    cfg = write_config(tmp_path, "bad.json", {
        "f": {"kind": "xor", "n": 1}, "kind": "route", "q": 2, "restarts": 1, **extra,
    })
    code, out, err = run_cli(capsys, "attack-optimize", "--config", cfg)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: ") and needle in err


def test_verify_single_and_exit_codes(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "m1_m2", "--seed", "2")
    assert code == cli.EXIT_OK
    doc = json.loads(out.strip())
    assert doc["name"] == "m1_m2" and doc["pass"] is True

    code, _, err = run_cli(capsys, "verify", "--suite", "nope")
    assert code == cli.EXIT_CONFIG
    assert "nope" in err
    assert '"' not in err

    # a list that names no suite runs none, so it cannot pass
    code, out, err = run_cli(capsys, "verify", "--suite", ",")
    assert (code, out, err) == (cli.EXIT_CONFIG, "", "error: no check named\n")


def test_verify_writes_jsonl(tmp_path, capsys):
    out_path = tmp_path / "reports.jsonl"
    code, _, _ = run_cli(capsys, "verify", "--suite", "m1_m2,afw",
                         "--seed", "3", "--out", str(out_path))
    assert code == cli.EXIT_OK
    lines = out_path.read_text().strip().splitlines()
    assert [json.loads(l)["name"] for l in lines] == ["m1_m2", "afw"]


def test_outputs_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", {
        "protocol": "meas", "n": 1, "f": {"kind": "xor", "n": 1},
        "rounds": 20, "trials": 3, "eta": 0.01,
    })
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "simulate", "--config", cfg, "--seed", "9")
        assert code == cli.EXIT_OK
        outs.append(out)
    assert outs[0] == outs[1]


# SHA-256 of the README's verify and attack-optimize outputs at seed 0: the
# verify JSON lines, and each attack report (without the package version)
# followed by its strategy JSON; recorded before the unused library options
# and duplicate helpers were deleted.  The seed-1 verify digest was recorded
# before the Haar QRs were stacked, and those of seeds 2-9 before the verify
# samplers lost their per-trial replay paths.  A verify entry's config is its
# seed.
# The see-saw route entry and the simulate entries (summary without the
# package version, then the CSV) were recorded before the strategy format
# moved into one table; a simulate entry's strategy prover reads the
# strategy of the attack-optimize entry its path names.  The README's
# sim.json entry carries its seed 7 as a config key, which gives the files
# that --seed 7 gives.  The two see-saw entries and the simulate entry that
# reads the route one were re-recorded when psi became |Omega>_RA x phi
# and the see-saw began to freeze the vector it scored.
PINNED_OUTPUTS = {
    "verify_all": (
        "verify", 0,
        "cb2b8b47a067565075237479e6f45219ff52873dc907119b07decb66b67a401f"),
    "verify_all_seed1": (
        "verify", 1,
        "a8334ed05e77c0e56f933d978609b1bcbe005d89e2eebd8dcf1ae14643bb8a79"),
    "verify_all_seed2": (
        "verify", 2,
        "d4668aacb20b88d637e5fa2b40f69ee402d968a81cfe80f57eb7a2ebc74a270b"),
    "verify_all_seed3": (
        "verify", 3,
        "35d171b37d5b2f89620619ea13ac628f23d4324a9ae99237e471721cf3e860d1"),
    "verify_all_seed4": (
        "verify", 4,
        "39eba3a042055bafc7ee326be127286e7267a97ac0c249a8ffdfb604a848dc19"),
    "verify_all_seed5": (
        "verify", 5,
        "0ec5b0dd371e6443e905775875ecbd99698ace89f8dc815945e77ffaeca602ac"),
    "verify_all_seed6": (
        "verify", 6,
        "d743679bdcef6124fc348dd70fd24111d7e74385597a16599d41aae8c2339c7b"),
    "verify_all_seed7": (
        "verify", 7,
        "531a740f3de55ef4b187a91e1ada20de94781ceb137697bdb34bb5323fd55ca0"),
    "verify_all_seed8": (
        "verify", 8,
        "987ebba487206b8779cf685ddc0be8a8f5297dabe998e6507019ba0cb2ffc23d"),
    "verify_all_seed9": (
        "verify", 9,
        "eebbc542ad8d40ec055302fe099026c14e7319d548aa3aa4a1bc67257947fe12"),
    "seesaw_meas_unentangled": (
        "attack-optimize",
        {"f": {"kind": "ip", "n": 1}, "kind": "meas", "q": 2, "unentangled": True,
         "restarts": 20, "iters": 60},
        "a53da80c240277b631d4f35fd4b1746f64271d691de16661a70146f1bbb14eee"),
    "gardenhose": (
        "attack-optimize",
        {"f": {"kind": "table", "n": 1, "table": "0101"},
         "gardenhose": {"pipes": 2, "alice": {"0": [["S", 1]], "1": [["S", 1]]},
                        "bob": {"0": [[1, 2]], "1": []}}},
        "99241a43f6f83238e979604c539dcae85ad73daf462f3622266c96c004a443eb"),
    "seesaw_route_q3": (
        "attack-optimize",
        {"f": {"kind": "ip", "n": 1}, "kind": "route", "q": 3, "restarts": 3, "iters": 4},
        "de8362d916584faf52451103ae8d2ace3c77ed3e09034e872d248597fedc901a"),
    "simulate_route_entangled_seesaw": (
        "simulate",
        {"protocol": "route_entangled", "n": 1, "f": {"kind": "ip", "n": 1}, "rounds": 200,
         "trials": 2, "prover": {"kind": "strategy", "path": "seesaw_route_q3.strategy.json"}},
        "65649dd46fddadbd58a3eec49afcf80644b98e8e548c8c075dee3166243506f7"),
    "simulate_route_bb84_gardenhose": (
        "simulate",
        {"protocol": "route_bb84", "n": 1, "f": {"kind": "table", "n": 1, "table": "0101"},
         "rounds": 200, "trials": 2,
         "prover": {"kind": "strategy", "path": "gardenhose.strategy.json"}},
        "12ed5b60900f80087d5a12ba2c1b899766ef57a171e641efbf3632e6a9f917a9"),
    "simulate_meas_seesaw": (
        "simulate",
        {"protocol": "meas", "n": 1, "f": {"kind": "ip", "n": 1}, "rounds": 200, "trials": 2,
         "prover": {"kind": "strategy", "path": "seesaw_meas_unentangled.strategy.json"}},
        "bfba7d6e531ccbb65fd3cfc7f308f040371b6f32f1c1b593f7b045a036f24af5"),
    "simulate_readme": (
        "simulate",
        {"protocol": "route_bb84", "n": 2, "f": {"kind": "random", "seed": 3}, "rounds": 100,
         "seed": 7},
        "72f554df2c1e1a8e7e5e42f203cea08e7952887bd74ddd7f4045d3b785c2b562"),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_outputs_pinned(tmp_path, capsys, monkeypatch, name):
    command, config, digest = PINNED_OUTPUTS[name]
    monkeypatch.chdir(tmp_path)   # a strategy prover's path is relative
    if command == "simulate" and "prover" in config:
        source = config["prover"]["path"].removesuffix(".strategy.json")
        source_config = write_config(tmp_path, "s.json", PINNED_OUTPUTS[source][1])
        argv = ["attack-optimize", "--config", source_config, "--out", source]
        assert cli.main(argv) == cli.EXIT_OK
    out = tmp_path / "res.out"
    if command == "verify":
        argv = ["verify", "--suite", "all", "--seed", str(config)]
    else:
        argv = [command, "--config", write_config(tmp_path, "c.json", config)]
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    payload = out.read_bytes()
    if command != "verify":
        doc = json.loads(payload)
        del doc["provenance"]["version"]
        second = ".csv" if command == "simulate" else ".strategy.json"
        payload = (json.dumps(doc, sort_keys=True).encode()
                   + (tmp_path / f"res.out{second}").read_bytes())
    assert hashlib.sha256(payload).hexdigest() == digest


def test_threads_flag_rejected(tmp_path, capsys):
    """Nothing runs in parallel, so there is no --threads option."""
    cfg = write_config(tmp_path, "sim.json", {
        "protocol": "route_entangled", "n": 1, "f": {"kind": "xor", "n": 1},
        "rounds": 50, "trials": 4,
    })
    code, out, _ = run_cli(capsys, "simulate", "--config", cfg, "--threads", "4")
    assert code == cli.EXIT_CONFIG and out == ""
    assert cli.main(["verify", "--suite", "m1_m2", "--threads", "4"]) == cli.EXIT_CONFIG


def test_usage_error_exit_code(capsys):
    assert cli.main(["simulate"]) == cli.EXIT_CONFIG
    assert cli.main(["bogus-command"]) == cli.EXIT_CONFIG


def test_format_csv_to_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", {
        "protocol": "route_entangled", "n": 1, "f": {"kind": "xor", "n": 1},
        "rounds": 4,
    })
    code, out, _ = run_cli(capsys, "simulate", "--config", cfg,
                           "--format", "csv")
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "trial,round,x,y,accepted"
    assert len(lines) == 5


# (n, trials, rounds): at n = 1 and 3, x and y have one digit; from n = 4 they
# mix 1 and 2 digits, and at n = 7 also 3, so the blocks drop their NUL pads
# (at n = 4 with 2600 trials, over many blocks); the trials cross 9 -> 10 and
# 999 -> 1000, the rounds 9 -> 10 and 99 -> 100
CSV_CASES = [(n, trials, rounds) for n in (1, 3, 4, 5, 7)
             for trials, rounds in ((1, 1), (12, 101), (1001, 11), (10, 9))] + [(4, 2600, 2)]


@pytest.mark.parametrize("cells", [50, cli.CSV_BLOCK_CELLS])
@pytest.mark.parametrize("n, trials, rounds", CSV_CASES)
def test_csv_blocks_match_a_plain_join(monkeypatch, n, trials, rounds, cells):
    rng = np.random.default_rng([n, trials, rounds])
    xs, ys = rng.integers(2**n, size=(2, trials, rounds))
    accepted = rng.random((trials, rounds)) < 0.5
    draws = pr.TrialDraws(np.zeros((2**n, 2**n)), accepted.sum(axis=1), xs, ys, accepted)
    monkeypatch.setattr(cli, "CSV_BLOCK_CELLS", cells)
    blocks = [bytes(block) for block in cli._csv_blocks(draws)]
    want = "trial,round,x,y,accepted\n" + "".join(
        f"{t},{r},{xs[t, r]},{ys[t, r]},{int(accepted[t, r])}\n"
        for t in range(trials) for r in range(rounds))
    assert b"".join(blocks) == want.encode()
    assert all(block.endswith(b"\n") for block in blocks)


def test_csv_on_stdout_is_the_out_file(tmp_path, capsys):
    """``--format csv`` prints the bytes ``--out`` writes to its CSV."""
    for n in (1, 4):
        cfg = write_config(tmp_path, "sim.json", {
            "protocol": "route_bb84", "n": n, "f": {"kind": "xor", "n": n},
            "rounds": 30, "trials": 12, "prover": {"kind": "keep_q"}})
        out = tmp_path / "res.json"
        assert cli.main(["simulate", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
        assert cli.main(["simulate", "--config", cfg, "--seed", "3", "--format", "csv"]) == 0
        printed = capsys.readouterr().out
        assert printed.encode() == (tmp_path / "res.json.csv").read_bytes()


def test_format_flag_only_on_simulate(tmp_path, capsys):
    """Only simulate can print CSV; elsewhere --format is a usage error."""
    bounds = write_config(tmp_path, "b.json", {"kind": "counting", "n": 10, "q": 0})
    attack = write_config(tmp_path, "a.json", {
        "f": {"kind": "constant", "n": 1, "bit": 0},
        "kind": "route", "q": 1, "restarts": 1, "iters": 1,
    })
    for argv in (("bounds", "--config", bounds),
                 ("attack-optimize", "--config", attack),
                 ("verify", "--suite", "m1_m2")):
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == cli.EXIT_CONFIG and out == ""


def test_seed_can_come_from_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", {
        "protocol": "meas", "n": 1, "f": {"kind": "xor", "n": 1},
        "rounds": 10, "seed": 123,
    })
    code, out, _ = run_cli(capsys, "simulate", "--config", cfg)
    assert code == cli.EXIT_OK
    assert json.loads(out)["provenance"]["seed"] == 123


SIM = {"protocol": "meas", "n": 1, "f": {"kind": "xor"}, "rounds": 5}
ATT = {"f": {"kind": "xor", "n": 1}}
GH = {"pipes": 2, "alice": {"0": [["S", 1]], "1": [["S", 1]]}, "bob": {"0": [[1, 2]], "1": []}}


def _with(base, **changes):
    return {**base, **changes}


def _prover(**spec):
    return _with(SIM, prover=spec)


def _gh(**changes):
    return _with(ATT, gardenhose=_with(GH, **changes))


def _strategy_prover(path):
    return _with(SIM, protocol="route_entangled", prover={"kind": "strategy", "path": path})


def _strategy_files():
    """The strategy documents PINNED_ERRORS reads: keep_q's at n = 1 with its
    psi as a density matrix, and with a random unit vector on the whole layout."""
    keep = at.keep_q_attack(an.xor_function(1))
    doc = json.loads(at.strategy_to_json(keep))
    encode = at.strategy._encode_matrix
    mixed = np.outer(keep.psi, keep.psi.conj())
    whole = qc.random_unit_vector(keep.layout.dim, qc.stream(0, "whole-layout psi"))
    return {"mixed.strategy.json": {**doc, "psi": {"kind": "mixed", "data": encode(mixed)}},
            "whole.strategy.json": {**doc, "psi": {"kind": "pure", "data": encode(whole[None])}}}


# every config error the CLI reports, one per check, with its exact stderr
# and exit code; the last few have two faults and pin which is reported
PINNED_ERRORS = {
    # simulate: the top-level object
    "config-not-object": ("simulate", [1], "config: expected an object"),
    "sim-unknown-key": ("simulate", _with(SIM, bogus=1), "config: unknown keys ['bogus']"),
    "sim-missing-keys": ("simulate", {"protocol": "meas", "f": {"kind": "xor"}},
                         "config: missing keys ['n', 'rounds']"),
    "sim-protocol": ("simulate", _with(SIM, protocol="nope"), "unknown protocol 'nope'"),
    "sim-rounds-null": ("simulate", _with(SIM, rounds=None),
                        "config.rounds: expected an integer, got None"),
    "sim-rounds-bool": ("simulate", _with(SIM, rounds=True),
                        "config.rounds: expected an integer, got True"),
    "sim-rounds-fraction": ("simulate", _with(SIM, rounds=2.5),
                            "config.rounds: expected an integer, got 2.5"),
    "sim-rounds-text": ("simulate", _with(SIM, rounds="abc"),
                        "config.rounds: expected an integer, got 'abc'"),
    "sim-trials-bool": ("simulate", _with(SIM, trials=False),
                        "config.trials: expected an integer, got False"),
    "sim-eta-null": ("simulate", _with(SIM, eta=None), "config.eta: expected a number, got None"),
    "sim-eta-bool": ("simulate", _with(SIM, eta=True), "config.eta: expected a number, got True"),
    "sim-eta-range": ("simulate", _with(SIM, eta=0.5), "noise level must be in [0, 0.01]"),
    "sim-rounds-zero": ("simulate", _with(SIM, rounds=0), "rounds and trials must be positive"),
    "sim-trials-negative": ("simulate", _with(SIM, trials=-1),
                            "rounds and trials must be positive"),
    "sim-budget": ("simulate", _with(SIM, rounds=5_000_001),
                   "budget exceeded: 5000001x1 rounds exceed the simulation budget", 3),
    "sim-noise-mode": ("simulate", _with(SIM, noise_mode="gaussian"),
                       "unknown noise mode 'gaussian'"),
    "sim-seed-fraction": ("simulate", _with(SIM, seed=1.5),
                          "config.seed: expected an integer, got 1.5"),
    "sim-seed-bool": ("simulate", _with(SIM, seed=True),
                      "config.seed: expected an integer, got True"),
    # the function spec
    "f-not-object": ("simulate", _with(SIM, f=3), "f: expected an object"),
    "f-unknown-key": ("simulate", _with(SIM, f={"kind": "xor", "q": 1}), "f: unknown keys ['q']"),
    "f-missing-kind": ("simulate", _with(SIM, f={"n": 1}), "f: missing keys ['kind']"),
    "f-file-path": ("simulate", _with(SIM, f={"kind": "file"}), "f: missing keys ['path']"),
    "f-table-keys": ("attack-optimize", {"f": {"kind": "table"}},
                     "f: missing keys ['n', 'table']"),
    "f-table-table": ("simulate", _with(SIM, f={"kind": "table"}), "f: missing keys ['table']"),
    "f-n-missing": ("attack-optimize", {"f": {"kind": "xor"}}, "f: missing keys ['n']"),
    "f-n-null": ("attack-optimize", {"f": {"kind": "ip", "n": None}},
                 "f.n: expected an integer, got None"),
    "f-n-bool": ("attack-optimize", {"f": {"kind": "ip", "n": True}},
                 "f.n: expected an integer, got True"),
    "f-n-fraction": ("simulate", _with(SIM, f={"kind": "xor", "n": 1.9}),
                     "f.n: expected an integer, got 1.9"),
    "f-n-inherited-bool": ("simulate", _with(SIM, n=True), "f.n: expected an integer, got True"),
    "f-seed-fraction": ("simulate", _with(SIM, f={"kind": "random", "seed": 0.5}),
                        "f.seed: expected an integer, got 0.5"),
    "f-bit-bool": ("simulate", _with(SIM, f={"kind": "constant", "bit": True}),
                   "f.bit: expected an integer, got True"),
    "f-kind": ("simulate", _with(SIM, f={"kind": "bogus"}), "unknown function kind 'bogus'"),
    "f-kind-list": ("simulate", _with(SIM, f={"kind": ["xor"]}),
                    "unknown function kind ['xor']"),
    "f-table-null": ("simulate", _with(SIM, f={"kind": "table", "table": None}),
                     "table must have length 4"),
    "f-table-object": ("simulate", _with(SIM, f={"kind": "table", "table": {}}),
                       "table must have length 4"),
    "f-table-negative": ("simulate", _with(SIM, f={"kind": "table", "table": [-1, 0, 0, 1]}),
                         "table entries must be bits"),
    "f-table-fraction": ("simulate", _with(SIM, f={"kind": "table", "table": [0.5, 0, 0, 1]}),
                         "table entries must be bits"),
    "f-table-text-entry": ("simulate", _with(SIM, f={"kind": "table", "table": ["1", 0, 0, 1]}),
                           "table entries must be bits"),
    "f-bit-negative": ("simulate", _with(SIM, f={"kind": "constant", "bit": -1}),
                       "table entries must be bits"),
    "f-table-non-ascii": ("simulate", _with(SIM, f={"kind": "table", "table": "01\u00e90"}),
                          "table entries must be bits"),
    # a table longer than PAIR_BUDGET is refused before anything is built
    "f-n-budget": ("simulate", _with(SIM, f={"kind": "random", "n": 20}),
                   "budget exceeded: f.n: a 2^40-entry table exceeds budget 16777216", 3),
    "f-n-inherited-budget": ("simulate", _with(SIM, n=13, f={"kind": "ip"}),
                             "budget exceeded: f.n: a 2^26-entry table exceeds budget 16777216",
                             3),
    "cc-f-n-budget": ("bounds", {"kind": "cc", "k": 1, "f": {"kind": "xor", "n": 13}},
                      "budget exceeded: f.n: a 2^26-entry table exceeds budget 16777216", 3),
    # the prover spec
    "prover-not-object": ("simulate", _with(SIM, prover=5), "prover: expected an object"),
    "prover-unknown-key": ("simulate", _prover(kind="honest", q=1),
                           "prover: unknown keys ['q']"),
    "prover-missing-kind": ("simulate", _prover(p=0.5), "prover: missing keys ['kind']"),
    "prover-synthetic-p": ("simulate", _prover(kind="synthetic"), "prover: missing keys ['p']"),
    "prover-strategy-path": ("simulate", _prover(kind="strategy"),
                             "prover: missing keys ['path']"),
    "prover-p-null": ("simulate", _prover(kind="synthetic", p=None),
                      "prover.p: expected a number, got None"),
    "prover-p-bool": ("simulate", _prover(kind="synthetic", p=True),
                      "prover.p: expected a number, got True"),
    "prover-p-list": ("simulate", _prover(kind="synthetic", p=[1]),
                      "prover.p: expected a number, got [1]"),
    "prover-state-fraction": ("simulate", _prover(kind="discard", state=0.5),
                              "prover.state: expected an integer, got 0.5"),
    "prover-basis-bool": ("simulate", _prover(kind="measure_forward", basis=True),
                          "prover.basis: expected an integer, got True"),
    "prover-kind": ("simulate", _prover(kind="nope"), "prover: unknown kind 'nope'"),
    "prover-kind-object": ("simulate", _prover(kind={"kind": "honest"}),
                           "prover: unknown kind {'kind': 'honest'}"),
    "prover-state-range": ("simulate", _with(SIM, protocol="route_entangled",
                                             prover={"kind": "discard", "state": 7}),
                           "replace_with must be 0, 1, 2 or 3, not 7"),
    "prover-state-negative": ("simulate", _with(SIM, protocol="route_entangled",
                                                prover={"kind": "discard", "state": -1}),
                              "replace_with must be 0, 1, 2 or 3, not -1"),
    "prover-basis-range": ("simulate", _with(SIM, protocol="route_entangled",
                                             prover={"kind": "measure_forward", "basis": 2}),
                           "premeasure_basis must be 0 or 1, not 2"),
    # each function and prover kind admits only the keys it reads
    "f-xor-other-keys": ("simulate", _with(SIM, f={"kind": "xor", "seed": 5, "path": "nope",
                                                   "table": "0000"},
                                           prover={"kind": "honest", "p": 0.3, "path": "x"}),
                         "f: unknown keys ['path', 'seed', 'table']"),
    "f-ip-seed": ("simulate", _with(SIM, f={"kind": "ip", "seed": 1}), "f: unknown keys ['seed']"),
    "f-constant-table": ("simulate", _with(SIM, f={"kind": "constant", "table": "0000"}),
                         "f: unknown keys ['table']"),
    "f-random-bit": ("simulate", _with(SIM, f={"kind": "random", "bit": 1}),
                     "f: unknown keys ['bit']"),
    "f-table-seed": ("simulate", _with(SIM, f={"kind": "table", "table": "0110", "seed": 1}),
                     "f: unknown keys ['seed']"),
    "f-file-table": ("simulate", _with(SIM, f={"kind": "file", "path": "f.txt", "table": "0110"}),
                     "f: unknown keys ['table']"),
    "prover-honest-keys": ("simulate", _prover(kind="honest", p=0.3, path="x"),
                           "prover: unknown keys ['p', 'path']"),
    "prover-keep_q-state": ("simulate", _prover(kind="keep_q", state=1),
                            "prover: unknown keys ['state']"),
    "prover-synthetic-path": ("simulate", _prover(kind="synthetic", p=0.5, path="x"),
                              "prover: unknown keys ['path']"),
    "prover-strategy-p": ("simulate", _prover(kind="strategy", path="x", p=0.5),
                          "prover: unknown keys ['p']"),
    "prover-wrong_basis-basis": ("simulate", _prover(kind="wrong_basis", basis=1),
                                 "prover: unknown keys ['basis']"),
    "prover-random_bit-p": ("simulate", _prover(kind="random_bit", p=0.5),
                            "prover: unknown keys ['p']"),
    "prover-discard-basis": ("simulate", _prover(kind="discard", basis=1),
                             "prover: unknown keys ['basis']"),
    "prover-measure_forward-state": ("simulate", _prover(kind="measure_forward", state=1),
                                     "prover: unknown keys ['state']"),
    "prover-route_wrong-path": ("simulate", _prover(kind="route_wrong", path="x"),
                                "prover: unknown keys ['path']"),
    # a path that names a directory
    "f-path-directory": ("simulate", _with(SIM, f={"kind": "file", "path": "."}),
                         "[Errno 21] Is a directory: '.'"),
    "prover-path-directory": ("simulate", _prover(kind="strategy", path="."),
                              "[Errno 21] Is a directory: '.'"),
    # attack-optimize
    "att-unknown-key": ("attack-optimize", _with(ATT, bogus=1), "config: unknown keys ['bogus']"),
    "att-missing-f": ("attack-optimize", {"q": 1}, "config: missing keys ['f']"),
    "att-epsilon-null": ("attack-optimize", _with(ATT, epsilon=None),
                         "config.epsilon: expected a number, got None"),
    # epsilon is read before any search or compile, and must lie in [0, 1]
    "att-epsilon-nan": ("attack-optimize", _with(ATT, epsilon=math.nan),
                        "config.epsilon: expected a number in [0, 1], got nan"),
    "att-epsilon-negative": ("attack-optimize", _with(ATT, gardenhose=GH, epsilon=-1),
                             "config.epsilon: expected a number in [0, 1], got -1"),
    "att-epsilon-above-one": ("attack-optimize", _with(ATT, epsilon=2),
                              "config.epsilon: expected a number in [0, 1], got 2"),
    # a q beside a split must be the split's total
    "att-q-disagrees-split": ("attack-optimize", _with(ATT, q=7, split=[1, 0, 1], restarts=1,
                                                       iters=2),
                              "config.q = 7 disagrees with config.split = [1, 0, 1] (2 qubits)"),
    "att-q-fraction": ("attack-optimize", _with(ATT, q=1.5),
                       "config.q: expected an integer, got 1.5"),
    "att-split-int": ("attack-optimize", _with(ATT, split=5),
                      "config.split: expected three integers, got 5"),
    "att-split-short": ("attack-optimize", _with(ATT, split=[1, 0]),
                        "config.split: expected three integers, got [1, 0]"),
    "att-split-entry": ("attack-optimize", _with(ATT, split=[1, 0, 0.5]),
                        "config.split: expected an integer, got 0.5"),
    "att-restarts-fraction": ("attack-optimize", _with(ATT, restarts=2.5),
                              "config.restarts: expected an integer, got 2.5"),
    "att-iters-bool": ("attack-optimize", _with(ATT, iters=True),
                       "config.iters: expected an integer, got True"),
    "att-unentangled-text": ("attack-optimize", _with(ATT, unentangled="no"),
                             "config.unentangled: expected true or false, got 'no'"),
    "att-unentangled-int": ("attack-optimize", _with(ATT, unentangled=1),
                            "config.unentangled: expected true or false, got 1"),
    "gh-not-object": ("attack-optimize", _with(ATT, gardenhose=3),
                      "gardenhose: expected an object"),
    "gh-unknown-key": ("attack-optimize", _gh(extra=1), "gardenhose: unknown keys ['extra']"),
    "gh-missing-keys": ("attack-optimize", _with(ATT, gardenhose={"pipes": 2}),
                        "gardenhose: missing keys ['alice', 'bob']"),
    "gh-pipes-null": ("attack-optimize", _gh(pipes=None),
                      "gardenhose.pipes: expected an integer, got None"),
    "gh-alice-list": ("attack-optimize", _gh(alice=[]),
                      "gardenhose.alice: expected an object of pair lists"),
    "gh-bob-text": ("attack-optimize", _gh(bob="x"),
                    "gardenhose.bob: expected an object of pair lists"),
    "gh-pairs": ("attack-optimize", _gh(alice={"0": 5}),
                 "gardenhose.alice.0: expected a list of node pairs"),
    "gh-pair": ("attack-optimize", _gh(alice={"0": [5]}),
                "gardenhose.alice.0: expected a list of node pairs"),
    "gh-input": ("attack-optimize", _gh(alice={"a": [["S", 1]]}),
                 "gardenhose.alice: expected an integer, got 'a'"),
    "gh-node": ("attack-optimize", _gh(bob={"0": [[1, "T"]]}),
                "gardenhose.bob.0: expected an integer, got 'T'"),
    # pipe counts and matching keys are refused where the config gives them
    "gh-pipes-negative": ("attack-optimize", _gh(pipes=-1),
                          "gardenhose.pipes: expected a non-negative integer, got -1"),
    "gh-alice-key-outside": ("attack-optimize", _gh(alice={"7": [["S", 1]], "1": [["S", 1]]}),
                             "gardenhose.alice: key 7 is not an input of f (0 to 1)"),
    "gh-bob-key-negative": ("attack-optimize", _gh(bob={"-1": [[1, 2]], "1": []}),
                            "gardenhose.bob: key -1 is not an input of f (0 to 1)"),
    "gh-seesaw-keys": ("attack-optimize", _with(ATT, gardenhose=GH, restarts=5, kind="meas", q=7),
                       "config: unknown keys ['kind', 'q', 'restarts']"),
    "gh-seesaw-search": ("attack-optimize", _with(ATT, gardenhose=GH, split=[1, 0, 1], iters=3,
                                                  unentangled=True),
                         "config: unknown keys ['iters', 'split', 'unentangled']"),
    # bounds
    "bounds-unknown-key": ("bounds", {"kind": "delta_margin", "bogus": 1},
                           "config: unknown keys ['bogus']"),
    "bounds-missing-kind": ("bounds", {"n": 1}, "config: missing keys ['kind']"),
    "bounds-kind": ("bounds", {"kind": "nope"}, "unknown bounds kind 'nope'"),
    "bounds-kind-list": ("bounds", {"kind": ["cc"]}, "unknown bounds kind ['cc']"),
    "bounds-kind-unknown-key": ("bounds", {"kind": "nope", "bogus": 1},
                                "config: unknown keys ['bogus']"),
    "counting-other-kind-key": ("bounds", {"kind": "counting", "n": 10, "q": 0, "model": "nope"},
                                "config: unknown keys ['model']"),
    "delta_margin-key": ("bounds", {"kind": "delta_margin", "n": 3},
                         "config: unknown keys ['n']"),
    "cc-error-key": ("bounds", {"kind": "cc", "k": 1, "f": {"kind": "ip", "n": 1}, "error": 0},
                     "config: unknown keys ['error']"),
    "counting-keys": ("bounds", {"kind": "counting"}, "config: missing keys ['n', 'q']"),
    "counting-n-null": ("bounds", {"kind": "counting", "n": None, "q": 0},
                        "config.n: expected an integer, got None"),
    "counting-q-bool": ("bounds", {"kind": "counting", "n": 10, "q": True},
                        "config.q: expected an integer, got True"),
    "net_size-q": ("bounds", {"kind": "net_size"}, "config: missing keys ['q']"),
    "net_size-q-fraction": ("bounds", {"kind": "net_size", "q": 0.5},
                            "config.q: expected an integer, got 0.5"),
    # a report entry that does not fit a double is refused, not printed as
    # Infinity (not JSON) or raised as an OverflowError
    "counting-threshold-overflow": ("bounds", {"kind": "counting", "n": 1024, "q": 0},
                                    "counting with n = 1024, q = 0: log2_bound outside "
                                    "the double range"),
    "counting-bound-underflow": ("bounds", {"kind": "counting", "n": 1023, "q": 0},
                                 "counting with n = 1023, q = 0: log2_bound outside "
                                 "the double range"),
    "counting-q-overflow": ("bounds", {"kind": "counting", "n": 10, "q": 508},
                            "counting with n = 10, q = 508: log2_bound outside "
                            "the double range"),
    "net_size-overflow": ("bounds", {"kind": "net_size", "q": 510},
                          "net_size with q = 510: log2_net_alice, log2_net_states outside "
                          "the double range"),
    "net_size-int-overflow": ("bounds", {"kind": "net_size", "q": 511},
                              "net_size with q = 511: log2_net_alice, log2_net_states outside "
                              "the double range"),
    "volume-keys": ("bounds", {"kind": "volume"}, "config: missing keys ['n', 'lambda']"),
    "volume-lambda-null": ("bounds", {"kind": "volume", "n": 100, "lambda": None},
                           "config.lambda: expected a number, got None"),
    "volume-lambda-text": ("bounds", {"kind": "volume", "n": 100, "lambda": "abc"},
                           "config.lambda: expected a number, got 'abc'"),
    "volume-lambda-zero-division": ("bounds", {"kind": "volume", "n": 100, "lambda": "1/0"},
                                    "config.lambda: expected a number, got '1/0'"),
    "volume-lambda-overflow": ("bounds", {"kind": "volume", "n": 100, "lambda": 1e400},
                               "config.lambda: expected a number, got inf"),
    "volume-n-fraction": ("bounds", {"kind": "volume", "n": 1.5, "lambda": "1/4"},
                          "config.n: expected an integer, got 1.5"),
    "qubit-f_kind": ("bounds", {"kind": "qubit_bound"}, "config: missing keys ['f_kind']"),
    "qubit-f_kind-value": ("bounds", {"kind": "qubit_bound", "f_kind": "nope"},
                           "unknown f_kind 'nope'"),
    "qubit-random-n": ("bounds", {"kind": "qubit_bound", "f_kind": "random"},
                       "config: missing keys ['n']"),
    "qubit-random-n-bool": ("bounds", {"kind": "qubit_bound", "f_kind": "random", "n": True},
                            "config.n: expected an integer, got True"),
    "qubit-cc-f": ("bounds", {"kind": "qubit_bound", "f_kind": "cc"},
                   "config: missing keys ['f']"),
    "qubit-cc-k": ("bounds", {"kind": "qubit_bound", "f_kind": "cc", "k": 0.5},
                   "config.k: expected an integer, got 0.5"),
    # qubit_bound reads n for a random f, and k or else f (and n) for cc
    "qubit-random-k": ("bounds", {"kind": "qubit_bound", "f_kind": "random", "n": 20, "k": "x"},
                       "config: unknown keys ['k']"),
    "qubit-cc-k-f": ("bounds", {"kind": "qubit_bound", "f_kind": "cc", "k": 64,
                                "f": {"kind": "bogus"}}, "config: unknown keys ['f']"),
    "cc-keys": ("bounds", {"kind": "cc"}, "config: missing keys ['f', 'k']"),
    "cc-k-null": ("bounds", {"kind": "cc", "k": None, "f": {"kind": "ip", "n": 1}},
                  "config.k: expected an integer, got None"),
    "cc-model": ("bounds", {"kind": "cc", "k": 1, "model": "nope", "f": {"kind": "ip", "n": 1}},
                 "unknown model 'nope'"),
    "cc-f-n": ("bounds", {"kind": "cc", "k": 1, "f": {"kind": "ip"}}, "f: missing keys ['n']"),
    "cc-budget": ("bounds", {"kind": "cc", "model": "smp", "k": 2, "f": {"kind": "ip", "n": 3}},
                  "budget exceeded: 4294967296 message-function pairs exceed budget 16777216", 3),
    # two faults: the first check in reading order reports
    "two-f-before-epsilon": ("attack-optimize", {"f": {"kind": "ip", "n": 0.5}, "epsilon": None},
                             "f.n: expected an integer, got 0.5"),
    "two-lambda-before-n": ("bounds", {"kind": "volume", "n": 1.5, "lambda": None},
                            "config.lambda: expected a number, got None"),
    "two-f-before-k-and-model": ("bounds", {"kind": "cc", "k": None, "model": "nope",
                                            "f": {"kind": "ip"}}, "f: missing keys ['n']"),
    "two-k-before-model": ("bounds", {"kind": "cc", "k": None, "model": "nope",
                                      "f": {"kind": "ip", "n": 1}},
                           "config.k: expected an integer, got None"),
    "two-unknown-before-missing": ("simulate", {"bogus": 1}, "config: unknown keys ['bogus']"),
    "two-protocol-before-rounds": ("simulate", _with(SIM, protocol="nope", rounds=None),
                                   "unknown protocol 'nope'"),
    "two-rounds-before-f": ("simulate", _with(SIM, rounds=None, f={"kind": "xor", "n": None}),
                            "config.rounds: expected an integer, got None"),
    "two-f-before-prover": ("simulate", _with(SIM, f={"n": 1}, prover={"kind": "nope"}),
                            "f: missing keys ['kind']"),
    "two-kind-missing-before-n": ("simulate", _with(SIM, n=None, f={}),
                                  "f: missing keys ['kind']"),
    "two-pipes-before-alice": ("attack-optimize", _gh(pipes=None, alice=[]),
                               "gardenhose.pipes: expected an integer, got None"),
    "two-q-before-split": ("attack-optimize", _with(ATT, q=None, split=5),
                           "config.q: expected an integer, got None"),
    "two-split-before-restarts": ("attack-optimize", _with(ATT, split=5, restarts=None),
                                  "config.split: expected three integers, got 5"),
    # a config "n" beside a function's own is cast, and must agree with it
    "sim-n-disagrees": ("simulate", _with(SIM, n=3, f={"kind": "xor", "n": 1}),
                        "config.n = 3 disagrees with f.n = 1"),
    "sim-n-text": ("simulate", _with(SIM, n="abc", f={"kind": "xor", "n": 1}),
                   "config.n: expected an integer, got 'abc'"),
    "att-n-disagrees": ("attack-optimize", _with(ATT, n=2), "config.n = 2 disagrees with f.n = 1"),
    "cc-n-disagrees": ("bounds", {"kind": "cc", "k": 1, "n": 2, "f": {"kind": "ip", "n": 1}},
                       "config.n = 2 disagrees with f.n = 1"),
    # a file spec's own "n" must agree with the file's (f.txt holds n = 1)
    "sim-file-n-disagrees": ("simulate", _with(SIM, f={"kind": "file", "path": "f.txt", "n": 5}),
                             "f.n = 5 disagrees with the file's n = 1"),
    "att-file-n-disagrees": ("attack-optimize", {"f": {"kind": "file", "path": "f.txt", "n": 5}},
                             "f.n = 5 disagrees with the file's n = 1"),
    # a strategy's psi is one vector |Omega>_RA x phi (the documents of
    # _strategy_files)
    "strategy-psi-mixed": ("simulate", _strategy_prover("mixed.strategy.json"),
                           "strategy.psi.kind: expected 'pure', got 'mixed' "
                           "(purify a mixed state on wider registers)"),
    "strategy-psi-whole-layout": ("simulate", _strategy_prover("whole.strategy.json"),
                                  "psi is not |Omega>_RA x phi: "
                                  "<Omega|rho_RA|Omega> = 0.48732133928169497"),
    # an output path that is a directory: the run writes nothing, and its
    # --out PATH is left as it was
    "sim-out-csv-directory": ("simulate --out out", SIM, "[Errno 21] Is a directory: 'out.csv'"),
    "att-out-strategy-directory": ("attack-optimize --out out", _with(ATT, gardenhose=GH),
                                   "[Errno 21] Is a directory: 'out.strategy.json'"),
}


@pytest.mark.parametrize("case", PINNED_ERRORS.values(), ids=PINNED_ERRORS.keys())
def test_pinned_config_error_messages(tmp_path, capsys, monkeypatch, case):
    command, payload, message, *code = case
    cfg = write_config(tmp_path, "c.json", payload)
    argv = [*command.split(), "--config", cfg]
    want = ((code[0] if code else cli.EXIT_CONFIG), "",
            (message if message.startswith("budget") else f"error: {message}") + "\n")
    monkeypatch.chdir(tmp_path)
    if "--out" not in argv:
        (tmp_path / "f.txt").write_text("n=1\n0110\n")   # the file a "file" spec reads
        for name, doc in _strategy_files().items():        # and those a strategy prover reads
            (tmp_path / name).write_text(json.dumps(doc))
        assert run_cli(capsys, *argv) == want
        return
    # the output path the message names is a directory; the run fails with
    # and without a previous PATH, and leaves PATH and its directory as they were
    path, directory = argv[argv.index("--out") + 1], message.split("'")[1]
    os.mkdir(directory)
    assert run_cli(capsys, *argv) == want
    assert sorted(os.listdir()) == ["c.json", directory]
    (tmp_path / path).write_bytes(b"previous\n")
    assert run_cli(capsys, *argv) == want
    assert (tmp_path / path).read_bytes() == b"previous\n"
    assert sorted(os.listdir()) == ["c.json", path, directory]


# small valid configs of every command; each of their keys, list entries
# included, is a place a fault is put
FAULT_BASES = (
    ("simulate", {"protocol": "route_bb84", "n": 1, "f": {"kind": "table", "table": [0, 1, 1, 0]},
                  "rounds": 3, "trials": 2, "eta": 0.01, "noise_mode": "depolarizing",
                  "prover": {"kind": "discard", "state": 1}, "seed": 1}),
    ("simulate", {"protocol": "route_entangled", "n": 1, "f": {"kind": "constant", "bit": 1},
                  "rounds": 3, "prover": {"kind": "measure_forward", "basis": 1}}),
    ("simulate", {"protocol": "meas", "n": 1, "f": {"kind": "random", "n": 1, "seed": 3},
                  "rounds": 3, "prover": {"kind": "synthetic", "p": 0.5}}),
    ("simulate", {"protocol": "route_entangled", "n": 1, "f": {"kind": "table", "table": "0110"},
                  "rounds": 3, "prover": {"kind": "keep_q"}}),
    ("attack-optimize", {"f": {"kind": "ip", "n": 1}, "kind": "meas", "q": 1, "split": [1, 0, 0],
                         "restarts": 1, "iters": 1, "unentangled": True, "epsilon": 0.1}),
    ("attack-optimize", _with(ATT, gardenhose=GH, epsilon=0.2)),
    ("bounds", {"kind": "volume", "n": 100, "lambda": "1/4"}),
    ("bounds", {"kind": "counting", "n": 10, "q": 0}),
    ("bounds", {"kind": "cc", "f": {"kind": "ip", "n": 1}, "k": 1, "model": "oneway"}),
    ("bounds", {"kind": "qubit_bound", "f_kind": "random", "n": 20}),
    ("bounds", {"kind": "qubit_bound", "f_kind": "cc", "f": {"kind": "ip", "n": 1}}),
    ("bounds", {"kind": "net_size", "q": 1}),
)
# no large finite value: at a size key (n, q, rounds, k, ...) it would ask
# for a long run, not find a fault; 1e400 reads as infinity
FAULTS = ("x", True, None, -1, 2.5, 1e400, math.nan, "1/0", [], {})


def _places(obj, path=()):
    """Every key path into ``obj``, list indices included."""
    items = (obj.items() if isinstance(obj, dict) else
             enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _places(value, path + (key,))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_config_fault_exits_with_a_code_never_a_traceback(tmp_path_factory, data):
    """One fault at one key of a valid config: the CLI exits 0-3 and raises
    nothing, and a config error prints nothing on stdout."""
    command, base = data.draw(st.sampled_from(FAULT_BASES))
    config = copy.deepcopy(base)
    *parents, key = data.draw(st.sampled_from(list(_places(base))))
    owner = config
    for parent in parents:
        owner = owner[parent]
    owner[key] = data.draw(st.sampled_from(FAULTS))
    path = tmp_path_factory.getbasetemp() / "fault.json"
    path.write_text(json.dumps(config))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, "--config", str(path)])
    assert code in (cli.EXIT_OK, cli.EXIT_VERIFY, cli.EXIT_CONFIG, cli.EXIT_BUDGET)
    assert code != cli.EXIT_CONFIG or out.getvalue() == ""


@pytest.mark.parametrize("payload", [
    {"kind": "counting", "n": 10, "q": 0},
    {"kind": "net_size", "q": 1},
    {"kind": "delta_margin"},
    {"kind": "volume", "n": 100, "lambda": "1/4"},
    {"kind": "qubit_bound", "f_kind": "random", "n": 10},
    {"kind": "qubit_bound", "f_kind": "cc", "k": 2},
    {"kind": "qubit_bound", "f_kind": "cc", "n": 1, "f": {"kind": "ip"}},
    {"kind": "cc", "n": 1, "f": {"kind": "ip"}, "k": 1, "model": "oneway"},
], ids=["counting", "net_size", "delta_margin", "volume", "qubit_random", "qubit_cc_k",
        "qubit_cc_f", "cc"])
def test_bounds_kinds_admit_every_key_they_read(tmp_path, capsys, payload):
    code, out, err = run_cli(capsys, "bounds", "--config", write_config(tmp_path, "b.json", payload))
    assert (code, err) == (cli.EXIT_OK, "")
    assert json.loads(out)["kind"] == payload["kind"]


@pytest.mark.parametrize("f, prover", [
    ({"kind": "ip"}, {"kind": "synthetic", "p": 0.5}),
    ({"kind": "constant", "bit": 1}, {"kind": "discard", "state": 1}),
    ({"kind": "random", "seed": 4}, {"kind": "measure_forward", "basis": 1}),
    ({"kind": "table", "table": "0110"}, {"kind": "wrong_basis"}),
    ({"kind": "file", "path": "f.txt"}, {"kind": "random_bit"}),
], ids=["ip", "constant", "random", "table", "file"])
def test_function_and_prover_kinds_admit_every_key_they_read(tmp_path, capsys, monkeypatch,
                                                             f, prover):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.txt").write_text("n=1\n0110\n")
    cfg = write_config(tmp_path, "s.json", _with(SIM, f=f, prover=prover))
    code, out, err = run_cli(capsys, "simulate", "--config", cfg)
    assert (code, err) == (cli.EXIT_OK, "")
    assert json.loads(out)["rounds"] == SIM["rounds"]


@pytest.mark.parametrize("text, message, code", [
    ("n=13\n0\n", "budget exceeded: f.n: a 2^26-entry table exceeds budget 16777216", 3),
    ("n=1\n01\u00e90\n", "error: expected 4 table bits, got 5", 2),
    ("n=1\n01\u00e9\n", "error: table entries must be bits", 2),
    ("n=2\n" + "0" * 16 + "\n", "error: config.n = 1 disagrees with f.n = 2", 2),
], ids=["budget", "non-ascii-length", "non-ascii-entry", "n-disagrees"])
def test_function_file_is_refused_by_rule(tmp_path, capsys, monkeypatch, text, message, code):
    """A file's n is bounded before its table is read and must agree with
    the config's, and a non-ASCII byte is refused as a table entry, never
    with the codec's message."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.txt").write_text(text, encoding="utf-8")
    cfg = write_config(tmp_path, "s.json", _with(SIM, f={"kind": "file", "path": "f.txt"}))
    assert run_cli(capsys, "simulate", "--config", cfg) == (code, "", message + "\n")


def test_unentangled_false_is_the_default(tmp_path, capsys):
    outs = []
    for extra in ({}, {"unentangled": False}):
        cfg = write_config(tmp_path, "a.json", _with(ATT, kind="meas", restarts=1, iters=2, **extra))
        code, out, _ = run_cli(capsys, "attack-optimize", "--config", cfg)
        assert code == cli.EXIT_OK
        outs.append(json.loads(out))
    for doc in outs:
        del doc["provenance"]["config_sha256"]
    assert outs[0] == outs[1]


def test_failed_calls_do_not_poison_a_later_call(tmp_path, capsys):
    """One process may call ``main`` many times: usage errors, ``--version``
    and earlier options must not leak into a later call."""
    cfg = write_config(tmp_path, "sim.json", {
        "protocol": "meas", "n": 1, "f": {"kind": "xor", "n": 1},
        "rounds": 10, "trials": 2, "seed": 123,
    })
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    fresh = subprocess.run([sys.executable, "-m", "qpv.cli", "simulate", "--config", cfg],
                           env=env, capture_output=True, text=True, check=True).stdout
    assert cli.main(["simulate"]) == cli.EXIT_CONFIG
    assert cli.main(["simulate", "--config", cfg, "--threads", "4"]) == cli.EXIT_CONFIG
    assert cli.main(["bogus-command"]) == cli.EXIT_CONFIG
    assert cli.main(["--version"]) == cli.EXIT_OK
    assert cli.main(["simulate", "--config", cfg, "--seed", "5", "--format", "csv"]) == 0
    capsys.readouterr()
    code, out, err = run_cli(capsys, "simulate", "--config", cfg)
    assert (code, out, err) == (cli.EXIT_OK, fresh, "")
    assert json.loads(out)["provenance"]["seed"] == 123
