import json
import math

import numpy as np
import pytest

from qpv import analysis as an
from qpv import attacks as at
from qpv import cli
from qpv import protocol as pr
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
], ids=["counting-q", "qubit_bound-n", "synthetic-p", "table", "f-n-null", "rounds-null",
        "synthetic-p-list", "cc-k-null", "split-int", "gardenhose-alice-list"])
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
