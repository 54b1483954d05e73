"""Per-trial streams opened in one vectorised key pass.

``qcore.trial_streams`` must draw exactly what ``qcore.stream`` draws, so
these tests compare the two, pin the outputs that depend on them, and
check the key derivation against numpy's own ``SeedSequence``.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpv import analysis as an
from qpv import attacks as at
from qpv import cli
from qpv import protocol as pr
from qpv import qcore as qc
from qpv.protocol.repetition import _top_bits, _unit_doubles
from qpv.qcore.rng import _seed_keys, _words

ENTROPY_INTS = st.one_of(st.just(0), st.integers(0, 2**32 - 1), st.integers(0, 2**128 - 1))


# entropy of 1 word (shorter than the pool of 4), 4 words (equal) and 7+
@given(st.lists(ENTROPY_INTS, min_size=1, max_size=7))
@example([0])
@example([1, 2, 3, 4])
@example([2**64 - 1, 0, 5, 2**32, 2**128 - 1, 7, 0])
@settings(max_examples=200, deadline=None)
def test_seed_keys_match_seed_sequence(ints):
    words = np.array([w for n in ints for w in _words(n)], dtype=np.uint32)
    expected = np.random.SeedSequence(ints).generate_state(2, np.uint64)
    np.testing.assert_array_equal(_seed_keys(words[None])[0], expected)


@pytest.mark.parametrize("seed", [0, 7, 2**32 + 1, 2**64 - 1, -3, np.int64(5)])
@pytest.mark.parametrize("name", ["inputs", "round", ("x", 2)])
def test_trial_streams_match_stream(seed, name):
    got = [g.bit_generator.random_raw(3).tolist()
           for g in qc.trial_streams(seed, name, 40)]
    want = [qc.stream(seed, name, t).bit_generator.random_raw(3).tolist()
            for t in range(40)]
    assert got == want


def test_trial_streams_typed_draws_match_stream():
    # normals, bounded integers and doubles, read in one trial's order
    for t, g in enumerate(qc.trial_streams(11, "cit", 6)):
        ref = qc.stream(11, "cit", t)
        assert g.integers(3) == ref.integers(3)
        np.testing.assert_array_equal(g.standard_normal(5), ref.standard_normal(5))
        np.testing.assert_array_equal(g.random(4), ref.random(4))


def test_trial_streams_zero_trials_yield_nothing():
    assert list(qc.trial_streams(0, "inputs", 0)) == []


def test_trial_streams_refuse_bool_name_at_once():
    with pytest.raises(TypeError, match="ints, strs or tuples") as via_stream:
        qc.stream(0, True, 0)
    with pytest.raises(TypeError, match="ints, strs or tuples") as via_trials:
        qc.trial_streams(0, True, 0)
    assert str(via_trials.value) == str(via_stream.value)


def _reference_draws(config, protocol, f, prover, seed, trials, noise_mode="bernoulli"):
    """The engine's draws, one ``stream()`` pair per trial."""
    table = pr.acceptance_table(protocol, f, prover, config.eta, noise_mode)
    side, rounds = len(table), config.rounds
    xs = np.empty((trials, rounds), dtype=np.int64)
    ys = np.empty_like(xs)
    accepted = np.empty((trials, rounds), dtype=bool)
    for t in range(trials):
        inputs = qc.stream(seed, "inputs", t)
        xs[t] = inputs.integers(side, size=rounds)
        ys[t] = inputs.integers(side, size=rounds)
        accepted[t] = qc.stream(seed, "round", t).random(rounds) < table[xs[t], ys[t]]
    return xs, ys, accepted


IP2, IP3, RANDOM4 = an.ip_function(2), an.ip_function(3), an.random_function(4, 5)
# (protocol, f, prover, rounds, trials, noise mode): n = 1 to 4, odd rounds,
# and 40 trials of 1000 rounds, three blocks of DRAW_BLOCK_CELLS with a
# partial last one
DRAW_CASES = {
    "xor1-odd-depolarizing": ("route_entangled", an.xor_function(1), pr.HONEST, 7, 25,
                              "depolarizing"),
    "ip2-honest": ("route_entangled", IP2, pr.HONEST, 30, 25, "bernoulli"),
    "ip2-keep_q-bb84": ("route_bb84", IP2, at.keep_q_attack(IP2), 30, 25, "bernoulli"),
    "ip2-keep_q-blocks": ("route_entangled", IP2, at.keep_q_attack(IP2), 1000, 40, "bernoulli"),
    "ip3-keep_q-odd": ("route_entangled", IP3, at.keep_q_attack(IP3), 33, 37, "depolarizing"),
    "random4-keep_q-bb84": ("route_bb84", RANDOM4, at.keep_q_attack(RANDOM4), 9, 7,
                            "bernoulli"),
}


# 2^32 + 1 and 2^64 - 1 take trial_streams' two-word trial path
@pytest.mark.parametrize("seed", [0, 3, 2**32 + 1, 2**64 - 1])
def test_draw_trials_matches_stream_reference(seed):
    for protocol, f, prover, rounds, trials, noise_mode in DRAW_CASES.values():
        cfg = pr.NoisyRepeatConfig(rounds=rounds, eta=0.01)
        draws = pr.draw_trials(cfg, protocol, f, prover, seed, trials, noise_mode)
        xs, ys, accepted = _reference_draws(cfg, protocol, f, prover, seed, trials, noise_mode)
        for got, want in ((draws.xs, xs), (draws.ys, ys), (draws.accepted, accepted),
                          (draws.accept_counts, accepted.sum(axis=1))):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        counts_only = pr.draw_trials(cfg, protocol, f, prover, seed, trials, noise_mode,
                                     keep_rounds=False)
        assert counts_only.xs is counts_only.ys is counts_only.accepted is None
        assert counts_only.accept_counts.dtype == np.int64
        np.testing.assert_array_equal(counts_only.accept_counts, draws.accept_counts)


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("k", [1, 6, 7])
def test_word_maps_match_generator_draws(n, k):
    """The engine's maps of raw words are numpy's own bounded-integer and
    double draws: two calls of ``integers(2**n, size=k)``, x then y, and
    ``random(k)``, against the same stream's first words."""
    words = qc.stream(n, "maps", k).bit_generator.random_raw(k).astype("<u8")
    inputs = qc.stream(n, "maps", k)
    np.testing.assert_array_equal(
        _top_bits(words, n), np.concatenate([inputs.integers(2**n, size=k) for _ in "xy"]))
    np.testing.assert_array_equal(_unit_doubles(words), qc.stream(n, "maps", k).random(k))


# SHA-256 of `qpv simulate --seed 0 --out` (summary JSON without the package
# version, then the CSV), recorded before per-trial streams were vectorised
PINNED_SIMULATE = {
    "honest_bernoulli": (
        {"protocol": "route_entangled", "n": 1, "f": {"kind": "xor", "n": 1},
         "rounds": 200, "eta": 0.01, "trials": 300},
        "0ffc6df0537b010ec90418c632147e9fe787be1dcb7c3e73ce2718dcc137198e"),
    "keepq_route_bb84": (
        {"protocol": "route_bb84", "n": 2, "f": {"kind": "ip", "n": 2},
         "rounds": 1000, "trials": 2, "prover": {"kind": "keep_q"}},
        "d92a756085ed2966f96e589be670a7eece7e8a409c7039a12466f8c06a6a50bd"),
    # 16 inputs a side: the CSV's per-cell path; recorded before the CSV was
    # rendered from byte templates
    "keepq_route_bb84_n4": (
        {"protocol": "route_bb84", "n": 4, "f": {"kind": "ip", "n": 4},
         "rounds": 120, "trials": 12, "prover": {"kind": "keep_q"}},
        "f68895cf2ec4b4f8f8dbbc703f8b0324048874b8413ed23fb4498fb36921c72b"),
}


@pytest.mark.parametrize("name", sorted(PINNED_SIMULATE))
def test_simulate_outputs_pinned(tmp_path, capsys, name):
    config, digest = PINNED_SIMULATE[name]
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "res.json"
    assert cli.main(["simulate", "--config", str(path), "--seed", "0",
                     "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    summary = json.loads(out.read_text())
    del summary["provenance"]["version"]
    payload = (json.dumps(summary, sort_keys=True).encode()
               + (tmp_path / "res.json.csv").read_bytes())
    assert hashlib.sha256(payload).hexdigest() == digest
