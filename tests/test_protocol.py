import math

import numpy as np
import pytest

from qpv import analysis as an
from qpv import attacks as at
from qpv import protocol as pr
from qpv import qcore as qc

XOR = an.xor_function(1)


# ---------------------------------------------------------------------------
# honest completeness and naive provers (exact probabilities)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("proto", pr.PROTOCOLS)
def test_honest_completeness_exact(proto):
    f = an.random_function(2, 11)
    for x, y in f.pairs():
        p = pr.accept_probability(proto, f, x, y)
        assert abs(p - 1.0) <= 1e-12


def test_route_entangled_tampered_qubit():
    p = pr.route_entangled_accept_probability(XOR, 0, 0, pr.Prover(tamper_unitary=qc.X))
    assert p == pytest.approx(0.0, abs=1e-12)


def test_route_bb84_discard_and_send_zero():
    # per preparation: 1 for |0>, 0 for |1>, 1/2 each for |+>,|->; average 1/2
    prover = pr.Prover(replace_with=0)
    assert pr.route_bb84_accept_probability(XOR, 0, 0, prover, prep=0) == pytest.approx(1.0, abs=1e-12)
    assert pr.route_bb84_accept_probability(XOR, 0, 0, prover, prep=1) == pytest.approx(0.0, abs=1e-12)
    assert pr.route_bb84_accept_probability(XOR, 0, 0, prover, prep=2) == pytest.approx(0.5, abs=1e-12)
    assert pr.route_bb84_accept_probability(XOR, 0, 0, prover) == pytest.approx(0.5, abs=1e-12)


def test_route_bb84_measure_then_forward():
    prover = pr.Prover(premeasure_basis=0)
    assert pr.route_bb84_accept_probability(XOR, 0, 0, prover) == pytest.approx(0.75, abs=1e-12)


def test_meas_naive_provers():
    assert pr.meas_accept_probability(XOR, 0, 1, pr.Prover(meas_mode="random_bit")) \
        == pytest.approx(0.5, abs=1e-12)
    assert pr.meas_accept_probability(XOR, 0, 1, pr.Prover(meas_mode="wrong_basis")) \
        == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------

def test_timing_honest_and_delay():
    run = pr.run_route_entangled(XOR, 0, 1, seed=3)
    assert run.timing_ok and run.accepted
    late = pr.run_route_entangled(XOR, 0, 1, pr.Prover(delay=0.1), seed=3)
    assert not late.timing_ok and not late.accepted


def test_timing_position_spoof_fools_one_verifier_only():
    geom = pr.Geometry(z=0.5)
    events = pr.honest_challenge_events(geom, 0, 0) + pr.response_events(
        geom, [0, 1], actual_position=0.3)
    arrivals = {ev.payload["verifier"]: ev.time for ev in events
                if ev.label == "response_arrival"}
    honest_v0 = pr.CHALLENGE_ARRIVAL + geom.travel_time(geom.z, geom.v0_pos)
    honest_v1 = pr.CHALLENGE_ARRIVAL + geom.travel_time(geom.z, geom.v1_pos)
    assert arrivals[0] == pytest.approx(honest_v0, abs=1e-12)
    assert arrivals[1] != pytest.approx(honest_v1, abs=1e-9)
    assert not pr.timing_check(events, geom)


def test_wrong_verifier_on_time_is_rejected():
    run = pr.run_route_entangled(XOR, 0, 1, pr.Prover(route_to="swapped"), seed=3)
    assert run.timing_ok and not run.arrival_ok and not run.accepted


def test_geometry_validation():
    with pytest.raises(ValueError):
        pr.Geometry(z=1.5)
    with pytest.raises(ValueError):
        pr.SpacetimeEvent("P", 0.5, -1.0, "x")


# ---------------------------------------------------------------------------
# M1 / M2
# ---------------------------------------------------------------------------

def test_m1_m2_examples():
    omega = np.outer(qc.BELL_VECTOR, qc.BELL_VECTOR.conj())
    assert pr.m1_accept_probability(omega) == pytest.approx(1.0, abs=1e-12)
    assert pr.m2_accept_probability(omega) == pytest.approx(1.0, abs=1e-12)
    mixed = np.eye(4) / 4
    assert pr.m1_accept_probability(mixed) == pytest.approx(0.25, abs=1e-12)
    assert pr.m2_accept_probability(mixed) == pytest.approx(0.5, abs=1e-12)
    phi1 = np.outer(qc.PHI1_VECTOR, qc.PHI1_VECTOR.conj())
    assert pr.m1_accept_probability(phi1) == pytest.approx(0.0, abs=1e-12)
    assert pr.m2_accept_probability(phi1) == pytest.approx(0.5, abs=1e-12)
    phi2 = np.outer(qc.PHI2_VECTOR, qc.PHI2_VECTOR.conj())
    assert pr.m1_accept_probability(phi2) == pytest.approx(0.0, abs=1e-12)
    assert pr.m2_accept_probability(phi2) == pytest.approx(0.5, abs=1e-12)


def test_m1_m2_implications_on_random_states():
    for t in range(300):
        rho = qc.random_density_matrix(4, qc.stream(17, t))
        m1 = pr.m1_accept_probability(rho)
        m2 = pr.m2_accept_probability(rho)
        assert m2 >= m1 - 1e-9          # 1 - M1 <= d  =>  1 - M2 <= d
        assert m1 >= 2 * m2 - 1 - 1e-9  # 1 - M2 <= d  =>  1 - M1 <= 2d


# ---------------------------------------------------------------------------
# repetition
# ---------------------------------------------------------------------------

def test_repeat_sequential_honest_all_accept():
    res = pr.repeat_sequential("route_bb84", XOR, 100, seed=5)
    assert res.accepted and res.accept_count == 100


def test_repeat_sequential_failing_round_rejects():
    res = pr.repeat_sequential("meas", XOR, 20, pr.SyntheticAdversary(0.0), seed=5)
    assert not res.accepted and res.accept_count == 0


def test_repeat_sequential_binomial_oracle():
    p, r, trials = 0.9, 5, 10_000
    wins = 0
    for t in range(trials):
        res = pr.repeat_sequential("route_entangled", XOR, r,
                                   pr.SyntheticAdversary(p), seed=31_000 + t)
        wins += res.accepted
    expect = p ** r
    sigma = math.sqrt(expect * (1 - expect) / trials)
    assert abs(wins / trials - expect) <= 3 * sigma + 1e-9


def test_noisy_threshold_tie_rejects():
    cfg = pr.NoisyRepeatConfig(rounds=250, eta=0.0)
    # "more than" the threshold: an exact tie must reject
    assert not (249 > cfg.threshold)
    assert 250 > cfg.threshold
    assert cfg.threshold == pytest.approx(0.996 * 250)


def test_noisy_threshold_honest_and_failing():
    cfg = pr.NoisyRepeatConfig(rounds=50, eta=0.0)
    res = pr.run_noisy_threshold(cfg, "route_entangled", XOR, seed=5)
    assert res.accepted and res.accept_count == 50
    res = pr.run_noisy_threshold(cfg, "route_entangled", XOR,
                                 pr.SyntheticAdversary(0.0), seed=5)
    assert not res.accepted


def test_noisy_config_validation():
    with pytest.raises(ValueError):
        pr.NoisyRepeatConfig(rounds=10, eta=0.02)
    with pytest.raises(ValueError):
        pr.NoisyRepeatConfig(rounds=0, eta=0.0)


def test_noisy_acceptance_monotone_in_eta_with_coupling():
    # fixed acceptance threshold (nominal eta), actual corruption level swept
    # with nested shared draws: acceptance is then pointwise non-increasing.
    # (With the threshold co-varying as 0.996(1-eta)r the rate is NOT
    # monotone: integer crossings of the required count produce a sawtooth.)
    rounds, trials = 100, 400
    cfg = pr.NoisyRepeatConfig(rounds=rounds, eta=0.01)
    draws = qc.stream(41).random((trials, rounds))
    rates = []
    for eta in (0.0, 0.0025, 0.005, 0.0075, 0.01):
        counts = (draws >= eta).sum(axis=1)   # honest round survives unless corrupted
        rates.append(float(np.mean(counts > cfg.threshold)))
    assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))


def test_noisy_threshold_trials_vectorized_matches_slow():
    cfg = pr.NoisyRepeatConfig(rounds=30, eta=0.01)
    fast = pr.noisy_threshold_trials(cfg, "meas", XOR, seed=8, trials=400)
    assert fast["per_round_probability"] == pytest.approx(0.99, abs=1e-12)
    # the threshold 0.996*0.99*30 = 29.58 requires all 30 rounds to accept
    assert fast["acceptance_rate"] == pytest.approx(0.99 ** 30, abs=4 * fast["rate_sigma"] + 0.02)


@pytest.mark.parametrize("prover", [pr.Prover(route_to="swapped"), pr.Prover(delay=0.1)])
def test_repetition_gates_timing_and_arrival(prover):
    cfg = pr.NoisyRepeatConfig(rounds=20, eta=0.0)
    # the qubit itself arrives intact; only the gates reject
    assert pr.accept_probability("route_entangled", XOR, 0, 1, prover) == pytest.approx(1.0, abs=1e-12)
    res = pr.noisy_threshold_trials(cfg, "route_entangled", XOR, prover, seed=3, trials=5)
    assert res["per_round_probability"] == 0.0 and res["mean_accept_count"] == 0.0


def test_depolarizing_noise_mode():
    # calibrated so the honest per-round failure equals eta in every protocol
    eta = 0.01
    p = pr.route_entangled_accept_probability(XOR, 0, 0, depolarize=4 * eta / 3)
    assert p == pytest.approx(1 - eta, abs=1e-12)
    p = pr.route_bb84_accept_probability(XOR, 0, 0, depolarize=2 * eta)
    assert p == pytest.approx(1 - eta, abs=1e-12)
    p = pr.meas_accept_probability(XOR, 0, 0, depolarize=2 * eta)
    assert p == pytest.approx(1 - eta, abs=1e-12)
    cfg = pr.NoisyRepeatConfig(rounds=40, eta=eta)
    res = pr.run_noisy_threshold(cfg, "route_bb84", XOR, seed=9,
                                 noise_mode="depolarizing")
    assert res.accept_count >= 35


# ---------------------------------------------------------------------------
# attack handles inside protocol runs
# ---------------------------------------------------------------------------

def test_attack_strategy_as_prover():
    keep = at.keep_q_attack(XOR)
    probs = {(x, y): pr.route_entangled_accept_probability(XOR, x, y, keep)
             for x, y in XOR.pairs()}
    assert probs == {(0, 0): pytest.approx(1.0, abs=1e-12),
                     (1, 1): pytest.approx(1.0, abs=1e-12),
                     (0, 1): 0.0, (1, 0): 0.0}
    run = pr.run_route_entangled(XOR, 0, 1, keep, seed=2)
    assert run.timing_ok and not run.accepted


def test_attack_strategy_bb84_uses_m2():
    keep = at.keep_q_attack(XOR)
    # reduced state on accepted pairs is the Bell pair: M2 accepts with prob 1
    assert pr.route_bb84_accept_probability(XOR, 0, 0, keep) == pytest.approx(1.0, abs=1e-12)
    assert pr.route_bb84_accept_probability(XOR, 0, 1, keep) == 0.0


def test_input_length_validation():
    with pytest.raises(ValueError):
        pr.run_meas(XOR, 2, 0, seed=1)
