import math

import numpy as np
import pytest

from qpv import analysis as an
from qpv import attacks as at
from qpv import protocol as pr
from qpv import qcore as qc
from qpv.attacks.strategy import bell_core
from qpv.protocol.geometry import CLAIMED_POS, RELAY_POS, VERIFIER_POS, on_time

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
    p = pr.accept_probability("route_entangled", XOR, 0, 0, pr.Prover(tamper_unitary=qc.X))
    assert p == pytest.approx(0.0, abs=1e-12)


def test_route_bb84_discard_and_send_zero():
    # per preparation: 1 for |0>, 0 for |1>, 1/2 each for |+>,|->; average 1/2
    prover = pr.Prover(replace_with=0)
    for prep, expect in ((0, 1.0), (1, 0.0), (2, 0.5), (None, 0.5)):
        p = pr.accept_probability("route_bb84", XOR, 0, 0, prover, prep=prep)
        assert p == pytest.approx(expect, abs=1e-12)


def test_route_bb84_measure_then_forward():
    prover = pr.Prover(premeasure_basis=0)
    assert pr.accept_probability("route_bb84", XOR, 0, 0, prover) == pytest.approx(0.75, abs=1e-12)


# |0>, |1>, |+>, |->, built here and not taken from qcore
BB84_KETS = [np.array(v, dtype=complex) / np.linalg.norm(v)
             for v in ([1, 0], [0, 1], [1, 1], [1, -1])]


def _single_qubit_channel(rho, prover, depolarize):
    """N(rho) on one qubit, built from scratch: depolarize, then the prover's knob."""
    rho = (1 - depolarize) * rho + depolarize * np.trace(rho) * np.eye(2) / 2
    if prover.replace_with is not None:
        s = BB84_KETS[prover.replace_with]
        rho = np.trace(rho) * np.outer(s, s.conj())
    if prover.tamper_unitary is not None:
        u = np.asarray(prover.tamper_unitary)
        rho = u @ rho @ u.conj().T
    if prover.premeasure_basis is not None:
        projectors = [np.outer(k, k.conj()) for k in
                      BB84_KETS[2 * prover.premeasure_basis:][:2]]
        rho = sum(p @ rho @ p for p in projectors)
    return rho


ROUTE_KNOBS = ([pr.HONEST, pr.Prover(tamper_unitary=qc.X), pr.Prover(tamper_unitary=qc.H)]
               + [pr.Prover(replace_with=s) for s in range(4)]
               + [pr.Prover(premeasure_basis=b) for b in (0, 1)])


@pytest.mark.parametrize("prover", ROUTE_KNOBS)
@pytest.mark.parametrize("depolarize", [0.0, 2 * 0.01])
def test_route_bb84_matches_single_qubit_oracle(prover, depolarize):
    # the prep-p test is <p|N(|p><p|)|p>, and M2 on rho_RQ is its prep average
    for x, y in XOR.pairs():
        values = []
        for prep, ket in enumerate(BB84_KETS):
            out = _single_qubit_channel(np.outer(ket, ket.conj()), prover, depolarize)
            oracle = np.vdot(ket, out @ ket).real
            got = pr.accept_probability("route_bb84", XOR, x, y, prover, prep=prep,
                                                   depolarize=depolarize)
            assert abs(got - oracle) <= 1e-12
            values.append(got)
        mean = pr.accept_probability("route_bb84", XOR, x, y, prover, depolarize=depolarize)
        assert abs(mean - np.mean(values)) <= 1e-12


def copy_to_ac_strategy(f):
    """Alice copies the stored qubit into Ac (a CNOT), dephasing rho_RA in the
    computational basis; Bob's B holds |0>."""
    layout = at.attack_layout(ac=1)
    return at.AttackStrategy(kind="route", n=f.n, layout=layout,
                             psi=bell_core(layout),
                             alice={x: qc.CNOT for x in range(1 << f.n)})


def test_route_bb84_strategy_is_scored_per_preparation():
    # <p|N(|p><p|)|p> of the dephasing channel is 1 on |0>, |1> and 1/2 on |+>, |->
    copy = copy_to_ac_strategy(XOR)
    keep = at.keep_q_attack(XOR)
    for x, y in XOR.pairs():
        for strategy in (copy, keep):
            values = [pr.accept_probability("route_bb84", XOR, x, y, strategy, prep=p)
                      for p in range(4)]
            mean = pr.accept_probability("route_bb84", XOR, x, y, strategy)
            assert abs(np.mean(values) - mean) <= 1e-12
            if XOR.value(x, y) == 0 and strategy is keep:
                np.testing.assert_allclose(values, 1.0, atol=1e-12)
            elif XOR.value(x, y) == 0:
                np.testing.assert_allclose(values, [1.0, 1.0, 0.5, 0.5], atol=1e-12)


def test_run_round_bb84_draws_prep_first():
    prover = pr.Prover(replace_with=1)
    for seed in range(8):
        run = pr.run_round("route_bb84", XOR, 1, 0, prover, seed=seed)
        prep = int(qc.as_generator(seed).integers(0, 4))
        assert run.details["prep"] == prep
        assert run.accept_probability == pr.accept_probability(
            "route_bb84", XOR, 1, 0, prover, prep=prep)
    with pytest.raises(ValueError):
        pr.accept_probability("meas", XOR, 0, 0, prep=0)


def test_meas_naive_provers():
    assert pr.accept_probability("meas", XOR, 0, 1, pr.Prover(meas_mode="random_bit")) \
        == pytest.approx(0.5, abs=1e-12)
    assert pr.accept_probability("meas", XOR, 0, 1, pr.Prover(meas_mode="wrong_basis")) \
        == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------

def test_timing_honest_and_delay():
    run = pr.run_round("route_entangled", XOR, 0, 1, seed=3)
    assert run.timing_ok and run.accepted
    late = pr.run_round("route_entangled", XOR, 0, 1, pr.Prover(delay=0.1), seed=3)
    assert not late.timing_ok and not late.accepted


def test_timing_position_spoof_fools_one_verifier_only():
    # signals travel at unit speed; a device at 0.3 gets both challenges at
    # 2.2 and reaches V0 at 2.5, as from the claimed position, but V1 at 2.9
    assert CLAIMED_POS == 0.5 and VERIFIER_POS == (0.0, 1.0)
    assert on_time(0.3, 0) and not on_time(0.3, 1)
    spoof = pr.Prover(actual_position=0.3)
    assert pr.round_gates("meas", XOR, 0, 0, spoof) == (False, True)
    # f(0, 0) = 0 names V0 and f(0, 1) = 1 names V1
    assert pr.round_gates("route_entangled", XOR, 0, 0, spoof) == (True, True)
    assert pr.round_gates("route_entangled", XOR, 0, 1, spoof) == (False, True)


def test_attack_strategy_relay_passes_the_timing_check():
    # attackers copy the intercepted inputs, exchange them and answer each
    # verifier from its relay position, on time
    f = an.ip_function(2)
    for proto in pr.PROTOCOLS:
        for prover in (at.keep_q_attack(f), pr.SyntheticAdversary(0.5)):
            assert pr.round_gates(proto, f, 3, 1, prover) == (True, True)


def test_each_relay_position_is_on_time_for_its_own_verifier_only():
    assert RELAY_POS == (0.25, 0.75)
    for v in (0, 1):
        assert on_time(RELAY_POS[v], v) and not on_time(RELAY_POS[v], 1 - v)


GATE_FUNCTIONS = {"xor1": XOR, "ip2": an.ip_function(2), "random2": an.random_function(2, 5)}


@pytest.mark.parametrize("proto", pr.PROTOCOLS)
@pytest.mark.parametrize("fname", GATE_FUNCTIONS)
def test_device_passes_only_between_the_claimed_position_and_its_verifier(fname, proto):
    f = GATE_FUNCTIONS[fname]
    for p in [*np.linspace(-0.5, 1.5, 17), 0.3, 0.7]:
        table = pr.acceptance_table(proto, f, pr.Prover(actual_position=p))
        for x, y in f.pairs():
            v = VERIFIER_POS[f.value(x, y)]
            if proto == "meas":
                expect = p == CLAIMED_POS
            else:
                expect = min(v, CLAIMED_POS) <= p <= max(v, CLAIMED_POS)
            assert (table[x, y] != 0) == expect, (p, x, y)


@pytest.mark.parametrize("proto", pr.PROTOCOLS)
def test_run_round_gates_match_the_acceptance_table(proto):
    f = GATE_FUNCTIONS["random2"]
    provers = (pr.HONEST, pr.Prover(actual_position=0.3), pr.Prover(actual_position=0.8),
               pr.Prover(delay=0.1), pr.Prover(route_to="swapped"), pr.Prover(route_to=1),
               pr.SyntheticAdversary(0.5))
    for prover in provers:
        table = pr.acceptance_table(proto, f, prover)
        for x, y in f.pairs():
            run = pr.run_round(proto, f, x, y, prover, seed=x)
            assert (run.timing_ok and run.arrival_ok) == (table[x, y] != 0), (prover, x, y)


def test_wrong_verifier_on_time_is_rejected():
    run = pr.run_round("route_entangled", XOR, 0, 1, pr.Prover(route_to="swapped"), seed=3)
    assert run.timing_ok and not run.arrival_ok and not run.accepted


def test_geometry_validation():
    with pytest.raises(ValueError, match="route_to"):
        pr.Prover(route_to=2)   # there are two verifiers
    # an early answer is as late as a late one
    assert not on_time(CLAIMED_POS, 0, delay=-0.1) and not on_time(CLAIMED_POS, 1, delay=0.1)


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
    rhos = np.stack([qc.random_density_matrix(4, qc.stream(17, t)) for t in range(300)])
    singles = [(pr.m1_accept_probability(rho), pr.m2_accept_probability(rho)) for rho in rhos]
    for m1, m2 in singles:
        assert m2 >= m1 - 1e-9          # 1 - M1 <= d  =>  1 - M2 <= d
        assert m1 >= 2 * m2 - 1 - 1e-9  # 1 - M2 <= d  =>  1 - M1 <= 2d
    # a stack scores each pair as it alone scores
    stacked = (pr.m1_accept_probability(rhos), pr.m2_accept_probability(rhos))
    assert np.array_equal(np.stack(stacked, axis=1), singles)


# ---------------------------------------------------------------------------
# repetition
# ---------------------------------------------------------------------------

def test_repeat_sequential_honest_all_accept():
    cfg = pr.NoisyRepeatConfig(rounds=100, eta=0.0)
    draws = pr.draw_trials(cfg, "route_bb84", XOR, seed=5)
    assert draws.accept_counts.tolist() == [100]


def test_repeat_sequential_failing_round_rejects():
    cfg = pr.NoisyRepeatConfig(rounds=20, eta=0.0)
    draws = pr.draw_trials(cfg, "meas", XOR, pr.SyntheticAdversary(0.0), seed=5)
    assert draws.accept_counts.tolist() == [0]


def test_repeat_sequential_binomial_oracle():
    # sequential repetition accepts only if every round accepts: p^r per trial
    p, r, trials = 0.9, 5, 10_000
    cfg = pr.NoisyRepeatConfig(rounds=r, eta=0.0)
    draws = pr.draw_trials(cfg, "route_entangled", XOR, pr.SyntheticAdversary(p),
                           seed=31_000, trials=trials)
    wins = int(np.sum(draws.accept_counts == r))
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
    res = pr.noisy_threshold_trials(cfg, "route_entangled", XOR, seed=5, trials=1)
    assert res["acceptance_rate"] == 1.0 and res["accept_counts"] == [50]
    res = pr.noisy_threshold_trials(cfg, "route_entangled", XOR,
                                    pr.SyntheticAdversary(0.0), seed=5, trials=1)
    assert res["acceptance_rate"] == 0.0


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
    p = pr.accept_probability("route_entangled", XOR, 0, 0, depolarize=4 * eta / 3)
    assert p == pytest.approx(1 - eta, abs=1e-12)
    p = pr.accept_probability("route_bb84", XOR, 0, 0, depolarize=2 * eta)
    assert p == pytest.approx(1 - eta, abs=1e-12)
    p = pr.accept_probability("meas", XOR, 0, 0, depolarize=2 * eta)
    assert p == pytest.approx(1 - eta, abs=1e-12)
    cfg = pr.NoisyRepeatConfig(rounds=40, eta=eta)
    res = pr.noisy_threshold_trials(cfg, "route_bb84", XOR, seed=9, trials=1,
                                    noise_mode="depolarizing")
    assert res["accept_counts"][0] >= 35


# ---------------------------------------------------------------------------
# attack handles inside protocol runs
# ---------------------------------------------------------------------------

def test_attack_strategy_as_prover():
    keep = at.keep_q_attack(XOR)
    probs = {(x, y): pr.accept_probability("route_entangled", XOR, x, y, keep)
             for x, y in XOR.pairs()}
    assert probs == {(0, 0): pytest.approx(1.0, abs=1e-12),
                     (1, 1): pytest.approx(1.0, abs=1e-12),
                     (0, 1): 0.0, (1, 0): 0.0}
    run = pr.run_round("route_entangled", XOR, 0, 1, keep, seed=2)
    assert run.timing_ok and not run.accepted


def test_attack_strategy_bb84_uses_m2():
    keep = at.keep_q_attack(XOR)
    # reduced state on accepted pairs is the Bell pair: M2 accepts with prob 1
    assert pr.accept_probability("route_bb84", XOR, 0, 0, keep) == pytest.approx(1.0, abs=1e-12)
    assert pr.accept_probability("route_bb84", XOR, 0, 1, keep) == 0.0


def test_input_length_validation():
    with pytest.raises(ValueError):
        pr.run_round("meas", XOR, 2, 0, seed=1)
