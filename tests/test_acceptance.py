"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.

Criterion 9 pins the best unentangled attack on the measuring protocol for
n = 1, f = AND, to (1 + cos^2(pi/8))/2 [approximately 0.92678] +- 0.005.
Upper bound: for x = 0, AND is 0 whatever y is, so the basis is known in
advance and success is at most 1.  For x = 1 the basis equals y, which is
uniform.  The pre-shared state is a product state, so Bob's y-dependent
message is uncorrelated with the verifier's qubit R and Alice could prepare
it herself once she learns y.  What is left is a y-independent tripartite
state on R and the two attackers' shares, from which each attacker must guess
R's outcome in basis y; the BB84 monogamy game (Tomamichel, Fehr, Kaniewski,
Wehner, arXiv 1210.4359) caps that at cos^2(pi/8).  Achieving strategy: for
x = 0 Alice measures Q in the computational basis, for x = 1 she makes the
Breidbart measurement, and in both cases she broadcasts the result.  The
window excludes the XOR value cos^2(pi/8) [approximately 0.85355] and the
x-blind AND value (2 + sqrt(10)/2)/4 [approximately 0.89528], so it checks
that the optimizer finds the x-dependent strategy.  An earlier version of
this criterion pinned [0.8486, 0.8586], which is the XOR value under the AND
label; the XOR value itself stays pinned by
``tests/test_seesaw.py::test_meas_xor_unentangled_hits_breidbart_value``.
"""

import math
import time

import numpy as np
import pytest

from qpv import analysis as an
from qpv import attacks as at
from qpv import checks as ck
from qpv import protocol as pr
from qpv import qcore as qc

SEED = 2026


def report(num, label, passed, detail, budget, elapsed):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {num:02d} {status} {label}: {detail} "
          f"[{elapsed:.1f}s / {budget:.0f}s]")
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"
    assert passed, f"criterion {num} {label}: {detail}"


def test_criterion_01_honest_completeness():
    t0 = time.time()
    worst = 1.0
    for n in (1, 2, 3):
        f = an.random_function(n, SEED + n)
        for x, y in f.pairs():
            worst = min(worst, pr.accept_probability("route_entangled", f, x, y))
            worst = min(worst, pr.accept_probability("meas", f, x, y))
            for prep in range(4):
                worst = min(worst, pr.accept_probability("route_bb84", f, x, y, prep=prep))
    passed = abs(worst - 1.0) <= 1e-12
    report(1, "honest completeness", passed,
           f"min acceptance {worst:.15f} over n<=3, all pairs, 4 preparations",
           10, time.time() - t0)


def test_criterion_02_m1_m2_equivalence():
    t0 = time.time()
    rep = ck.check_m1_m2(trials=1000, seed=SEED)
    report(2, "M1/M2 equivalence", rep.passed,
           f"min implication slack {rep.lhs:.3e} >= 0 (tol 1e-9)",
           5, time.time() - t0)


def test_criterion_03_cit():
    t0 = time.time()
    rep = ck.check_cit(trials=1000, seed=SEED)
    report(3, "entropic uncertainty (CIT)", rep.passed,
           f"min entropy sum {rep.lhs:.9f} >= 1 - 1e-7",
           30, time.time() - t0)


def test_criterion_04_recovery_overlap():
    t0 = time.time()
    rep = ck.check_recovery_overlap(trials=1000, seed=SEED)
    aligned = rep.worst_case["aligned_overlap"]
    report(4, "overlap bound + witness", rep.passed,
           f"max overlap {rep.lhs:.9f} <= 0.5 + 1e-9, witness {aligned:.9f} >= 0.5 - 1e-6",
           10, time.time() - t0)


def test_criterion_05_routing_disjointness():
    t0 = time.time()
    rep_eps = ck.check_low_fidelity_route(eps=0.41, trials=100, seed=SEED)
    rep_zero = ck.check_low_fidelity_route(eps=0.0, trials=100, seed=SEED + 1)
    passed = rep_eps.passed and rep_zero.passed and rep_eps.lhs > 0.046
    report(5, "routing disjointness", passed,
           f"min distance {rep_eps.lhs:.4f} > 0.046 at eps=0.41; "
           f"min {rep_zero.lhs:.4f} >= sqrt(3)/2 - 1e-9 at eps=0",
           30, time.time() - t0)


def test_criterion_06_afw():
    t0 = time.time()
    rep = ck.check_afw(trials=1000, seed=SEED)
    report(6, "entropy continuity constant", rep.passed,
           f"constant {rep.worst_case['constant']:.6f} <= 0.127 and "
           f"max sampled gap <= 0.127 over {rep.trials} pairs",
           30, time.time() - t0)


def test_criterion_07_counting_argument():
    t0 = time.time()
    ok = True
    worst = 0.0
    for n in range(10, 17):
        for q in range((n - 10) // 2 + 1):
            rep = an.counting_bound(n, q)
            ok &= rep.passes
            worst = max(worst, rep.log2_bound / -(1 << n))
    delta_ok = an.delta_margin_check()
    passed = ok and delta_ok
    report(7, "certified counting argument", passed,
           f"exponent certified < -2^n for 10<=n<=16, q<=n/2-5; "
           f"delta margin {float(an.delta_margin_value()):.6f} < 0.0065",
           5, time.time() - t0)


def test_criterion_08_attack_baselines():
    t0 = time.time()
    xor = an.xor_function(1)
    keep = at.epsilon_l_report(at.keep_q_attack(xor), xor)
    ok = abs(keep.average - 0.5) <= 1e-12

    f_y = an.BooleanFunction(1, [0, 1, 0, 1])
    gh_y = at.GardenHoseProtocol(pipes=2, alice={0: (("S", 1),), 1: (("S", 1),)},
                                 bob={0: ((1, 2),), 1: ()})
    rep_y = at.epsilon_l_report(at.compile_gardenhose(gh_y, 1), f_y)
    ok &= at.computes(gh_y, f_y) and abs(rep_y.average - 1.0) <= 1e-9

    gh_xor = at.GardenHoseProtocol(pipes=3, alice={0: (("S", 1),), 1: (("S", 2),)},
                                   bob={0: ((1, 3),), 1: ((2, 3),)})
    rep_x = at.epsilon_l_report(at.compile_gardenhose(gh_xor, 1), xor)
    ok &= at.computes(gh_xor, xor) and abs(rep_x.average - 1.0) <= 1e-9
    report(8, "attack baselines", ok,
           f"keep-Q on XOR avg {keep.average:.12f} = 1/2; garden-hose f=y avg "
           f"{rep_y.average:.12f}, f=xor avg {rep_x.average:.12f}",
           10, time.time() - t0)


def test_criterion_09_unentangled_measuring_optimum():
    t0 = time.time()
    f_and = an.ip_function(1)
    out = at.seesaw_optimize(f_and, (1, 0, 1), kind="meas", restarts=20, iters=60,
                             seed=SEED, unentangled=True)
    closed = at.measure_broadcast_value(f_and, per_x=True)
    and_unent = (1 + math.cos(math.pi / 8) ** 2) / 2
    lo, hi = and_unent - 0.005, and_unent + 0.005
    in_window = lo <= out.best_value <= hi
    closed_form_agrees = abs(closed - and_unent) <= 1e-12
    below_one = out.best_value <= 1 - 1e-9
    passed = in_window and closed_form_agrees and below_one
    report(9, "unentangled optimum, measuring protocol, f=AND", passed,
           f"see-saw best {out.best_value:.6f}, window "
           f"[{lo:.4f}, {hi:.4f}] = (1+cos^2(pi/8))/2 +- 0.005; "
           f"per-x measure-and-broadcast closed form {closed:.12f}; "
           f"below-1 check {below_one}",
           120, time.time() - t0)


def test_criterion_10_noisy_repetition():
    t0 = time.time()
    xor = an.xor_function(1)
    cfg = pr.NoisyRepeatConfig(rounds=200, eta=0.01)
    bound = math.exp(-8e-6 * cfg.rounds)

    honest = pr.noisy_threshold_trials(cfg, "route_entangled", xor,
                                       seed=SEED, trials=10_000)
    adversary = pr.noisy_threshold_trials(cfg, "route_entangled", xor,
                                          pr.SyntheticAdversary(0.98),
                                          seed=SEED + 1, trials=10_000)
    sigma = adversary["rate_sigma"]
    ok_honest = honest["acceptance_rate"] >= 1 - bound
    ok_adv = adversary["acceptance_rate"] <= bound + 4 * sigma
    passed = ok_honest and ok_adv
    report(10, "noisy repetition", passed,
           f"honest rate {honest['acceptance_rate']:.4f} >= {1 - bound:.4f}; "
           f"capped-0.98 adversary rate {adversary['acceptance_rate']:.4f} <= "
           f"{bound + 4 * sigma:.4f}",
           120, time.time() - t0)


def test_criterion_11_cc_bruteforce():
    t0 = time.time()
    ip1 = an.ip_function(1)
    ip2 = an.ip_function(2)
    d_ip1 = an.smp_cc(ip1)
    err_ip2 = an.smp_cc_bruteforce(ip2, 1)
    ok = d_ip1 == 1 and err_ip2 == an.smp_cc_bruteforce(ip2, 1)
    regression = (err_ip2.numerator, err_ip2.denominator) == (3, 16)
    ordering = True
    for s in range(20):
        f = an.random_function(2, SEED + 100 + s)
        for k in (1, 2):
            ordering &= an.oneway_cc_bruteforce(f, k) <= an.smp_cc_bruteforce(f, k)
    passed = ok and regression and ordering
    report(11, "communication-complexity brute force", passed,
           f"D_smp(IP_1)={d_ip1} (=1); IP_2 k=1 error {err_ip2} (frozen 3/16); "
           f"one-way <= SMP on 20 random n=2 functions: {ordering}",
           300, time.time() - t0)


def test_criterion_12_stochastic_domination():
    t0 = time.time()
    rep = ck.check_bound_by_iid(trials=4000, seed=SEED)
    report(12, "stochastic domination by iid", rep.passed,
           f"exact r=3 dominance holds (worst gap "
           f"{rep.worst_case['exact_r3_worst']:.3e}); Monte Carlo r=50 worst "
           f"4-sigma excess {rep.lhs:.3e} <= 0",
           60, time.time() - t0)
