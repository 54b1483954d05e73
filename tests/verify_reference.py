"""Per-trial reference for seven verify suites: the samplers and suite bodies
as they read each trial's stream one draw at a time, before the suites drew
each trial's randomness as one row and finished it in blocks of trials.

The samplers read the one draw order the batched samplers read: a
perturbation whose noise is parallel to its vector still draws its uniform,
and a measuring candidate that meas_figure refuses is replaced by the core,
with no second candidate."""

from __future__ import annotations

import itertools
import math

import numpy as np

from qpv import qcore as qc
from qpv.attacks import good_sets
from qpv.attacks.good_sets import ROUTE_SIDES, meas_core, small_attack_layout
from qpv.attacks.strategy import ALICE_FINAL, BOB_FINAL, bell_core, rest_registers
from qpv.checks.report import BoundReport, holds
from qpv.checks.suites import SQRT3_HALF, afw_bound
from qpv.protocol.runs import m1_accept_probability, m2_accept_probability


def vector_norm(v):
    return np.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))


def purified_distance_pure(u, v):
    f = abs(np.vdot(u, v))
    return math.sqrt(max(0.0, 1.0 - f * f))


def random_unit_vector(dim, rng):
    z = rng.standard_normal(2 * dim)   # real parts, then imaginary parts
    v = z[:dim] + 1j * z[dim:]
    return v / vector_norm(v)


def random_density_matrix(dim, rng):
    v = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = v @ v.conj().T
    return rho / np.trace(rho).real


def perturb_within(vec, eps, rng):
    out, sin_a = vec, 0.0
    if eps > 0:
        noise = random_unit_vector(vec.size, rng)
        noise = noise - np.vdot(vec, noise) * vec
        nn = vector_norm(noise)
        u = rng.random()   # drawn whether or not the vector moves
        if nn >= 1e-12:
            sin_a = eps * u
            out = np.sqrt(1 - sin_a ** 2) * vec + sin_a * (noise / nn)
    return out / vector_norm(out), sin_a


def route_member(layout, which, eps, rng):
    regs, ret = ROUTE_SIDES[which]
    phi = random_unit_vector(layout.subdim(*rest_registers(layout, "R", ret)), rng)
    k = qc.haar_random_unitary(layout.subdim(*regs), rng)
    vec = qc.apply_vector_matrix(bell_core(layout, ret, phi), layout, k.conj().T, regs)
    return perturb_within(vec, eps, rng)[0]


def meas_member(layout, which, eps, rng):
    vec = meas_core(layout, 0 if which == "S0" else 1)
    cand, _ = perturb_within(vec, eps, rng)
    # looked up on the module, so a test that patches the rule patches it here too
    if good_sets.meas_figure(cand[None], layout, which, eps)[1][0]:
        return cand
    return vec.copy()


def check_cit(trials=1000, seed=0):
    widths, vecs = [], []
    for t, rng in enumerate(qc.trial_streams(seed, "cit", trials)):
        we = 1 + int(rng.integers(2))
        wf = 1 + int(rng.integers(2))
        widths.append((we, wf))
        vecs.append(random_unit_vector(1 << (1 + we + wf), rng))
    totals = np.full((trials, 2), math.inf)
    for we, wf in sorted(set(widths)):
        layout = qc.RegisterLayout([("R", 1), ("E", we), ("F", wf)])
        idx = [t for t, w in enumerate(widths) if w == (we, wf)]
        group = np.stack([vecs[t] for t in idx])
        for theta in (0, 1):
            totals[idx, theta] = (
                qc.conditional_entropy_pure(group, layout, "R", ("E",), ("R", theta))
                + qc.conditional_entropy_pure(group, layout, "R", ("F",), ("R", 1 - theta)))
    t, theta = divmod(int(np.argmin(totals)), 2)
    worst = float(totals[t, theta])
    we, wf = widths[t]
    witness = {"trial": t, "dims": [2 ** we, 2 ** wf], "theta": theta, "sum": worst}
    return BoundReport(name="cit", lhs=worst, rhs=1.0, relation=">=",
                       passed=holds(worst, ">=", 1.0, 1e-7), trials=trials,
                       tolerance=1e-7, worst_case=witness)


def check_recovery_overlap(trials=1000, seed=0):
    layout = small_attack_layout()
    phi_dims = [layout.subdim(*rest_registers(layout, "R", ret)) for ret in ("A", "B")]
    k_dim, l_dim = layout.subdim(*ALICE_FINAL), layout.subdim(*BOB_FINAL)
    overlaps = []
    streams = qc.trial_streams(seed, "overlap", trials)
    for start in range(0, trials, 100):
        draws = []
        for rng in itertools.islice(streams, 100):
            draws.append((random_unit_vector(phi_dims[0], rng),
                          random_unit_vector(phi_dims[1], rng),
                          qc.ginibre(k_dim, rng), qc.ginibre(l_dim, rng)))
        phi0, phi1, zk, zl = (np.stack(d) for d in zip(*draws))
        k, lu = qc.haar_finish(zk), qc.haar_finish(zl)
        psi0 = qc.apply_vector_matrix(bell_core(layout, "A", phi0), layout,
                                      k.conj().transpose(0, 2, 1), ALICE_FINAL)
        psi1 = qc.apply_vector_matrix(bell_core(layout, "B", phi1), layout,
                                      lu.conj().transpose(0, 2, 1), BOB_FINAL)
        overlaps += [abs(np.vdot(a, b)) for a, b in zip(psi0, psi1)]
    t = int(np.argmax(overlaps))
    witness = {"trial": t, "overlap": overlaps[t]}
    worst = overlaps[t]

    rng = qc.stream(seed, "overlap", "witness")
    phi1 = random_unit_vector(phi_dims[1], rng)
    psi0 = qc.assemble_raw(layout, [(("R", "A"), qc.BELL_VECTOR),
                                    (("B", "At", "Ac", "Bt", "Bc"), phi1)])
    aligned = abs(np.vdot(psi0, bell_core(layout, "B", phi1)))
    witness["aligned_overlap"] = aligned
    passed = (holds(worst, "<=", 0.5, 1e-9) and aligned >= 0.5 - 1e-6)
    return BoundReport(name="recovery_overlap", lhs=worst, rhs=0.5, relation="<=",
                       passed=passed, trials=trials, tolerance=1e-9,
                       worst_case=witness)


def check_low_fidelity_route(eps=0.41, trials=100, seed=0):
    layout = small_attack_layout()
    bound = SQRT3_HALF - 2 * eps
    worst = math.inf
    witness = {}
    for t, rng in enumerate(qc.trial_streams(seed, "route-sep", trials)):
        psi0 = route_member(layout, "S0", eps, rng)
        psi1 = route_member(layout, "S1", eps, rng)
        dist = purified_distance_pure(psi0, psi1)
        if dist < worst:
            worst = dist
            witness = {"trial": t, "distance": dist}
    passed = holds(worst, ">=", bound, 1e-9) and (eps < 0.41 or worst > 0.046)
    witness["threshold_0046"] = worst > 0.046
    return BoundReport(name="low_fidelity_route", lhs=worst, rhs=bound,
                       relation=">=", passed=passed, trials=trials,
                       tolerance=1e-9, worst_case=witness)


def check_afw(trials=1000, seed=0):
    delta = 0.013
    constant = afw_bound(delta)
    layout = qc.RegisterLayout([("R", 1), ("E", 1), ("F", 1)])
    vecs, chis, dists = [], [], []
    for t, rng in enumerate(qc.trial_streams(seed, "afw", trials)):
        vecs.append(random_unit_vector(layout.dim, rng))
        chi, sin_a = perturb_within(vecs[-1], delta, rng)
        chis.append(chi)
        dists.append(sin_a)
    witness = {"constant": constant}
    worst = 0.0
    if trials:
        gaps = np.abs(qc.conditional_entropy_pure(np.stack(vecs), layout, "R", ("E",))
                      - qc.conditional_entropy_pure(np.stack(chis), layout, "R", ("E",)))
        i = int(np.argmax(gaps))
        if gaps[i] > worst:
            worst = float(gaps[i])
            witness.update({"trial": i, "gap": worst, "distance": dists[i]})
    passed = constant <= 0.127 and holds(worst, "<=", 0.127, 1e-9)
    return BoundReport(name="afw", lhs=max(worst, constant), rhs=0.127,
                       relation="<=", passed=passed, trials=trials,
                       tolerance=1e-9, worst_case=witness)


def check_fano_chain(trials=1000, seed=0):
    err_cap = 0.3 * 0.3
    cap = qc.binary_entropy(err_cap)
    layout = qc.RegisterLayout([("R", 1), ("W", 1), ("P", 1)])
    vecs = np.zeros((trials, layout.dim), dtype=complex)
    errors = np.zeros(trials)
    for t, rng in enumerate(qc.trial_streams(seed, "fano", trials)):
        e = err_cap * rng.random()
        errors[t] = e
        if t % 2 == 0:
            vecs[t, [0b000, 0b011]] = math.sqrt((1 - e) / 2)
            vecs[t, [0b101, 0b110]] = math.sqrt(e / 2)
        else:
            ov = 2 * math.sqrt(e * (1 - e))
            chi0 = np.array([1.0, 0.0], dtype=complex)
            chi1 = np.array([ov, math.sqrt(max(0.0, 1 - ov * ov))], dtype=complex)
            for z, chi in ((0, chi0), (1, chi1)):
                for w in (0, 1):
                    vecs[t, z + 2 * w] = math.sqrt(0.5) * chi[w]
    guess = good_sets.helstrom_guess_pure(vecs, layout, 0, ("W",))
    if np.any(guess < 1 - err_cap - 1e-9):
        raise AssertionError("sampler violated its own premise")
    ents = qc.conditional_entropy_pure(vecs, layout, "R", ("W",), ("R", 0))
    t = int(np.argmax(ents))
    worst = float(ents[t])
    witness = {"trial": t, "entropy": worst, "error": float(errors[t])}
    return BoundReport(name="fano_chain", lhs=worst, rhs=cap, relation="<=",
                       passed=holds(worst, "<=", cap, 1e-9), trials=trials,
                       tolerance=1e-9, worst_case=witness)


def check_meas_disjoint(trials=100, seed=0):
    delta = qc.binary_entropy(0.09)
    layout = small_attack_layout()
    phi0 = np.zeros((trials, layout.dim), dtype=complex)
    phi1 = np.zeros((trials, layout.dim), dtype=complex)
    dists = np.zeros(trials)
    for t, rng in enumerate(qc.trial_streams(seed, "meas-sep", trials)):
        phi0[t] = meas_member(layout, "S0", 0.25, rng)
        phi1[t] = meas_member(layout, "S1", 0.25, rng)
        dists[t] = purified_distance_pure(phi0[t], phi1[t])
    h0 = qc.conditional_entropy_pure(phi0, layout, "R", ALICE_FINAL, ("R", 0))
    h1 = qc.conditional_entropy_pure(phi1, layout, "R", BOB_FINAL, ("R", 1))
    sigma0 = qc.conditional_entropy_pure(phi0, layout, "R", BOB_FINAL, ("R", 1))
    sigma1 = qc.conditional_entropy_pure(phi1, layout, "R", BOB_FINAL, ("R", 1))
    valid = np.flatnonzero((h0 <= delta) & (h1 <= delta))
    gaps = np.abs(sigma0 - sigma1)
    worst = math.inf
    gap_min = math.inf
    witness = {"delta": delta}
    if valid.size:
        gap_min = float(np.min(gaps[valid] - (1 - 2 * delta)))
        t = int(valid[np.argmin(dists[valid])])
        worst = float(dists[t])
        witness.update({"trial": t, "distance": worst, "entropy_gap": float(gaps[t])})
    passed = worst > 0.013 and gap_min >= -1e-9
    witness["entropy_gap_slack_vs_1_minus_2delta"] = gap_min
    return BoundReport(name="meas_disjoint", lhs=0.013, rhs=worst, relation="<",
                       passed=passed, trials=trials, tolerance=0.0,
                       worst_case=witness)


def check_m1_m2(trials=1000, seed=0):
    worst = math.inf
    witness = {}
    for t, rng in enumerate(qc.trial_streams(seed, "m1m2", trials)):
        rho = random_density_matrix(4, rng)
        m1 = m1_accept_probability(rho)
        m2 = m2_accept_probability(rho)
        slack = min(m2 - m1, m1 - (2 * m2 - 1))
        if slack < worst:
            worst = slack
            witness = {"trial": t, "m1": m1, "m2": m2}
    return BoundReport(name="m1_m2", lhs=worst, rhs=0.0, relation=">=",
                       passed=holds(worst, ">=", 0.0, 1e-9), trials=trials,
                       tolerance=1e-9, worst_case=witness)


CHECKS = {
    "cit": check_cit,
    "recovery_overlap": check_recovery_overlap,
    "low_fidelity_route": check_low_fidelity_route,
    "afw": check_afw,
    "fano_chain": check_fano_chain,
    "meas_disjoint": check_meas_disjoint,
    "m1_m2": check_m1_m2,
}
