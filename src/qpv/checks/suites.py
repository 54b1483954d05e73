"""Numerical verification suites for the standalone inequalities.

Premise-carrying statements use constructive samplers (build a witness, then
perturb within the allowed radius and re-verify the premise); universal
statements draw Haar-random states.  Every suite returns a BoundReport and
is deterministic under its seed.
"""

from __future__ import annotations

import math

import numpy as np

from .. import qcore as qc
from ..attacks.good_sets import (
    helstrom_guess_pure,
    meas_member,
    perturb_within,
    route_member,
    small_attack_layout,
)
from ..attacks.strategy import ALICE_FINAL, BOB_FINAL, bell_core, rest_registers
from ..protocol.runs import m1_accept_probability, m2_accept_probability
from .report import BoundReport, holds

SQRT3_HALF = math.sqrt(3.0) / 2.0


# ---------------------------------------------------------------------------
# entropic uncertainty (CIT)
# ---------------------------------------------------------------------------

def check_cit(trials: int = 1000, max_side_qubits: int = 2, seed: int = 0) -> BoundReport:
    """H(measured R with E) + H(conjugately measured R with F) >= 1."""
    widths, vecs = [], []
    for t in range(trials):
        rng = qc.stream(seed, "cit", t)
        we = 1 + int(rng.integers(max_side_qubits))
        wf = 1 + int(rng.integers(max_side_qubits))
        widths.append((we, wf))
        vecs.append(qc.random_unit_vector(1 << (1 + we + wf), rng))
    # totals[t, theta]: R measured in basis theta against E, in 1 - theta against F
    totals = np.full((trials, 2), math.inf)
    for we, wf in sorted(set(widths)):
        layout = qc.RegisterLayout([("R", 1), ("E", we), ("F", wf)])
        idx = [t for t, w in enumerate(widths) if w == (we, wf)]
        group = np.stack([vecs[t] for t in idx])
        for theta in (0, 1):
            totals[idx, theta] = (
                qc.conditional_entropy_pure(group, layout, "R", ("E",), ("R", theta))
                + qc.conditional_entropy_pure(group, layout, "R", ("F",), ("R", 1 - theta)))
    worst = math.inf
    witness = {}
    if trials:
        # argmin returns the first minimum: the earliest (t, theta) wins ties
        t, theta = divmod(int(np.argmin(totals)), 2)
        worst = float(totals[t, theta])
        we, wf = widths[t]
        witness = {"trial": t, "dims": [2 ** we, 2 ** wf], "theta": theta, "sum": worst}
    return BoundReport(name="cit", lhs=worst, rhs=1.0, relation=">=",
                       passed=holds(worst, ">=", 1.0, 1e-7), trials=trials,
                       tolerance=1e-7, worst_case=witness)


# ---------------------------------------------------------------------------
# overlap geometry of opposite-side recoverable states
# ---------------------------------------------------------------------------

def check_recovery_overlap(trials: int = 1000, seed: int = 0) -> BoundReport:
    """States recoverable to opposite sides overlap by at most 1/2, and the
    bound is attained by the aligned transfer construction."""
    layout = small_attack_layout()
    overlaps = []
    # each trial draws from its own stream; the applies run in blocks of 100
    # trials, to bound memory
    for start in range(0, trials, 100):
        draws = []
        for t in range(start, min(start + 100, trials)):
            rng = qc.stream(seed, "overlap", t)
            draws.append((
                qc.random_unit_vector(layout.subdim(*rest_registers(layout, "R", "A")), rng),
                qc.random_unit_vector(layout.subdim(*rest_registers(layout, "R", "B")), rng),
                qc.haar_random_unitary(layout.subdim(*ALICE_FINAL), rng),
                qc.haar_random_unitary(layout.subdim(*BOB_FINAL), rng)))
        phi0, phi1, k, lu = (np.stack(d) for d in zip(*draws))
        psi0 = qc.apply_vector_matrix(bell_core(layout, "A", phi0), layout,
                                      k.conj().transpose(0, 2, 1), ALICE_FINAL)
        psi1 = qc.apply_vector_matrix(bell_core(layout, "B", phi1), layout,
                                      lu.conj().transpose(0, 2, 1), BOB_FINAL)
        overlaps += [abs(np.vdot(a, b)) for a, b in zip(psi0, psi1)]
    t = int(np.argmax(overlaps))
    witness = {"trial": t, "overlap": overlaps[t]}
    worst = overlaps[t]

    # aligned witness: K = L = I and phi0 = (transfer A->B) phi1
    rng = qc.stream(seed, "overlap", "witness")
    rest1 = rest_registers(layout, "R", "B")   # carries A
    rest0 = rest_registers(layout, "R", "A")   # carries B
    phi1 = qc.random_unit_vector(layout.subdim(*rest1), rng)
    lay1 = layout.restricted(*rest1)
    lay0 = layout.restricted(*rest0)
    phi0 = qc.move_register_content(phi1, lay1, lay0, {"A": "B"})
    aligned = abs(np.vdot(bell_core(layout, "A", phi0), bell_core(layout, "B", phi1)))
    witness["aligned_overlap"] = aligned
    passed = (holds(worst, "<=", 0.5, 1e-9) and aligned >= 0.5 - 1e-6)
    return BoundReport(name="recovery_overlap", lhs=worst, rhs=0.5, relation="<=",
                       passed=passed, trials=trials, tolerance=1e-9,
                       worst_case=witness)


def check_low_fidelity_route(eps: float = 0.41, trials: int = 100,
                             seed: int = 0) -> BoundReport:
    """Sampled members of the two routing-recovery sets stay far apart."""
    if not 0.0 <= eps <= 0.41:
        raise ValueError("the routing separation is stated for eps <= 0.41")
    layout = small_attack_layout()
    bound = SQRT3_HALF - 2 * eps
    worst = math.inf
    witness = {}
    for t in range(trials):
        rng = qc.stream(seed, "route-sep", t)
        psi0 = route_member(layout, "S0", eps, rng)
        psi1 = route_member(layout, "S1", eps, rng)
        dist = qc.purified_distance_pure(psi0, psi1)
        if dist < worst:
            worst = dist
            witness = {"trial": t, "distance": dist}
    passed = holds(worst, ">=", bound, 1e-9) and (eps < 0.41 or worst > 0.046)
    witness["threshold_0046"] = worst > 0.046
    return BoundReport(name="low_fidelity_route", lhs=worst, rhs=bound,
                       relation=">=", passed=passed, trials=trials,
                       tolerance=1e-9, worst_case=witness)


# ---------------------------------------------------------------------------
# entropy continuity
# ---------------------------------------------------------------------------

def afw_bound(delta: float) -> float:
    """Conditional-entropy continuity constant 2d + (1+d) h(1/(1+d))."""
    if delta == 0:
        return 0.0
    return 2 * delta + (1 + delta) * qc.binary_entropy(1.0 / (1.0 + delta))


def check_afw(trials: int = 1000, seed: int = 0) -> BoundReport:
    """Continuity of conditional entropy at distance 0.013 stays under 0.127."""
    delta = 0.013
    constant = afw_bound(delta)
    layout = qc.RegisterLayout([("R", 1), ("E", 1), ("F", 1)])
    vecs, chis, dists = [], [], []
    for t in range(trials):
        rng = qc.stream(seed, "afw", t)
        vecs.append(qc.random_unit_vector(layout.dim, rng))
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


def check_fano_chain(eps: float = 0.3, trials: int = 1000, seed: int = 0) -> BoundReport:
    """States guessable with error <= eps^2 have conditional entropy <= h(eps^2)."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must be in [0, 1]")
    err_cap = eps * eps
    cap = qc.binary_entropy(err_cap) if err_cap <= 0.5 else 1.0
    # every trial is a pure vector on R W P whose R is dephased in basis 0;
    # little-endian index = z + 2w + 4p
    layout = qc.RegisterLayout([("R", 1), ("W", 1), ("P", 1)])
    vecs = np.zeros((trials, layout.dim), dtype=complex)
    errors = np.zeros(trials)
    for t in range(trials):
        rng = qc.stream(seed, "fano", t)
        e = err_cap * rng.random()
        errors[t] = e
        if t % 2 == 0:
            # classical binary symmetric channel with flip probability e,
            # purified by P: W = z with weight 1 - e (P = 0), W = 1 - z with
            # weight e (P = 1)
            vecs[t, [0b000, 0b011]] = math.sqrt((1 - e) / 2)
            vecs[t, [0b101, 0b110]] = math.sqrt(e / 2)
        else:
            # pure conditionals at the Helstrom-matched overlap, P = 0
            ov = 2 * math.sqrt(e * (1 - e))
            chi0 = np.array([1.0, 0.0], dtype=complex)
            chi1 = np.array([ov, math.sqrt(max(0.0, 1 - ov * ov))], dtype=complex)
            for z, chi in ((0, chi0), (1, chi1)):
                for w in (0, 1):
                    vecs[t, z + 2 * w] = math.sqrt(0.5) * chi[w]
    guess = helstrom_guess_pure(vecs, layout, 0, ("W",))
    if np.any(guess < 1 - err_cap - 1e-9):
        raise AssertionError("sampler violated its own premise")
    ents = qc.conditional_entropy_pure(vecs, layout, "R", ("W",), ("R", 0))
    witness = {}
    worst = -math.inf
    if trials:
        t = int(np.argmax(ents))
        worst = float(ents[t])
        witness = {"trial": t, "entropy": worst, "error": float(errors[t])}
    passed = holds(worst, "<=", cap, 1e-9)
    return BoundReport(name="fano_chain", lhs=worst, rhs=cap, relation="<=",
                       passed=passed, trials=trials, tolerance=1e-9,
                       worst_case=witness)


def check_meas_disjoint(trials: int = 100, seed: int = 0) -> BoundReport:
    """Low-entropy readability in conjugate bases forces far-apart states."""
    delta = qc.binary_entropy(0.09)
    layout = small_attack_layout()
    alice = ("A", "At", "Bc")
    bob = ("B", "Bt", "Ac")
    phi0 = np.zeros((trials, layout.dim), dtype=complex)
    phi1 = np.zeros((trials, layout.dim), dtype=complex)
    dists = np.zeros(trials)
    for t in range(trials):
        rng = qc.stream(seed, "meas-sep", t)
        phi0[t] = meas_member(layout, "S0", 0.25, rng)
        phi1[t] = meas_member(layout, "S1", 0.25, rng)
        dists[t] = qc.purified_distance_pure(phi0[t], phi1[t])
    h0 = qc.conditional_entropy_pure(phi0, layout, "R", alice, ("R", 0))
    h1 = qc.conditional_entropy_pure(phi1, layout, "R", bob, ("R", 1))
    sigma0 = qc.conditional_entropy_pure(phi0, layout, "R", bob, ("R", 1))
    sigma1 = qc.conditional_entropy_pure(phi1, layout, "R", bob, ("R", 1))
    # trials whose premise failed after perturbation are vacuous
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


# ---------------------------------------------------------------------------
# measurement replacement and repetition tails
# ---------------------------------------------------------------------------

def check_m1_m2(trials: int = 1000, seed: int = 0) -> BoundReport:
    """Both directions of the Bell-test vs sampled-basis-test comparison."""
    worst = math.inf
    witness = {}
    for t in range(trials):
        rng = qc.stream(seed, "m1m2", t)
        rho = qc.random_density_matrix(4, rng)
        m1 = m1_accept_probability(rho)
        m2 = m2_accept_probability(rho)
        slack = min(m2 - m1, m1 - (2 * m2 - 1))
        if slack < worst:
            worst = slack
            witness = {"trial": t, "m1": m1, "m2": m2}
    return BoundReport(name="m1_m2", lhs=worst, rhs=0.0, relation=">=",
                       passed=holds(worst, ">=", 0.0, 1e-9), trials=trials,
                       tolerance=1e-9, worst_case=witness)


def _binomial_tail(r: int, p: float, t: int) -> float:
    return sum(math.comb(r, k) * p ** k * (1 - p) ** (r - k) for k in range(t, r + 1))


def _dependent_paths(r: int, cond):
    """Exact distribution of a {0,1} process given conditional probabilities."""
    dist = {(): 1.0}
    for _ in range(r):
        nxt = {}
        for path, prob in dist.items():
            p1 = cond(path)
            nxt[path + (1,)] = nxt.get(path + (1,), 0.0) + prob * p1
            nxt[path + (0,)] = nxt.get(path + (0,), 0.0) + prob * (1 - p1)
        dist = nxt
    return dist


def check_bound_by_iid(trials: int = 4000, seed: int = 0, r_mc: int = 50,
                       p: float = 0.5) -> BoundReport:
    """Processes with capped (resp. floored) conditional success are tail-
    dominated by (resp. dominate) the iid process."""
    # exact enumeration at r = 3
    r3 = 3
    capped = lambda path: p * (1.0 - 0.5 * (path[-1] if path else 0))
    floored = lambda path: p + (1 - p) * 0.5 * (path[-1] if path else 0)
    iid = lambda path: p
    exact_ok = True
    exact_worst = 0.0
    for t in range(r3 + 1):
        binom = _binomial_tail(r3, p, t)
        tail_cap = sum(pr for path, pr in _dependent_paths(r3, capped).items()
                       if sum(path) >= t)
        tail_flr = sum(pr for path, pr in _dependent_paths(r3, floored).items()
                       if sum(path) >= t)
        tail_iid = sum(pr for path, pr in _dependent_paths(r3, iid).items()
                       if sum(path) >= t)
        exact_worst = max(exact_worst, tail_cap - binom, binom - tail_flr,
                          abs(tail_iid - binom))
        exact_ok &= tail_cap <= binom + 1e-12 and tail_flr >= binom - 1e-12
        exact_ok &= abs(tail_iid - binom) <= 1e-12

    # Monte Carlo at r = r_mc for the capped process
    # the stream is read trial by trial, round by round: one row per trial,
    # in blocks of 500 trials to bound memory
    rng = qc.stream(seed, "iid-mc")
    counts = np.zeros(trials, dtype=int)
    for start in range(0, trials, 500):
        draws = rng.random((min(500, trials - start), r_mc))
        block = counts[start:start + len(draws)]
        prev = np.zeros(len(draws), dtype=int)
        for j in range(r_mc):
            prev = (draws[:, j] < p * (1.0 - 0.5 * prev)).astype(int)
            block += prev
    mc_worst = -math.inf
    for t in range(r_mc + 1):
        emp = float(np.mean(counts >= t))
        binom = _binomial_tail(r_mc, p, t)
        sigma = math.sqrt(max(binom * (1 - binom), 1e-12) / trials)
        mc_worst = max(mc_worst, emp - binom - 4 * sigma)
    passed = exact_ok and mc_worst <= 0.0
    return BoundReport(name="bound_by_iid", lhs=mc_worst, rhs=0.0, relation="<=",
                       passed=passed, trials=trials, tolerance=0.0,
                       worst_case={"exact_r3_worst": exact_worst,
                                   "exact_ok": exact_ok, "r_mc": r_mc})


def _bell_partial_inner(vec: np.ndarray, layout) -> np.ndarray:
    """(<Omega|_{RA} x I) |psi>, little-endian over the remaining registers."""
    n = layout.total_qubits
    r_q = layout.positions("R")[0]
    a_q = layout.positions("A")[0]
    t = vec.reshape([2] * n)
    bell = qc.BELL_VECTOR.reshape(2, 2)  # axes (A bit, R bit): index = r + 2a
    out = np.tensordot(bell.conj(), t, axes=([1, 0], [n - 1 - r_q, n - 1 - a_q]))
    return out.reshape(-1)


def check_uhlmann(trials: int = 20, inner: int = 1000, seed: int = 0) -> BoundReport:
    """The reduced-state distance to the Bell pair equals the best product-
    state distance of the global state (computed in closed form)."""
    layout = small_attack_layout()
    rest = rest_registers(layout, "R", "A")
    worst = 0.0
    witness = {}
    for t in range(trials):
        rng = qc.stream(seed, "uhlmann", t)
        vec = qc.random_unit_vector(layout.dim, rng)
        v = _bell_partial_inner(vec, layout)
        p_opt = math.sqrt(max(0.0, 1.0 - float(np.vdot(v, v).real)))
        best = p_opt
        nv = np.linalg.norm(v)
        if nv > 1e-12:
            best = min(best, qc.purified_distance_pure(vec, bell_core(layout, "A", v / nv)))
        # candidates in blocks of 100, to bound memory; the draws are those of
        # `inner` random_unit_vector calls (real parts, then imaginary parts)
        for start in range(0, inner, 100):
            z = rng.standard_normal((min(100, inner - start), 2, layout.subdim(*rest)))
            phis = z[:, 0] + 1j * z[:, 1]
            phis /= np.linalg.norm(phis, axis=1, keepdims=True)
            overlaps = np.abs(bell_core(layout, "A", phis) @ vec.conj())
            best = min(best, float(np.min(np.sqrt(np.maximum(0.0, 1.0 - overlaps ** 2)))))
        # the right side: root fidelity of rho_RA with |Omega>, from the
        # reduced matrix rather than the partial inner product above
        reduced = qc.reduced_outer(vec, vec, layout, ("R", "A"))
        target = math.sqrt(max(qc.expectation(qc.BELL_VECTOR, reduced), 0.0))
        p_reduced = math.sqrt(max(0.0, 1.0 - target * target))
        gap = abs(best - p_reduced)
        if gap > worst:
            worst = gap
            witness = {"trial": t, "best_product_distance": best,
                       "reduced_distance": p_reduced}
    return BoundReport(name="uhlmann", lhs=worst, rhs=0.0, relation="<=",
                       passed=holds(worst, "<=", 0.0, 1e-6), trials=trials,
                       tolerance=1e-6, worst_case=witness)


CHECKS = {
    "cit": check_cit,
    "recovery_overlap": check_recovery_overlap,
    "low_fidelity_route": check_low_fidelity_route,
    "afw": check_afw,
    "fano_chain": check_fano_chain,
    "meas_disjoint": check_meas_disjoint,
    "m1_m2": check_m1_m2,
    "bound_by_iid": check_bound_by_iid,
    "uhlmann": check_uhlmann,
}


def run_checks(names=None, seed: int = 0):
    """Run the named suites (all by default); returns a list of reports."""
    if names is None:
        names = list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise KeyError(f"unknown check(s): {unknown}")
    return [CHECKS[name](seed=seed) for name in names]
