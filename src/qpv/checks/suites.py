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
    meas_members,
    perturb_within,
    route_draws,
    route_members,
    small_attack_layout,
)
from ..attacks.strategy import ALICE_FINAL, BOB_FINAL, bell_contract, bell_core, rest_registers
from ..protocol.runs import m1_accept_probability, m2_accept_probability
from ..qcore.ops import _row_dot
from .report import BoundReport

SQRT3_HALF = math.sqrt(3.0) / 2.0
BLOCK = 100   # trials whose draws and arithmetic are stacked at once, to bound memory


def _need_trials(name: str, trials: int) -> None:
    if trials < 1:
        raise ValueError(f"{name}: trials must be at least 1")


def _draw_blocks(seed: int, name: str, trials: int, sizes, uniform: bool = False):
    """The draws of each trial's ``stream(seed, name, t)``, BLOCK trials at a
    time: per n of ``sizes``, one standard_normal(n) call (equal to the
    successive draws it concatenates), then one rng.random() if ``uniform``.
    Yields the block's first trial and, per n, its (normals, uniforms) rows."""
    streams = qc.trial_streams(seed, name, trials)
    for start in range(0, trials, BLOCK):
        b = min(BLOCK, trials - start)
        segments = [(np.empty((b, n)), np.empty(b) if uniform else None) for n in sizes]
        for i, rng in zip(range(b), streams):
            for z, u in segments:
                rng.standard_normal(out=z[i])
                if uniform:
                    u[i] = rng.random()
        yield start, segments


# ---------------------------------------------------------------------------
# entropic uncertainty (CIT)
# ---------------------------------------------------------------------------

def check_cit(trials: int = 1000, seed: int = 0) -> BoundReport:
    """H(measured R with E) + H(conjugately measured R with F) >= 1, with E
    and F of 1 or 2 qubits each."""
    _need_trials("cit", trials)
    # per trial: both widths, then 2 * 2^(1 + we + wf) <= 64 normals
    widths, z = [], np.empty((trials, 64))
    for t, rng in enumerate(qc.trial_streams(seed, "cit", trials)):
        we = 1 + int(rng.integers(2))
        wf = 1 + int(rng.integers(2))
        widths.append((we, wf))
        rng.standard_normal(out=z[t, :4 << (we + wf)])
    # totals[t, theta]: R measured in basis theta against E, in 1 - theta against F
    totals = np.full((trials, 2), math.inf)
    for we, wf in sorted(set(widths)):
        layout = qc.RegisterLayout([("R", 1), ("E", we), ("F", wf)])
        idx = [t for t, w in enumerate(widths) if w == (we, wf)]
        group = qc.unit_finish(z[idx, :2 * layout.dim])
        # H(R|E) = H(R, E) - H(E), and dephasing R leaves H(E) alone
        h_e, h_f = (qc.conditional_entropy_pure(group, layout, side) for side in ("E", "F"))
        for theta in (0, 1):
            h_re = qc.conditional_entropy_pure(group, layout, ("R", "E"), (), ("R", theta))
            h_rf = qc.conditional_entropy_pure(group, layout, ("R", "F"), (), ("R", 1 - theta))
            totals[idx, theta] = (h_re - h_e) + (h_rf - h_f)
    # argmin returns the first minimum: the earliest (t, theta) wins ties
    t, theta = divmod(int(np.argmin(totals)), 2)
    worst = float(totals[t, theta])
    we, wf = widths[t]
    witness = {"trial": t, "dims": [2 ** we, 2 ** wf], "theta": theta, "sum": worst}
    return BoundReport.verdict("cit", worst, ">=", 1.0, trials=trials, tolerance=1e-7,
                               worst_case=witness)


# ---------------------------------------------------------------------------
# overlap geometry of opposite-side recoverable states
# ---------------------------------------------------------------------------

def check_recovery_overlap(trials: int = 1000, seed: int = 0) -> BoundReport:
    """States recoverable to opposite sides overlap by at most 1/2, and the
    bound is attained by the aligned transfer construction."""
    _need_trials("recovery_overlap", trials)
    layout = small_attack_layout()
    phi_dims = [layout.subdim(*rest_registers(layout, "R", ret)) for ret in ("A", "B")]
    k_dim, l_dim = layout.subdim(*ALICE_FINAL), layout.subdim(*BOB_FINAL)
    # per trial: phi0's and phi1's normals, then the Ginibre parts of K and L
    sizes = [2 * phi_dims[0], 2 * phi_dims[1], 2 * k_dim ** 2, 2 * l_dim ** 2]
    overlaps = np.empty(trials)
    for start, [(z, _)] in _draw_blocks(seed, "overlap", trials, (sum(sizes),)):
        z0, z1, zk, zl = np.split(z, np.cumsum(sizes)[:-1], axis=1)
        k = qc.haar_finish(zk.reshape(-1, 2, k_dim, k_dim))
        lu = qc.haar_finish(zl.reshape(-1, 2, l_dim, l_dim))
        psi0 = qc.apply_vector_matrix(bell_core(layout, "A", qc.unit_finish(z0)), layout,
                                      k.conj().transpose(0, 2, 1), ALICE_FINAL)
        psi1 = qc.apply_vector_matrix(bell_core(layout, "B", qc.unit_finish(z1)), layout,
                                      lu.conj().transpose(0, 2, 1), BOB_FINAL)
        c = _row_dot(psi0.conj(), psi1)
        # hypot is abs() of a complex scalar; np.abs rounds apart
        overlaps[start:start + len(c)] = np.hypot(c.real, c.imag)
    t = int(np.argmax(overlaps))
    witness = {"trial": t, "overlap": overlaps[t]}
    worst = overlaps[t]

    # aligned witness: K = L = I and phi0 = phi1 with A's content moved to B
    rng = qc.stream(seed, "overlap", "witness")
    phi1 = qc.random_unit_vector(phi_dims[1], rng)
    psi0 = qc.assemble_raw(layout, [(("R", "A"), qc.BELL_VECTOR),
                                    (("B", "At", "Ac", "Bt", "Bc"), phi1)])
    aligned = abs(np.vdot(psi0, bell_core(layout, "B", phi1)))
    witness["aligned_overlap"] = aligned
    return BoundReport.verdict("recovery_overlap", worst, "<=", 0.5, trials=trials,
                               tolerance=1e-9, worst_case=witness,
                               also=aligned >= 0.5 - 1e-6)


def check_low_fidelity_route(eps: float = 0.41, trials: int = 100,
                             seed: int = 0) -> BoundReport:
    """Sampled members of the two routing-recovery sets stay far apart."""
    _need_trials("low_fidelity_route", trials)
    if not 0.0 <= eps <= 0.41:
        raise ValueError("the routing separation is stated for eps <= 0.41")
    layout = small_attack_layout()
    bound = SQRT3_HALF - 2 * eps
    n0, n1 = (route_draws(layout, which, eps)[-1] for which in ("S0", "S1"))
    dists = np.empty(trials)
    # per trial and side: the member's normals, then its uniform when eps > 0
    for start, [(z0, u0), (z1, u1)] in _draw_blocks(seed, "route-sep", trials,
                                                    (n0, n1), eps > 0):
        psi0 = route_members(layout, "S0", eps, z0, u0)[0]
        psi1 = route_members(layout, "S1", eps, z1, u1)[0]
        dists[start:start + len(psi0)] = qc.purified_distance_pure(psi0, psi1)
    t = int(np.argmin(dists))
    worst = float(dists[t])
    witness = {"trial": t, "distance": worst}
    witness["threshold_0046"] = worst > 0.046
    return BoundReport.verdict("low_fidelity_route", worst, ">=", bound, trials=trials,
                               tolerance=1e-9, worst_case=witness,
                               also=eps < 0.41 or worst > 0.046)


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
    _need_trials("afw", trials)
    delta = 0.013
    constant = afw_bound(delta)
    layout = qc.RegisterLayout([("R", 1), ("E", 1), ("F", 1)])
    n = 2 * layout.dim
    gaps, dists = np.empty(trials), np.empty(trials)
    # per trial: the vector's normals and its perturbation's noise, then its uniform
    for start, [(z, u)] in _draw_blocks(seed, "afw", trials, (2 * n,), True):
        block = slice(start, start + len(u))
        vecs = qc.unit_finish(z[:, :n])
        chis, dists[block] = perturb_within(vecs, delta, z[:, n:], u)
        gaps[block] = np.abs(qc.conditional_entropy_pure(vecs, layout, "R", ("E",))
                             - qc.conditional_entropy_pure(chis, layout, "R", ("E",)))
    witness = {"constant": constant}
    worst = 0.0
    i = int(np.argmax(gaps))
    if gaps[i] > worst:
        worst = float(gaps[i])
        witness.update({"trial": i, "gap": worst, "distance": float(dists[i])})
    return BoundReport.verdict("afw", max(worst, constant), "<=", 0.127, trials=trials,
                               tolerance=1e-9, worst_case=witness, also=constant <= 0.127)


def check_fano_chain(trials: int = 1000, seed: int = 0) -> BoundReport:
    """States guessable with error <= eps^2 have conditional entropy <= h(eps^2),
    at eps = 0.3."""
    _need_trials("fano_chain", trials)
    eps = 0.3
    err_cap = eps * eps
    cap = qc.binary_entropy(err_cap)
    # every trial is a pure vector on R W P whose R is dephased in basis 0;
    # little-endian index = z + 2w + 4p
    layout = qc.RegisterLayout([("R", 1), ("W", 1), ("P", 1)])
    vecs = np.zeros((trials, layout.dim), dtype=complex)
    errors = err_cap * np.array([rng.random() for rng in qc.trial_streams(seed, "fano", trials)])
    # even trials: classical binary symmetric channel with flip probability e,
    # purified by P: W = z with weight 1 - e (P = 0), W = 1 - z with weight e (P = 1)
    e = errors[0::2, None]
    vecs[0::2, [0b000, 0b011]] = np.sqrt((1 - e) / 2)
    vecs[0::2, [0b101, 0b110]] = np.sqrt(e / 2)
    # odd trials: pure conditionals at the Helstrom-matched overlap, P = 0;
    # chi0 = (1, 0) for z = 0 and chi1 = (ov, sqrt(1 - ov^2)) for z = 1 at
    # index z + 2w, scaled by sqrt(1/2)
    e = errors[1::2]
    ov = 2 * np.sqrt(e * (1 - e))
    vecs[1::2, 0] = math.sqrt(0.5)
    vecs[1::2, 1] = math.sqrt(0.5) * ov
    vecs[1::2, 3] = math.sqrt(0.5) * np.sqrt(np.maximum(0.0, 1 - ov * ov))
    guess = helstrom_guess_pure(vecs, layout, 0, ("W",))
    if np.any(guess < 1 - err_cap - 1e-9):
        raise AssertionError("sampler violated its own premise")
    ents = qc.conditional_entropy_pure(vecs, layout, "R", ("W",), ("R", 0))
    t = int(np.argmax(ents))
    worst = float(ents[t])
    witness = {"trial": t, "entropy": worst, "error": float(errors[t])}
    return BoundReport.verdict("fano_chain", worst, "<=", cap, trials=trials,
                               tolerance=1e-9, worst_case=witness)


def check_meas_disjoint(trials: int = 100, seed: int = 0) -> BoundReport:
    """Low-entropy readability in conjugate bases forces far-apart states."""
    _need_trials("meas_disjoint", trials)
    delta = qc.binary_entropy(0.09)
    eps = 0.25
    layout = small_attack_layout()
    phi0, phi1 = (np.empty((trials, layout.dim), dtype=complex) for _ in range(2))
    # per trial and side: the candidate's noise, then its uniform
    for start, segments in _draw_blocks(seed, "meas-sep", trials, (2 * layout.dim,) * 2, True):
        for phi, (noise, u), which in zip((phi0, phi1), segments, ("S0", "S1")):
            phi[start:start + len(u)] = meas_members(layout, which, eps, noise, u)
    dists = qc.purified_distance_pure(phi0, phi1)
    h0 = qc.conditional_entropy_pure(phi0, layout, "R", ALICE_FINAL, ("R", 0))
    h1 = qc.conditional_entropy_pure(phi1, layout, "R", BOB_FINAL, ("R", 1))
    sigma0 = qc.conditional_entropy_pure(phi0, layout, "R", BOB_FINAL, ("R", 1))
    # trials whose premise failed after perturbation are vacuous
    valid = np.flatnonzero((h0 <= delta) & (h1 <= delta))
    gaps = np.abs(sigma0 - h1)
    worst = math.inf
    gap_min = math.inf
    witness = {"delta": delta}
    if valid.size:
        gap_min = float(np.min(gaps[valid] - (1 - 2 * delta)))
        t = int(valid[np.argmin(dists[valid])])
        worst = float(dists[t])
        witness.update({"trial": t, "distance": worst, "entropy_gap": float(gaps[t])})
    witness["entropy_gap_slack_vs_1_minus_2delta"] = gap_min
    return BoundReport.verdict("meas_disjoint", 0.013, "<", worst, trials=trials,
                               worst_case=witness, also=gap_min >= -1e-9)


# ---------------------------------------------------------------------------
# measurement replacement and repetition tails
# ---------------------------------------------------------------------------

def check_m1_m2(trials: int = 1000, seed: int = 0) -> BoundReport:
    """Both directions of the Bell-test vs sampled-basis-test comparison."""
    _need_trials("m1_m2", trials)
    worst = math.inf
    witness = {}
    for start, [(z, _)] in _draw_blocks(seed, "m1m2", trials, (32,)):
        rho = qc.density_finish(z.reshape(-1, 2, 4, 4))
        m1, m2 = m1_accept_probability(rho), m2_accept_probability(rho)
        slack = np.minimum(m2 - m1, m1 - (2 * m2 - 1))
        # argmin returns the first minimum: the earliest trial wins ties
        i = int(np.argmin(slack))
        if slack[i] < worst:
            worst = float(slack[i])
            witness = {"trial": start + i, "m1": float(m1[i]), "m2": float(m2[i])}
    return BoundReport.verdict("m1_m2", worst, ">=", 0.0, trials=trials, tolerance=1e-9,
                               worst_case=witness)


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


def check_bound_by_iid(trials: int = 4000, seed: int = 0) -> BoundReport:
    """Processes with capped (resp. floored) conditional success are tail-
    dominated by (resp. dominate) the iid process with success p = 1/2."""
    _need_trials("bound_by_iid", trials)
    p, r_mc = 0.5, 50
    # exact enumeration at r = 3
    r3 = 3
    capped = lambda path: p * (1.0 - 0.5 * (path[-1] if path else 0))
    floored = lambda path: p + (1 - p) * 0.5 * (path[-1] if path else 0)
    iid = lambda path: p
    dists = [_dependent_paths(r3, cond) for cond in (capped, floored, iid)]
    exact_ok = True
    exact_worst = 0.0
    for t in range(r3 + 1):
        binom = _binomial_tail(r3, p, t)
        tail_cap, tail_flr, tail_iid = (
            sum(pr for path, pr in dist.items() if sum(path) >= t) for dist in dists)
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
    return BoundReport.verdict("bound_by_iid", mc_worst, "<=", 0.0, trials=trials,
                               worst_case={"exact_r3_worst": exact_worst,
                                           "exact_ok": exact_ok, "r_mc": r_mc},
                               also=exact_ok)


def check_uhlmann(trials: int = 20, seed: int = 0) -> BoundReport:
    """Uhlmann's theorem on random states: the least distance from |psi> to a
    product |Omega>_RA x |phi> equals the distance of rho_RA to the Bell pair.
    Both sides are closed forms.  The left is p_opt = sqrt(1 - ||v||^2) for
    v = bell_contract(layout, psi), which the bell_core candidate
    |Omega> x v/||v|| attains (by Cauchy-Schwarz no product state does
    better); the right reads <Omega|rho_RA|Omega> off reduced_outer."""
    _need_trials("uhlmann", trials)
    layout = small_attack_layout()
    worst = 0.0
    witness = {}
    for t, rng in enumerate(qc.trial_streams(seed, "uhlmann", trials)):
        vec = qc.random_unit_vector(layout.dim, rng)
        v = bell_contract(layout, vec)
        best = math.sqrt(max(0.0, 1.0 - float(np.vdot(v, v).real)))   # p_opt
        nv = np.linalg.norm(v)
        if nv > 1e-12:
            best = min(best, qc.purified_distance_pure(vec, bell_core(layout, "A", v / nv)))
        reduced = qc.reduced_outer(vec, vec, layout, ("R", "A"))
        target = math.sqrt(max(qc.expectation(qc.BELL_VECTOR, reduced), 0.0))
        p_reduced = math.sqrt(max(0.0, 1.0 - target * target))
        gap = abs(best - p_reduced)
        if gap > worst:
            worst = gap
            witness = {"trial": t, "best_product_distance": best,
                       "reduced_distance": p_reduced}
    return BoundReport.verdict("uhlmann", worst, "<=", 0.0, trials=trials, tolerance=1e-6,
                               worst_case=witness)


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
    if not names:
        raise ValueError("no check named")
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise KeyError(f"unknown check(s): {unknown}")
    return [CHECKS[name](seed=seed) for name in names]
