"""Membership oracles and constructive samplers for the recoverable-state sets.

The routing sets contain states from which one side's recovery unitary can
restore the shared pair with the reference qubit; the measuring sets contain
states from which BOTH sides can guess the reference measurement outcome in
the relevant basis.  Membership figures are computed by see-saw over the
recovery unitary (routing) and by the closed-form Helstrom bound (measuring).
"""

from __future__ import annotations

import numpy as np

from .. import qcore as qc
from .execute import bell_overlap
from .seesaw import recovery_step
from .strategy import ALICE_FINAL, BOB_FINAL, attack_layout, bell_core, rest_registers

ROUTE_SIDES = {"S0": (ALICE_FINAL, "A"), "S1": (BOB_FINAL, "B")}


def _state_vector(vec, layout: qc.RegisterLayout) -> np.ndarray:
    """``vec`` as a pure-state vector on ``layout``; a density matrix or a
    batch is rejected, since its rows are not state vectors."""
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (layout.dim,):
        raise ValueError(f"expected a pure-state vector of length {layout.dim}, "
                         f"got shape {vec.shape}")
    return vec


def best_recovery_distance(vec, layout: qc.RegisterLayout, which: str,
                           iters: int = 80, restarts: int = 4, seed: int = 0,
                           tol: float = 1e-10):
    """Minimal purified distance P(rho_{R,ret}, Bell) over recovery unitaries
    of the pure state ``vec`` on ``layout``.

    Returns (distance, recovery_unitary).
    """
    regs, ret = ROUTE_SIDES[which]
    vec = _state_vector(vec, layout)[None]   # a batch of one
    dim = layout.subdim(*regs)
    best_f2, best_u = -1.0, np.eye(dim, dtype=complex)
    for r in range(restarts + 1):
        u = (np.eye(dim, dtype=complex) if r == 0
             else qc.haar_random_unitary(dim, qc.stream(seed, "recovery", r)))
        score = None
        for _ in range(iters):
            moved = qc.apply_vector_matrix(vec, layout, u, regs)
            f2 = bell_overlap(moved, layout, [ret])[0]
            if score is not None and f2 - score < tol:
                score = f2
                break
            score = f2
            cand, _, cand_f2 = recovery_step(vec, moved, layout, regs, [ret])
            if cand_f2[0] >= f2:
                u = cand[0]
        if score > best_f2:
            best_f2, best_u = score, u
    distance = float(np.sqrt(max(0.0, 1.0 - best_f2)))
    return distance, best_u


def _helstrom(c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """(1 + ||C0 - C1||_1)/2 over the trailing matrix axes."""
    diff = c0 - c1
    diff = (diff + diff.conj().swapaxes(-1, -2)) / 2
    return 0.5 * (1.0 + np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1))


def helstrom_guess_pure(vecs: np.ndarray, layout: qc.RegisterLayout, basis: int,
                        regs) -> np.ndarray:
    """Optimal probability of guessing the reference measurement outcome from
    the named registers, (1 + ||C0 - C1||_1)/2 on the conditional operators,
    for each pure vector in a (b, dim) batch."""
    m = qc.branch_matrices(vecs, layout, "R", basis, regs)
    c = m @ m.conj().swapaxes(-1, -2)   # C_z = tr_rest |psi_z><psi_z|
    return _helstrom(c[:, 0], c[:, 1])


def s_set_distance(vec, layout: qc.RegisterLayout, which: str, kind: str, eps: float,
                   seed: int = 0):
    """Membership oracle for the recoverable-state sets, on the pure state
    ``vec`` over ``layout``.

    Routing kind: returns (best recovery distance, member) with membership
    at distance <= eps.  Measuring kind: returns (min of the two sides'
    optimal guessing probabilities, member) with membership when both reach
    1 - eps^2.
    """
    if which not in ("S0", "S1"):
        raise ValueError("which must be 'S0' or 'S1'")
    vec = _state_vector(vec, layout)
    if kind == "route":
        dist, _ = best_recovery_distance(vec, layout, which, seed=seed)
        # sqrt(1 - F^2) loses half the float precision near F = 1, so exact
        # members surface at distances around 1e-8 rather than 1e-9
        return dist, dist <= eps + 5e-8
    if kind == "meas":
        basis = 0 if which == "S0" else 1
        p_alice, p_bob = (float(helstrom_guess_pure(vec, layout, basis, regs)[0])
                          for regs in (ALICE_FINAL, BOB_FINAL))
        figure = min(p_alice, p_bob)
        return figure, figure >= 1.0 - eps * eps - 1e-9
    raise ValueError("kind must be 'route' or 'meas'")


# ---------------------------------------------------------------------------
# constructive members (witness core + verified perturbation)
# ---------------------------------------------------------------------------

def perturb_within(vec: np.ndarray, eps: float, rng) -> tuple[np.ndarray, float]:
    """Rotate a unit vector toward a random direction by an angle a with
    sin(a) <= eps, so within purified distance sin(a); returns the normalized
    result and sin(a), which is 0 when nothing moved."""
    out, sin_a = vec, 0.0
    if eps > 0:
        noise = qc.random_unit_vector(vec.size, rng)
        noise = noise - np.vdot(vec, noise) * vec
        nn = np.linalg.norm(noise)
        if nn >= 1e-12:
            sin_a = eps * rng.random()
            out = np.sqrt(1 - sin_a ** 2) * vec + sin_a * (noise / nn)
    return out / np.linalg.norm(out), sin_a


def route_member(layout: qc.RegisterLayout, which: str, eps: float, rng):
    """K^dagger (|Omega>_{R,ret} x |phi>), perturbed within eps.

    The perturbation keeps membership: applying the same recovery unitary
    leaves the reduced state within purified distance eps of the Bell pair.
    """
    regs, ret = ROUTE_SIDES[which]
    phi = qc.random_unit_vector(layout.subdim(*rest_registers(layout, "R", ret)), rng)
    k = qc.haar_random_unitary(layout.subdim(*regs), rng)
    vec = qc.apply_vector_matrix(bell_core(layout, ret, phi), layout, k.conj().T, regs)
    return perturb_within(vec, eps, rng)[0]


def meas_member(layout: qc.RegisterLayout, which: str, eps: float, rng,
                max_tries: int = 12):
    """State vector whose reference bit is readable by BOTH sides in the
    relevant basis, perturbed while re-verifying the guessing premise."""
    basis = 0 if which == "S0" else 1
    a_read = layout.positions("A")[0] if layout.width("A") else None
    b_read = layout.positions("B")[0] if layout.width("B") else None
    if a_read is None or b_read is None:
        raise ValueError("need 1-qubit A and B registers for readable copies")
    n = layout.total_qubits
    vec = np.zeros(layout.dim, dtype=complex)
    vec[0] = 1.0
    r_q = layout.positions("R")[0]
    vec = qc.apply_on_qubits(vec, n, qc.H, [r_q])
    vec = qc.apply_on_qubits(vec, n, qc.CNOT, [r_q, a_read])
    vec = qc.apply_on_qubits(vec, n, qc.CNOT, [r_q, b_read])
    if basis == 1:
        # conjugate every copy into the Hadamard basis
        for qb in (r_q, a_read, b_read):
            vec = qc.apply_on_qubits(vec, n, qc.H, [qb])
    scale = eps
    for _ in range(max_tries):
        cand, _ = perturb_within(vec, scale, rng)
        if s_set_distance(cand, layout, which, "meas", eps)[1]:
            return cand
        scale *= 0.5
    return vec


def small_attack_layout() -> qc.RegisterLayout:
    """1 qubit per named attacker register: the smallest full layout."""
    return attack_layout(a=1, at=1, ac=1)
