"""Membership oracles and constructive samplers for the recoverable-state sets.

The routing sets contain states from which one side's recovery unitary can
restore the shared pair with the reference qubit; the measuring sets contain
states from which BOTH sides can guess the reference measurement outcome in
the relevant basis.  Membership figures are computed by see-saw over the
recovery unitary (routing) and by the closed-form Helstrom bound (measuring).
"""

from __future__ import annotations

from functools import lru_cache

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


def best_recovery_distance(vec, layout: qc.RegisterLayout, which: str):
    """Minimal purified distance P(rho_{R,ret}, Bell) over recovery unitaries
    of the pure state ``vec`` on ``layout``, by see-saw from the identity and
    from 4 Haar-random unitaries, drawn from ``stream(0, "recovery", r)``.

    Returns (distance, recovery_unitary).
    """
    regs, ret = ROUTE_SIDES[which]
    vec = _state_vector(vec, layout)[None]   # a batch of one
    dim = layout.subdim(*regs)
    best_f2, best_u = -1.0, np.eye(dim, dtype=complex)
    for r in range(5):
        u = (np.eye(dim, dtype=complex) if r == 0
             else qc.haar_random_unitary(dim, qc.stream(0, "recovery", r)))
        score = None
        for _ in range(80):
            moved = qc.apply_vector_matrix(vec, layout, u, regs)
            f2 = bell_overlap(moved, layout, [ret])[0]
            if score is not None and f2 - score < 1e-10:
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


def meas_figure(vecs: np.ndarray, layout: qc.RegisterLayout, which: str, eps: float):
    """s_set_distance's measuring figure and membership for each row of a batch."""
    figure = np.minimum(*(helstrom_guess_pure(vecs, layout, int(which == "S1"), regs)
                          for regs in (ALICE_FINAL, BOB_FINAL)))
    return figure, figure >= 1.0 - eps * eps - 1e-9


def s_set_distance(vec, layout: qc.RegisterLayout, which: str, kind: str, eps: float):
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
        dist, _ = best_recovery_distance(vec, layout, which)
        # sqrt(1 - F^2) loses half the float precision near F = 1, so exact
        # members surface at distances around 1e-8 rather than 1e-9
        return dist, dist <= eps + 5e-8
    if kind == "meas":
        figure, member = meas_figure(vec[None], layout, which, eps)
        return float(figure[0]), bool(member[0])
    raise ValueError("kind must be 'route' or 'meas'")


# ---------------------------------------------------------------------------
# constructive members (witness core + verified perturbation), batched over
# rows of draws; a per-trial sampler is the batch of one
# ---------------------------------------------------------------------------

def perturb_within(vecs: np.ndarray, eps: float, noise, uniforms):
    """Rotate each unit row of a (b, d) batch toward the random_unit_vector
    finish of its ``noise`` row by sin(a) = eps * its uniform, so within
    purified distance sin(a); returns the normalized rows and sin(a).  A row
    whose noise is parallel to it stays and uses no uniform, so ``uniforms``
    may be a generator drawing one per row that moves (a per-trial sampler)."""
    sin_a, out = np.zeros(len(vecs)), vecs
    if eps > 0:
        noise = qc.unit_finish(noise)
        # each row's vdot as a stacked vector-vector matmul: the same BLAS dot
        noise = noise - (vecs.conj()[:, None] @ noise[:, :, None])[:, 0] * vecs
        nn = qc.vector_norm(noise)
        moves = nn >= 1e-12
        if isinstance(uniforms, np.random.Generator):
            uniforms = [uniforms.random() if m else 0.0 for m in moves[:, 0]]
        sin_a = np.where(moves[:, 0], eps * np.asarray(uniforms), 0.0)
        # float_power is libm pow, as float ** 2 is; np.square rounds apart
        out = np.where(moves, np.sqrt(1 - np.float_power(sin_a, 2))[:, None] * vecs
                       + sin_a[:, None] * (noise / np.where(moves, nn, 1.0)), vecs)
    return out / qc.vector_norm(out), sin_a


def route_draws(layout: qc.RegisterLayout, which: str, eps: float) -> np.ndarray:
    """Where a routing member's normals end: phi's, K's Ginibre parts, then
    the perturbation's noise (none at eps = 0), which its uniform follows."""
    regs, ret = ROUTE_SIDES[which]
    return np.cumsum([2 * layout.subdim(*rest_registers(layout, "R", ret)),
                      2 * layout.subdim(*regs) ** 2, 2 * layout.dim * (eps > 0)])


def route_members(layout: qc.RegisterLayout, which: str, eps: float, rows, uniforms):
    """K^dagger (|Omega>_{R,ret} x |phi>), perturbed within eps, for each row
    of raw normals (see route_draws); returns the members and sin(a).

    The perturbation keeps membership: applying the same recovery unitary
    leaves the reduced state within purified distance eps of the Bell pair.
    """
    regs, ret = ROUTE_SIDES[which]
    z_phi, z_k, noise = np.split(rows, route_draws(layout, which, eps)[:2], axis=1)
    d = layout.subdim(*regs)
    k = qc.haar_finish(z_k.reshape(-1, 2, d, d))
    vec = qc.apply_vector_matrix(bell_core(layout, ret, qc.unit_finish(z_phi)), layout,
                                 k.conj().swapaxes(-1, -2), regs)
    return perturb_within(vec, eps, noise, uniforms)


def route_member(layout: qc.RegisterLayout, which: str, eps: float, rng):
    """One member of route_members, drawn from ``rng``."""
    rng = qc.as_generator(rng)
    rows = rng.standard_normal((1, route_draws(layout, which, eps)[-1]))
    return route_members(layout, which, eps, rows, rng)[0][0]


@lru_cache(maxsize=16)
def meas_core(layout: qc.RegisterLayout, basis: int) -> np.ndarray:
    """meas_member's unperturbed state (R copied into A and B), kept read-only."""
    if not (layout.width("A") and layout.width("B")):
        raise ValueError("need 1-qubit A and B registers for readable copies")
    r_q, a_read, b_read = (layout.positions(name)[0] for name in ("R", "A", "B"))
    n = layout.total_qubits
    vec = np.zeros(layout.dim, dtype=complex)
    vec[0] = 1.0
    vec = qc.apply_on_qubits(vec, n, qc.H, [r_q])
    vec = qc.apply_on_qubits(vec, n, qc.CNOT, [r_q, a_read])
    vec = qc.apply_on_qubits(vec, n, qc.CNOT, [r_q, b_read])
    if basis == 1:
        # conjugate every copy into the Hadamard basis
        for qb in (r_q, a_read, b_read):
            vec = qc.apply_on_qubits(vec, n, qc.H, [qb])
    vec.flags.writeable = False
    return vec


def meas_member(layout: qc.RegisterLayout, which: str, eps: float, rng):
    """State vector whose reference bit is readable by BOTH sides in the
    relevant basis, perturbed while re-verifying the guessing premise."""
    rng = qc.as_generator(rng)
    core = meas_core(layout, 0 if which == "S0" else 1)
    scale = eps
    for _ in range(12):
        noise = rng.standard_normal((1, 2 * layout.dim)) if scale > 0 else None
        cand = perturb_within(core[None], scale, noise, rng)[0][0]
        if s_set_distance(cand, layout, which, "meas", eps)[1]:
            return cand
        scale *= 0.5
    return core.copy()


def small_attack_layout() -> qc.RegisterLayout:
    """1 qubit per named attacker register: the smallest full layout."""
    return attack_layout(a=1, at=1, ac=1)
