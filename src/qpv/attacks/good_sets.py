"""Batched samplers and the measuring membership rule for the recoverable-
state sets.

The routing sets contain states from which one side's recovery unitary can
restore the shared pair with the reference qubit; the measuring sets contain
states from which BOTH sides can guess the reference measurement outcome in
the relevant basis.  Each set has one sampler over rows of draws, and no row's
draws depend on its state.  A routing member is the preimage of the Bell pair
under a recovery unitary, perturbed within eps (route_members).  A measuring
member is the readable core perturbed within eps, or the core itself where the
closed-form Helstrom bound (meas_figure) refuses the candidate (meas_members).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .. import qcore as qc
from ..qcore.ops import _row_dot
from .strategy import ALICE_FINAL, BOB_FINAL, attack_layout, bell_core, rest_registers

ROUTE_SIDES = {"S0": (ALICE_FINAL, "A"), "S1": (BOB_FINAL, "B")}


def helstrom_guess_pure(vecs: np.ndarray, layout: qc.RegisterLayout, basis: int,
                        regs) -> np.ndarray:
    """Optimal probability of guessing the reference measurement outcome from
    the named registers, (1 + ||C0 - C1||_1)/2 on the conditional operators,
    for each pure vector in a (b, dim) batch."""
    m = qc.branch_matrices(vecs, layout, "R", basis, regs)
    c = m @ m.conj().swapaxes(-1, -2)   # C_z = tr_rest |psi_z><psi_z|
    diff = c[:, 0] - c[:, 1]
    diff = (diff + diff.conj().swapaxes(-1, -2)) / 2
    return 0.5 * (1.0 + np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1))


def meas_figure(vecs: np.ndarray, layout: qc.RegisterLayout, which: str, eps: float):
    """The smaller of the two sides' optimal guessing probabilities for each
    row of a batch, and whether it reaches 1 - eps^2 (measuring membership)."""
    figure = np.minimum(*(helstrom_guess_pure(vecs, layout, int(which == "S1"), regs)
                          for regs in (ALICE_FINAL, BOB_FINAL)))
    return figure, figure >= 1.0 - eps * eps - 1e-9


# ---------------------------------------------------------------------------
# constructive members (witness core + verified perturbation), batched over
# rows of draws
# ---------------------------------------------------------------------------

def perturb_within(vecs: np.ndarray, eps: float, noise, uniforms):
    """Rotate each unit row of a (b, d) batch toward the random_unit_vector
    finish of its ``noise`` row by sin(a) = eps * its uniform, so within
    purified distance sin(a); returns the normalized rows and sin(a).  A row
    whose noise is parallel to it stays, with sin(a) = 0; its uniform is
    drawn all the same."""
    sin_a, out = np.zeros(len(vecs)), vecs
    if eps > 0:
        noise = qc.unit_finish(noise)
        noise = noise - _row_dot(vecs.conj(), noise)[:, None] * vecs
        nn = qc.vector_norm(noise)
        moves = nn >= 1e-12
        sin_a = np.where(moves[:, 0], eps * uniforms, 0.0)
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


@lru_cache(maxsize=16)
def meas_core(layout: qc.RegisterLayout, basis: int) -> np.ndarray:
    """The unperturbed state of meas_members (R copied into A and B), kept read-only."""
    if not (layout.width("A") and layout.width("B")):
        raise ValueError("need 1-qubit A and B registers for readable copies")
    r_q, a_read, b_read = (layout.positions(name)[0] for name in ("R", "A", "B"))
    vec = np.zeros(layout.dim, dtype=complex)
    vec[0] = 1.0
    # basis 1 conjugates every copy into the Hadamard basis
    vec = qc.apply_on_qubits(vec, layout.total_qubits,
                             [(qc.H, [r_q]), (qc.CNOT, [r_q, a_read]), (qc.CNOT, [r_q, b_read]),
                              *[(qc.H, [qb]) for qb in (r_q, a_read, b_read) if basis == 1]])
    vec.flags.writeable = False
    return vec


def meas_members(layout: qc.RegisterLayout, which: str, eps: float, noise, uniforms):
    """The core whose reference bit both sides read in the basis of ``which``,
    perturbed within eps by each row of ``noise`` and its uniform (see
    perturb_within); a candidate that meas_figure refuses is the core."""
    core = meas_core(layout, int(which == "S1"))
    cands = perturb_within(np.broadcast_to(core, (len(noise), core.size)), eps, noise,
                           uniforms)[0]
    return np.where(meas_figure(cands, layout, which, eps)[1][:, None], cands, core)


def small_attack_layout() -> qc.RegisterLayout:
    """1 qubit per named attacker register: the smallest full layout."""
    return attack_layout(at=1, ac=1)
