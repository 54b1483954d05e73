"""See-saw search over two-phase strategies.

Each sweep optimizes one family at a time holding the rest fixed: unitary
families move to the polar factor of the linearized objective (accepted
only when the true objective does not decrease, so sweeps are monotone),
measurement effects jump to the exact Helstrom optimum, and the shared
state moves toward the top eigenvector of the effective Hamiltonian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import qcore as qc
from .execute import (
    after_locals,
    bell_effect,
    bell_overlap,
    both_outcomes,
    epsilon_l_report,
    meas_branches,
    pair_success,
    returned_register,
    route_finale,
    verifier_branches,
)
from .strategy import (
    ALICE_FINAL,
    ALICE_LOCAL,
    BOB_FINAL,
    BOB_LOCAL,
    AttackReport,
    AttackStrategy,
    attack_layout,
)

DEFAULT_TOL = 1e-9
LOCAL_REGS = (ALICE_LOCAL, BOB_LOCAL)
FINAL_REGS = (ALICE_FINAL, BOB_FINAL)


def dagger(mats: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return mats.conj().swapaxes(-1, -2)


def polar_unitary(w: np.ndarray) -> np.ndarray:
    """Unitary polar factor of a matrix or of each matrix in a stack."""
    u, _, vh = np.linalg.svd(w)
    return u @ vh


def random_effect(dim: int, rng) -> np.ndarray:
    """Random projector onto half the space (seed for POVM sweeps)."""
    u = qc.haar_random_unitary(dim, rng)
    keep = dim // 2 if dim > 1 else 1
    basis = u[:, :keep]
    return basis @ basis.conj().T


def helstrom_effect(d0: np.ndarray, d1: np.ndarray) -> np.ndarray:
    """Projector onto the positive eigenspace of d0 - d1 (optimal two-outcome
    discrimination of the weighted alternatives), per matrix of a stack."""
    diff = d0 - d1
    diff = (diff + dagger(diff)) / 2
    vals, vecs = np.linalg.eigh(diff)
    pos = vecs * (vals > 0)[..., None, :]
    return pos @ dagger(pos)


def recovery_step(vec, moved, layout, regs, rets):
    """Polar factor of the Bell-overlap gradient for the recovery unitary on
    ``regs`` (``moved`` is ``vec`` under the current one), ``vec`` under it,
    and its overlap, per row; ``rets`` names each row's returned register."""
    grad = qc.reduced_outer(bell_effect(moved, layout, rets), vec, layout, regs,
                            order="given")
    cand = polar_unitary(grad)
    cand_moved = qc.apply_vector_matrix(vec, layout, cand, regs)
    return cand, cand_moved, bell_overlap(cand_moved, layout, rets)


class _Work:
    """Mutable optimization state; frozen into an AttackStrategy at the end.

    ``locals`` stacks Alice's unitaries by x and Bob's by y; ``finale`` stacks
    K and L (routing) or pi and sigma (measuring) by pair p = x * 2^n + y.
    Every update scores all pairs in one batch; pairs are independent within
    an update, so batching leaves each pair's arithmetic as it is.
    """

    def __init__(self, kind, f, layout, psi_vec, rng, fix_psi):
        self.kind = kind
        self.f = f
        self.layout = layout
        self.psi = psi_vec
        self.fix_psi = fix_psi
        self.side = 1 << f.n
        self.pairs = [(x, y) for x in range(self.side) for y in range(self.side)]
        self.index = tuple(np.array(v) for v in zip(*self.pairs))
        self.values = np.array([f.value(x, y) for x, y in self.pairs])
        self.rets = np.array([returned_register(v) for v in self.values])
        self.locals = [np.stack([qc.haar_random_unitary(layout.subdim(*regs), rng)
                                 for _ in range(self.side)]) for regs in LOCAL_REGS]
        draw = qc.haar_random_unitary if kind == "route" else random_effect
        self.finale = [np.stack([draw(layout.subdim(*regs), rng) for _ in self.pairs])
                       for regs in FINAL_REGS]

    # -- batched evaluation (shared kernels in .execute) ----------------------

    def _apply(self, vecs, mats, regs):
        return qc.apply_vector_matrix(vecs, self.layout, mats, regs)

    def _pair_locals(self, side):
        """Per-pair stack of one side's local unitaries."""
        return self.locals[side][self.index[side]]

    def after_locals(self, psi=None):
        """The (b, 2^n) batch after the local unitaries, one row per pair."""
        return after_locals(self.psi if psi is None else psi, self.layout,
                            self._pair_locals(0), self._pair_locals(1))

    def successes(self, vecs):
        return pair_success(vecs, self.layout, self.kind, self.values, self.finale)

    def average(self, psi=None):
        return float(np.mean(self.successes(self.after_locals(psi))))

    def _effect(self, vecs):
        """M|v> per pair, M the final measurement sandwiched by the finale."""
        if self.kind == "route":
            k, l = self.finale
            w = bell_effect(route_finale(vecs, self.layout, k, l), self.layout, self.rets)
            w = self._apply(w, dagger(l), BOB_FINAL)
            return self._apply(w, dagger(k), ALICE_FINAL)
        return meas_branches(vecs, self.layout, self.values, *self.finale).sum(axis=0)

    def _per_value(self, per_pair, side):
        """Sum over the other side's inputs, by this side's input."""
        return per_pair.reshape(self.side, self.side, *per_pair.shape[1:]).sum(axis=1 - side)

    # -- sweep updates ------------------------------------------------------

    def update_recovery(self, sub_iters=3):
        vecs = self.after_locals()
        for side in (0, 1):
            # pairs returning to this side optimize its recovery unitary
            idx = np.flatnonzero(self.values == side)
            if not idx.size:
                continue
            regs, rets = FINAL_REGS[side], self.rets[idx]
            vec = self._apply(vecs[idx], self.finale[1 - side][idx], FINAL_REGS[1 - side])
            moved = self._apply(vec, self.finale[side][idx], regs)
            score = bell_overlap(moved, self.layout, rets)
            active = np.ones(idx.size, dtype=bool)
            for _ in range(sub_iters):
                cand, cand_moved, cand_score = recovery_step(vec, moved, self.layout,
                                                             regs, rets)
                active &= cand_score > score + 1e-15
                if not active.any():
                    break
                self.finale[side][idx[active]] = cand[active]
                moved[active], score[active] = cand_moved[active], cand_score[active]

    def update_effects(self):
        vecs = self.after_locals()
        both = np.concatenate([vecs, vecs])
        branches = verifier_branches(vecs, self.layout, self.values)
        # each side's D_z on its finale registers with the other side's
        # effect fixed; Bob sees Alice's fresh effect
        for side in (0, 1):
            w = self._apply(branches, both_outcomes(self.finale[1 - side]),
                            FINAL_REGS[1 - side])
            d = qc.reduced_outer(w, both, self.layout, FINAL_REGS[side], order="given")
            self.finale[side] = helstrom_effect(d[:len(vecs)], d[len(vecs):])

    def update_local(self, side):
        """Polar step for every input value of one side at once; each value's
        unitary only moves its own pairs, so each keeps its own accept test."""
        other = 1 - side
        vecs = self.after_locals()
        back = self._apply(self._effect(vecs), dagger(self._pair_locals(other)),
                           LOCAL_REGS[other])
        grads = qc.reduced_outer(back, self.psi, self.layout, LOCAL_REGS[side],
                                 order="given")
        old_score = self._per_value(self.successes(vecs), side)
        old = self.locals[side]
        self.locals[side] = polar_unitary(self._per_value(grads, side))
        new_score = self._per_value(self.successes(self.after_locals()), side)
        worse = new_score < old_score - 1e-15
        self.locals[side][worse] = old[worse]

    def update_psi(self, power_iters=40):
        if self.fix_psi:
            return
        undo = [dagger(self._pair_locals(side)) for side in (0, 1)]

        def hmat_vec(v):
            w = self._effect(self.after_locals(v))
            w = self._apply(w, undo[1], BOB_LOCAL)
            w = self._apply(w, undo[0], ALICE_LOCAL)
            return w.sum(axis=0) / len(self.pairs)

        old_score = self.average()
        v = self.psi.copy()
        for _ in range(power_iters):
            v = hmat_vec(v)
            nrm = np.linalg.norm(v)
            if nrm < 1e-30:
                return
            v = v / nrm
        if self.average(v) > old_score + 1e-15:
            self.psi = v

    def sweep(self):
        if self.kind == "route":
            self.update_recovery()
        else:
            self.update_effects()
        self.update_local(0)
        self.update_local(1)
        self.update_psi()
        return self.average()

    def freeze(self) -> AttackStrategy:
        psi = self.psi / np.linalg.norm(self.psi)
        first, second = (dict(zip(self.pairs, stack)) for stack in self.finale)
        finale = (dict(k_final=first, l_final=second) if self.kind == "route"
                  else dict(pi_effect=first, sigma_effect=second))
        alice, bob = (dict(enumerate(stack)) for stack in self.locals)
        return AttackStrategy(kind=self.kind, n=self.f.n, layout=self.layout, psi=psi,
                              alice=alice, bob=bob, **finale)


@dataclass(frozen=True)
class SeesawOutcome:
    strategy: AttackStrategy
    report: AttackReport
    best_value: float
    restart_values: tuple[float, ...]


def default_split(q: int) -> tuple[int, int, int]:
    """Width split (A, At, Ac) of one attacker's q qubits; the returned-qubit
    slot takes one and the rest goes to the communication register."""
    if q < 1:
        raise ValueError("attackers need at least the stored-qubit register")
    return 1, 0, q - 1


def seesaw_optimize(f, q: int = 2, kind: str = "route", restarts: int = 20,
                    iters: int = 60, seed: int = 0,
                    split: tuple[int, int, int] | None = None,
                    fix_psi: np.ndarray | None = None,
                    tol: float = DEFAULT_TOL) -> SeesawOutcome:
    """Best strategy found over random restarts of monotone see-saw sweeps.

    ``fix_psi`` pins the pre-shared state to that unit vector (e.g. the
    unentangled product state) and restricts the search to unitaries and
    measurements.
    """
    if kind not in ("route", "meas"):
        raise ValueError(f"kind must be 'route' or 'meas', not {kind!r}")
    if restarts < 1 or iters < 1:
        raise ValueError(f"restarts and iters must be at least 1, not {restarts}, {iters}")
    a, at, ac = split if split is not None else default_split(q)
    if kind == "route" and a != 1:
        raise ValueError(f"routing needs a 1-qubit A register, split has {a}")
    layout = attack_layout(a=a, at=at, ac=ac)
    if fix_psi is not None:
        fix_psi = np.asarray(fix_psi, dtype=complex)
        if fix_psi.shape != (layout.dim,):
            raise ValueError("fixed psi must be a state vector on the layout")
        qc.check_state(fix_psi, layout.dim, "fixed psi")
    best: _Work | None = None
    best_val = -1.0
    values = []
    for r in range(restarts):
        rng = qc.stream(seed, "restart", r)
        psi_vec = (fix_psi if fix_psi is not None
                   else qc.random_unit_vector(layout.dim, rng))
        work = _Work(kind, f, layout, psi_vec, rng, fix_psi is not None)
        prev = work.average()
        for _ in range(iters):
            cur = work.sweep()
            if cur < prev - 1e-12:
                raise AssertionError("see-saw sweep decreased the objective")
            if cur - prev < tol:
                prev = cur
                break
            prev = cur
        values.append(prev)
        if prev > best_val:
            best_val, best = prev, work
    strategy = best.freeze()
    report = epsilon_l_report(strategy, f)
    return SeesawOutcome(strategy=strategy, report=report,
                         best_value=best_val, restart_values=tuple(values))



def angle_grid_value(f, resolution: int = 1000, per_x: bool = False) -> float:
    """Best average success of measure-and-broadcast attacks on the measuring
    protocol, over single-qubit measurement angles.

    Alice measures the stored qubit at an angle in the X-Z great circle and
    both attackers report the outcome; the verifier measures in the basis
    picked by f.  ``per_x`` lets the angle depend on Alice's input.
    """
    angles = np.linspace(0.0, math.pi / 2, resolution)
    # cos^2(alpha - f(x, y) pi/4), averaged over y: rows x, columns alpha
    by_x = np.mean(np.cos(angles - f.communication_matrix()[..., None] * math.pi / 4) ** 2,
                   axis=1)
    return float(np.mean(by_x.max(axis=1)) if per_x else by_x.mean(axis=0).max())
