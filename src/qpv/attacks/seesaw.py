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
    epsilon_l_report,
    meas_branches,
    pair_success,
    returned_register,
    route_finale,
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


def polar_unitary(w: np.ndarray) -> np.ndarray:
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
    discrimination of the weighted alternatives)."""
    diff = d0 - d1
    diff = (diff + diff.conj().T) / 2
    vals, vecs = np.linalg.eigh(diff)
    pos = vecs[:, vals > 0]
    return pos @ pos.conj().T


def recovery_step(vec, moved, layout, regs, ret):
    """Polar factor of the Bell-overlap gradient for the recovery unitary on
    ``regs`` (``moved`` is ``vec`` under the current one), and its overlap."""
    grad = qc.reduced_outer(bell_effect(moved, layout, ret), vec, layout, regs,
                            order="given")
    cand = polar_unitary(grad)
    return cand, bell_overlap(qc.apply_vector_matrix(vec, layout, cand, regs), layout, ret)


class _Work:
    """Mutable optimization state; frozen into an AttackStrategy at the end."""

    def __init__(self, kind, f, layout, psi_vec, rng, fix_psi):
        self.kind = kind
        self.f = f
        self.layout = layout
        self.psi = psi_vec
        self.fix_psi = fix_psi
        self.side = 1 << f.n
        self.pairs = [(x, y) for x in range(self.side) for y in range(self.side)]
        da = layout.subdim(*ALICE_LOCAL)
        db = layout.subdim(*BOB_LOCAL)
        dka = layout.subdim(*ALICE_FINAL)
        dkb = layout.subdim(*BOB_FINAL)
        self.alice = {x: qc.haar_random_unitary(da, rng) for x in range(self.side)}
        self.bob = {y: qc.haar_random_unitary(db, rng) for y in range(self.side)}
        if kind == "route":
            self.k_final = {p: qc.haar_random_unitary(dka, rng) for p in self.pairs}
            self.l_final = {p: qc.haar_random_unitary(dkb, rng) for p in self.pairs}
            self.pi = self.sigma = None
        else:
            self.k_final = self.l_final = None
            self.pi = {p: random_effect(dka, rng) for p in self.pairs}
            self.sigma = {p: random_effect(dkb, rng) for p in self.pairs}

    # -- per-pair evaluation (shared kernels in .execute) -------------------

    def _apply(self, vec, mat, regs, dagger=False):
        m = mat.conj().T if dagger else mat
        return qc.apply_vector_matrix(vec, self.layout, m, regs)

    def _after_locals(self, x, y):
        return after_locals(self.psi, self.layout, self.alice[x], self.bob[y])

    def _finale(self, x, y):
        if self.kind == "route":
            return self.k_final[(x, y)], self.l_final[(x, y)]
        return self.pi[(x, y)], self.sigma[(x, y)]

    def successes(self, pairs, psi=None):
        vec = self.psi if psi is None else psi
        return [pair_success(vec, self.layout, self.kind, self.f.value(x, y),
                             self.alice[x], self.bob[y], self._finale(x, y))
                for x, y in pairs]

    def average(self, psi=None):
        return float(np.mean(self.successes(self.pairs, psi)))

    # -- sweep updates ------------------------------------------------------

    def update_recovery(self, sub_iters=3):
        for (x, y) in self.pairs:
            ret = returned_register(self.f.value(x, y))
            regs, table, other_regs, other = (
                (ALICE_FINAL, self.k_final, BOB_FINAL, self.l_final) if ret == "A"
                else (BOB_FINAL, self.l_final, ALICE_FINAL, self.k_final))
            vec = self._apply(self._after_locals(x, y), other[(x, y)], other_regs)
            current = table[(x, y)]
            score = bell_overlap(self._apply(vec, current, regs), self.layout, ret)
            for _ in range(sub_iters):
                moved = self._apply(vec, current, regs)
                cand, cand_score = recovery_step(vec, moved, self.layout, regs, ret)
                if cand_score > score + 1e-15:
                    current, score = cand, cand_score
                else:
                    break
            table[(x, y)] = current

    def update_effects(self):
        for (x, y) in self.pairs:
            vec = self._after_locals(x, y)
            proj = qc.basis_projectors(self.f.value(x, y))
            # each side's D_z on its finale registers with the other side's
            # effect fixed; Bob sees Alice's fresh effect
            for mine, regs, other, other_regs in ((self.pi, ALICE_FINAL, self.sigma, BOB_FINAL),
                                                  (self.sigma, BOB_FINAL, self.pi, ALICE_FINAL)):
                e = other[(x, y)]
                d = []
                for z, eo in enumerate((e, np.eye(e.shape[0]) - e)):
                    w = self._apply(vec, proj[z], ("R",))
                    w = self._apply(w, eo, other_regs)
                    d.append(qc.reduced_outer(w, vec, self.layout, regs, order="given"))
                mine[(x, y)] = helstrom_effect(d[0], d[1])

    def _pair_effect_after_locals(self, vec, x, y):
        """Effective measurement sandwiched by the finale for one pair."""
        value = self.f.value(x, y)
        if self.kind == "route":
            k, l = self._finale(x, y)
            w = bell_effect(route_finale(vec, self.layout, k, l), self.layout,
                            returned_register(value))
            w = self._apply(w, l, BOB_FINAL, dagger=True)
            return self._apply(w, k, ALICE_FINAL, dagger=True)
        return sum(meas_branches(vec, self.layout, value, *self._finale(x, y)))

    def update_local(self, who):
        table, regs = ((self.alice, ALICE_LOCAL) if who == "alice"
                       else (self.bob, BOB_LOCAL))
        for val in range(self.side):
            pair_list = ([(val, y) for y in range(self.side)] if who == "alice"
                         else [(x, val) for x in range(self.side)])
            old_score = sum(self.successes(pair_list))
            grad = np.zeros((self.layout.subdim(*regs),) * 2, dtype=complex)
            for (x, y) in pair_list:
                vec = self._after_locals(x, y)
                eff = self._pair_effect_after_locals(vec, x, y)
                other = (self.bob[y], BOB_LOCAL) if who == "alice" else (self.alice[x], ALICE_LOCAL)
                back = self._apply(eff, other[0], other[1], dagger=True)
                grad += qc.reduced_outer(back, self.psi, self.layout, regs, order="given")
            cand = polar_unitary(grad)
            old = table[val]
            table[val] = cand
            new_score = sum(self.successes(pair_list))
            if new_score < old_score - 1e-15:
                table[val] = old

    def update_psi(self, power_iters=40):
        if self.fix_psi:
            return
        def hmat_vec(v):
            out = np.zeros_like(v)
            for (x, y) in self.pairs:
                w = after_locals(v, self.layout, self.alice[x], self.bob[y])
                w = self._pair_effect_after_locals(w, x, y)
                w = self._apply(w, self.bob[y], BOB_LOCAL, dagger=True)
                w = self._apply(w, self.alice[x], ALICE_LOCAL, dagger=True)
                out += w
            return out / len(self.pairs)

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
        self.update_local("alice")
        self.update_local("bob")
        self.update_psi()
        return self.average()

    def freeze(self) -> AttackStrategy:
        psi = qc.QuantumState(self.layout, "pure", self.psi / np.linalg.norm(self.psi))
        finale = (dict(k_final=dict(self.k_final), l_final=dict(self.l_final))
                  if self.kind == "route" else
                  dict(pi_effect=dict(self.pi), sigma_effect=dict(self.sigma)))
        return AttackStrategy(kind=self.kind, n=self.f.n, layout=self.layout, psi=psi,
                              alice=dict(self.alice), bob=dict(self.bob), **finale)


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
                    fix_psi: qc.QuantumState | None = None,
                    tol: float = DEFAULT_TOL) -> SeesawOutcome:
    """Best strategy found over random restarts of monotone see-saw sweeps.

    ``fix_psi`` pins the pre-shared state (e.g. the unentangled product
    state) and restricts the search to unitaries and measurements.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    a, at, ac = split if split is not None else default_split(q)
    layout = attack_layout(a=a, at=at, ac=ac)
    if fix_psi is not None and fix_psi.layout.dim != layout.dim:
        raise ValueError("fixed psi does not match the layout")
    best: _Work | None = None
    best_val = -1.0
    values = []
    for r in range(restarts):
        rng = qc.stream(seed, "restart", r)
        psi_vec = (np.asarray(fix_psi.data) if fix_psi is not None
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


def unentangled_product_state(layout: qc.RegisterLayout) -> qc.QuantumState:
    """|Omega>_RA on the stored-qubit slot, |0...0> everywhere else."""
    if layout.width("A") != 1:
        raise ValueError("needs a 1-qubit A register")
    rest = [name for name in layout.names if name not in ("R", "A") and layout.width(name)]
    factors = [(("R", "A"), qc.BELL_VECTOR)]
    for name in rest:
        dim = layout.subdim(name)
        e0 = np.zeros(dim, dtype=complex)
        e0[0] = 1.0
        factors.append(((name,), e0))
    return qc.assemble(layout, factors)


def angle_grid_value(f, resolution: int = 1000, per_x: bool = False) -> float:
    """Best average success of measure-and-broadcast attacks on the measuring
    protocol, over single-qubit measurement angles.

    Alice measures the stored qubit at an angle in the X-Z great circle and
    both attackers report the outcome; the verifier measures in the basis
    picked by f.  ``per_x`` lets the angle depend on Alice's input.
    """
    side = 1 << f.n
    angles = np.linspace(0.0, math.pi / 2, resolution)

    def pair_value(theta_f, alpha):
        target = theta_f * math.pi / 4
        return math.cos(alpha - target) ** 2

    if not per_x:
        best = 0.0
        for alpha in angles:
            avg = np.mean([pair_value(f.value(x, y), alpha) for x, y in f.pairs()])
            best = max(best, float(avg))
        return best
    total = 0.0
    for x in range(side):
        best_x = 0.0
        for alpha in angles:
            avg = np.mean([pair_value(f.value(x, y), alpha) for y in range(side)])
            best_x = max(best_x, float(avg))
        total += best_x
    return total / side
