"""See-saw search over two-phase strategies.

Each sweep optimizes one family at a time holding the rest fixed: unitary
families move to the polar factor of the linearized objective (accepted
only when the true objective does not decrease, so sweeps are monotone),
measurement effects jump to the exact Helstrom optimum, and the shared
state moves to the top Ritz vector of the effective Hamiltonian
H = mean_p U_p^dag M_p U_p on a short Krylov space that contains it.

Restarts run as one batch (in chunks of at most CHUNK_CELLS complex
cells): every update is one stacked kernel call over (restart, pair) rows,
while each restart draws from its own stream, keeps its own accept tests
and stops on its own, so its values do not depend on the batching.
"""

from __future__ import annotations

import copy
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
    route_finale,
    verifier_branches,
)
from .strategy import (
    ALICE_FINAL,
    BOB_FINAL,
    FINALE,
    FINAL_REGS,
    LOCAL_REGS,
    AttackReport,
    AttackStrategy,
    attack_layout,
    returned_register,
)

SWEEP_TOL = 1e-9          # a restart stops when a sweep gains less
# complex cells (rows x dim) of one batch of restarts, at least one restart
CHUNK_CELLS = 1 << 19
RECOVERY_STEPS = 3        # polar steps per recovery update
KRYLOV_PRODUCTS = 16      # products of H per psi step
KRYLOV_BREAKDOWN = 1e-12  # residual norm below which psi's Krylov space is complete


def dagger(mats: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return mats.conj().swapaxes(-1, -2)


def polar_unitary(w: np.ndarray) -> np.ndarray:
    """Unitary polar factor of a matrix or of each matrix in a stack."""
    u, _, vh = np.linalg.svd(w)
    return u @ vh


def random_effect(dim: int, rng, count: int | None = None) -> np.ndarray:
    """Random projector onto half the space (seed for POVM sweeps), or a stack of them."""
    u = qc.haar_random_unitary(dim, rng, count)
    keep = dim // 2 if dim > 1 else 1
    basis = u[..., :keep]
    return basis @ dagger(basis)


def helstrom_effect(d0: np.ndarray, d1: np.ndarray) -> np.ndarray:
    """Projector onto the positive eigenspace of d0 - d1 (optimal two-outcome
    discrimination of the weighted alternatives), per matrix of a stack."""
    diff = d0 - d1
    diff = (diff + dagger(diff)) / 2
    vals, vecs = np.linalg.eigh(diff)
    pos = vecs * (vals > 0)[..., None, :]
    return pos @ dagger(pos)


class _Work:
    """Mutable optimization state of a batch of restarts; one restart is
    frozen into an AttackStrategy at the end.

    ``ids`` are the restarts' indices and ``psi`` holds one pre-shared state
    per restart.  ``locals`` stacks Alice's unitaries by (restart, x) and
    Bob's by (restart, y); ``finale`` stacks K and L (routing) or pi and
    sigma (measuring) by (restart, pair), pair p = x * 2^n + y.  Every
    update scores all (restart, pair) rows in one batch, row r * 4^n + p;
    rows are independent within an update, so batching leaves each row's
    arithmetic as it is.
    """

    def __init__(self, kind, f, layout, seed, restarts, fix_psi=None):
        """Draw each restart from its own ``stream(seed, "restart", r)``: psi
        (unless fixed), Alice's and Bob's unitaries by input, then the
        finale by pair."""
        self.kind = kind
        self.f = f
        self.layout = layout
        self.ids = np.asarray(restarts)
        self.fix_psi = fix_psi is not None
        self.side = 1 << f.n
        self.pairs = [(x, y) for x in range(self.side) for y in range(self.side)]
        self.index = tuple(np.array(v) for v in zip(*self.pairs))
        self.values = np.array([f.value(x, y) for x, y in self.pairs])
        self.rets = np.array([returned_register(v) for v in self.values])
        draw = qc.haar_random_unitary if kind == "route" else random_effect
        psis, locals_, finale = [], [], []
        for r in restarts:
            rng = qc.stream(seed, "restart", r)
            psis.append(fix_psi if self.fix_psi else qc.random_unit_vector(layout.dim, rng))
            locals_.append([qc.haar_random_unitary(layout.subdim(*regs), rng, self.side)
                            for regs in LOCAL_REGS])
            finale.append([draw(layout.subdim(*regs), rng, len(self.pairs))
                           for regs in FINAL_REGS])
        self.psi = np.stack(psis)
        self.locals = [np.stack(stacks) for stacks in zip(*locals_)]
        self.finale = [np.stack(stacks) for stacks in zip(*finale)]

    def select(self, keep):
        """The restarts ``keep`` (a mask or index array) as a new batch."""
        out = copy.copy(self)
        out.ids = self.ids[keep]
        out.psi = self.psi[keep]
        out.locals = [stack[keep] for stack in self.locals]
        out.finale = [stack[keep] for stack in self.finale]
        return out

    # -- batched evaluation (shared kernels in .execute) ----------------------

    def _apply(self, vecs, mats, regs):
        return qc.apply_vector_matrix(vecs, self.layout, mats, regs)

    @staticmethod
    def _rows(stack):
        """A (restarts, pairs, ...) array as (restarts * pairs, ...) rows."""
        return stack.reshape(-1, *stack.shape[2:])

    def _tiled(self, per_pair):
        """A per-pair array repeated for every restart, one entry per row."""
        return np.tile(per_pair, len(self.psi))

    def _pair_locals(self, side):
        """Per-row stack of one side's local unitaries."""
        return self._rows(self.locals[side][:, self.index[side]])

    def _finale(self, j):
        return self._rows(self.finale[j])

    def _per_restart(self, rows):
        """Rows as (restarts, pairs, ...)."""
        return rows.reshape(len(self.psi), len(self.pairs), *rows.shape[1:])

    def after_locals(self, psi=None):
        """The batch after the local unitaries, one row per (restart, pair)."""
        psi = self.psi if psi is None else psi
        return after_locals(np.repeat(psi, len(self.pairs), axis=0), self.layout,
                            self._pair_locals(0), self._pair_locals(1))

    def successes(self, vecs):
        """Success per (restart, pair), as a (restarts, pairs) array."""
        finale = [self._finale(j) for j in (0, 1)]
        return self._per_restart(pair_success(vecs, self.layout, self.kind,
                                              self._tiled(self.values), finale))

    def average(self, psi=None):
        """Average success per restart."""
        return np.mean(self.successes(self.after_locals(psi)), axis=1)

    def _effect(self, vecs):
        """M|v> per row, M the final measurement sandwiched by the finale."""
        k, l = self._finale(0), self._finale(1)
        if self.kind == "route":
            w = bell_effect(route_finale(vecs, self.layout, k, l), self.layout,
                            self._tiled(self.rets))
            w = self._apply(w, dagger(l), BOB_FINAL)
            return self._apply(w, dagger(k), ALICE_FINAL)
        return meas_branches(vecs, self.layout, self._tiled(self.values), k, l).sum(axis=0)

    def _per_value(self, per_pair, side):
        """Sum of a (restarts, pairs, ...) array over the other side's
        inputs, by restart and this side's input."""
        per_pair = per_pair.reshape(len(self.psi), self.side, self.side, *per_pair.shape[2:])
        return per_pair.sum(axis=2 - side)

    # -- sweep updates ------------------------------------------------------

    def update_recovery(self):
        vecs = self.after_locals()
        values, rets = self._tiled(self.values), self._tiled(self.rets)
        finale = [self._finale(j) for j in (0, 1)]   # views: writes land in self.finale
        for side in (0, 1):
            # rows returning to this side optimize its recovery unitary
            idx = np.flatnonzero(values == side)
            if not idx.size:
                continue
            regs, row_rets = FINAL_REGS[side], rets[idx]
            vec = self._apply(vecs[idx], finale[1 - side][idx], FINAL_REGS[1 - side])
            moved = self._apply(vec, finale[side][idx], regs)
            score = bell_overlap(moved, self.layout, row_rets)
            active = np.ones(idx.size, dtype=bool)
            for _ in range(RECOVERY_STEPS):
                # polar factor of the Bell-overlap gradient, and vec under it
                grad = qc.reduced_outer(bell_effect(moved, self.layout, row_rets), vec,
                                        self.layout, regs)
                cand = polar_unitary(grad)
                cand_moved = self._apply(vec, cand, regs)
                cand_score = bell_overlap(cand_moved, self.layout, row_rets)
                active &= cand_score > score + 1e-15
                if not active.any():
                    break
                finale[side][idx[active]] = cand[active]
                moved[active], score[active] = cand_moved[active], cand_score[active]

    def update_effects(self):
        vecs = self.after_locals()
        both = np.concatenate([vecs, vecs])
        branches = verifier_branches(vecs, self.layout, self._tiled(self.values))
        # each side's D_z on its finale registers with the other side's
        # effect fixed; Bob sees Alice's fresh effect
        for side in (0, 1):
            w = self._apply(branches, both_outcomes(self._finale(1 - side)),
                            FINAL_REGS[1 - side])
            d = qc.reduced_outer(w, both, self.layout, FINAL_REGS[side])
            self.finale[side] = self._per_restart(helstrom_effect(d[:len(vecs)],
                                                                  d[len(vecs):]))

    def update_local(self, side):
        """Polar step for every (restart, input value) of one side at once;
        each value's unitary only moves its own pairs, so each keeps its own
        accept test."""
        other = 1 - side
        vecs = self.after_locals()
        back = self._apply(self._effect(vecs), dagger(self._pair_locals(other)),
                           LOCAL_REGS[other])
        grads = qc.reduced_outer(back, np.repeat(self.psi, len(self.pairs), axis=0),
                                 self.layout, LOCAL_REGS[side])
        old_score = self._per_value(self.successes(vecs), side)
        old = self.locals[side]
        self.locals[side] = polar_unitary(self._per_value(self._per_restart(grads), side))
        new_score = self._per_value(self.successes(self.after_locals()), side)
        worse = new_score < old_score - 1e-15
        self.locals[side][worse] = old[worse]

    def update_psi(self):
        """Rayleigh-Ritz step on H = mean_p U_p^dag M_p U_p, per restart.

        Builds the Krylov space of H at psi from KRYLOV_PRODUCTS products,
        each new vector reorthogonalised against all earlier ones twice,
        stopping early once no restart has a new direction left.  The top
        Ritz vector comes from Q^dag (H Q) and the stored images, with no
        further product.  psi lies in the space, so the Ritz value is never
        below its objective; a restart takes the Ritz vector only if its
        objective rises.
        """
        if self.fix_psi:
            return
        undo = [dagger(self._pair_locals(side)) for side in (0, 1)]

        def hmat_vec(v):
            w = self._effect(self.after_locals(v))
            for side in (1, 0):   # Bob's local unitary was applied last
                w = self._apply(w, undo[side], LOCAL_REGS[side])
            return self._per_restart(w).sum(axis=1) / len(self.pairs)

        old_score = self.average()
        count = len(self.psi)
        basis = np.zeros((count, KRYLOV_PRODUCTS, self.layout.dim), dtype=complex)
        images = np.zeros_like(basis)
        size = np.zeros(count, dtype=int)        # basis vectors per restart
        live = np.ones(count, dtype=bool)
        q = self.psi / np.linalg.norm(self.psi, axis=1, keepdims=True)
        for k in range(KRYLOV_PRODUCTS):
            basis[:, k], images[:, k] = q, hmat_vec(q)
            size += live
            if k + 1 == KRYLOV_PRODUCTS:
                break
            w = images[:, k]
            for _ in range(2):
                coef = np.einsum("rkd,rd->rk", basis[:, :k + 1].conj(), w)
                w = w - np.einsum("rk,rkd->rd", coef, basis[:, :k + 1])
            beta = np.linalg.norm(w, axis=1)
            live &= beta >= KRYLOV_BREAKDOWN
            if not live.any():
                break
            q = w / np.where(live, beta, np.inf)[:, None]   # a stopped restart adds zeros
        used = int(size.max())
        basis, images = basis[:, :used], images[:, :used]
        proj = basis.conj() @ images.swapaxes(1, 2)
        proj = (proj + dagger(proj)) / 2
        # a restart's unused (zero) columns get Ritz value -1, below any of H >= 0
        rows, cols = np.nonzero(np.arange(used) >= size[:, None])
        proj[rows, cols, cols] = -1.0
        top = np.linalg.eigh(proj)[1][:, :, -1]
        v = np.einsum("rk,rkd->rd", top, basis)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        accept = self.average(v) > old_score + 1e-15
        self.psi[accept] = v[accept]

    def sweep(self):
        """One sweep of every restart; returns the averages after it."""
        if self.kind == "route":
            self.update_recovery()
        else:
            self.update_effects()
        self.update_local(0)
        self.update_local(1)
        self.update_psi()
        return self.average()

    def freeze(self, r: int = 0) -> AttackStrategy:
        """Restart ``r`` of the batch as a strategy."""
        psi = self.psi[r] / np.linalg.norm(self.psi[r])
        finale = {name: dict(zip(self.pairs, stack[r]))
                  for name, stack in zip(FINALE[self.kind], self.finale)}
        alice, bob = (dict(enumerate(stack[r])) for stack in self.locals)
        return AttackStrategy(kind=self.kind, n=self.f.n, layout=self.layout, psi=psi,
                              alice=alice, bob=bob, **finale)


@dataclass(frozen=True)
class SeesawOutcome:
    strategy: AttackStrategy
    report: AttackReport
    best_value: float
    restart_values: tuple[float, ...]


def _sweep_until_stopped(work: _Work, iters: int):
    """Sweep a batch of restarts until each gains less than SWEEP_TOL in a
    sweep or has had ``iters`` sweeps.  A stopped restart leaves the batch;
    yields (restart id, final value, that restart as a batch of one) as each
    stops."""
    prev = work.average()
    for _ in range(iters):
        cur = work.sweep()
        if np.any(cur < prev - 1e-12):
            raise AssertionError("see-saw sweep decreased the objective")
        stop = cur - prev < SWEEP_TOL
        for i in np.flatnonzero(stop):
            yield int(work.ids[i]), float(cur[i]), work.select([i])
        work, prev = work.select(~stop), cur[~stop]
        if not len(prev):
            return
    for i, r in enumerate(work.ids):
        yield int(r), float(prev[i]), work.select([i])


def default_split(q: int) -> tuple[int, int, int]:
    """Width split (A, At, Ac) of one attacker's q qubits; the returned-qubit
    slot takes one and the rest goes to the communication register."""
    if q < 1:
        raise ValueError("attackers need at least the stored-qubit register")
    return 1, 0, q - 1


def seesaw_optimize(f, q: int = 2, kind: str = "route", restarts: int = 20,
                    iters: int = 60, seed: int = 0,
                    split: tuple[int, int, int] | None = None,
                    fix_psi: np.ndarray | None = None) -> SeesawOutcome:
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
    values = [0.0] * restarts
    best, best_at = None, (-1.0, 0)
    per_chunk = max(1, CHUNK_CELLS // ((1 << 2 * f.n) * layout.dim))
    for start in range(0, restarts, per_chunk):
        work = _Work(kind, f, layout, seed, range(start, min(start + per_chunk, restarts)),
                     fix_psi)
        for r, value, single in _sweep_until_stopped(work, iters):
            values[r] = value
            # the first restart to reach the best value wins, as in a scan
            if value > best_at[0] or (value == best_at[0] and r < best_at[1]):
                best, best_at = single, (value, r)
    strategy = best.freeze()
    report = epsilon_l_report(strategy, f)
    return SeesawOutcome(strategy=strategy, report=report,
                         best_value=best_at[0], restart_values=tuple(values))


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
