"""See-saw search over two-phase strategies.

Each sweep optimizes one family at a time holding the rest fixed: unitary
families move to the polar factor of the linearized objective (accepted
only when the true objective does not decrease, so sweeps are monotone),
measurement effects jump to the exact Helstrom optimum, and the shared
phi of |Omega>_RA x |phi> moves to the top Ritz vector of the compressed
H = mean_p U_p^dag M_p U_p on a short Krylov space that contains it.

Restarts run as one batch (in chunks of at most CHUNK_CELLS complex
cells): every update is one stacked kernel call over (restart, pair) rows,
while each restart draws from its own stream, keeps its own accept tests
and stops on its own, so its values do not depend on the batching.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .. import qcore as qc
from .execute import (
    BELL_EFFECTS,
    BELL_REGS,
    after_locals,
    bell_effect,
    bell_overlap,
    both_outcomes,
    epsilon_l_report,
    meas_branches,
    pair_success,
    verifier_branches,
)
from .strategy import (
    FINALE,
    FINAL_REGS,
    LOCAL_REGS,
    AttackReport,
    AttackStrategy,
    attack_layout,
    bell_contract,
    bell_core,
    rest_registers,
)

SWEEP_TOL = 1e-9          # a restart stops when a sweep gains less
# complex cells (rows x dim) of one batch of restarts, at least one restart
CHUNK_CELLS = 1 << 19
RECOVERY_STEPS = 3        # polar steps per recovery update
KRYLOV_PRODUCTS = 16      # products of H per phi step
KRYLOV_BREAKDOWN = 1e-12  # residual norm below which phi's Krylov space is complete


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

    ``ids`` are the restarts' indices and ``phi`` holds one pre-shared state
    per restart, on ``rest_registers(layout, "R", "A")``: ``psi()`` is
    |Omega>_RA x |phi>.  ``locals`` stacks Alice's unitaries by (restart, x)
    and Bob's by (restart, y); ``finale`` stacks K and L (routing) or pi and
    sigma (measuring) by (restart, pair), pair p = x * 2^n + y.  Every update
    scores all (restart, pair) rows in one batch, row r * 4^n + p; rows are
    independent within an update, so batching leaves each row's arithmetic
    as it is.  ``succ`` is the success per (restart, pair) of the current
    state: the updates that score it carry it, the finale's clear it.
    """

    def __init__(self, kind, f, layout, seed, restarts, unentangled=False):
        """Draw each restart from its own ``stream(seed, "restart", r)``: phi
        (unless ``unentangled`` pins it to |0...0>), Alice's and Bob's
        unitaries by input, then the finale by pair."""
        self.kind = kind
        self.f = f
        self.layout = layout
        self.ids = np.asarray(restarts)
        self.unentangled = unentangled
        rest = layout.subdim(*rest_registers(layout, "R", "A"))
        self.side = 1 << f.n
        self.pairs = [(x, y) for x in range(self.side) for y in range(self.side)]
        self.index = tuple(np.array(v) for v in zip(*self.pairs))
        self.values = np.array([f.value(x, y) for x, y in self.pairs])
        draw = qc.haar_random_unitary if kind == "route" else random_effect
        phis, locals_, finale = [], [], []
        for r in restarts:
            rng = qc.stream(seed, "restart", r)
            phis.append(np.eye(rest)[0] if unentangled else qc.random_unit_vector(rest, rng))
            locals_.append([qc.haar_random_unitary(layout.subdim(*regs), rng, self.side)
                            for regs in LOCAL_REGS])
            finale.append([draw(layout.subdim(*regs), rng, len(self.pairs))
                           for regs in FINAL_REGS])
        self.phi = np.stack(phis)
        self.locals = [np.stack(stacks) for stacks in zip(*locals_)]
        self.finale = [np.stack(stacks) for stacks in zip(*finale)]
        self.succ = None

    def select(self, keep):
        """The restarts ``keep`` (a mask or index array) as a new batch."""
        out = copy.copy(self)
        out.ids = self.ids[keep]
        out.phi = self.phi[keep]
        out.locals = [stack[keep] for stack in self.locals]
        out.finale = [stack[keep] for stack in self.finale]
        out.succ = None if self.succ is None else self.succ[keep]
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
        return np.tile(per_pair, len(self.phi))

    def _pair_locals(self, side):
        """Per-row stack of one side's local unitaries."""
        return self._rows(self.locals[side][:, self.index[side]])

    def _finale(self, j):
        return self._rows(self.finale[j])

    def _per_restart(self, rows):
        """Rows as (restarts, pairs, ...)."""
        return rows.reshape(len(self.phi), len(self.pairs), *rows.shape[1:])

    def psi(self, phi=None):
        """|Omega>_RA x |phi> per restart, for ``phi`` or the batch's own."""
        return bell_core(self.layout, "A", self.phi if phi is None else phi)

    def after_locals(self, phi=None):
        """The batch after the local unitaries, one row per (restart, pair)."""
        return after_locals(np.repeat(self.psi(phi), len(self.pairs), axis=0), self.layout,
                            self._pair_locals(0), self._pair_locals(1))

    def successes(self, vecs):
        """Success per (restart, pair), as a (restarts, pairs) array."""
        finale = [self._finale(j) for j in (0, 1)]
        return self._per_restart(pair_success(vecs, self.layout, self.kind,
                                              self._tiled(self.values), finale))

    def table(self):
        """``succ``, evaluated if no update carried it."""
        if self.succ is None:
            self.succ = self.successes(self.after_locals())
        return self.succ

    def average(self):
        """Average success per restart."""
        return np.mean(self.table(), axis=1)

    def _sandwich(self, undo):
        """psi -> U^dag M U|psi> per row, the stacks built once: U is the local
        unitaries, then K and L when routing, M the test of f(x, y) (routing:
        the Bell effect, in one chain), U^dag the daggers of K and L, then ``undo``."""
        route, finale = self.kind == "route", [self._finale(j) for j in (0, 1)]
        labels = self._tiled(self.values)
        fwd = [(self._pair_locals(side), LOCAL_REGS[side]) for side in (0, 1)]
        if route:
            fwd += [*zip(finale, FINAL_REGS), (BELL_EFFECTS[labels], BELL_REGS),
                    *[(dagger(finale[j]), FINAL_REGS[j]) for j in (1, 0)], *undo]

        def apply(psi):
            w = qc.apply_steps(np.repeat(psi, len(self.pairs), axis=0), self.layout, fwd)
            return w if route else qc.apply_steps(
                meas_branches(w, self.layout, labels, *finale).sum(axis=0), self.layout, undo)
        return apply

    def _per_value(self, per_pair, side):
        """Sum of a (restarts, pairs, ...) array over the other side's
        inputs, by restart and this side's input."""
        per_pair = per_pair.reshape(len(self.phi), self.side, self.side, *per_pair.shape[2:])
        return per_pair.sum(axis=2 - side)

    # -- sweep updates ------------------------------------------------------

    def update_recovery(self):
        self.succ = None
        vecs = self.after_locals()
        values = self._tiled(self.values)
        finale = [self._finale(j) for j in (0, 1)]   # views: writes land in self.finale
        for side in (0, 1):
            # rows returning to this side optimize its recovery unitary
            idx = np.flatnonzero(values == side)
            if not idx.size:
                continue
            regs = FINAL_REGS[side]
            vec = self._apply(vecs[idx], finale[1 - side][idx], FINAL_REGS[1 - side])
            moved = self._apply(vec, finale[side][idx], regs)
            score = bell_overlap(moved, self.layout, side)
            active = np.ones(idx.size, dtype=bool)
            for _ in range(RECOVERY_STEPS):
                # polar factor of the Bell-overlap gradient, and vec under it
                grad = qc.reduced_outer(bell_effect(moved, self.layout, side), vec,
                                        self.layout, regs)
                cand = polar_unitary(grad)
                cand_moved = self._apply(vec, cand, regs)
                cand_score = bell_overlap(cand_moved, self.layout, side)
                active &= cand_score > score + 1e-15
                if not active.any():
                    break
                finale[side][idx[active]] = cand[active]
                moved[active], score[active] = cand_moved[active], cand_score[active]

    def update_effects(self):
        self.succ = None
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
        other, psi = 1 - side, self.psi()
        back = self._sandwich([(dagger(self._pair_locals(other)), LOCAL_REGS[other])])(psi)
        grads = qc.reduced_outer(back, np.repeat(psi, len(self.pairs), axis=0),
                                 self.layout, LOCAL_REGS[side])
        old_score = self._per_value(self.table(), side)
        old = self.locals[side]
        self.locals[side] = polar_unitary(self._per_value(self._per_restart(grads), side))
        new = self.successes(self.after_locals())
        worse = self._per_value(new, side) < old_score - 1e-15
        self.locals[side][worse] = old[worse]
        self.succ = np.where(worse[:, self.index[side]], self.succ, new)

    def update_psi(self):
        """Rayleigh-Ritz step in phi on H' = <Omega|_RA H |Omega>_RA, per restart.

        Builds the Krylov space of H' at phi from KRYLOV_PRODUCTS products,
        each new vector reorthogonalised against all earlier ones twice,
        stopping early once no restart has a new direction left.  The top
        Ritz vector comes from Q^dag (H' Q) and the stored images, with no
        further product.  phi lies in the space, so the Ritz value is never
        below its objective; a restart takes the Ritz vector only if its
        objective rises.
        """
        if self.unentangled:
            return
        # H's products; Bob's local unitary was applied last, so it is undone first
        effect = self._sandwich([(dagger(self._pair_locals(side)), LOCAL_REGS[side])
                                 for side in (1, 0)])
        old = self.table()
        count, rest = self.phi.shape
        basis = np.zeros((count, KRYLOV_PRODUCTS, rest), dtype=complex)
        images = np.zeros_like(basis)
        size = np.zeros(count, dtype=int)        # basis vectors per restart
        live = np.ones(count, dtype=bool)
        q = self.phi / np.linalg.norm(self.phi, axis=1, keepdims=True)
        for k in range(KRYLOV_PRODUCTS):
            basis[:, k] = q
            image = self._per_restart(effect(self.psi(q))).sum(axis=1) / len(self.pairs)
            images[:, k] = bell_contract(self.layout, image)
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
        # a restart's unused (zero) columns get Ritz value -1, below any of H' >= 0
        rows, cols = np.nonzero(np.arange(used) >= size[:, None])
        proj[rows, cols, cols] = -1.0
        top = np.linalg.eigh(proj)[1][:, :, -1]
        v = np.einsum("rk,rkd->rd", top, basis)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        new = self.successes(self.after_locals(v))
        accept = np.mean(new, axis=1) > np.mean(old, axis=1) + 1e-15
        self.phi[accept] = v[accept]
        self.succ = np.where(accept[:, None], new, old)

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
        """Restart ``r`` of the batch as a strategy, its psi the vector it was scored on."""
        psi = self.psi(self.phi[r])
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


def seesaw_optimize(f, split: tuple[int, int, int], kind: str = "route",
                    restarts: int = 20, iters: int = 60, seed: int = 0,
                    unentangled: bool = False) -> SeesawOutcome:
    """Best strategy found over random restarts of monotone see-saw sweeps.

    ``split`` is the width (A, At, Ac) of each attacker's registers (see
    ``default_split``); A, which receives the verifier's qubit, is one qubit.
    ``unentangled`` pins the phi of |Omega>_RA x |phi> to |0...0> and
    restricts the search to unitaries and measurements.
    """
    if kind not in ("route", "meas"):
        raise ValueError(f"kind must be 'route' or 'meas', not {kind!r}")
    if restarts < 1 or iters < 1:
        raise ValueError(f"restarts and iters must be at least 1, not {restarts}, {iters}")
    a, at, ac = split
    if a != 1:
        raise ValueError(f"the see-saw needs a 1-qubit A register, split has {a}")
    layout = attack_layout(at, ac)
    values = [0.0] * restarts
    best, best_at = None, (-1.0, 0)
    per_chunk = max(1, CHUNK_CELLS // ((1 << 2 * f.n) * layout.dim))
    for start in range(0, restarts, per_chunk):
        work = _Work(kind, f, layout, seed, range(start, min(start + per_chunk, restarts)),
                     unentangled)
        for r, value, single in _sweep_until_stopped(work, iters):
            values[r] = value
            # the first restart to reach the best value wins, as in a scan
            if value > best_at[0] or (value == best_at[0] and r < best_at[1]):
                best, best_at = single, (value, r)
    strategy = best.freeze()
    report = epsilon_l_report(strategy, f)
    return SeesawOutcome(strategy=strategy, report=report,
                         best_value=best_at[0], restart_values=tuple(values))


def measure_broadcast_value(f, per_x: bool = False) -> float:
    """Best average success on the measuring protocol when Alice measures the
    stored qubit at an angle alpha in the X-Z great circle and both report
    the outcome; the verifier measures in Z for f = 0 and X for f = 1.  With
    p the share of y where f(x, y) = 1, the success averaged over y is
    (1 - p) cos^2(alpha) + p cos^2(alpha - pi/4)
    = 1/2 + ((1 - p) cos(2 alpha) + p sin(2 alpha))/2, at most
    (1 + sqrt((1 - p)^2 + p^2))/2.  ``per_x`` (an angle per x) averages that
    over x; one angle takes it at the mean p, the success being linear in p."""
    p = np.mean(f.communication_matrix(), axis=1)
    p = p if per_x else np.mean(p)
    return float(np.mean((1 + np.sqrt((1 - p) ** 2 + p ** 2)) / 2))
