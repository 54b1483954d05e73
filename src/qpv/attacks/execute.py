"""Exact executors for attack strategies, plus built-in baseline attacks.

The pair kernels act on a ``(b, 2^n)`` batch of raw state vectors, one row
per input pair, with ``(b, d, d)`` stacks of the per-pair matrices.  The
executor and the see-saw optimizer both score strategies through them, one
stacked apply per step.
"""

from __future__ import annotations

import numpy as np

from .. import qcore as qc
from .strategy import (
    ALICE_FINAL,
    ALICE_LOCAL,
    BOB_FINAL,
    BOB_LOCAL,
    FINALE,
    AttackReport,
    AttackStrategy,
    attack_layout,
    bell_core,
    returned_register,
)

ENUMERATION_LIMIT_N = 4

BELL_PROJECTOR = np.outer(qc.BELL_VECTOR, qc.BELL_VECTOR.conj())
# the Bell test by f(x, y) on (R, A, B): the projector on R and the returned qubit
BELL_REGS = ("R", "A", "B")
BELL_EFFECTS = np.stack([qc.compose_on_qubits(3, [(BELL_PROJECTOR, [0, q])]) for q in (1, 2)])
BELL_EFFECTS.flags.writeable = False
BASIS_PROJECTORS = np.array([qc.basis_projectors(b) for b in (0, 1)])  # [basis, outcome]


def both_outcomes(effects: np.ndarray) -> np.ndarray:
    """The z = 0 effects of a (b, d, d) stack followed by their complements."""
    return np.concatenate([effects, np.eye(effects.shape[-1]) - effects])


def _inner(vecs, ws) -> np.ndarray:
    """Re <v|w> per row."""
    return np.einsum("bi,bi->b", vecs.conj(), ws).real


def after_locals(vecs, layout, alice, bob):
    """Alice's, then Bob's local unitary."""
    return qc.apply_steps(vecs, layout, [(alice, ALICE_LOCAL), (bob, BOB_LOCAL)])


def route_finale(vecs, layout, k, l):
    """Recovery K on Alice's finale registers, then L on Bob's."""
    return qc.apply_steps(vecs, layout, [(k, ALICE_FINAL), (l, BOB_FINAL)])


def bell_effect(vecs, layout, values) -> np.ndarray:
    """M|v> per row, M the Bell test of f(x, y) = ``values`` (one per row, or
    one for all rows)."""
    return qc.apply_vector_matrix(vecs, layout, BELL_EFFECTS[values], BELL_REGS)


def bell_overlap(vecs, layout, values) -> np.ndarray:
    """Bell-test pass probability <v|M|v> = <Omega|rho_{R,ret}|Omega> per row."""
    return _inner(vecs, bell_effect(vecs, layout, values))


def verifier_branches(vecs, layout, values, then=()) -> np.ndarray:
    """P_z|v> for z = 0, 1, R projected onto outcome z of basis ``values[i]``,
    then the steps ``then``: a (2b, 2^n) batch, branch z on rows z*b to z*b + b - 1."""
    proj = BASIS_PROJECTORS[np.asarray(values)].swapaxes(0, 1).reshape(-1, 2, 2)
    return qc.apply_steps(np.concatenate([vecs, vecs]), layout, [(proj, ("R",)), *then])


def meas_branches(vecs, layout, values, pi, sigma) -> np.ndarray:
    """P_z E^A_z E^B_z |v> for z = 0, 1 as a (2, b, 2^n) array: the verifier
    reads z in basis f(x, y) = ``values[i]`` and both attackers report z
    (effect stacks pi, sigma for z = 0).  The sum over z is G|v>, the
    measuring effect, and a pair's success is <v|G|v>."""
    w = verifier_branches(vecs, layout, values, [(both_outcomes(pi), ALICE_FINAL),
                                                 (both_outcomes(sigma), BOB_FINAL)])
    return w.reshape(2, -1, layout.dim)


def pair_success(vecs, layout, kind, values, finale) -> np.ndarray:
    """Success of a two-phase strategy per input pair, from the batch after
    the local unitaries.  ``values`` are the f(x, y); ``finale`` is the
    stacks (K, L) for routing and the effects (pi, sigma) for measuring."""
    if kind == "route":
        return bell_overlap(route_finale(vecs, layout, *finale), layout, values)
    return _inner(vecs, meas_branches(vecs, layout, values, *finale).sum(axis=0))


def _check(strategy: AttackStrategy, f, kind: str) -> None:
    """Kind and size checks; f.value rejects inputs outside n bits."""
    if strategy.kind != kind:
        raise ValueError(f"not a {kind} strategy")
    if f.n != strategy.n:
        raise ValueError(f"strategy built for n={strategy.n}, function has n={f.n}")


def _pair_batch(strategy: AttackStrategy, f, pairs):
    """The f(x, y) of the listed input pairs, their finale stacks, and the
    batch after the local unitaries."""
    values = [f.value(x, y) for x, y in pairs]
    alice = np.stack([strategy.matrix("alice", x) for x, _ in pairs])
    bob = np.stack([strategy.matrix("bob", y) for _, y in pairs])
    finale = [np.stack([strategy.matrix(name, p) for p in pairs])
              for name in FINALE[strategy.kind]]
    return values, finale, after_locals(strategy.psi, strategy.layout, alice, bob)


def _pair_scores(strategy: AttackStrategy, f, pairs) -> np.ndarray:
    """Success on each listed input pair, in one batch; a routed qubit
    absent at the responsible verifier scores zero."""
    values, finale, vecs = _pair_batch(strategy, f, pairs)
    score = pair_success(vecs, strategy.layout, strategy.kind, values, finale)
    held = [strategy.holds_qubit(x, y, returned_register(v)) for (x, y), v in zip(pairs, values)]
    return np.where(held, score, 0.0)


def execute_route_reduced(strategy: AttackStrategy, f, x: int, y: int):
    """Reduced 4 x 4 density matrix on (R, returned register), R the low
    qubit, or None if the routed qubit is absent at the responsible verifier;
    the batch of one that _pair_scores scores."""
    _check(strategy, f, "route")
    ret = returned_register(f.value(x, y))
    if not strategy.holds_qubit(x, y, ret):
        return None
    _, finale, vecs = _pair_batch(strategy, f, [(x, y)])
    v = route_finale(vecs, strategy.layout, *finale)
    return qc.reduced_outer(v, v, strategy.layout, ("R", ret))[0]


def execute_route(strategy: AttackStrategy, f, x: int, y: int) -> float:
    """Probability that the Bell test on (R, returned qubit) accepts."""
    _check(strategy, f, "route")
    return float(_pair_scores(strategy, f, [(x, y)])[0])


def execute_meas(strategy: AttackStrategy, f, x: int, y: int) -> float:
    """Probability that both reported bits equal the verifier's measurement
    of R in the basis selected by f(x, y)."""
    _check(strategy, f, "meas")
    return float(_pair_scores(strategy, f, [(x, y)])[0])


def epsilon_l_report(strategy: AttackStrategy, f) -> AttackReport:
    """Exhaustive per-pair success over all 4^n input pairs (n <= 4), one
    batch per x, so a batch holds at most 16 vectors."""
    if f.n > ENUMERATION_LIMIT_N:
        raise ValueError(f"exhaustive enumeration capped at n={ENUMERATION_LIMIT_N}")
    _check(strategy, f, strategy.kind)
    side = 1 << f.n
    pairs = list(f.pairs())
    scores = np.concatenate([_pair_scores(strategy, f, pairs[x * side:(x + 1) * side])
                             for x in range(side)])
    return AttackReport(n=f.n, per_pair={p: float(s) for p, s in zip(pairs, scores)},
                        average=float(np.mean(scores)))


# ---------------------------------------------------------------------------
# built-in attacks
# ---------------------------------------------------------------------------

def keep_q_attack(f) -> AttackStrategy:
    """Alice stores the incoming qubit and everyone does nothing.

    Succeeds perfectly whenever the function routes to V0 and sends nothing
    to V1 otherwise (success zero there, the verifier sees no qubit).
    """
    layout = attack_layout()
    site = {(x, y): "A" for x, y in f.pairs()}
    return AttackStrategy(kind="route", n=f.n, layout=layout, psi=bell_core(layout),
                          qubit_site=site)

