"""Exact executors for attack strategies, plus built-in baseline attacks.

The per-pair kernels act on raw state vectors.  The executor, the see-saw
optimizer and the recovery-set oracle all score strategies through them, so
every path evaluates one input pair with the same arithmetic.
"""

from __future__ import annotations

import numpy as np

from .. import qcore as qc
from ..protocol.geometry import Geometry, timing_check, two_attacker_relay_events
from .strategy import (
    ALICE_FINAL,
    ALICE_LOCAL,
    BOB_FINAL,
    BOB_LOCAL,
    AttackReport,
    AttackStrategy,
    attack_layout,
)

ENUMERATION_LIMIT_N = 4

BELL_PROJECTOR = np.outer(qc.BELL_VECTOR, qc.BELL_VECTOR.conj())


def returned_register(value: int) -> str:
    """Register whose qubit the verifier named by f(x, y) = value receives."""
    return "A" if value == 0 else "B"


def after_locals(vec, layout, alice, bob):
    """Alice's, then Bob's local unitary."""
    vec = qc.apply_vector_matrix(vec, layout, alice, ALICE_LOCAL)
    return qc.apply_vector_matrix(vec, layout, bob, BOB_LOCAL)


def route_finale(vec, layout, k, l):
    """Recovery K on Alice's finale registers, then L on Bob's."""
    vec = qc.apply_vector_matrix(vec, layout, k, ALICE_FINAL)
    return qc.apply_vector_matrix(vec, layout, l, BOB_FINAL)


def bell_overlap(vec, layout, ret) -> float:
    """Bell-test pass probability <Omega|rho_{R,ret}|Omega>."""
    return qc.expectation(qc.BELL_VECTOR, qc.reduced_outer(vec, vec, layout, ("R", ret)))


def bell_effect(vec, layout, ret):
    """M|v> with M the Bell projector on (R, ret)."""
    return qc.apply_vector_matrix(vec, layout, BELL_PROJECTOR, ("R", ret))


def meas_branches(vec, layout, theta, pi, sigma):
    """P_z E^A_z E^B_z |v> for z = 0, 1: the verifier reads z in basis theta
    and both attackers report z (effects pi, sigma for z = 0).  Their sum is
    G|v>, the measuring effect, and the pair's success is <v|G|v>."""
    branches = []
    for proj, ea, eb in zip(qc.basis_projectors(theta),
                            (pi, np.eye(pi.shape[0]) - pi),
                            (sigma, np.eye(sigma.shape[0]) - sigma)):
        w = qc.apply_vector_matrix(vec, layout, proj, ("R",))
        w = qc.apply_vector_matrix(w, layout, ea, ALICE_FINAL)
        branches.append(qc.apply_vector_matrix(w, layout, eb, BOB_FINAL))
    return branches


def pair_success(vec, layout, kind, value, alice, bob, finale) -> float:
    """Success of a two-phase strategy on one input pair, from the pre-shared
    vector.  ``value`` is f(x, y); ``finale`` is (K, L) for routing and the
    effects (pi, sigma) for measuring."""
    vec = after_locals(vec, layout, alice, bob)
    if kind == "route":
        return bell_overlap(route_finale(vec, layout, *finale), layout,
                            returned_register(value))
    return sum(float(np.vdot(vec, w).real)
               for w in meas_branches(vec, layout, value, *finale))


def _check_pair(strategy: AttackStrategy, f, x: int, y: int) -> None:
    if f.n != strategy.n:
        raise ValueError(f"strategy built for n={strategy.n}, function has n={f.n}")
    side = 1 << f.n
    if not (0 <= x < side and 0 <= y < side):
        raise ValueError(f"inputs must be {f.n}-bit strings")


def _check_route(strategy: AttackStrategy, f, x: int, y: int) -> str:
    if strategy.kind != "route":
        raise ValueError("not a routing strategy")
    _check_pair(strategy, f, x, y)
    if strategy.layout.width("A") != 1:
        raise ValueError("routing execution needs 1-qubit A and B registers")
    return returned_register(f.value(x, y))


def _psi_components(psi: qc.QuantumState):
    """(w_i, v_i) with psi = sum_i w_i |v_i><v_i|; success is linear in psi."""
    if psi.kind == "pure":
        return [(1.0, np.asarray(psi.data))]
    vals, vecs = np.linalg.eigh(np.asarray(psi.data))
    return [(float(w), np.ascontiguousarray(v)) for w, v in zip(vals, vecs.T) if w != 0.0]


def _strategy_success(strategy: AttackStrategy, f, x: int, y: int) -> float:
    finale = ((strategy.recovery_k(x, y), strategy.recovery_l(x, y))
              if strategy.kind == "route" else strategy.measurement_effects(x, y))
    args = (strategy.layout, strategy.kind, f.value(x, y), strategy.alice_unitary(x),
            strategy.bob_unitary(y), finale)
    return sum(w * pair_success(vec, *args) for w, vec in _psi_components(strategy.psi))


def execute_route_reduced(strategy: AttackStrategy, f, x: int, y: int):
    """Reduced two-qubit state on (R, returned register) or None if the
    routed qubit is absent at the responsible verifier."""
    ret = _check_route(strategy, f, x, y)
    if not strategy.holds_qubit(x, y, ret):
        return None
    layout = strategy.layout
    alice, bob = strategy.alice_unitary(x), strategy.bob_unitary(y)
    k, l = strategy.recovery_k(x, y), strategy.recovery_l(x, y)
    rho = 0.0
    for w, vec in _psi_components(strategy.psi):
        vec = route_finale(after_locals(vec, layout, alice, bob), layout, k, l)
        rho = rho + w * qc.reduced_outer(vec, vec, layout, ("R", ret))
    return qc.mixed_state(layout.restricted("R", ret), rho)


def execute_route(strategy: AttackStrategy, f, x: int, y: int) -> float:
    """Probability that the Bell test on (R, returned qubit) accepts."""
    ret = _check_route(strategy, f, x, y)
    if not strategy.holds_qubit(x, y, ret):
        return 0.0
    return _strategy_success(strategy, f, x, y)


def execute_meas(strategy: AttackStrategy, f, x: int, y: int) -> float:
    """Probability that both reported bits equal the verifier's measurement
    of R in the basis selected by f(x, y)."""
    if strategy.kind != "meas":
        raise ValueError("not a measuring strategy")
    _check_pair(strategy, f, x, y)
    return _strategy_success(strategy, f, x, y)


def execute(strategy: AttackStrategy, f, x: int, y: int) -> float:
    if strategy.kind == "route":
        return execute_route(strategy, f, x, y)
    return execute_meas(strategy, f, x, y)


def epsilon_l_report(strategy: AttackStrategy, f) -> AttackReport:
    """Exhaustive per-pair success over all 4^n input pairs (n <= 4)."""
    if f.n > ENUMERATION_LIMIT_N:
        raise ValueError(f"exhaustive enumeration capped at n={ENUMERATION_LIMIT_N}")
    per_pair = {(x, y): execute(strategy, f, x, y) for x, y in f.pairs()}
    return AttackReport(n=f.n, per_pair=per_pair,
                        average=float(np.mean(list(per_pair.values()))))


# ---------------------------------------------------------------------------
# built-in attacks
# ---------------------------------------------------------------------------

def keep_q_attack(f) -> AttackStrategy:
    """Alice stores the incoming qubit and everyone does nothing.

    Succeeds perfectly whenever the function routes to V0 and sends nothing
    to V1 otherwise (success zero there, the verifier sees no qubit).
    """
    layout = attack_layout(a=1)
    psi = qc.assemble(layout, [(("R", "A"), qc.BELL_VECTOR),
                               (("B",), np.array([1.0, 0.0]))])
    site = {(x, y): "A" for x, y in f.pairs()}
    return AttackStrategy(kind="route", n=f.n, layout=layout, psi=psi,
                          qubit_site=site)


def classical_copy_attack(f, geom: Geometry | None = None):
    """The copy-and-relay attack on the PURELY CLASSICAL protocol variant.

    Both attackers copy the intercepted input, exchange copies, and return
    f(x, y) to their nearest verifier with honest-looking timing.  Returns
    the attack report (success 1 on every pair) and one event log.
    """
    geom = geom or Geometry()
    per_pair = {(x, y): 1.0 for x, y in f.pairs()}
    events = two_attacker_relay_events(geom, 0, 0, [0, 1])
    assert timing_check(events, geom)
    return AttackReport(n=f.n, per_pair=per_pair, average=1.0), events


def swap_in_attack(f) -> AttackStrategy:
    """Alice forwards the qubit through the communication register whenever
    she can already evaluate the function from x alone; used as a perfect
    attack for functions that depend only on x."""
    layout = attack_layout(a=1, ac=1)
    psi = qc.assemble(layout, [(("R", "A"), qc.BELL_VECTOR),
                               (("Ac",), np.array([1.0, 0.0])),
                               (("B",), np.array([1.0, 0.0])),
                               (("Bc",), np.array([1.0, 0.0]))])
    alice = {}
    site = {}
    values = {x: {f.value(x, y) for y in range(1 << f.n)} for x in range(1 << f.n)}
    for x, vals in values.items():
        if vals == {1}:
            alice[x] = qc.SWAP2  # A <-> Ac
    l_final = {}
    for x, y in f.pairs():
        forwarded = x in alice
        site[(x, y)] = "B" if forwarded else "A"
        if forwarded and f.value(x, y) == 1:
            l_final[(x, y)] = qc.SWAP2  # B <-> Ac
    return AttackStrategy(kind="route", n=f.n, layout=layout, psi=psi,
                          alice=alice, l_final=l_final, qubit_site=site)
