"""Executable rounds of the three position-verification protocols.

Each ``run_*`` function plays one round: it builds the spacetime event log,
computes the exact acceptance probability for the given prover, samples the
verdict, and returns a :class:`ProtocolRun`.  The exact probabilities are
exposed separately for tests and exhaustive sweeps.

Attack strategies (objects from :mod:`qpv.attacks`) are referenced by
handle: their timing validity is granted by construction and their
acceptance probability comes from the two-phase strategy executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import qcore as qc
from ..attacks.strategy import AttackStrategy
from .geometry import (
    Geometry,
    SpacetimeEvent,
    honest_challenge_events,
    response_events,
    timing_check,
    two_attacker_relay_events,
)
from .provers import HONEST, Prover, SyntheticAdversary

PROTOCOLS = ("route_entangled", "route_bb84", "meas")


@dataclass(frozen=True)
class ProtocolRun:
    protocol: str
    n: int
    f: object
    x: int
    y: int
    events: list[SpacetimeEvent]
    timing_ok: bool
    arrival_ok: bool
    accept_probability: float
    accepted: bool
    details: dict = field(default_factory=dict)


def m1_accept_probability(rho) -> float:
    """Probability that the two-qubit Bell test {|Omega><Omega|, rest} accepts."""
    rho = rho.density() if isinstance(rho, qc.QuantumState) else np.asarray(rho)
    if rho.shape != (4, 4):
        raise ValueError("M1 is defined on two qubits")
    return qc.expectation(qc.BELL_VECTOR, rho)


def m2_accept_probability(rho) -> float:
    """Acceptance of the basis-sampled local replacement of the Bell test.

    With probability 1/2 each, both qubits are measured in the computational
    or the Hadamard basis and accepted on equal outcomes.
    """
    rho = rho.density() if isinstance(rho, qc.QuantumState) else np.asarray(rho)
    if rho.shape != (4, 4):
        raise ValueError("M2 is defined on two qubits")
    p_omega = qc.expectation(qc.BELL_VECTOR, rho)
    p_1 = qc.expectation(qc.PHI1_VECTOR, rho)
    p_2 = qc.expectation(qc.PHI2_VECTOR, rho)
    return p_omega + 0.5 * (p_1 + p_2)


def _check_inputs(f, x: int, y: int) -> None:
    side = 1 << f.n
    if not (0 <= x < side and 0 <= y < side):
        raise ValueError(f"inputs must be {f.n}-bit strings")


def _depolarize_qubit(state: qc.QuantumState, register: str, p: float) -> qc.QuantumState:
    """Replace the register with I/2 with probability p (Pauli-twirl form)."""
    mixed = state.to_mixed()
    rho = state.density()
    out = (1 - 0.75 * p) * rho
    for pauli in (qc.X, qc.Y, qc.Z):
        out = out + (p / 4) * qc.apply_matrix_raw(mixed, pauli, register)
    return qc.QuantumState(state.layout, "mixed", out)


def _route_channel(state: qc.QuantumState, prover: Prover, q_register: str,
                   depolarize: float = 0.0) -> qc.QuantumState:
    """Apply the prover's (mis)handling of the travelling qubit."""
    if depolarize > 0.0:
        state = _depolarize_qubit(state, q_register, depolarize)
    if prover.replace_with is not None:
        # discard Q and prepare |s>: the channel with Kraus operators |s><0|, |s><1|
        fresh = qc.BB84_VECTORS[prover.replace_with]
        mixed = state.to_mixed()
        rho = sum(qc.apply_matrix_raw(mixed, np.outer(fresh, e), q_register)
                  for e in np.eye(2))
        state = qc.QuantumState(state.layout, "mixed", rho)
    if prover.tamper_unitary is not None:
        state = qc.apply_matrix(state, np.asarray(prover.tamper_unitary, dtype=complex), q_register)
    if prover.premeasure_basis is not None:
        state = qc.dephase_register(state, q_register, prover.premeasure_basis)
    return state


# ---------------------------------------------------------------------------
# exact acceptance probabilities
# ---------------------------------------------------------------------------

def route_entangled_accept_probability(f, x: int, y: int, prover=HONEST,
                                       depolarize: float = 0.0) -> float:
    """Bell-test pass probability, conditional on timing/arrival being valid."""
    _check_inputs(f, x, y)
    if isinstance(prover, AttackStrategy):
        from ..attacks import execute_route
        return execute_route(prover, f, x, y)
    if isinstance(prover, SyntheticAdversary):
        return prover.p
    state = qc.bell_state("R", "Q")
    state = _route_channel(state, prover, "Q", depolarize)
    return m1_accept_probability(state.density())


def route_bb84_accept_probability(f, x: int, y: int, prover=HONEST,
                                  prep: int | None = None,
                                  depolarize: float = 0.0) -> float:
    """Preparation-basis check pass probability (averaged over preparations
    when ``prep`` is None)."""
    _check_inputs(f, x, y)
    if isinstance(prover, AttackStrategy):
        from ..attacks import execute_route_reduced
        rho = execute_route_reduced(prover, f, x, y)
        return 0.0 if rho is None else m2_accept_probability(rho)
    if isinstance(prover, SyntheticAdversary):
        return prover.p
    preps = (prep,) if prep is not None else (0, 1, 2, 3)
    total = 0.0
    for p_idx in preps:
        state = qc.bb84_state(p_idx, "Q")
        state = _route_channel(state, prover, "Q", depolarize)
        vec = qc.BB84_VECTORS[p_idx]
        total += qc.expectation(vec, state.density())
    return total / len(preps)


def meas_accept_probability(f, x: int, y: int, prover=HONEST,
                            depolarize: float = 0.0) -> float:
    """Probability that the broadcast bit matches the verifier's measurement."""
    _check_inputs(f, x, y)
    if isinstance(prover, AttackStrategy):
        from ..attacks import execute_meas
        return execute_meas(prover, f, x, y)
    if isinstance(prover, SyntheticAdversary):
        return prover.p
    theta = f.value(x, y)
    state = qc.bell_state("R", "Q")
    if depolarize > 0.0:
        state = _depolarize_qubit(state, "Q", depolarize)
    rho = state.density()
    verifier = qc.basis_projectors(theta)
    if prover.meas_mode == "measure":
        mine = qc.basis_projectors(theta)
    elif prover.meas_mode == "wrong_basis":
        mine = qc.basis_projectors(1 - theta)
    elif prover.meas_mode == "random_bit":
        mine = (np.eye(2) / 2, np.eye(2) / 2)
    else:
        raise ValueError(f"unknown meas_mode {prover.meas_mode!r}")
    prob = 0.0
    for b in (0, 1):
        effect = qc.kron_le(verifier[b], mine[b])  # R low qubit, Q high qubit
        prob += float(np.trace(effect @ rho).real)
    return prob


def accept_probability(protocol: str, f, x: int, y: int, prover=HONEST, **kw) -> float:
    if protocol == "route_entangled":
        return route_entangled_accept_probability(f, x, y, prover, **kw)
    if protocol == "route_bb84":
        return route_bb84_accept_probability(f, x, y, prover, **kw)
    if protocol == "meas":
        return meas_accept_probability(f, x, y, prover, **kw)
    raise ValueError(f"unknown protocol {protocol!r}")


# ---------------------------------------------------------------------------
# single rounds
# ---------------------------------------------------------------------------

def round_events(protocol: str, f, x: int, y: int, prover=HONEST,
                 geom: Geometry | None = None, require_both: bool = True):
    """Event log of one round and its two gates, ``(events, timing_ok, arrival_ok)``.

    Attack strategies and synthetic adversaries relay classically with
    honest-looking timing, so both gates pass by construction.  A device at
    the claimed position is timed against the geometry; in the routing
    protocols it must also send Q to the verifier that f(x, y) names.  The
    measuring protocol answers both verifiers (``require_both``) or only
    that one.
    """
    geom = geom or Geometry()
    fxy = f.value(x, y)
    if protocol == "meas":
        targets = [0, 1] if require_both else [fxy]
    else:
        targets = [prover.destination(fxy) if isinstance(prover, Prover) else fxy]
    if not isinstance(prover, Prover):
        return two_attacker_relay_events(geom, x, y, targets), True, True
    payload = {"classical_bit": True} if protocol == "meas" else {"carries_qubit": True}
    events = honest_challenge_events(geom, x, y) + response_events(
        geom, targets, delay=prover.delay, actual_position=prover.actual_position,
        payload=payload)
    arrival_ok = protocol == "meas" or targets[0] == fxy
    return events, timing_check(events, geom), arrival_ok


def _finish_run(protocol, f, x, y, prover, geom, prob, rng, require_both=True,
                **details) -> ProtocolRun:
    events, timing_ok, arrival_ok = round_events(protocol, f, x, y, prover, geom,
                                                 require_both)
    details["f"] = fxy = f.value(x, y)
    if not isinstance(prover, Prover):
        details["attack"] = True
    elif protocol != "meas":
        details["destination"] = prover.destination(fxy)
    prob = min(max(prob, 0.0), 1.0)
    accepted = bool(timing_ok and arrival_ok and (rng.random() < prob or prob >= 1.0))
    return ProtocolRun(protocol=protocol, n=f.n, f=f, x=x, y=y, events=events,
                       timing_ok=timing_ok, arrival_ok=arrival_ok,
                       accept_probability=prob, accepted=accepted, details=details)


def run_route_entangled(f, x: int, y: int, prover=HONEST, seed=0,
                        geom: Geometry | None = None, depolarize: float = 0.0) -> ProtocolRun:
    _check_inputs(f, x, y)
    prob = route_entangled_accept_probability(f, x, y, prover, depolarize)
    return _finish_run("route_entangled", f, x, y, prover, geom, prob,
                       qc.as_generator(seed))


def run_route_bb84(f, x: int, y: int, prover=HONEST, seed=0,
                   geom: Geometry | None = None, depolarize: float = 0.0) -> ProtocolRun:
    _check_inputs(f, x, y)
    rng = qc.as_generator(seed)
    prep = int(rng.integers(0, 4))
    prob = route_bb84_accept_probability(f, x, y, prover, prep=prep, depolarize=depolarize)
    return _finish_run("route_bb84", f, x, y, prover, geom, prob, rng, prep=prep)


def run_meas(f, x: int, y: int, prover=HONEST, seed=0,
             geom: Geometry | None = None, require_both: bool = True,
             depolarize: float = 0.0) -> ProtocolRun:
    _check_inputs(f, x, y)
    prob = meas_accept_probability(f, x, y, prover, depolarize)
    return _finish_run("meas", f, x, y, prover, geom, prob, qc.as_generator(seed),
                       require_both)


RUNNERS = {
    "route_entangled": run_route_entangled,
    "route_bb84": run_route_bb84,
    "meas": run_meas,
}
