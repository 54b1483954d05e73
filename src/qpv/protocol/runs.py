"""Executable rounds of the three position-verification protocols.

:func:`run_round` plays one round: it builds the spacetime event log,
computes the exact acceptance probability for the given prover, samples the
verdict, and returns a :class:`ProtocolRun`.  :func:`accept_probability` is
the exact probability on its own, for the trial engine and exhaustive
sweeps.

Attack strategies (objects from :mod:`qpv.attacks`) are referenced by
handle: their timing validity is granted by construction and their
acceptance probability comes from the two-phase strategy executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

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


def m1_accept_probability(rho: np.ndarray) -> float:
    """Probability that the two-qubit Bell test {|Omega><Omega|, rest} accepts."""
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise ValueError("M1 is defined on two qubits")
    return qc.expectation(qc.BELL_VECTOR, rho)


def m2_accept_probability(rho: np.ndarray) -> float:
    """Acceptance of the basis-sampled local replacement of the Bell test.

    With probability 1/2 each, both qubits are measured in the computational
    or the Hadamard basis and accepted on equal outcomes.
    """
    rho = np.asarray(rho)
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


def _on_q(rho: np.ndarray, kraus) -> np.ndarray:
    """sum_k K_k rho K_k^dagger for Kraus operators K_k on Q, the high qubit
    of rho_RQ."""
    ops = [qc.kron_le(np.eye(2), k) for k in kraus]
    return sum(m @ rho @ m.conj().T for m in ops)


def _prover_pair(prover: Prover, routed: bool, depolarize: float) -> np.ndarray:
    """rho_RQ: the verifier keeps R of |Omega>_RQ and the prover handles Q.

    Depolarizing noise hits Q in every protocol; the routing knobs
    (``replace_with``, ``tamper_unitary``, ``premeasure_basis``) act only
    when Q is routed.
    """
    rho = np.outer(qc.BELL_VECTOR, qc.BELL_VECTOR.conj())
    if depolarize > 0.0:
        # Q replaced with I/2 with probability `depolarize`, in Pauli-twirl form
        rho = sum(((depolarize / 4) * _on_q(rho, [pauli]) for pauli in (qc.X, qc.Y, qc.Z)),
                  (1 - 0.75 * depolarize) * rho)
    if not routed:
        return rho
    if prover.replace_with is not None:
        # discard Q and prepare |s>
        fresh = qc.BB84_VECTORS[prover.replace_with]
        rho = _on_q(rho, [np.outer(fresh, e) for e in np.eye(2)])
    if prover.tamper_unitary is not None:
        rho = _on_q(rho, [np.asarray(prover.tamper_unitary, dtype=complex)])
    if prover.premeasure_basis is not None:
        rho = _on_q(rho, qc.basis_projectors(prover.premeasure_basis))
    return rho


def _meas_agreement(prover: Prover, theta: int, rho: np.ndarray) -> float:
    """Probability that the prover's broadcast bit equals R's outcome in basis theta."""
    verifier = qc.basis_projectors(theta)
    if prover.meas_mode == "measure":
        mine = verifier
    elif prover.meas_mode == "wrong_basis":
        mine = qc.basis_projectors(1 - theta)
    elif prover.meas_mode == "random_bit":
        mine = (np.eye(2) / 2, np.eye(2) / 2)
    else:
        raise ValueError(f"unknown meas_mode {prover.meas_mode!r}")
    # R is the low qubit, Q the high one
    return sum(float(np.trace(qc.kron_le(verifier[b], mine[b]) @ rho).real) for b in (0, 1))


# ---------------------------------------------------------------------------
# exact acceptance probabilities
# ---------------------------------------------------------------------------

def accept_probability(protocol: str, f, x: int, y: int, prover=HONEST, *,
                       depolarize: float = 0.0, prep: int | None = None) -> float:
    """Pass probability of one round, conditional on its timing and arrival gates.

    Every protocol tests the pair rho_RQ left after the prover: the Bell test
    M1 (``route_entangled``), the basis-sampled test M2 (``route_bb84``), or
    agreement with R measured in basis f(x, y) (``meas``).  ``route_bb84``
    with a preparation ``prep`` instead scores <p|N(|p><p|)|p> =
    2 <pp|rho_RQ|pp>, whose average over the four preparations is M2.
    Attack strategies are scored by the two-phase executor and synthetic
    adversaries pass with their fixed probability.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if prep is not None and protocol != "route_bb84":
        raise ValueError("only route_bb84 has a preparation")
    _check_inputs(f, x, y)
    if isinstance(prover, SyntheticAdversary):
        return prover.p
    if isinstance(prover, AttackStrategy):
        from ..attacks import execute_meas, execute_route, execute_route_reduced
        if protocol != "route_bb84":
            execute = execute_route if protocol == "route_entangled" else execute_meas
            return execute(prover, f, x, y)
        rho = execute_route_reduced(prover, f, x, y)
        if rho is None:
            return 0.0
    else:
        rho = _prover_pair(prover, protocol != "meas", depolarize)
    if protocol == "route_entangled":
        return m1_accept_probability(rho)
    if protocol == "meas":
        return _meas_agreement(prover, f.value(x, y), rho)
    if prep is None:
        return m2_accept_probability(rho)
    # the BB84 vectors are real, so outcome p on R of |Omega> leaves Q in |p>
    vec = qc.BB84_VECTORS[prep]
    return 2 * qc.expectation(np.kron(vec, vec), rho)


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


def run_round(protocol: str, f, x: int, y: int, prover=HONEST, seed=0,
              geom: Geometry | None = None, require_both: bool = True,
              depolarize: float = 0.0) -> ProtocolRun:
    """Play one round.  ``route_bb84`` first draws the verifier's preparation
    from the round's generator; the verdict is then one draw against the pass
    probability, and a failed timing or arrival gate rejects."""
    rng = qc.as_generator(seed)
    details = {}
    if protocol == "route_bb84":
        details["prep"] = int(rng.integers(0, 4))
    prob = accept_probability(protocol, f, x, y, prover, depolarize=depolarize,
                              prep=details.get("prep"))
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


# perfbench/tracing.py wraps these entries (ROADMAP item 6)
RUNNERS = {p: partial(run_round, p) for p in PROTOCOLS}
