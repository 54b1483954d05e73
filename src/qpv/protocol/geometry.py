"""One-dimensional spacetime model: verifier/prover positions and timing."""

from __future__ import annotations

from dataclasses import dataclass, field

TIMING_TOL = 1e-12

# challenges are synchronized to reach the prover position at this time,
# leaving room for the verifier-to-verifier prologue at nonnegative times
CHALLENGE_ARRIVAL = 2.0


# the verifiers V0 and V1 sit at 0 and 1 on a line, the claimed position
# between them; signals travel at unit speed, so a travel time is a distance
VERIFIER_POS = (0.0, 1.0)
CLAIMED_POS = 0.5


@dataclass(frozen=True)
class SpacetimeEvent:
    actor: str
    position: float
    time: float
    label: str
    payload: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.time < 0:
            raise ValueError("event times must be nonnegative")


def honest_challenge_events(x: int, y: int) -> list[SpacetimeEvent]:
    v0, v1 = VERIFIER_POS
    t_arrive = CHALLENGE_ARRIVAL
    t_v0 = t_arrive - abs(v0 - CLAIMED_POS)
    t_v1 = t_arrive - abs(v1 - CLAIMED_POS)
    t_relay = t_v1 - abs(v0 - v1)
    return [
        SpacetimeEvent("V0", v0, t_relay, "relay_y_to_v1", {"y": y}),
        SpacetimeEvent("V0", v0, t_v0, "dispatch_challenge", {"x": x, "carries_qubit": True}),
        SpacetimeEvent("V1", v1, t_v1, "dispatch_challenge", {"y": y}),
        SpacetimeEvent("P", CLAIMED_POS, t_arrive, "challenge_arrival", {"x": x, "y": y}),
    ]


def response_events(targets: list[int], *, delay: float = 0.0,
                    actual_position: float | None = None,
                    payload: dict | None = None) -> list[SpacetimeEvent]:
    """Dispatch + arrival events for a response sent to each target verifier.

    A prover not at the claimed position (``actual_position``) times its
    dispatch so that the FIRST target's arrival matches an origin there;
    other targets then see inconsistent times, which is what the timing
    check detects.
    """
    payload = payload or {}
    pos = CLAIMED_POS if actual_position is None else actual_position
    events = []
    t_honest = CHALLENGE_ARRIVAL + delay
    for i, v in enumerate(targets):
        vpos = VERIFIER_POS[v]
        if actual_position is None:
            t_send = t_honest
        elif i == 0:
            # match the honest arrival time at the first target
            t_send = (CHALLENGE_ARRIVAL + abs(CLAIMED_POS - vpos) - abs(pos - vpos)) + delay
        events.append(SpacetimeEvent("P", pos, t_send, "response_dispatch",
                                     {"verifier": v, **payload}))
        events.append(SpacetimeEvent(f"V{v}", vpos, t_send + abs(pos - vpos),
                                     "response_arrival", {"verifier": v, **payload}))
    return events


def two_attacker_relay_events(x: int, y: int, targets: list[int]) -> list[SpacetimeEvent]:
    """Event log of the classical copy-and-relay attack (Alice/Bob between
    the verifiers and the claimed position); arrival times mimic an origin
    there exactly."""
    a_pos = (VERIFIER_POS[0] + CLAIMED_POS) / 2
    b_pos = (CLAIMED_POS + VERIFIER_POS[1]) / 2
    t_a = CHALLENGE_ARRIVAL - abs(a_pos - CLAIMED_POS)
    t_b = CHALLENGE_ARRIVAL - abs(b_pos - CLAIMED_POS)
    events = [
        SpacetimeEvent("Alice", a_pos, t_a, "intercept", {"x": x}),
        SpacetimeEvent("Bob", b_pos, t_b, "intercept", {"y": y}),
        SpacetimeEvent("Alice", a_pos, t_a, "forward_to_peer", {"x": x}),
        SpacetimeEvent("Bob", b_pos, t_b, "forward_to_peer", {"y": y}),
        SpacetimeEvent("P", CLAIMED_POS, CHALLENGE_ARRIVAL, "challenge_arrival",
                       {"x": x, "y": y}),
    ]
    for v in targets:
        vpos = VERIFIER_POS[v]
        attacker, pos = ("Alice", a_pos) if v == 0 else ("Bob", b_pos)
        t_send = CHALLENGE_ARRIVAL + abs(CLAIMED_POS - vpos) - abs(pos - vpos)
        events.append(SpacetimeEvent(attacker, pos, t_send, "response_dispatch",
                                     {"verifier": v}))
        events.append(SpacetimeEvent(f"V{v}", vpos, t_send + abs(pos - vpos),
                                     "response_arrival", {"verifier": v}))
    return events


def timing_check(events: list[SpacetimeEvent]) -> bool:
    """True iff every response arrival is consistent with an origin at the
    claimed position.

    Each arrival time must equal the challenge-arrival time there plus the
    signal travel time from there to that verifier, within 1e-12.
    """
    t_challenge = None
    for ev in events:
        if ev.label == "challenge_arrival":
            t_challenge = ev.time
    if t_challenge is None:
        return False
    arrivals = [ev for ev in events if ev.label == "response_arrival"]
    if not arrivals:
        return False
    for ev in arrivals:
        expected = t_challenge + abs(CLAIMED_POS - ev.position)
        if abs(ev.time - expected) > TIMING_TOL:
            return False
    return True
