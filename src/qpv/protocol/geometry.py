"""One-dimensional spacetime model: verifier/prover positions and timing."""

from __future__ import annotations

TIMING_TOL = 1e-12

# challenges are synchronized to reach the claimed position at this time
CHALLENGE_ARRIVAL = 2.0

# the verifiers V0 and V1 sit at 0 and 1 on a line, the claimed position
# between them; signals travel at unit speed, so a travel time is a distance
VERIFIER_POS = (0.0, 1.0)
CLAIMED_POS = 0.5

# the classical copy-and-relay attack: the attacker answering verifier v sits
# at RELAY_POS[v], halfway between v and the claimed position
RELAY_POS = ((VERIFIER_POS[0] + CLAIMED_POS) / 2, (CLAIMED_POS + VERIFIER_POS[1]) / 2)


def on_time(position: float, verifier: int, delay: float = 0.0) -> bool:
    """The light-cone rule: a response sent from ``position``, ``delay``
    after both challenges have reached it, arrives at ``verifier`` when one
    sent from the claimed position as the challenges reach it would.

    Both challenges have reached p at CHALLENGE_ARRIVAL + |p - CLAIMED_POS|,
    so with no delay the rule holds iff p lies between the claimed position
    and the verifier.
    """
    v_pos = VERIFIER_POS[verifier]
    arrival = CHALLENGE_ARRIVAL + abs(position - CLAIMED_POS) + delay + abs(position - v_pos)
    return abs(arrival - (CHALLENGE_ARRIVAL + abs(CLAIMED_POS - v_pos))) <= TIMING_TOL
