"""Prover behaviours: the honest device at z plus tampered variants."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Prover:
    """A (possibly misbehaving) single device at the claimed position.

    The default instance is the honest prover.  Route-protocol knobs:
    ``tamper_unitary`` rotates Q before forwarding, ``premeasure_basis``
    measures Q (0 computational / 1 Hadamard) and forwards the post-state,
    ``replace_with`` discards Q and sends the given BB84 state instead, and
    ``route_to`` overrides the destination ("correct", "swapped", 0, 1).
    Measuring-protocol behaviour is picked by ``meas_mode``: "measure",
    "wrong_basis", or "random_bit".  The device answers from
    ``actual_position`` (the claimed position when None), ``delay`` after
    both challenges reach it; ``geometry.on_time`` decides if that is on time.
    """

    tamper_unitary: np.ndarray | None = None
    premeasure_basis: int | None = None
    replace_with: int | None = None
    route_to: object = "correct"
    meas_mode: str = "measure"
    delay: float = 0.0
    actual_position: float | None = None

    def __post_init__(self):
        if self.route_to not in ("correct", "swapped", 0, 1):
            raise ValueError("route_to must be 'correct', 'swapped', 0 or 1, "
                             f"not {self.route_to!r}")
        if self.replace_with not in (None, 0, 1, 2, 3):
            raise ValueError(f"replace_with must be 0, 1, 2 or 3, not {self.replace_with!r}")
        if self.premeasure_basis not in (None, 0, 1):
            raise ValueError(f"premeasure_basis must be 0 or 1, not {self.premeasure_basis!r}")
        if self.meas_mode not in ("measure", "wrong_basis", "random_bit"):
            raise ValueError("meas_mode must be 'measure', 'wrong_basis' or 'random_bit', "
                             f"not {self.meas_mode!r}")

    def destination(self, f_value: int) -> int:
        if self.route_to == "correct":
            return f_value
        if self.route_to == "swapped":
            return 1 - f_value
        return int(self.route_to)


HONEST = Prover()


@dataclass(frozen=True)
class SyntheticAdversary:
    """Abstract attacker succeeding each round independently with probability p.

    Used for repetition analysis where only the per-round success cap
    matters; it relays classically, so its responses pass the timing check.
    """

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("success probability must be in [0,1]")
