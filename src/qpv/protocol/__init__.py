"""Executable state machines for the routing and measuring protocols."""

from .geometry import (
    CHALLENGE_ARRIVAL,
    SpacetimeEvent,
    honest_challenge_events,
    response_events,
    timing_check,
)
from .provers import HONEST, Prover, SyntheticAdversary
from .repetition import (
    NOISE_MODES,
    NoisyRepeatConfig,
    TrialDraws,
    acceptance_table,
    constant_round_probability,
    draw_trials,
    noisy_threshold_trials,
)
from .runs import (
    PROTOCOLS,
    RUNNERS,
    ProtocolRun,
    accept_probability,
    m1_accept_probability,
    m2_accept_probability,
    round_events,
    run_round,
)

__all__ = [name for name in dir() if not name.startswith("_")]
