"""Executable state machines for the routing and measuring protocols."""

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
    round_gates,
    run_round,
)

__all__ = [name for name in dir() if not name.startswith("_")]
