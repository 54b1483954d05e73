"""Executable state machines for the routing and measuring protocols."""

from .. import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "geometry": (),
    "provers": ("HONEST", "Prover", "SyntheticAdversary"),
    "repetition": ("NOISE_MODES", "NoisyRepeatConfig", "TrialDraws", "acceptance_table",
                   "constant_round_probability", "draw_trials", "noisy_threshold_trials"),
    "runs": ("PROTOCOLS", "RUNNERS", "ProtocolRun", "accept_probability",
             "m1_accept_probability", "m2_accept_probability", "round_gates", "run_round"),
})
