"""Sequential repetition and the noisy-threshold acceptance rule.

Every repeated-round path draws from one engine, :func:`draw_trials`.  A
round's verdict depends only on the protocol, f, the prover, the noise and
the input pair, so the engine computes the exact per-pair acceptance table
once and draws each round as a Bernoulli with its pair's entry.  For
``route_bb84`` the verifier's random preparation is averaged into the entry,
which leaves the distribution of the verdicts unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import qcore as qc
from .provers import HONEST, Prover
from .runs import accept_probability, round_gates

THRESHOLD_FACTOR = 0.996
ETA_MAX = 1e-2
NOISE_MODES = ("bernoulli", "depolarizing")
# rounds are mapped from raw words in blocks of about this many, so memory
# stays bounded whatever the number of trials
DRAW_BLOCK_CELLS = 1 << 14


@dataclass(frozen=True)
class NoisyRepeatConfig:
    rounds: int
    eta: float

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("need at least one round")
        if not 0.0 <= self.eta <= ETA_MAX:
            raise ValueError(f"noise level must be in [0, {ETA_MAX}]")

    @property
    def threshold(self) -> float:
        """A repeated run accepts iff strictly more rounds than this accept;
        a tie at the threshold rejects."""
        return THRESHOLD_FACTOR * (1.0 - self.eta) * self.rounds


@dataclass(frozen=True)
class TrialDraws:
    """Accepted rounds per trial, the per-pair acceptance table they were
    drawn from and, unless drawn with ``keep_rounds=False``, the inputs and
    verdicts of every round of every trial as ``(trials, rounds)`` arrays."""

    table: np.ndarray
    accept_counts: np.ndarray
    xs: np.ndarray | None = None
    ys: np.ndarray | None = None
    accepted: np.ndarray | None = None

    @property
    def per_round_probability(self) -> float | None:
        """The common table entry, or None when acceptance depends on the inputs."""
        return _constant_entry(self.table)


def _constant_entry(table: np.ndarray) -> float | None:
    if table.max() - table.min() > 1e-12:
        return None
    return float(table[0, 0])


def acceptance_table(protocol: str, f, prover=HONEST, eta: float = 0.0,
                     noise_mode: str = "bernoulli") -> np.ndarray:
    """Exact per-round acceptance probability of every input pair, indexed [x, y].

    An entry is the pass probability, zeroed when the round fails its timing
    or arrival gate.  Honest-device noise applies to :class:`Prover`
    instances only: ``bernoulli`` scales the entry by (1 - eta), and
    ``depolarizing`` depolarizes the travelling qubit, calibrated so that the
    honest per-round failure is exactly eta (the Bell test detects 3 of the 4
    twirl branches, the single-basis checks 2 of 4).  Attack strategies and
    synthetic adversaries take no device noise.
    """
    if noise_mode not in NOISE_MODES:
        raise ValueError(f"unknown noise mode {noise_mode!r}")
    scale, depolarize = 1.0, 0.0
    if isinstance(prover, Prover):
        if noise_mode == "bernoulli":
            scale = 1.0 - eta
        else:
            depolarize = 4 * eta / 3 if protocol == "route_entangled" else 2 * eta
    side = 1 << f.n
    table = np.zeros((side, side))
    for x in range(side):
        for y in range(side):
            if all(round_gates(protocol, f, x, y, prover)):
                table[x, y] = accept_probability(protocol, f, x, y, prover,
                                                 depolarize=depolarize) * scale
    return table


def draw_trials(config: NoisyRepeatConfig, protocol: str, f, prover=HONEST, seed=0,
                trials: int = 1, noise_mode: str = "bernoulli",
                keep_rounds: bool = True) -> TrialDraws:
    """Draw ``trials`` independent runs of ``config.rounds`` rounds each.

    Trial t draws its inputs from ``stream(seed, "inputs", t)``, all x and
    then all y, uniformly.  Round i of trial t accepts when draw i of
    ``stream(seed, "round", t)`` is below the table entry of its input pair.
    With ``keep_rounds=False`` only the accept counts are kept, so memory does
    not grow with the rounds; the draws are the same.

    Each draw is a fixed map of its stream's raw 64-bit words, so a trial
    only copies ``rounds`` words of each stream and the maps run on blocks
    of trials.  ``integers(2**n)`` takes one 32-bit draw per value, the low
    then the high half of each word, and maps it by Lemire's multiply-shift,
    which never rejects for a power-of-two range: a value is its draw's top
    n bits.  ``random()`` is a word's top 53 bits times 2^-53.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    table = acceptance_table(protocol, f, prover, config.eta, noise_mode)
    n, rounds, flat = f.n, config.rounds, table.ravel()
    counts = np.empty(trials, dtype=np.int64)
    if keep_rounds:
        xs, ys = np.empty((2, trials, rounds), dtype=np.int64)
        accepted = np.empty((trials, rounds), dtype=bool)
    step = max(1, DRAW_BLOCK_CELLS // rounds)
    words = np.empty((2, step, rounds), dtype="<u8")
    streams = zip(qc.trial_streams(seed, "inputs", trials),
                  qc.trial_streams(seed, "round", trials))
    for start in range(0, trials, step):
        block = slice(start, min(start + step, trials))
        size = block.stop - start
        for i, (inputs, verdicts) in zip(range(size), streams):
            words[0, i] = inputs.bit_generator.random_raw(rounds)
            words[1, i] = verdicts.bit_generator.random_raw(rounds)
        draws = _top_bits(words[0, :size], n).astype(np.intp)
        x, y = draws[:, :rounds], draws[:, rounds:]
        acc = _unit_doubles(words[1, :size]) < flat.take((x << n) | y)
        counts[block] = np.count_nonzero(acc, axis=1)
        if keep_rounds:
            xs[block], ys[block], accepted[block] = x, y, acc
    if not keep_rounds:
        return TrialDraws(table, counts)
    return TrialDraws(table, counts, xs, ys, accepted)


def _top_bits(words: np.ndarray, n: int) -> np.ndarray:
    """``Generator.integers(2**n)`` of little-endian raw words along their
    last axis: the top n bits of each 32-bit half, the low half first."""
    return words.view("<u4") >> (32 - n)


def _unit_doubles(words: np.ndarray) -> np.ndarray:
    """``Generator.random()`` of raw words: the top 53 bits times 2^-53."""
    return (words >> 11) * 2.0 ** -53


def constant_round_probability(protocol: str, f, prover, config: NoisyRepeatConfig,
                               noise_mode: str = "bernoulli"):
    """Per-round acceptance probability, noise included, when it does not
    depend on the inputs; None when it does."""
    return _constant_entry(acceptance_table(protocol, f, prover, config.eta, noise_mode))


def noisy_threshold_trials(config: NoisyRepeatConfig, protocol: str, f,
                           prover=HONEST, seed=0, trials: int = 1000,
                           noise_mode: str = "bernoulli") -> dict:
    """Monte Carlo acceptance rate of the noisy-threshold protocol."""
    draws = draw_trials(config, protocol, f, prover, seed, trials, noise_mode,
                        keep_rounds=False)
    counts = draws.accept_counts
    rate = float(np.mean(counts > config.threshold))
    sigma = math.sqrt(max(rate * (1 - rate), 1e-12) / trials)
    return {
        "trials": trials,
        "rounds": config.rounds,
        "eta": config.eta,
        "threshold": config.threshold,
        "acceptance_rate": rate,
        "rate_sigma": sigma,
        "mean_accept_count": float(np.mean(counts)),
        "accept_counts": counts.tolist(),
        "per_round_probability": draws.per_round_probability,
    }
