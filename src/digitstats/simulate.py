"""Reproducible Monte Carlo digit experiments.

Digits are drawn i.i.d.-uniform from a counter-based 64-bit generator
(SplitMix64) with rejection sampling, so results are bit-identical across
machines, runs, and degrees of parallelism. Each trial derives its own
seed from the master seed and the trial index, making trials independent
and order-insensitive; aggregation is a pure function of the per-trial
results in index order.

The almost-sure behaviour being probed: a uniformly random base-s digit
stream has all digit frequencies 1/s, hence digit mean (s-1)/2, so trial
means at large depth should concentrate tightly around that center.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import repeat

from .errors import DomainError
from .rationals import DECIMAL_SIGNIFICANT_DIGITS, coerce_rational, decimal_str, ratio_str
from .stats import PartialStats

__all__ = [
    "RNG_ID",
    "MASK64",
    "mix64",
    "trial_seed",
    "uniform_digits",
    "uniform_digit_trial",
    "ExperimentConfig",
    "ExperimentSummary",
    "normality_experiment",
    "summary_to_json",
]

# Algorithm identifier recorded in every summary. The generator is
# SplitMix64: state_i = seed + i*GOLDEN_GAMMA (mod 2^64), output mix64(state_i);
# digits are taken by rejection below the largest multiple of the base.
RNG_ID = "splitmix64-rejection-v1"

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_MULT_1 = 0xBF58476D1CE4E5B9
_MIX_MULT_2 = 0x94D049BB133111EB


def mix64(value: int) -> int:
    """SplitMix64 finalizer: an invertible 64-bit bit mixer."""
    z = value & MASK64
    z = ((z ^ (z >> 30)) * _MIX_MULT_1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_MULT_2) & MASK64
    return z ^ (z >> 31)


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Per-trial seed: mix64(master_seed + (trial_index+1)*GOLDEN_GAMMA mod 2^64).

    A pure function of (master_seed, trial_index), so trials can run in
    any order or in parallel and still use identical digit streams.
    """
    if trial_index < 0:
        raise DomainError(f"trial_index must be >= 0, got {trial_index}")
    return mix64((master_seed + (trial_index + 1) * GOLDEN_GAMMA) & MASK64)


def uniform_digits(base: int, count: int, seed: int) -> list[int]:
    """`count` i.i.d.-uniform digits in [0, base) from the seeded generator.

    Each 64-bit draw is accepted only below the largest multiple of
    `base`, so every digit is exactly equally likely (no modulo bias).
    """
    if base < 2:
        raise DomainError(f"base must be >= 2, got {base}")
    if count < 0:
        raise DomainError(f"count must be >= 0, got {count}")
    limit = (1 << 64) - ((1 << 64) % base)
    digits: list[int] = []
    state = seed & MASK64
    while len(digits) < count:
        state = (state + GOLDEN_GAMMA) & MASK64
        z = ((state ^ (state >> 30)) * _MIX_MULT_1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX_MULT_2) & MASK64
        z ^= z >> 31
        if z < limit:
            digits.append(z % base)
    return digits


def uniform_digit_trial(base: int, depth: int, seed: int) -> PartialStats:
    """Depth-`depth` statistics of one seeded uniform digit stream."""
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    counts = [0] * base
    for digit in uniform_digits(base, depth, seed):
        counts[digit] += 1
    return PartialStats(base, depth, tuple(counts))


@dataclass(frozen=True)
class ExperimentConfig:
    base: int
    depth: int
    trials: int
    master_seed: int

    def __post_init__(self) -> None:
        if self.base < 2:
            raise DomainError(f"base must be >= 2, got {self.base}")
        if self.depth < 1 or self.trials < 1:
            raise DomainError(f"need depth >= 1 and trials >= 1, got {self.depth}, {self.trials}")
        object.__setattr__(self, "master_seed", self.master_seed & MASK64)


@dataclass(frozen=True)
class ExperimentSummary:
    """Per-trial digit means and their aggregate statistics.

    `fraction_in_band` is the share of trials whose mean lies within
    `band` of the center (base-1)/2. `variance` is the unbiased sample
    variance (0 for a single trial); all fields except the derived
    float `stddev` are exact.
    """

    config: ExperimentConfig
    band: Fraction
    r_values: tuple[Fraction, ...]
    mean: Fraction
    variance: Fraction
    fraction_in_band: Fraction

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def stddev_decimal(self, digits: int = DECIMAL_SIGNIFICANT_DIGITS) -> str:
        with localcontext() as ctx:
            ctx.prec = digits
            value = Decimal(self.variance.numerator) / Decimal(self.variance.denominator)
            return str(value.sqrt())


def _trial_mean(base: int, depth: int, seed: int) -> Fraction:
    return uniform_digit_trial(base, depth, seed).mean


def normality_experiment(cfg: ExperimentConfig, band, workers: int = 1) -> ExperimentSummary:
    """Run cfg.trials seeded trials and summarize their digit means.

    The summary is a pure function of (cfg, band): per-trial seeds depend
    only on (master_seed, index), and aggregation reads results in index
    order, so any `workers` count produces the identical summary. At most
    one worker process runs per trial and per CPU.
    """
    band = coerce_rational(band)
    if band < 0:
        raise DomainError(f"band must be >= 0, got {band}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    workers = min(workers, cfg.trials, os.cpu_count() or 1)
    seeds = [trial_seed(cfg.master_seed, i) for i in range(cfg.trials)]
    if workers == 1:
        r_values = [_trial_mean(cfg.base, cfg.depth, seed) for seed in seeds]
    else:
        chunk = max(1, cfg.trials // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            r_values = list(
                pool.map(_trial_mean, repeat(cfg.base), repeat(cfg.depth), seeds, chunksize=chunk)
            )
    mean = sum(r_values, Fraction(0)) / cfg.trials
    if cfg.trials > 1:
        variance = sum(((r - mean) ** 2 for r in r_values), Fraction(0)) / (cfg.trials - 1)
    else:
        variance = Fraction(0)
    center = Fraction(cfg.base - 1, 2)
    hits = sum(1 for r in r_values if abs(r - center) <= band)
    return ExperimentSummary(
        config=cfg,
        band=band,
        r_values=tuple(r_values),
        mean=mean,
        variance=variance,
        fraction_in_band=Fraction(hits, cfg.trials),
    )


def summary_to_json(summary: ExperimentSummary) -> str:
    """Deterministic JSON rendering of an experiment summary."""
    payload = {
        "config": {
            "base": summary.config.base,
            "depth": summary.config.depth,
            "trials": summary.config.trials,
            "master_seed": summary.config.master_seed,
        },
        "rng_id": RNG_ID,
        "band": ratio_str(summary.band),
        "per_trial": [decimal_str(r) for r in summary.r_values],
        "mean": ratio_str(summary.mean),
        "mean_decimal": decimal_str(summary.mean),
        "stddev": summary.stddev_decimal(),
        "fraction_in_band": ratio_str(summary.fraction_in_band),
        "fraction_in_band_decimal": decimal_str(summary.fraction_in_band),
    }
    return json.dumps(payload, indent=2) + "\n"
