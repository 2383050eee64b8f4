"""Reproducible Monte Carlo digit experiments.

Digits are drawn i.i.d.-uniform from a counter-based 64-bit generator
(SplitMix64, Steele, Lea & Flood, OOPSLA 2014). Each accepted 64-bit draw
gives k base-s digits at once: Lemire's multiply-shift threshold ("Fast
random integer generation in an interval", ACM TOMACS 2019) accepts a
draw w so that floor(w * s**k / 2**64) is exactly uniform on [0, s**k),
and its k base-s digits, leading digit first, are the next k digits of
the stream. Results are bit-identical across machines, runs, and degrees
of parallelism. Each trial derives its own
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
import sys
from decimal import Decimal
from fractions import Fraction
from functools import cache, lru_cache
from itertools import chain, compress, islice, repeat
from typing import Iterator

from .core import _Record, _set
from .errors import DomainError
from .rationals import DECIMAL_SIGNIFICANT_DIGITS, _decimal_context, coerce_index, coerce_rational
from .rationals import decimal_str, ratio_str
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

# Algorithm identifier recorded in every summary; it changes whenever the
# digits of some seed do. The generator is SplitMix64: state_i = seed +
# i*GOLDEN_GAMMA (mod 2^64), output w_i = mix64(state_i). With k =
# _digits_per_draw(base), w_i is accepted iff (w_i * base**k) mod 2^64 >=
# 2^64 mod base**k, and then gives the k leading base-`base` digits of w_i / 2^64.
RNG_ID = "splitmix64-multidigit-v2"

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
    trial_index = coerce_index(trial_index, "trial_index", 0)
    return mix64((master_seed + (trial_index + 1) * GOLDEN_GAMMA) & MASK64)


def _check_size(base, count, name: str, least: int) -> tuple[int, int]:
    """Validated (base, count): 2 <= base <= 2**64 and count >= least, both ints."""
    base, count = coerce_index(base, "base", 2), coerce_index(count, name, least)
    if base > 1 << 64:
        raise DomainError(f"base must be <= 2**64 (a 64-bit draw holds no digit of a larger base), got {base}")
    return base, count


# Draws computed per big-int pass; 1024 measured fastest (2-CPU host, Python 3.11).
LANES = 1024
# Stride over the native 64-bit words of a block's bytes (written in the host's
# byte order) that picks each lane's low word, first lane first: big-endian
# bytes start with the last lane's high word, so the stride runs backwards.
_LOW_WORD_STEP = 2 if sys.byteorder == "little" else -2
# uniform_digit_trial counts digits one byte per lane and keeps one count per
# digit value, so it refuses larger bases.
MAX_COUNTED_BASE = 256


@cache
def _lane_constants() -> tuple[int, int, int]:
    """(ONES, GOLDEN_GAMMA*RAMP, LOW) over LANES 128-bit lanes.

    Lane i (from the least significant end) holds 1, (i+1)*GOLDEN_GAMMA and
    2**64 - 1 respectively. Built on first use, not at import.
    """
    ones = int.from_bytes(b"\x01".ljust(16, b"\x00") * LANES, "little")
    ramp = int.from_bytes(b"".join(i.to_bytes(16, "little") for i in range(1, LANES + 1)), "little")
    return ones, GOLDEN_GAMMA * ramp, ones * MASK64


@lru_cache(maxsize=64)  # about 0.1 ms to compute; once per trial otherwise
def _digits_per_draw(base: int) -> int:
    """k, the number of base-`base` digits taken from each accepted draw.

    A draw yields k digits with probability 1 - (2**64 mod base**k) / 2**64,
    so k is the one (with base**k <= 2**64) that maximises the expected
    digits per draw: 38 for base 3, 18 for base 10, 64 for base 2 and 1
    for every base above 2**32.
    """
    return max(
        (k for k in range(1, 65) if base**k <= 1 << 64),
        key=lambda k: k * ((1 << 64) - (1 << 64) % base**k),
    )


def _low_words(packed: int, lanes: int) -> memoryview:
    """The low 64-bit word of each of `lanes` 128-bit lanes, first lane first."""
    return memoryview(packed.to_bytes(16 * lanes, sys.byteorder)).cast("Q")[::_LOW_WORD_STEP]


def _digit_blocks(base: int, count: int, seed: int) -> Iterator[tuple[int, int, int, Iterator[int]]]:
    """The first `count` digits of the seeded stream, a block at a time.

    SplitMix64 states are seed + i*GOLDEN_GAMMA, so a block of draws is one
    big int with a 64-bit draw in each 128-bit lane: a lane's state is below
    2**128 before its mask, and mix64's products of a 64-bit lane by a
    64-bit constant stay below 2**128, so no carry crosses a lane. A block
    draws only as many lanes as could still be needed, ceil(count / k).

    Each block is (lanes, accepted, kept, rounds). `accepted` has bit 0 of
    lane i set iff draw i passed the threshold test; `kept` is how many of
    the block's digits belong to the first `count`. `rounds` yields k
    packed ints; round j holds digit j of every draw, one per lane. The
    digits of rejected draws, and of the last draw past `count`, are 0.
    """
    k = _digits_per_draw(base)
    power = base**k
    gap = (1 << 64) - (1 << 64) % power  # adding it carries into bit 64 iff a draw is accepted
    ones, gamma_ramp, low = _lane_constants()
    state = seed & MASK64
    while count > 0:
        lanes = min(-(-count // k), LANES)
        if lanes < LANES:
            keep = (1 << (128 * lanes)) - 1
            ones, gamma_ramp, low = ones & keep, gamma_ramp & keep, low & keep
        z = (state * ones + gamma_ramp) & low
        z = ((z ^ (z >> 30)) & low) * _MIX_MULT_1 & low
        z = ((z ^ (z >> 27)) & low) * _MIX_MULT_2 & low
        z = (z ^ (z >> 31)) & low
        accepted = ((z * power & low) + gap * ones) >> 64 & ones
        if accepted != ones:
            z &= accepted * MASK64
        state = (state + lanes * GOLDEN_GAMMA) & MASK64
        digits = accepted.bit_count() * k
        # only the last draw of the last block can run past `count`
        yield lanes, accepted, min(digits, count), _rounds(z, base, k, low, k + min(0, count - digits))
        count -= digits


def _rounds(draws: int, base: int, k: int, low: int, top_digits: int) -> Iterator[int]:
    """The k leading base-`base` digits of each lane's draw / 2**64, a round at a time.

    The top lane gives only its first `top_digits` digits and 0 after them.
    """
    for j in range(k):
        if j == top_digits:
            draws &= low >> 128
        product = draws * base
        yield product >> 64 & low
        draws = product & low


def uniform_digits(base: int, count: int, seed: int) -> list[int]:
    """`count` i.i.d.-uniform digits in [0, base) from the seeded generator.

    A draw w is accepted only when (w * base**k) mod 2**64 is at least
    2**64 mod base**k (Lemire's threshold), so floor(w * base**k / 2**64)
    is exactly uniform on [0, base**k); its k base-`base` digits, leading
    digit first, are the next k digits of the stream.
    """
    base, count = _check_size(base, count, "count", 0)
    digits: list[int] = []
    for lanes, accepted, kept, rounds in _digit_blocks(base, count, seed):
        by_draw = compress(zip(*(_low_words(r, lanes) for r in rounds)), _low_words(accepted, lanes))
        digits.extend(islice(chain.from_iterable(by_draw), kept))
    return digits


def uniform_digit_trial(base: int, depth: int, seed: int) -> PartialStats:
    """Depth-`depth` statistics of one seeded uniform digit stream.

    Digits are counted one byte per lane, so `base` may be at most
    MAX_COUNTED_BASE (256); a larger base raises DomainError.
    """
    base, depth = _check_size(base, depth, "depth", 1)
    if base > MAX_COUNTED_BASE:
        raise DomainError(f"base must be <= {MAX_COUNTED_BASE} to count each digit value, got {base}")
    counts = [0] * base
    for lanes, _, kept, rounds in _digit_blocks(base, depth, seed):
        # a digit below 256 is the first byte of its lane, little-endian
        block = b"".join(digits.to_bytes(16 * lanes, "little")[::16] for digits in rounds)
        counts = [count + block.count(d) for d, count in enumerate(counts)]
        # rejected draws and digits past `depth` were counted as zeros
        counts[0] -= len(block) - kept
    return PartialStats(base, depth, tuple(counts))


class ExperimentConfig(_Record):
    """`trials` seeded trials of `depth` uniform base-`base` digits; the seed is kept mod 2**64."""

    __slots__ = ("base", "depth", "trials", "master_seed")

    def __init__(self, base: int, depth: int, trials: int, master_seed: int) -> None:
        base, depth = _check_size(base, depth, "depth", 1)
        trials = coerce_index(trials, "trials", 1)
        _set(self, "base", base)
        _set(self, "depth", depth)
        _set(self, "trials", trials)
        _set(self, "master_seed", master_seed & MASK64)


class ExperimentSummary(_Record):
    """Per-trial digit means and their aggregate statistics.

    `fraction_in_band` is the share of trials whose mean lies within
    `band` of the center (base-1)/2. `variance` is the unbiased sample
    variance (0 for a single trial); all fields except the derived
    float `stddev` are exact.
    """

    __slots__ = ("config", "band", "r_values", "mean", "variance", "fraction_in_band")

    def __init__(
        self,
        config: ExperimentConfig,
        band: Fraction,
        r_values: tuple[Fraction, ...],
        mean: Fraction,
        variance: Fraction,
        fraction_in_band: Fraction,
    ) -> None:
        _set(self, "config", config)
        _set(self, "band", band)
        _set(self, "r_values", r_values)
        _set(self, "mean", mean)
        _set(self, "variance", variance)
        _set(self, "fraction_in_band", fraction_in_band)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def stddev_decimal(self, digits: int = DECIMAL_SIGNIFICANT_DIGITS) -> str:
        context = _decimal_context(digits)
        value = context.divide(Decimal(self.variance.numerator), Decimal(self.variance.denominator))
        return context.to_sci_string(context.sqrt(value))


def _trial_mean(base: int, depth: int, seed: int) -> Fraction:
    """The digit mean of one trial, from its digit sum: no object per digit.

    A block's rounds are added lane-wise, so only one sum per lane is
    unpacked: a lane's sum is at most k*(base-1) < base**k <= 2**64.
    """
    total = 0
    for lanes, _, _, rounds in _digit_blocks(base, depth, seed):
        total += sum(_low_words(sum(rounds), lanes))
    return Fraction(total, depth)


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
    workers = coerce_index(workers, "workers", 1)
    workers = min(workers, cfg.trials, os.cpu_count() or 1)
    # the per-trial means are the output: their list is made first, so that
    # more trials than memory holds fail at once, not after hours of trials
    r_values: list = [None] * cfg.trials
    seeds = map(trial_seed, repeat(cfg.master_seed), range(cfg.trials))
    if workers == 1:
        for i, seed in enumerate(seeds):
            r_values[i] = _trial_mean(cfg.base, cfg.depth, seed)
    else:
        # imported here so that runs without a process pool do not pay for its import
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, cfg.trials // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            r_values[:] = pool.map(_trial_mean, repeat(cfg.base), repeat(cfg.depth), seeds, chunksize=chunk)
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
