"""Tests for the reproducible Monte Carlo harness."""

import json
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from digitstats import (
    DomainError,
    ExperimentConfig,
    RNG_ID,
    mix64,
    normality_experiment,
    summary_to_json,
    trial_seed,
    uniform_digit_trial,
    uniform_digits,
)
from digitstats.simulate import GOLDEN_GAMMA, LANES, MASK64


def test_generator_reference_vectors():
    # published outputs of the reference implementation for seed 0
    expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    state = 0
    outputs = []
    for _ in range(3):
        state = (state + GOLDEN_GAMMA) & MASK64
        outputs.append(mix64(state))
    assert outputs == expected


def test_uniform_digits_deterministic():
    a = uniform_digits(3, 500, seed=42)
    b = uniform_digits(3, 500, seed=42)
    c = uniform_digits(3, 500, seed=43)
    assert a == b
    assert a != c
    assert len(a) == 500
    assert set(a) <= {0, 1, 2}


def test_uniform_digits_roughly_uniform():
    digits = uniform_digits(3, 30000, seed=7)
    for i in range(3):
        assert abs(digits.count(i) / 30000 - 1 / 3) < 0.02


class Index:
    """An integer-like type that is not an int."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_uniform_digits_validation():
    with pytest.raises(DomainError):
        uniform_digits(1, 10, seed=0)
    with pytest.raises(DomainError):
        uniform_digits(3, -1, seed=0)
    # no 64-bit draw is accepted above 2**64; such bases used to loop forever
    for base in (2**64 + 1, 2**65, 10**30):
        with pytest.raises(DomainError, match=r"base must be <= 2\*\*64"):
            uniform_digits(base, 1, seed=0)
        with pytest.raises(DomainError, match=r"base must be <= 2\*\*64"):
            uniform_digit_trial(base, 1, seed=0)
    for base, count in ((3, 2.5), (3.5, 4), (3.0, 4), (3, "4")):
        with pytest.raises(DomainError, match="must be an integer"):
            uniform_digits(base, count, seed=0)
        with pytest.raises(DomainError, match="must be an integer"):
            uniform_digit_trial(base, count, seed=0)
    assert uniform_digits(Index(3), Index(5), seed=4) == uniform_digits(3, 5, seed=4)


def reference_digits(base, count, seed):
    """The generator one draw at a time, straight from its definition."""
    limit = (1 << 64) - (1 << 64) % base
    digits = []
    state = seed & MASK64
    while len(digits) < count:
        state = (state + GOLDEN_GAMMA) & MASK64
        draw = mix64(state)
        if draw < limit:
            digits.append(draw % base)
    return digits


def test_stream_is_still_rejection_v1():
    assert RNG_ID == "splitmix64-rejection-v1"
    # digits the one-draw-at-a-time generator gave before the block kernel
    assert uniform_digits(3, 6, seed=0) == [1, 0, 1, 1, 1, 0]
    assert uniform_digits(10, 8, seed=MASK64) == [6, 9, 1, 2, 6, 5, 5, 6]


# 2**63 + 1 and 3 * 2**62 reject about half and a quarter of all draws
@pytest.mark.parametrize("base", [2, 3, 10, 2**63 + 1, 3 * 2**62, 2**64])
@pytest.mark.parametrize("seed", [0, MASK64, trial_seed(2026, 17)])
def test_block_kernel_matches_draw_by_draw_reference(base, seed):
    counts = [0, 1, LANES - 1, LANES, LANES + 1, 3 * LANES + 7]
    reference = reference_digits(base, max(counts), seed)
    for count in counts:
        assert uniform_digits(base, count, seed) == reference[:count], count
        if base <= 10 and count:
            trial = uniform_digit_trial(base, count, seed)
            expected = Counter(reference[:count])
            assert trial.counts == tuple(expected[d] for d in range(base)), count


def test_trial_never_holds_its_digits():
    tracemalloc.start()
    try:
        stats = uniform_digit_trial(3, 10**6, seed=trial_seed(1, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.n == 10**6
    assert peak < 2**20


def test_lane_constants_are_built_on_first_use():
    code = "import digitstats.simulate as s; print(s._lane_constants.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "0\n"


def test_trial_matches_digit_list():
    stats = uniform_digit_trial(5, 1000, seed=99)
    digits = uniform_digits(5, 1000, seed=99)
    assert stats.counts == tuple(digits.count(i) for i in range(5))
    assert stats.n == 1000
    assert uniform_digit_trial(5, 1000, seed=99) == stats


def test_base2_mean_equals_ones_frequency():
    for seed in range(5):
        stats = uniform_digit_trial(2, 2000, seed=seed)
        assert stats.mean == stats.freqs[1]


def test_trial_seed_formula_and_spread():
    master = 123456789
    seeds = [trial_seed(master, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert seeds[7] == mix64((master + 8 * GOLDEN_GAMMA) & MASK64)
    with pytest.raises(DomainError):
        trial_seed(master, -1)


def test_experiment_config_validation():
    cfg = ExperimentConfig(base=3, depth=10, trials=2, master_seed=-1)
    assert cfg.master_seed == MASK64  # normalized to 64 bits
    with pytest.raises(DomainError):
        ExperimentConfig(base=1, depth=10, trials=2, master_seed=0)
    with pytest.raises(DomainError):
        ExperimentConfig(base=3, depth=0, trials=2, master_seed=0)
    with pytest.raises(DomainError, match=r"base must be <= 2\*\*64"):
        ExperimentConfig(base=2**64 + 1, depth=10, trials=2, master_seed=0)
    for base, depth, trials in ((3.0, 10, 2), (3, 10.5, 2), (3, 10, "2")):
        with pytest.raises(DomainError, match="must be an integer"):
            ExperimentConfig(base=base, depth=depth, trials=trials, master_seed=1)
    cfg = ExperimentConfig(base=Index(3), depth=Index(10), trials=Index(2), master_seed=1)
    assert (type(cfg.base), type(cfg.depth), type(cfg.trials)) == (int, int, int)
    assert cfg == ExperimentConfig(base=3, depth=10, trials=2, master_seed=1)


def test_single_trial_summary():
    cfg = ExperimentConfig(base=3, depth=500, trials=1, master_seed=5)
    summary = normality_experiment(cfg, Fraction(1, 10))
    assert summary.mean == uniform_digit_trial(3, 500, trial_seed(5, 0)).mean
    assert summary.variance == 0


def test_serial_and_parallel_agree():
    cfg = ExperimentConfig(base=3, depth=400, trials=12, master_seed=21)
    serial = normality_experiment(cfg, Fraction(33, 1000), workers=1)
    parallel = normality_experiment(cfg, Fraction(33, 1000), workers=3)
    assert serial == parallel
    assert summary_to_json(serial) == summary_to_json(parallel)


def test_rerun_is_bit_identical():
    cfg = ExperimentConfig(base=2, depth=300, trials=8, master_seed=77)
    first = normality_experiment(cfg, Fraction(1, 20))
    second = normality_experiment(cfg, Fraction(1, 20))
    assert first == second


def test_summary_fields_and_json():
    cfg = ExperimentConfig(base=3, depth=1000, trials=10, master_seed=42)
    summary = normality_experiment(cfg, Fraction(1, 10))
    assert summary.mean == sum(summary.r_values, Fraction(0)) / 10
    assert 0 <= summary.fraction_in_band <= 1
    assert summary.stddev >= 0
    payload = json.loads(summary_to_json(summary))
    assert payload["rng_id"] == RNG_ID
    assert payload["config"]["trials"] == 10
    assert len(payload["per_trial"]) == 10
    assert payload["band"] == "1/10"


def test_experiment_validation():
    cfg = ExperimentConfig(base=3, depth=10, trials=2, master_seed=0)
    with pytest.raises(DomainError):
        normality_experiment(cfg, Fraction(-1, 10))
    with pytest.raises(DomainError):
        normality_experiment(cfg, Fraction(1, 10), workers=0)


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    built: list[int] = []

    def __init__(self, max_workers):
        self.built.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.mark.parametrize(
    "workers,trials,cpus,built",
    [(1000, 3, 4, [3]), (1000, 50, 4, [4]), (3, 50, 8, [3]), (1000, 50, None, []), (2, 1, 8, [])],
)
def test_workers_capped_by_trials_and_cpus(monkeypatch, workers, trials, cpus, built):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr("digitstats.simulate.os.cpu_count", lambda: cpus)
    monkeypatch.setattr(RecordingExecutor, "built", [])
    cfg = ExperimentConfig(base=3, depth=20, trials=trials, master_seed=9)
    summary = normality_experiment(cfg, Fraction(1, 10), workers=workers)
    assert RecordingExecutor.built == built
    assert summary == normality_experiment(cfg, Fraction(1, 10))
