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
from digitstats import simulate
from digitstats.simulate import GOLDEN_GAMMA, LANES, MASK64, MAX_COUNTED_BASE, _digits_per_draw, _trial_mean


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


def reference_k(base):
    """Digits per draw: the k with base**k <= 2**64 that maximises k * (2**64 - 2**64 % base**k)."""
    best_k, best_yield = 0, 0
    for k in range(1, 65):
        if base**k > 2**64:
            break
        if k * (2**64 - 2**64 % base**k) > best_yield:
            best_k, best_yield = k, k * (2**64 - 2**64 % base**k)
    return best_k


def reference_digits(base, count, seed):
    """The v2 generator one draw at a time, straight from its definition."""
    k = reference_k(base)
    threshold = 2**64 % base**k
    digits = []
    state = seed & MASK64
    while len(digits) < count:
        state = (state + GOLDEN_GAMMA) & MASK64
        draw = mix64(state)
        if draw * base**k % 2**64 < threshold:
            continue  # Lemire's test: floor(draw * base**k / 2**64) would be biased
        fraction = draw
        for _ in range(k):
            product = fraction * base
            digits.append(product >> 64)
            fraction = product % 2**64
    return digits[:count]


def test_digits_per_draw():
    for base, k in ((3, 38), (10, 18), (2, 64), (2**64, 1), (2**32, 2), (2**32 + 1, 1)):
        assert _digits_per_draw(base) == reference_k(base) == k, base


def test_stream_is_multidigit_v2():
    assert RNG_ID == "splitmix64-multidigit-v2"
    # digits of the one-draw-at-a-time v2 reference
    assert uniform_digits(3, 6, seed=0) == [2, 1, 2, 2, 1, 1]
    # seed 30 rejects its first and third base-3 draws: digits 0..37 come
    # from the second draw and digits 38.. from the fourth
    assert uniform_digits(3, 40, seed=30)[:6] == [2, 0, 1, 1, 1, 0]
    assert uniform_digits(3, 40, seed=30)[38:] == [0, 2]
    # 18 digits per draw: the second draw starts at digit 18
    assert uniform_digits(10, 20, seed=MASK64) == [8, 9, 3, 9, 4, 2, 9, 2, 0, 2, 8, 3, 1, 8, 4, 5, 0, 7, 9, 1]
    # base 2**64 takes each draw whole: SplitMix64's published outputs for seed 0
    assert uniform_digits(2**64, 3, seed=0) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


# 2**63 + 1 and 3 * 2**62 reject about half and a quarter of all draws
@pytest.mark.parametrize("base", [2, 3, 10, 2**63 + 1, 3 * 2**62, 2**64])
@pytest.mark.parametrize("seed", [0, MASK64, trial_seed(2026, 17)])
def test_block_kernel_matches_draw_by_draw_reference(base, seed):
    k = reference_k(base)
    counts = {0, 1, k - 1, k, k + 1, LANES - 1, LANES, LANES + 1, 3 * LANES + 7, LANES * k - 1, LANES * k + 1}
    reference = reference_digits(base, max(counts), seed)
    for count in sorted(counts):
        assert uniform_digits(base, count, seed) == reference[:count], count
        if count:
            assert _trial_mean(base, count, seed) == Fraction(sum(reference[:count]), count), count
        if base <= 10 and count:
            trial = uniform_digit_trial(base, count, seed)
            expected = Counter(reference[:count])
            assert trial.counts == tuple(expected[d] for d in range(base)), count


def test_trial_bounds_the_base_it_counts():
    # one count per digit value: base 2**64 used to run without end; the
    # bases tried here would finish even without the bound
    for base in (MAX_COUNTED_BASE + 1, 2**16):
        with pytest.raises(DomainError, match=f"base must be <= {MAX_COUNTED_BASE}"):
            uniform_digit_trial(base, 10, seed=1)
    count = 3 * LANES + 7
    expected = Counter(reference_digits(MAX_COUNTED_BASE, count, 1))
    stats = uniform_digit_trial(MAX_COUNTED_BASE, count, seed=1)
    assert stats.counts == tuple(expected[d] for d in range(MAX_COUNTED_BASE))


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


def test_serial_and_parallel_agree(monkeypatch):
    monkeypatch.setattr("digitstats.simulate._SERIAL_DRAWS", 0)  # a real pool, though the run is small
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
    monkeypatch.setattr("digitstats.simulate._SERIAL_DRAWS", 0)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr("digitstats.simulate.os.cpu_count", lambda: cpus)
    monkeypatch.setattr(RecordingExecutor, "built", [])
    cfg = ExperimentConfig(base=3, depth=20, trials=trials, master_seed=9)
    summary = normality_experiment(cfg, Fraction(1, 10), workers=workers)
    assert RecordingExecutor.built == built
    assert summary == normality_experiment(cfg, Fraction(1, 10))


class RefusedExecutor:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started")


@pytest.mark.parametrize("base,depth,trials", [(3, 20, 4), (3, 10**4, 200), (2**64, 100, 50)])
def test_a_run_smaller_than_a_pool_start_runs_serially(monkeypatch, base, depth, trials):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RefusedExecutor)
    monkeypatch.setattr("digitstats.simulate.os.cpu_count", lambda: 8)
    cfg = ExperimentConfig(base=base, depth=depth, trials=trials, master_seed=3)
    draws = trials * -(-depth // _digits_per_draw(base))
    assert draws < simulate._SERIAL_DRAWS
    assert normality_experiment(cfg, Fraction(1, 10), workers=2) == normality_experiment(cfg, Fraction(1, 10))
    # a run of exactly _SERIAL_DRAWS draws asks for the pool
    monkeypatch.setattr(simulate, "_SERIAL_DRAWS", draws)
    with pytest.raises(AssertionError, match="process pool"):
        normality_experiment(cfg, Fraction(1, 10), workers=2)
