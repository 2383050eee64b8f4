"""Tests for the reproducible Monte Carlo harness."""

import json
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

import pytest

from digitstats import (
    DomainError,
    ExperimentConfig,
    ExperimentSummary,
    RNG_ID,
    mix64,
    normality_experiment,
    summary_to_json,
    trial_seed,
    uniform_digit_trial,
    uniform_digits,
)
from digitstats import simulate
from digitstats.simulate import GOLDEN_GAMMA, LANES, MASK64, MAX_COUNTED_BASE, _chunk_sums, _digits_per_draw, _trial_sum


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


# 2**63 + 1 and 3 * 2**62 reject about half and a quarter of all draws; bases up to 16
# sum their trials in chunks of 8 (base 2) down to 2 (bases 7 to 16) digits, 17 digit by digit
@pytest.mark.parametrize("base", [2, 3, 4, 5, 7, 10, 16, 17, 2**63 + 1, 3 * 2**62, 2**64])
@pytest.mark.parametrize("seed", [0, MASK64, trial_seed(2026, 17)])
def test_block_kernel_matches_draw_by_draw_reference(base, seed):
    k = reference_k(base)
    counts = {0, 1, k - 1, k, k + 1, LANES - 1, LANES, LANES + 1, 3 * LANES + 7, LANES * k - 1, LANES * k + 1}
    # the last draw ends inside a chunk, in the first block and in the second
    chunk = max(c for c in range(1, 9) if base**c <= 256) if base <= 16 else 1
    counts |= {5 * k + r for r in range(1, k)} | {(LANES + 2) * k + r for r in range(1, chunk)}
    reference = reference_digits(base, max(counts), seed)
    for count in sorted(counts):
        assert uniform_digits(base, count, seed) == reference[:count], count
        if count:
            assert _trial_sum(base, count, seed) == sum(reference[:count]), count
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


@pytest.mark.parametrize("base", [3, 2**64])
def test_trial_sum_never_holds_its_digits(base):
    tracemalloc.start()
    try:
        _trial_sum(base, 10**6, seed=trial_seed(1, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("base", range(2, 17))
def test_chunk_sums_are_digit_sums_of_every_byte(base):
    def digit_sum(v):
        return 0 if v == 0 else v % base + digit_sum(v // base)

    assert _chunk_sums(base) == bytes(digit_sum(v) for v in range(256))


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


@pytest.mark.parametrize("base,depth,trials", [(3, 1000, 30), (2, 64, 4), (10, 37, 9), (17, 50, 1), (2**64, 3, 5)])
def test_aggregates_match_fraction_formulas(base, depth, trials):
    cfg = ExperimentConfig(base=base, depth=depth, trials=trials, master_seed=11)
    r_values = normality_experiment(cfg, 0).r_values
    center = Fraction(base - 1, 2)
    # no band, every trial's own distance (a trial on the band's edge is in it), and all trials
    for band in {Fraction(0), *(abs(r - center) for r in r_values), Fraction(base)}:
        summary = normality_experiment(cfg, band)
        mean = sum(r_values, Fraction(0)) / trials
        variance = sum(((r - mean) ** 2 for r in r_values), Fraction(0)) / (trials - 1) if trials > 1 else 0
        hits = sum(1 for r in r_values if abs(r - center) <= band)
        assert summary.r_values == r_values
        assert all(type(r) is Fraction for r in r_values)
        assert (summary.mean, summary.variance, summary.fraction_in_band) == (mean, variance, Fraction(hits, trials))


def stddev_oracle(variance, digits=20):
    """sqrt(variance) to 60 digits, then rounded half-even to `digits`.

    Rounding twice errs only where the root's digits past `digits`, up to the 60th, read 50...0.
    """
    wide = Context(prec=60)
    root = wide.sqrt(wide.divide(Decimal(variance.numerator), Decimal(variance.denominator)))
    return str(Context(prec=digits, rounding=ROUND_HALF_EVEN).plus(root))


def stddev_of(variance, digits=20):
    cfg = ExperimentConfig(base=3, depth=10, trials=2, master_seed=0)
    summary = ExperimentSummary(cfg, Fraction(0), (Fraction(0), Fraction(0)), Fraction(0), variance, Fraction(0))
    return summary.stddev_decimal(digits)


def test_stddev_is_rounded_once():
    # the golden case simulate-band: sqrt(133/12288) = 0.1040363768512405151863...
    assert stddev_of(Fraction(133, 12288)) == "0.10403637685124051519"
    summary = normality_experiment(ExperimentConfig(base=2, depth=10**4, trials=200, master_seed=1), 0)
    assert summary.stddev_decimal() == stddev_oracle(summary.variance) == "0.0050626923935152117752"
    rng = random.Random(2026)
    for _ in range(5000):
        variance = Fraction(rng.randrange(10**12), rng.randrange(1, 10**12))
        assert stddev_of(variance) == stddev_oracle(variance), variance
    for _ in range(300):
        variance = Fraction(rng.randrange(1, 10**40), rng.randrange(1, 10**3)) / 10 ** rng.randrange(80)
        digits = rng.randrange(1, 25)
        assert stddev_of(variance, digits) == stddev_oracle(variance, digits), (variance, digits)
    # exact squares render as their exact quotient does, and a rational root can be a midpoint
    for variance, digits, text in [
        (0, 20, "0"), (Fraction(1, 4), 20, "0.5"), (Fraction(1, 16), 20, "0.25"), (Fraction(1, 100), 20, "0.1"),
        (100, 20, "10"), (Fraction(4, 25), 20, "0.4"), (Fraction(1, 9), 20, "0.33333333333333333333"),
        (Fraction(1, 64), 2, "0.12"), (Fraction(9, 64), 2, "0.38"),
    ]:
        assert stddev_of(Fraction(variance), digits) == stddev_oracle(Fraction(variance), digits) == text, variance


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
