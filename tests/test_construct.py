"""Tests for the digit-stream constructors."""

import random
import sys
import time
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest

from digitstats import (
    BlockSpec,
    DigitStream,
    DomainError,
    FrequencyProfile,
    Infeasible,
    OscillationSchedule,
    beatty_construct,
    beatty_indicator,
    block_boundaries,
    block_digit_stream,
    blockspec_table,
    build_oscillating_schedule,
    construct_mean_without_frequency,
    floor_weighted_average,
    no_mean_example,
    no_mean_one_run_ends,
    no_mean_zero_run_ends,
    quota_construct,
    running_stats,
    with_prefix,
)
from digitstats import core
from digitstats.construct import _floor_sum

F = Fraction


def test_beatty_indicator_known_values():
    assert [beatty_indicator(F(1, 2), n) for n in range(1, 6)] == [1, 0, 1, 0, 1]
    assert all(beatty_indicator(0, n) == 0 for n in range(1, 10))
    assert all(beatty_indicator(1, n) == 1 for n in range(1, 10))


def test_beatty_indicator_telescopes():
    a = F(3, 7)
    total = sum(beatty_indicator(a, n) for n in range(1, 50))
    assert total == (50 * a).numerator // (50 * a).denominator - 0  # [50a] - [a], [a] = 0


def test_beatty_indicator_validation():
    with pytest.raises(DomainError):
        beatty_indicator(F(3, 2), 1)
    with pytest.raises(DomainError):
        beatty_indicator(F(1, 2), 0)


def test_beatty_construct_known_values():
    assert beatty_construct(1, 0, 5) == [0, 0, 0, 0, 0]
    assert beatty_construct(F(1, 2), F(1, 2), 8) == [0, 1, 0, 1, 0, 1, 0, 1]
    # known fidelity gap: target profile (0, 0, 1) but digit-1 rule fires
    assert beatty_construct(0, 0, 4) == [1, 1, 1, 1]


def test_beatty_construct_matches_indicators():
    a, b = F(1, 3), F(2, 7)
    digits = beatty_construct(a, b, 200)
    for n, digit in enumerate(digits, start=1):
        if beatty_indicator(a, n) == 1:
            assert digit == 0
        elif beatty_indicator(b, n) == 0:
            assert digit == 1
        else:
            assert digit == 2


def test_beatty_construct_zero_count_bound():
    for a in (F(1, 3), F(29, 100), F(1, 2)):
        b = (1 - a) / 2
        digits = beatty_construct(a, b, 3000)
        zeros = 0
        for n, digit in enumerate(digits, start=1):
            zeros += digit == 0
            assert abs(zeros * a.denominator - n * a.numerator) <= 2 * a.denominator


def test_beatty_construct_validation():
    with pytest.raises(DomainError):
        beatty_construct(F(2, 3), F(2, 3), 5)
    for count in (2.5, 3.0, "3", None):
        with pytest.raises(DomainError, match="count must be an integer"):
            beatty_construct(F(1, 3), F(1, 3), count)


def test_quota_construct_known_values():
    third = F(1, 3)
    profile = FrequencyProfile(3, (third, third, third))
    assert quota_construct(profile, 6) == [0, 1, 2, 0, 1, 2]
    assert quota_construct(FrequencyProfile(3, (1, 0, 0)), 5) == [0] * 5


def test_quota_construct_deficit_bound_and_replay():
    profile = FrequencyProfile(3, (F(1, 2), F(1, 4), F(1, 4)))
    digits = quota_construct(profile, 3000)
    # independent replay: incremental exact deficits instead of recomputation
    deficits = [F(0)] * 3
    counts = [0] * 3
    for m, digit in enumerate(digits, start=1):
        deficits = [d + t for d, t in zip(deficits, profile.tau)]
        best = max(range(3), key=lambda i: (deficits[i], -i))
        assert best == digit
        deficits[digit] -= 1
        counts[digit] += 1
        for i in range(3):
            assert abs(counts[i] - m * profile.tau[i]) <= 2


def test_floor_weighted_average_known_values():
    assert floor_weighted_average(2, 1, 5) == 2
    assert floor_weighted_average(0, 1, 9) == 0
    assert floor_weighted_average(F(1, 2), 1, 4) == F(2, 5)
    assert floor_weighted_average(0.3, 10, 10) == F(3, 55)  # a float is read by its repr: [10 * 0.3] = 3


def test_floor_weighted_average_sandwich():
    n = 2000
    for x in (F(1, 5), F(1, 3), F(3, 4), F(17, 12)):
        w = floor_weighted_average(x, 1, n)
        assert x - F(2, n + 1) < w <= x


def test_floor_weighted_average_general_k_sandwich():
    for x, k, n in [(F(1, 3), 5, 400), (F(3, 4), 17, 301), (F(17, 12), 2, 50)]:
        w = floor_weighted_average(x, k, n)
        upper = x * (1 - F((k - 1) * k, n * (n + 1)))
        assert w <= upper
        assert w > upper - F(2 * (n - k + 1), n * (n + 1))


def test_floor_weighted_average_validation():
    with pytest.raises(DomainError):
        floor_weighted_average(F(1, 2), 3, 2)
    with pytest.raises(DomainError):
        floor_weighted_average(F(-1, 2), 1, 2)
    with pytest.raises(DomainError):
        floor_weighted_average(F(1, 2), 0, 2)
    with pytest.raises(DomainError, match="cannot interpret"):
        floor_weighted_average(None, 1, 2)


def test_schedule_first_breakpoint_is_one():
    schedule = build_oscillating_schedule(F(1, 5), F(2, 5), F(1, 20), 200)
    assert schedule.breakpoints[0] == 1
    assert schedule.w_at_breakpoints[0] == 0


def test_schedule_breakpoint_parity():
    schedule = build_oscillating_schedule(F(1, 5), F(2, 5), F(1, 20), 500)
    low = schedule.x1 + schedule.epsilon
    high = schedule.x2 - schedule.epsilon
    assert len(schedule.breakpoints) >= 4
    for index, w in enumerate(schedule.w_at_breakpoints):
        if index % 2 == 0:  # end of an x1-run
            assert w < low
        else:
            assert w > high


def test_schedule_breakpoints_ascend_and_w_jumps():
    schedule = build_oscillating_schedule(F(1, 5), F(2, 5), F(1, 20), 500)
    gap = schedule.x2 - schedule.x1 - 2 * schedule.epsilon
    for a, b in zip(schedule.breakpoints, schedule.breakpoints[1:]):
        assert b > a
    for wa, wb in zip(schedule.w_at_breakpoints, schedule.w_at_breakpoints[1:]):
        assert abs(wb - wa) > gap


def test_schedule_values_and_value_at_agree():
    schedule = build_oscillating_schedule(F(1, 5), F(2, 5), F(1, 20), 120)
    values = list(schedule.values())
    assert len(values) == 120
    assert values == [schedule.value_at(n) for n in range(1, 121)]
    assert values[0] == F(1, 5)
    first, second = schedule.breakpoints[0], schedule.breakpoints[1]
    assert schedule.value_at(first) == F(1, 5)
    assert schedule.value_at(first + 1) == F(2, 5)
    assert schedule.value_at(second) == F(2, 5)
    assert schedule.value_at(second + 1) == F(1, 5)


def test_schedule_validation():
    with pytest.raises(DomainError):
        build_oscillating_schedule(F(2, 5), F(1, 5), F(1, 20), 10)
    with pytest.raises(DomainError):
        build_oscillating_schedule(F(1, 5), F(2, 5), F(1, 10), 10)  # eps = (x2-x1)/2
    with pytest.raises(DomainError):
        build_oscillating_schedule(F(1, 5), F(2, 5), 0, 10)
    with pytest.raises(DomainError):
        build_oscillating_schedule(F(1, 5), F(2, 5), F(1, 20), 0)
    with pytest.raises(DomainError):
        schedule = build_oscillating_schedule(F(1, 5), F(2, 5), F(1, 20), 10)
        schedule.value_at(11)
    for breakpoints, w_values, message in [
        ((3,), (), "one w value"),
        ((3, 3), (F(1, 5), F(2, 5)), "strictly ascending"),
        ((11,), (F(1, 5),), "exceed the horizon"),
    ]:
        with pytest.raises(DomainError, match=message):
            OscillationSchedule(F(1, 5), F(2, 5), F(1, 20), 10, breakpoints, w_values)


def test_construct_mean_nofreq_infeasible_endpoints():
    with pytest.raises(Infeasible):
        construct_mean_without_frequency(0, F(1, 5), F(2, 5), F(1, 20), 5)
    with pytest.raises(Infeasible):
        construct_mean_without_frequency(2, F(1, 5), F(2, 5), F(1, 20), 5)


def test_construct_mean_nofreq_domain_errors():
    with pytest.raises(DomainError):
        construct_mean_without_frequency(3, F(1, 5), F(2, 5), F(1, 20), 5)
    # x-window for theta = 1/2 is (1/2, 3/4); x1 below it must be rejected
    with pytest.raises(DomainError):
        construct_mean_without_frequency(F(1, 2), F(1, 5), F(3, 5), F(1, 20), 5)
    # x2 at the upper edge (2-theta)/2 must be rejected
    with pytest.raises(DomainError):
        construct_mean_without_frequency(1, F(1, 5), F(1, 2), F(1, 20), 5)


def test_block_rows_match_formulas():
    spec, _ = construct_mean_without_frequency(1, F(1, 5), F(2, 5), F(1, 20), 40)
    for k, (alpha, row) in enumerate(zip(spec.alphas, spec.rows), start=1):
        beta = 2 - 2 * alpha - spec.theta
        gamma = alpha - 1 + spec.theta
        assert alpha + beta + gamma == 1
        assert beta + 2 * gamma == spec.theta
        assert row == (
            (k * alpha).numerator // (k * alpha).denominator,
            (k * beta).numerator // (k * beta).denominator,
            (k * gamma).numerator // (k * gamma).denominator,
        )
    # the example row: alpha_3 = 2/5 gives ([6/5], [3/5], [6/5]) = (1, 0, 1)
    assert spec.alphas[2] == F(2, 5)
    assert spec.rows[2] == (1, 0, 1)


def test_block_identities_for_other_theta():
    theta = F(1, 2)
    spec, _ = construct_mean_without_frequency(theta, F(11, 20), F(7, 10), F(1, 20), 30)
    for alpha in spec.alphas:
        assert alpha + (2 - 2 * alpha - theta) + (alpha - 1 + theta) == 1


def test_block_partial_sums_sandwich():
    spec, _ = construct_mean_without_frequency(1, F(1, 5), F(2, 5), F(1, 20), 60)
    digit_sum = 0
    length = 0
    for k in range(1, spec.blocks + 1):
        t = (k - 1) * k // 2
        if k == 1:
            assert digit_sum == 0 and length == 0
        else:
            assert spec.theta * t - 3 * (k - 1) < digit_sum <= spec.theta * t
            assert t - 3 * (k - 1) < length <= t
        zeros, ones, twos = spec.rows[k - 1]
        digit_sum += ones + 2 * twos
        length += zeros + ones + twos


def test_block_intra_block_bounds():
    spec, _ = construct_mean_without_frequency(1, F(1, 5), F(2, 5), F(1, 20), 50)
    for k, (zeros, ones, twos) in enumerate(spec.rows, start=1):
        assert 0 <= ones + 2 * twos <= k * spec.theta
        assert 0 <= zeros + ones + twos <= k


def test_block_stream_matches_rows():
    spec, stream = construct_mean_without_frequency(1, F(1, 5), F(2, 5), F(1, 20), 25)
    digits = stream.take(stream.length)
    position = 0
    for zeros, ones, twos in spec.rows:
        chunk = digits[position : position + zeros + ones + twos]
        assert chunk == [0] * zeros + [1] * ones + [2] * twos
        position += len(chunk)
    assert position == stream.length
    assert block_boundaries(spec)[-1] == stream.length


def test_block_boundaries_cumulative():
    spec, _ = construct_mean_without_frequency(1, F(1, 5), F(2, 5), F(1, 20), 12)
    sizes = [sum(row) for row in spec.rows]
    expected = []
    depth = 0
    for size in sizes:
        depth += size
        expected.append(depth)
    assert list(block_boundaries(spec)) == expected


def test_blockspec_validation():
    assert BlockSpec(theta=F(1), alphas=(F(2, 5), F(1, 5))).rows == ((0, 0, 0), (0, 1, 0))
    with pytest.raises(DomainError, match="negative"):
        BlockSpec(theta=F(1), alphas=(F(2, 5), F(3, 5)))  # beta_2 = -1/5
    with pytest.raises(DomainError, match="negative"):
        BlockSpec(theta=F(1, 2), alphas=(F(1, 5),))  # gamma_1 = -3/10
    with pytest.raises(TypeError):
        BlockSpec(theta=F(1), alphas=(F(2, 5),), rows=((0, 0, 0),))  # rows are derived


def test_blockspec_table():
    spec, _ = construct_mean_without_frequency(1, F(1, 5), F(2, 5), F(1, 20), 3)
    header, rows = blockspec_table(spec)
    assert header == ["k", "a_k1", "a_k2", "a_k3", "alpha_k"]
    assert rows[2] == [3, 1, 0, 1, "2/5"]


def test_no_mean_example_prefix():
    assert no_mean_example(6) == [0, 1, 0, 0, 1, 1]
    assert no_mean_example(14) == [0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1]


def no_mean_reference(count):
    """The no-mean example built run by run: 2^m zeros, then 2^m ones."""
    digits = []
    m = 0
    while len(digits) < count:
        digits += [0] * 2**m + [1] * 2**m
        m += 1
    return digits[:count]


def test_no_mean_example_matches_run_by_run_reference():
    counts = list(range(1, 301))
    counts += [2**k + d for k in range(2, 22) for d in range(-3, 3)]
    reference = no_mean_reference(max(counts))
    for count in counts:
        assert no_mean_example(count) == reference[:count], count


def test_no_mean_example_holds_only_its_result():
    tracemalloc.start()
    try:
        digits = no_mean_example(2**20 + 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * sys.getsizeof(digits)


def test_no_mean_run_end_means():
    digits = no_mean_example(no_mean_one_run_ends(2**14)[-1])
    stream = DigitStream.from_digits(digits, 2)
    zero_ends = no_mean_zero_run_ends(len(digits))
    one_ends = no_mean_one_run_ends(len(digits))
    marks = sorted(zero_ends + one_ends)
    rows = {row.n: row for row in running_stats(stream, marks)}
    for m, depth in enumerate(zero_ends):
        assert depth == 3 * 2**m - 2
        assert rows[depth].mean == F(2**m - 1, 3 * 2**m - 2)
    for m, depth in enumerate(one_ends):
        assert depth == 2 ** (m + 2) - 2
        assert rows[depth].mean == F(1, 2)


def test_no_mean_validation():
    with pytest.raises(DomainError):
        no_mean_example(0)
    for count in (2.5, 3.0, "3", None):
        with pytest.raises(DomainError, match="count must be an integer"):
            no_mean_example(count)
    with pytest.raises(DomainError):
        no_mean_zero_run_ends(0)


def test_schedules_with_gap_produce_distinct_zero_runs():
    # min pairwise value gap between {1/5, 2/5} and {1/4, 9/20} is 1/20,
    # so some block k <= 20 must already have different zero-run lengths
    spec_a, _ = construct_mean_without_frequency(1, F(1, 5), F(2, 5), F(1, 20), 20)
    spec_b, _ = construct_mean_without_frequency(1, F(1, 4), F(9, 20), F(1, 20), 20)
    assert any(ra[0] != rb[0] for ra, rb in zip(spec_a.rows, spec_b.rows))


def test_prefix_changes_mean_by_bounded_amount():
    spec, stream = construct_mean_without_frequency(1, F(1, 5), F(2, 5), F(1, 20), 220)
    depth = 20000
    assert stream.length >= depth
    base_mean = running_stats(stream, [depth])[0].mean
    rng = random.Random(3)
    for prefix in ([0] * 20, [2] * 20, [rng.randrange(3) for _ in range(20)]):
        shifted = with_prefix(prefix, stream)
        mean = running_stats(shifted, [depth])[0].mean
        assert abs(mean - base_mean) <= F(2 * len(prefix), depth)


def beatty_reference(a: Fraction, b: Fraction, count: int) -> list[int]:
    """The Beatty digits computed position by position, with no period used."""
    (ap, aq), (bp, bq) = a.as_integer_ratio(), b.as_integer_ratio()
    digits = []
    for n in range(1, count + 1):
        if (n + 1) * ap // aq - n * ap // aq == 1:
            digits.append(0)
        elif (n + 1) * bp // bq - n * bp // bq == 0:
            digits.append(1)
        else:
            digits.append(2)
    return digits


def quota_reference(profile: FrequencyProfile, count: int) -> list[int]:
    """The greedy quota digits computed step by step, with no period used."""
    scale = lcm(*(t.denominator for t in profile.tau))
    weights = [t.numerator * (scale // t.denominator) for t in profile.tau]
    counts = [0] * profile.base
    digits = []
    for m in range(1, count + 1):
        best = max(range(profile.base), key=lambda i: (m * weights[i] - counts[i] * scale, -i))
        counts[best] += 1
        digits.append(best)
    return digits


def counts_around(period: int) -> list[int]:
    """Counts below, at and around multiples of `period`."""
    return sorted({0, 1, period - 1, *(k * period + d for k in (1, 2, 3) for d in (-1, 0, 1))} - {-1})


def random_profile(rng: random.Random) -> FrequencyProfile:
    """A profile of base 2-6 whose targets share a denominator up to 120, some of them 0."""
    base = rng.randint(2, 6)
    denominator = rng.randint(1, 120)
    cuts = sorted(rng.randint(0, denominator) for _ in range(base - 1))
    parts = [high - low for low, high in zip([0, *cuts], [*cuts, denominator])]
    return FrequencyProfile(base, tuple(F(part, denominator) for part in parts))


def test_quota_construct_matches_step_by_step_reference():
    rng = random.Random(2024)
    profiles = [random_profile(rng) for _ in range(150)]
    profiles += [FrequencyProfile(3, (F(1, 2), F(1, 3), F(1, 6))), FrequencyProfile(2, (1, 0))]
    for profile in profiles:
        scale = lcm(*(t.denominator for t in profile.tau))
        counts = counts_around(scale)
        reference = quota_reference(profile, counts[-1])
        for count in counts:
            assert quota_construct(profile, count) == reference[:count], (profile.tau, count)


def test_beatty_construct_matches_position_by_position_reference():
    rng = random.Random(2025)
    pairs = [(F(0), F(0)), (F(0), F(1, 3)), (F(2, 7), F(0)), (F(2, 5), F(3, 5)), (F(1), F(0)), (F(0), F(1))]
    for _ in range(30):
        q, d = rng.randint(1, 120), rng.randint(1, 120)
        a = F(rng.randint(0, q), q)
        pairs.append((a, F(rng.randint(0, (1 - a) * d // 1), d)))
        pairs.append((a, 1 - a))  # a + b = 1
    for a, b in pairs:
        counts = counts_around(lcm(a.denominator, b.denominator))
        reference = beatty_reference(a, b, counts[-1])
        for count in counts:
            assert beatty_construct(a, b, count) == reference[:count], (a, b, count)


def test_constructions_match_their_references_in_chunks_shorter_than_a_period(monkeypatch):
    # a period longer than a chunk is made again for each repeat; a run longer than a chunk is cut
    monkeypatch.setattr(core, "_CHUNK_DIGITS", 7)
    rng = random.Random(2027)
    for profile in [random_profile(rng) for _ in range(40)]:
        counts = counts_around(lcm(*(t.denominator for t in profile.tau)))
        reference = quota_reference(profile, counts[-1])
        for count in counts:
            assert quota_construct(profile, count) == reference[:count], (profile.tau, count)
    for _ in range(40):
        q, d = rng.randint(1, 60), rng.randint(1, 60)
        a = F(rng.randint(0, q), q)
        b = F(rng.randint(0, (1 - a) * d // 1), d)
        counts = counts_around(lcm(a.denominator, b.denominator))
        reference = beatty_reference(a, b, counts[-1])
        for count in counts:
            assert beatty_construct(a, b, count) == reference[:count], (a, b, count)
    runs = [digit for m in range(9) for digit in (0, 1) for _ in range(2**m)]
    assert [no_mean_example(count) for count in range(1, len(runs))] == [runs[:count] for count in range(1, len(runs))]
    spec, stream = construct_mean_without_frequency(1, F(1, 5), F(2, 5), F(1, 20), 60)
    assert stream.take(stream.length) == [digit for row in spec.rows for digit, run in enumerate(row) for _ in range(run)]


def block_rows_reference(theta: Fraction, alphas) -> list[tuple[int, int, int]]:
    """Block rows from three Fraction products per block."""
    rows = []
    for k, alpha in enumerate(alphas, start=1):
        densities = (alpha, 2 - 2 * alpha - theta, alpha - 1 + theta)
        rows.append(tuple((k * d).numerator // (k * d).denominator for d in densities))
    return rows


def test_block_rows_match_fraction_products_for_every_block_count():
    rng = random.Random(2026)
    cases = [
        (F(1), construct_mean_without_frequency(1, F(1, 5), F(2, 5), F(1, 20), 300)[0].alphas),
        (F(4, 3), construct_mean_without_frequency(F(4, 3), F(1, 20), F(1, 4), F(1, 30), 300)[0].alphas),
    ]
    for theta in (F(1), F(7, 5)):
        low, high = max(F(0), 1 - theta), (2 - theta) / 2
        # many distinct alphas, with repeats, anywhere in the window [low, high]
        pool = [low + (high - low) * F(rng.randint(0, 997), 997) for _ in range(150)]
        cases.append((theta, tuple(rng.choice(pool) for _ in range(300))))
    for theta, alphas in cases:
        reference = block_rows_reference(theta, alphas)
        for blocks in range(1, 301):
            assert list(BlockSpec(theta, alphas[:blocks]).rows) == reference[:blocks], (theta, blocks)


def test_blockspec_names_the_first_bad_block():
    good, bad = F(2, 5), F(3, 5)  # theta = 1: beta = -1/5 for alpha = 3/5
    with pytest.raises(DomainError, match=r"^block 4: run densities \(3/5, -1/5, 3/5\) negative$"):
        BlockSpec(theta=F(1), alphas=(good, good, good, bad, good, bad))
    with pytest.raises(DomainError, match=r"^block 2: run densities \(-1/5, 7/5, -1/5\) negative$"):
        BlockSpec(theta=F(1), alphas=(good, F(-1, 5)))


def test_floor_sum_matches_brute_force():
    for n in range(0, 9):
        for a in range(0, 13):
            for b in range(0, 13):
                for m in range(1, 13):
                    assert _floor_sum(n, a, b, m) == sum((a * j + b) // m for j in range(n)), (n, a, b, m)
    rng = random.Random(2027)
    for _ in range(300):
        n, a, b, m = rng.randint(0, 200), rng.randint(0, 10**9), rng.randint(0, 10**9), rng.randint(1, 10**9)
        assert _floor_sum(n, a, b, m) == sum((a * j + b) // m for j in range(n)), (n, a, b, m)


def test_floor_weighted_average_matches_term_by_term_sum():
    for x in (F(0), F(2, 5), F(17, 12), F(3), F(355, 113)):
        for n in range(1, 40):
            for k in range(1, n + 1):
                terms = sum(j * x.numerator // x.denominator for j in range(k, n + 1))
                assert floor_weighted_average(x, k, n) == F(terms, n * (n + 1) // 2)


def test_floor_weighted_average_at_paper_scale_takes_no_linear_time():
    started = time.perf_counter()
    w = floor_weighted_average(F(2, 5), 1, 10**12)
    assert time.perf_counter() - started < 1
    n = 10**12
    assert F(2, 5) - F(2, n + 1) < w <= F(2, 5)
    # j = 5t+1..5t+5 add 10t + 4 to the sum, so up to n = 5T it is 5T^2 - T
    t = n // 5
    assert w == F(5 * t * t - t, n * (n + 1) // 2)
