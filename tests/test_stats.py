"""Tests for running statistics, the frequency/mean algebra, and verdicts."""

import csv
import decimal
import io
import itertools
import json
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from digitstats import construct, core, stats
from digitstats.rationals import decimal_str, ratio_str
from digitstats.stats import stats_table
from digitstats import (
    Converged,
    DigitStream,
    DomainError,
    FrequencyProfile,
    Infeasible,
    Oscillating,
    PartialStats,
    Undetermined,
    block_boundaries,
    classify_limit,
    construct_mean_without_frequency,
    digits_to_text,
    exact_frequencies_rational,
    expand_rational,
    floor_weighted_average,
    geometric_checkpoints,
    mean_from_frequencies,
    no_mean_example,
    no_mean_one_run_ends,
    no_mean_zero_run_ends,
    running_stats,
    solve_ternary_system,
    stats_to_csv,
    stats_to_json,
    uniform_digits,
    with_prefix,
)


def test_partial_stats_fields():
    stats = PartialStats(3, 4, (2, 1, 1))
    assert stats.freqs == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    assert stats.mean == Fraction(3, 4)


def test_partial_stats_validation():
    with pytest.raises(DomainError):
        PartialStats(3, 4, (2, 1))  # wrong arity
    with pytest.raises(DomainError):
        PartialStats(3, 4, (2, 1, 2))  # counts exceed depth


@pytest.mark.parametrize("n, counts", [(4.0, (2, 1, 1)), (4, (2.0, 1, 1)), (4, (2, 1, Fraction(1))), (4, None)])
def test_partial_stats_rejects_non_integer_depth_or_counts(n, counts):
    # a float depth or count would fail only later, in .freqs or stats_to_csv, with a TypeError
    with pytest.raises(DomainError, match="depth and counts must be integers"):
        PartialStats(3, n, counts)


def test_partial_stats_keeps_integer_like_counts_as_ints():
    row = PartialStats(3, True, [False, True, 0])
    assert (row.n, row.counts) == (1, (0, 1, 0)) and type(row.n) is int
    assert all(type(c) is int for c in row.counts)
    assert stats_to_csv([row]).splitlines()[1].startswith("1,0,1,0,0,1,0,1,")


def test_running_stats_cycle_example():
    stream = DigitStream.from_digits([0, 1, 2, 0, 1, 2], 3)
    row = running_stats(stream, [3])[0]
    assert row.counts == (1, 1, 1)
    assert row.freqs == (Fraction(1, 3),) * 3
    assert row.mean == 1


def test_running_stats_constant_stream():
    row = running_stats(DigitStream.constant(2, 3), [10])[0]
    assert row.freqs[2] == 1
    assert row.mean == 2


def test_running_stats_no_mean_prefix():
    # third 0-run ends at depth 10; count the literal prefix by hand
    prefix = [0, 1, 0, 0, 1, 1, 0, 0, 0, 0]
    assert no_mean_example(10) == prefix
    row = running_stats(DigitStream.from_digits(prefix, 2), [10])[0]
    assert row.mean == Fraction(3, 10)


def test_running_stats_truncation():
    stream = DigitStream.from_digits([0, 1, 0, 1, 1], 2)
    rows = running_stats(stream, [3, 10])
    assert [(r.n, r.truncated) for r in rows] == [(3, False), (5, True)]
    # exhaustion exactly at a checkpoint flags that checkpoint instead
    rows = running_stats(stream, [3, 5, 10])
    assert [(r.n, r.truncated) for r in rows] == [(3, False), (5, True)]
    rows = running_stats(stream, [3, 2**64])
    assert [(r.n, r.truncated) for r in rows] == [(3, False), (5, True)]


def test_running_stats_rejects_bad_digits():
    with pytest.raises(DomainError, match="digit 3 out of range"):
        running_stats(DigitStream.from_function(lambda n: 3, 3, length=5), [2, 5])
    with pytest.raises(DomainError, match="depth 2 is not an integer"):
        running_stats(DigitStream.from_function(lambda n: 1 if n == 1 else 1.0, 3, length=5), [5])
    # the first bad digit of the stream is named, even behind a later one in the same gap
    digits = [0, 1, 7, 2, 5]
    with pytest.raises(DomainError, match="digit 7 out of range"):
        running_stats(DigitStream.from_function(lambda n: digits[n - 1], 3, length=5), [1, 5])


def test_running_stats_names_the_first_bad_digit_across_chunks(monkeypatch):
    # digits a caller's function yields are checked a chunk at a time
    monkeypatch.setattr(core, "_CHUNK_DIGITS", 4)
    cases = [
        ([0, 1, 2, 0, 1, 7, 2, 9], "digit 7 out of range for base 3"),  # both in the second chunk
        ([0, 1, 2, 5, 1.5, 1], "digit 5 out of range for base 3"),  # last of the first chunk
        ([0, 1, 2, 0, 1, 1.0, 7], "the digit at depth 6 is not an integer"),
        ([0, 1, 2, 0, 1, 2, 0, -1, 3], "digit -1 out of range for base 3"),  # ends the second chunk
    ]
    for digits, message in cases:
        stream = DigitStream.from_function(lambda n: digits[n - 1], 3, length=len(digits))
        with pytest.raises(DomainError, match=message):
            running_stats(stream, [1, 2, len(digits)])
        with pytest.raises(DomainError, match=message):
            list(stream)


def test_running_stats_reads_no_digit_past_the_last_checkpoint(monkeypatch):
    monkeypatch.setattr(core, "_CHUNK_DIGITS", 4)
    positions = []

    def digit(n):
        positions.append(n)
        return n % 3 if n <= 9 else "never read"

    rows = running_stats(DigitStream.from_function(digit, 3), [2, 9])
    assert [row.counts for row in rows] == [(0, 1, 1), (3, 3, 3)]
    assert positions == list(range(1, 10))
    positions.clear()
    running_stats(with_prefix([0, 1], DigitStream.from_function(digit, 3)), [2, 9])
    assert positions == list(range(1, 8))


def reference_stats(digits, base, marks):
    """Reference: (n, counts, truncated) of each row, counted prefix by prefix."""
    served = [m for m in marks if m <= len(digits)]
    rows = [(m, tuple(digits[:m].count(d) for d in range(base)), False) for m in served]
    if len(served) < len(marks):
        if served and served[-1] == len(digits):
            rows.pop()
        rows.append((len(digits), tuple(digits.count(d) for d in range(base)), True))
    return rows


def test_running_stats_matches_prefix_counts():
    rng = random.Random(3)
    for _ in range(200):
        base = rng.choice([2, 3, 7])
        digits = [rng.randrange(base) for _ in range(rng.randint(1, 40))]
        marks = sorted(rng.sample(range(1, 50), rng.randint(1, 8)))
        rows = running_stats(DigitStream.from_digits(digits, base), marks)
        assert [(r.n, r.counts, r.truncated) for r in rows] == reference_stats(digits, base, marks)


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_running_stats_matches_prefix_counts_for_every_chunk_kind(monkeypatch, chunk):
    # bytes chunks up to base 10, tuples above, checked tuples from functions,
    # block runs as bytes, and chunks cut at every checkpoint
    monkeypatch.setattr(core, "_CHUNK_DIGITS", chunk)
    rng = random.Random(chunk)
    spec, blocks = construct_mean_without_frequency(1, "1/5", "2/5", "1/20", 6)
    block_digits = [d for row in spec.rows for d, run in enumerate(row) for _ in range(run)]
    for _ in range(60):
        base = rng.choice([2, 3, 10, 11, 16])
        digits = [rng.randrange(base) for _ in range(rng.randint(1, 40))]
        q = rng.randint(1, 200)
        expansion = expand_rational(rng.randrange(q), q, base)
        periods = list(expansion.period) * (60 // len(expansion.period) + 1)
        constant = rng.randrange(base)
        cases = [
            (DigitStream.from_digits(digits, base), digits),
            (DigitStream.from_function(lambda n: digits[n - 1], base, length=len(digits)), digits),
            (DigitStream.from_text(digits_to_text(digits, base), base), digits),
            (with_prefix(digits[:3], DigitStream.from_digits(digits[3:], base)), digits),
            (with_prefix(digits[:2], DigitStream.from_function(lambda n: digits[n + 1], base, max(len(digits) - 2, 0))), digits),
            (DigitStream.from_expansion(expansion), list(expansion.preperiod) + periods),
            (DigitStream.constant(constant, base), [constant] * 60),
            (blocks, block_digits),
        ]
        marks = sorted(rng.sample(range(1, 50), rng.randint(1, 8)))
        for stream, expected_digits in cases:
            expected = reference_stats(expected_digits[:60], stream.base, marks)
            rows = running_stats(stream, marks)
            assert [(r.n, r.counts, r.truncated) for r in rows] == expected


def test_running_stats_probes_its_row_size_before_reading_a_digit():
    positions = []
    stream = DigitStream.from_function(lambda n: positions.append(n) or 0, 2**64)
    with pytest.raises(MemoryError):  # 2**64 counts cannot fit in any address space
        running_stats(stream, [5, 10])
    assert positions == []


def test_running_stats_checkpoint_validation():
    stream = DigitStream.constant(0, 2)
    for bad in ([], [0, 2], [3, 3], [5, 2]):
        with pytest.raises(DomainError):
            running_stats(stream, bad)
    with pytest.raises(DomainError):
        running_stats(DigitStream.from_digits([], 2), [1])


def test_identity_fuzz_exact():
    # r_n = sum(i * v_i) and sum(v_i) = 1 must hold with zero tolerance
    rng = random.Random(99)
    for trial in range(100):
        base = rng.choice([2, 3, 5, 10])
        digits = uniform_digits(base, 1000, seed=trial)
        stream = DigitStream.from_digits(digits, base)
        for row in running_stats(stream, [1, 7, 100, 999, 1000]):
            assert sum(row.freqs) == 1
            assert row.mean == sum(i * v for i, v in enumerate(row.freqs))


def test_mean_from_frequencies_known_values():
    third = Fraction(1, 3)
    assert mean_from_frequencies(FrequencyProfile(3, (third, third, third))) == 1
    assert mean_from_frequencies(FrequencyProfile(3, (1, 0, 0))) == 0
    assert mean_from_frequencies(FrequencyProfile(3, (0, 0, 1))) == 2


def test_theta_stays_in_range():
    rng = random.Random(5)
    for _ in range(50):
        base = rng.randint(2, 6)
        weights = [rng.randint(0, 9) for _ in range(base)]
        if sum(weights) == 0:
            weights[0] = 1
        tau = [Fraction(w, sum(weights)) for w in weights]
        profile = FrequencyProfile(base, tuple(tau))
        assert 0 <= profile.theta <= base - 1


def test_frequency_profile_validation():
    with pytest.raises(DomainError):
        FrequencyProfile(3, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(DomainError):
        FrequencyProfile(3, (Fraction(3, 2), Fraction(-1, 2), 0))
    with pytest.raises(DomainError, match="one entry per digit of base 3"):
        FrequencyProfile(3, (Fraction(1, 2), Fraction(1, 2)))


def test_exact_frequencies_rational():
    assert exact_frequencies_rational(expand_rational(1, 2, 3)).tau == (0, 1, 0)
    profile = exact_frequencies_rational(expand_rational(1, 4, 3))
    assert profile.tau == (Fraction(1, 2), 0, Fraction(1, 2))
    assert profile.theta == 1
    # the canonical terminating form, not the all-2 tail
    profile = exact_frequencies_rational(expand_rational(1, 3, 3))
    assert profile.tau == (1, 0, 0)
    assert profile.theta == 0


def test_solve_ternary_system_known_values():
    assert solve_ternary_system(Fraction(1, 3), 1) == (Fraction(1, 3), Fraction(1, 3))
    assert solve_ternary_system(0, 2) == (0, 1)
    assert solve_ternary_system(Fraction(1, 2), Fraction(4, 5)) == (
        Fraction(1, 5),
        Fraction(3, 10),
    )


def test_solve_ternary_system_infeasible():
    with pytest.raises(Infeasible):
        solve_ternary_system(Fraction(9, 10), Fraction(3, 2))  # v1 = -13/10
    with pytest.raises(Infeasible, match="v2=-3/10"):
        solve_ternary_system(Fraction(3, 5), Fraction(1, 10))


def test_solve_ternary_system_domain():
    with pytest.raises(DomainError):
        solve_ternary_system(Fraction(3, 2), 1)
    with pytest.raises(DomainError):
        solve_ternary_system(Fraction(1, 2), Fraction(5, 2))


def test_solve_ternary_system_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        a, b, c = (rng.randint(0, 20) for _ in range(3))
        total = a + b + c
        if total == 0:
            a = total = 1
        v = [Fraction(x, total) for x in (a, b, c)]
        assert solve_ternary_system(v[0], v[1] + 2 * v[2]) == (v[1], v[2])


def test_checkpoint_transport_bound():
    # v1 = 2 - 2*v0 - r at every depth, so checkpoint-to-checkpoint moves
    # of v1 are controlled by those of v0 and r
    digits = uniform_digits(3, 2000, seed=17)
    rows = running_stats(DigitStream.from_digits(digits, 3), [10, 40, 160, 640, 2000])
    for earlier in rows:
        for later in rows:
            dv1 = abs(later.freqs[1] - earlier.freqs[1])
            assert dv1 <= 2 * abs(later.freqs[0] - earlier.freqs[0]) + abs(
                later.mean - earlier.mean
            )


def test_classify_limit_constant():
    samples = [(n, Fraction(2, 7)) for n in (1, 2, 4, 8, 16)]
    verdict = classify_limit(samples)
    assert isinstance(verdict, Converged)
    assert verdict.value == Fraction(2, 7)
    assert verdict.depth == 16


def test_classify_limit_converging_average():
    x = Fraction(1, 3)
    depths = geometric_checkpoints(100, 2, 10**4)
    samples = [(n, floor_weighted_average(x, 1, n)) for n in depths]
    verdict = classify_limit(samples)
    assert isinstance(verdict, Converged)
    assert abs(verdict.value - x) <= verdict.tolerance


def test_classify_limit_oscillation():
    samples = [(n, Fraction(n % 2)) for n in range(1, 9)]
    verdict = classify_limit(samples)
    assert isinstance(verdict, Oscillating)
    assert verdict.limsup_estimate - verdict.liminf_estimate == 1
    assert len(verdict.witness_depths) >= 4
    # a sample between the two thresholds belongs to no excursion
    samples = [(n, (Fraction(0), Fraction(1), Fraction(1, 2))[n % 3]) for n in range(1, 13)]
    verdict = classify_limit(samples)
    assert isinstance(verdict, Oscillating)
    assert verdict.witness_depths == (7, 9, 10, 12)


def test_classify_limit_monotone_drift_is_undetermined():
    samples = [(n, Fraction(n, 8)) for n in range(1, 9)]
    assert isinstance(classify_limit(samples), Undetermined)


def test_classify_limit_few_samples():
    assert isinstance(classify_limit([(1, Fraction(0)), (2, Fraction(1))]), Undetermined)


def test_classify_limit_validation():
    samples = [(n, Fraction(0)) for n in (1, 2, 3, 4)]
    with pytest.raises(DomainError):
        classify_limit(samples, gap=0)
    with pytest.raises(DomainError):
        classify_limit(samples, tail_fraction=0)
    with pytest.raises(DomainError):
        classify_limit([(2, Fraction(0)), (1, Fraction(0))])


def test_geometric_checkpoints():
    assert geometric_checkpoints(10, 2, 100) == [10, 20, 40, 80, 100]
    assert geometric_checkpoints(10, 2, 80) == [10, 20, 40, 80]
    assert geometric_checkpoints(4, Fraction(3, 2), 20) == [4, 6, 9, 13, 20]
    with pytest.raises(DomainError):
        geometric_checkpoints(10, 1, 100)
    with pytest.raises(DomainError):
        geometric_checkpoints(0, 2, 100)


def fraction_checkpoints(start, factor, max_depth):
    """Reference: the geometric depths from a reduced Fraction, step by step."""
    depths = {max_depth}
    current = Fraction(start)
    while current <= max_depth:
        depths.add(current.numerator // current.denominator)
        current *= Fraction(factor)
    return sorted(depths)


@pytest.mark.parametrize(
    "factor", ["1001/1000", "11/10", "3/2", "2", "7/3", "10", "3", "4/3", "101/100", "13/7", "1000", "2001/1000"]
)
@pytest.mark.parametrize("start", [1, 3, 50])
def test_geometric_checkpoints_match_fraction_steps(start, factor):
    assert geometric_checkpoints(start, factor, 2000) == fraction_checkpoints(start, factor, 2000)


@pytest.mark.parametrize(
    "start,factor,max_depth",
    [
        (2**20, "3/2", 2**40),  # exact integers for 20 steps, then none
        (1, "2", 2**80),
        (3, "10", 3 * 10**25),  # the last step lands on max_depth exactly
        (7, "9/8", 10**9),
        (10**6, "1000001/1000000", 10**6 + 3000),
    ],
)
def test_geometric_checkpoints_match_fraction_steps_at_scale(start, factor, max_depth):
    assert geometric_checkpoints(start, factor, max_depth) == fraction_checkpoints(start, factor, max_depth)


def test_fine_geometric_checkpoints_take_linear_time():
    # about 92,000 steps; each grows the depth by at most 10**4 / 10**4 = 1,
    # so every depth from 1 to 10**4 is hit
    began = time.process_time()
    depths = geometric_checkpoints(1, "1.0001", 10**4)
    assert time.process_time() - began < 1
    assert depths == list(range(1, 10**4 + 1))


def test_stats_csv_layout():
    rows = running_stats(DigitStream.from_digits([0, 1, 2, 0], 3), [2, 4])
    text = stats_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "n,N0,N1,N2,v0,v1,v2,r,v0_dec,v1_dec,v2_dec,r_dec,truncated"
    first = lines[1].split(",")
    assert first[0] == "2"
    assert first[1:4] == ["1", "1", "0"]
    assert first[4] == "1/2"
    assert first[12] == "false"


def test_stats_json_mirror():
    rows = running_stats(DigitStream.from_digits([0, 1, 2, 0], 3), [2, 4])
    payload = json.loads(stats_to_json(rows))
    assert payload["base"] == 3
    assert payload["rows"][0]["counts"] == [1, 1, 0]
    assert payload["rows"][0]["mean"] == "1/2"
    assert payload["rows"][1]["truncated"] is False


def test_stats_export_rejects_empty():
    with pytest.raises(DomainError):
        stats_to_csv([])
    with pytest.raises(DomainError, match="mix bases"):
        stats_to_csv([PartialStats(2, 1, (1, 0)), PartialStats(3, 2, (1, 1, 0))])


def reference_decimal_str(value, digits=20) -> str:
    """Decimal rendering through a copy of the thread's default context."""
    f = Fraction(value)
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        return str(decimal.Decimal(f.numerator) / decimal.Decimal(f.denominator))


def reference_stats_table(rows, freq_decimals=True):
    """Statistics cells built from each row's properties, cell by cell."""
    base = rows[0].base
    header = ["n", *(f"N{i}" for i in range(base)), *(f"v{i}" for i in range(base)), "r"]
    header += [f"v{i}_dec" for i in range(base)] if freq_decimals else []
    header += ["r_dec", "truncated"]
    body = []
    for row in rows:
        cells = [str(row.n), *map(str, row.counts), *map(ratio_str, row.freqs), ratio_str(row.mean)]
        cells += map(reference_decimal_str, row.freqs) if freq_decimals else []
        body.append(cells + [reference_decimal_str(row.mean), str(row.truncated).lower()])
    return header, body


def test_decimal_str_matches_default_context_rendering():
    rng = random.Random(31)
    values = [Fraction(0), Fraction(1, 4), Fraction(3, 8), Fraction(1), Fraction(5), Fraction(-7, 2)]
    values += [Fraction(1, 7 * 10**9), Fraction(1, 10**30), Fraction(2, 3 * 10**25), Fraction(10**25, 3)]
    values += [Fraction(99999, 100000), Fraction(999999999999999999995, 10**21), Fraction(1, 2**64)]
    for _ in range(300):
        scale = 10 ** rng.randint(0, 40)
        values.append(Fraction(rng.randint(-(10**12), 10**12), rng.randint(1, 10**12) * scale))
    for value in values:
        for digits in range(1, 31):
            assert decimal_str(value, digits) == reference_decimal_str(value, digits), (value, digits)
    with pytest.raises(DomainError):
        decimal_str(Fraction(1, 3), 0)


def test_stats_table_matches_cell_by_cell_reference():
    rng = random.Random(32)
    for base in (2, 3, 10, 12):
        rows = []
        for _ in range(40):
            counts = [rng.choice((0, 1, rng.randint(0, 10**6))) for _ in range(base)]
            counts[rng.randrange(base)] += 1
            rows.append(PartialStats(base, sum(counts), tuple(counts), rng.random() < 0.2))
        for freq_decimals in (True, False):
            assert stats_table(rows, freq_decimals) == reference_stats_table(rows, freq_decimals)


def test_decimal_renderings_ignore_the_callers_context():
    expected = [decimal_str(Fraction(2, 3)), decimal_str(Fraction(1, 7 * 10**9))]
    assert expected == ["0.66666666666666666667", "1.4285714285714285714E-10"]
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.rounding, ctx.capitals, ctx.Emin = 3, decimal.ROUND_DOWN, 0, -5
        ctx.traps[decimal.Inexact] = True
        assert [decimal_str(Fraction(2, 3)), decimal_str(Fraction(1, 7 * 10**9))] == expected


def digit_by_digit_stats(digits, base, marks):
    """Reference: (n, counts, truncated) of each row, one digit at a time, as a loop over a list does."""
    counts, rows, pending = [0] * base, [], list(marks)
    for depth, digit in enumerate(digits, 1):
        counts[digit] += 1
        if pending and depth == pending[0]:
            rows.append((depth, tuple(counts), False))
            pending.pop(0)
            if not pending:
                return rows
    if rows and rows[-1][0] == len(digits):
        rows.pop()
    return rows + [(len(digits), tuple(counts), True)]


def random_chunks(rng, base):
    """Chunks of every kind, mixed: literal bytes or tuples, runs and periods, with the digits they hold."""
    pack = bytes if base <= 10 else tuple
    chunks, digits = [], []
    for _ in range(rng.randint(1, 7)):
        kind = rng.choice(["literal", "run", "period"])
        unit = [rng.randrange(base) for _ in range(1 if kind == "run" else rng.randint(1, 9))]
        if kind == "literal":
            chunks.append(pack(unit))
            digits += unit
        else:
            length = rng.choice([0, 1, len(unit), rng.randint(0, 40)])
            chunks.append(core._Repeat(pack(unit), length))
            digits += (unit * (length // len(unit) + 1))[:length]
    return chunks, digits


def chunk_stream(base, chunks, digits):
    return DigitStream._trusted(base, len(digits), lambda stop=None: iter(chunks))


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_repeat_chunks_match_the_digit_by_digit_counter(monkeypatch, chunk):
    # through with_prefix and _head, with checkpoints inside runs, at run ends, across
    # period boundaries and past the end; iteration, take and digit text write the same digits
    monkeypatch.setattr(core, "_CHUNK_DIGITS", chunk)
    rng = random.Random(chunk)
    for _ in range(150):
        base = rng.choice([2, 3, 10, 11, 257])
        chunks, digits = random_chunks(rng, base)
        prefix = [rng.randrange(base) for _ in range(rng.randint(0, 3))]
        cases = [(chunk_stream(base, chunks, digits), digits)]
        cases.append((with_prefix(prefix, chunk_stream(base, chunks, digits)), prefix + digits))
        cut = rng.randint(0, len(digits) + 2)
        cases.append((chunk_stream(base, chunks, digits)._head(cut), digits[:cut]))
        edges = list(itertools.accumulate(len(c) for c in chunks))
        for stream, expected in cases:
            candidates = {e + d for e in edges for d in (-1, 0, 1)} | set(rng.sample(range(1, 60), 5))
            marks = sorted(m for m in candidates if 1 <= m <= len(expected))
            marks += [len(expected) + rng.randint(1, 3)]
            if expected:
                rows = running_stats(stream, marks)
                assert [(r.n, r.counts, r.truncated) for r in rows] == digit_by_digit_stats(expected, base, marks)
            assert list(stream) == stream.take(len(expected) + 1) == expected
            assert "".join(core._digit_text(stream._chunks(), base)) == digits_to_text(expected, base)
        for piece in core._pieces(chunks):
            assert len(piece) <= max(chunk, *(len(c) for c in chunks if not isinstance(c, core._Repeat)), 0)
        for c in chunks:  # a prefix of a repeat is a shorter repeat of the same digits; no other cut is made
            if isinstance(c, core._Repeat):
                stop = rng.randint(0, len(c) + 2)
                part = c[:stop]
                whole = list(itertools.chain.from_iterable(core._pieces([c])))
                assert isinstance(part, core._Repeat)
                assert list(itertools.chain.from_iterable(core._pieces([part]))) == whole[:stop]
                with pytest.raises(ValueError):
                    c[1:]


def test_every_block_count_up_to_300_matches_the_enumerated_stream():
    spec, stream = construct_mean_without_frequency(1, "1/5", "2/5", "1/20", 300)
    digits = [d for row in spec.rows for d, run in enumerate(row) for _ in range(run)]
    marks = sorted(set(block_boundaries(spec)) - {0})
    rows = running_stats(stream, marks)
    assert [(r.n, r.counts, r.truncated) for r in rows] == digit_by_digit_stats(digits, 3, marks)
    assert len(rows) == len(marks) and marks[-1] == stream.length == len(digits)


def test_a_short_period_counts_at_depth_10_to_the_18():
    start = time.perf_counter()
    whole, part = divmod(10**18, 6)  # 1/7 = 0.(142857)
    [row] = running_stats(DigitStream.from_expansion(expand_rational(1, 7, 10)), [10**18])
    counts = [0] * 10
    for digit in (1, 4, 2, 8, 5, 7):
        counts[digit] = whole
    for digit in (1, 4, 2, 8):  # the first `part` digits of the period
        counts[digit] += 1
    assert part == 4 and row == PartialStats(10, 10**18, counts)
    assert row.mean == Fraction(27 * whole + 15, 10**18)
    assert time.perf_counter() - start < 1.0


def test_the_no_mean_stream_counts_at_depth_10_to_the_12():
    start = time.perf_counter()
    depth = 10**12
    zero_ends, one_ends = no_mean_zero_run_ends(depth), no_mean_one_run_ends(depth)
    marks = sorted(zero_ends + one_ends) + [depth]
    by_depth = {row.n: row for row in running_stats(construct._no_mean_stream(depth), marks)}
    for m, end in enumerate(zero_ends):  # 2^(m+1) - 1 zeros, then 2^m - 1 ones
        assert by_depth[end].counts == (2 ** (m + 1) - 1, 2**m - 1)
    for m, end in enumerate(one_ends):
        assert by_depth[end].counts == (2 ** (m + 1) - 1, 2 ** (m + 1) - 1)
        assert by_depth[end].mean == Fraction(1, 2)
    assert sum(by_depth[depth].counts) == depth and not by_depth[depth].truncated
    assert time.perf_counter() - start < 1.0


def bytes_count_rows(digits: bytes, base, marks):
    """Reference: (n, counts, truncated) of each row, each count one `bytes.count` over the prefix."""
    served = [m for m in marks if m <= len(digits)]
    rows = [(m, tuple(digits.count(d, 0, m) for d in range(base)), False) for m in served]
    if len(served) < len(marks):
        if served and served[-1] == len(digits):
            rows.pop()
        rows.append((len(digits), tuple(digits.count(d) for d in range(base)), True))
    return rows


def long_literals(rng, base, length):
    """Random digits, and runs of up to two pieces, `length` digits each, as digit values."""
    digits = rng.randbytes(length).translate(bytes(b % base for b in range(256)))
    runs = bytearray()
    while len(runs) < length:
        runs += bytes((rng.randrange(base),)) * rng.randint(1, 2 * stats._PIECE)
    return digits, bytes(runs[:length])


@pytest.mark.parametrize("base", range(2, 11))
def test_long_literal_segments_match_a_bytes_count_oracle(monkeypatch, base):
    # segments of the plane threshold minus 1, the threshold and the threshold plus 1, one piece
    # minus 1, one piece, one piece plus 1 and several pieces plus a remainder, cut by checkpoints
    # inside pieces, count as `bytes.count` counts them
    plane_runs = []
    monkeypatch.setattr(stats, "_planes", lambda real=stats._planes: plane_runs.append(1) or real())
    piece, rng = stats._PIECE, random.Random(base)
    threshold = stats._PLANE_DIGITS
    for length in (threshold - 1, threshold, threshold + 1, piece - 1, piece, piece + 1, 3 * piece + 123):
        for digits in long_literals(rng, base, length):
            inside = {rng.randint(1, length), piece // 2 + 1, piece + piece // 3, 2 * piece + 5, length}
            for marks in ([length], [1, length], sorted(m for m in inside if m <= length), [length - 1, length + 7]):
                expected = bytes_count_rows(digits, base, marks)
                for stream in (
                    DigitStream.from_digits(list(digits), base),
                    DigitStream.from_text(digits_to_text(list(digits), base), base),
                ):
                    rows = running_stats(stream, marks)
                    assert [(r.n, r.counts, r.truncated) for r in rows] == expected, (length, marks)
    assert bool(plane_runs) == (base != 2)  # base 2 keeps `bytes.count`


@pytest.mark.parametrize("base,bad", [(3, 5), (8, 8), (9, 9), (10, 10), (10, 255)])
def test_a_byte_not_below_the_base_in_a_long_literal_chunk_fails_the_row_check(base, bad):
    # no count takes the byte, so the counts fall short of the depth and the row is refused
    digits = bytearray(random.Random(bad).randbytes(3 * stats._PIECE).translate(bytes(b % base for b in range(256))))
    digits[stats._PIECE + 7] = bad
    stream = DigitStream._trusted(base, len(digits), lambda stop=None: iter([bytes(digits)]))
    with pytest.raises(DomainError, match="do not sum to depth"):
        running_stats(stream, [len(digits)])
    assert running_stats(stream, [stats._PIECE + 7])[0].n == stats._PIECE + 7  # the prefix before it counts


def reference_row_payload(row):
    """A JSON row as the Fraction path built it: one Fraction per frequency and for the mean."""
    values = [*row.freqs, row.mean]
    exact, decimals = list(map(str, values)), list(map(decimal_str, values))
    return {
        "n": row.n,
        "counts": list(row.counts),
        "freqs": exact[:-1],
        "freqs_decimal": decimals[:-1],
        "mean": exact[-1],
        "mean_decimal": decimals[-1],
        "truncated": row.truncated,
    }


def random_rows(rng, base):
    rows = []
    for _ in range(12):
        n = rng.choice([1, 2, 7, 10**6, rng.randint(1, 10**40), 10**40])
        counts = [0] * base
        if rng.random() < 0.3:
            counts[rng.randrange(base)] = n  # one count equal to n, every other one 0
        else:
            for _ in range(rng.randint(1, 4)):
                counts[rng.randrange(base)] += rng.randint(0, n)
            total = sum(counts) or 1
            counts = [c * n // total for c in counts]
            counts[rng.randrange(base)] += n - sum(counts)
        rows.append(PartialStats(base, n, counts, rng.random() < 0.2))
    return rows


def reference_stats_csv(rows):
    """Statistics CSV as `csv.writer` writes `stats_table`, which would quote any cell that needs it."""
    out = io.StringIO()
    header, body = stats_table(rows)
    csv.writer(out, lineterminator="\n").writerows([header, *body])
    return out.getvalue()


@pytest.mark.parametrize("base", [2, 3, 10, 11, 300])
def test_rows_joined_by_commas_match_the_csv_writer(base):
    rng = random.Random(base + 1)
    deep = PartialStats(base, 10**30, [10**30 - base + 1, *[1] * (base - 1)], truncated=True)
    for _ in range(10):
        rows = [*random_rows(rng, base), deep]
        assert stats_to_csv(rows) == reference_stats_csv(rows)


def test_csv_of_the_2000_block_rows_holds_no_table_of_cells():
    spec, stream = construct_mean_without_frequency(1, Fraction(1, 5), Fraction(2, 5), Fraction(1, 20), 2000)
    rows = running_stats(stream, sorted({d for d in block_boundaries(spec) if d >= 1}))
    assert len(rows) == 1998
    tracemalloc.start()
    try:
        text = stats_to_csv(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the text is about 280 KB; a table of every cell before writing peaked at about 2.5 MiB
    assert len(text) > 250_000 and peak < 1 << 20


@pytest.mark.parametrize("base", [2, 3, 11, 257])
def test_integer_built_cells_match_the_fraction_path(base):
    rng = random.Random(base)
    for _ in range(10):
        rows = random_rows(rng, base)
        for row in rows:
            numerators, exact, decimals = stats._row_cells(row)
            values = [Fraction(c, row.n) for c in numerators]
            assert values == [*row.freqs, row.mean]
            assert exact == [str(v) for v in values]
            assert decimals == [decimal_str(v) for v in values]
        payload = {"base": base, "rows": [reference_row_payload(row) for row in rows]}
        assert stats_to_json(rows) == json.dumps(payload, indent=2) + "\n"
        for freq_decimals in (True, False):
            assert stats_table(rows, freq_decimals) == reference_stats_table(rows, freq_decimals)
