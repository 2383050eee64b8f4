"""Tests for exact expansions and digit streams."""

import functools
import io
import os
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import accumulate, count, islice, product
from math import gcd, isqrt
from pathlib import Path

import pytest

from digitstats import (
    DigitStream,
    DomainError,
    ExperimentConfig,
    FrequencyProfile,
    PartialStats,
    RadixExpansion,
    beatty_indicator,
    build_oscillating_schedule,
    construct_mean_without_frequency,
    core,
    digits_to_text,
    evaluate_expansion,
    expand_rational,
    format_expansion,
    geometric_checkpoints,
    no_mean_one_run_ends,
    no_mean_zero_run_ends,
    normality_experiment,
    parse_expansion,
    parse_rational,
    quota_construct,
    running_stats,
    text_to_digits,
    trial_seed,
    with_prefix,
)
from digitstats import _periods, construct
from digitstats.rationals import decimal_str


def remainder_cycle_oracle(q: int, base: int) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Reference expansion (preperiod, period) of p/q for every p in [0, q), by long division.

    Long division of p/q steps the remainder r -> r*base mod q and writes
    the digit r*base // q. Each cycle of that map is walked once, and the
    period of a remainder on it is the cycle's digits read from there. A
    remainder off every cycle walks until it meets one: the digits on the
    way are its preperiod. Remainder 0 is the cycle of the digit 0.

    Every expansion is checked canonical: a cycle's word, as a period, by
    `RadixExpansion`, which holds for all its rotations too; and that no
    preperiod ends with the last digit of its period.
    """
    step = [r * base % q for r in range(q)]
    digit = [r * base // q for r in range(q)]
    period_of: dict[int, tuple[int, ...]] = {}
    for start in range(q):
        path: dict[int, int] = {}  # remainder -> its place on this walk
        r = start
        while r not in path and r not in period_of:
            path[r] = len(path)
            r = step[r]
        if r in path:  # a new cycle, from r to the end of the walk
            cycle = list(path)[path[r] :]
            word = [digit[c] for c in cycle]
            RadixExpansion(base, (), word)
            for i, c in enumerate(cycle):
                period_of[c] = tuple(word[i:] + word[:i])
    expansions = {}
    for p in range(q):
        preperiod = []
        r = p
        while r not in period_of:
            preperiod.append(digit[r])
            r = step[r]
        expansions[p] = (tuple(preperiod), period_of[r])
        assert not preperiod or preperiod[-1] != period_of[r][-1], (p, q, base)
    return expansions


@pytest.mark.parametrize(
    "p,q,base,preperiod,period",
    [
        (1, 2, 3, (), (1,)),
        (1, 3, 3, (1,), (0,)),
        (1, 4, 3, (), (0, 2)),
        (5, 6, 3, (2,), (1,)),
        (0, 1, 2, (), (0,)),
        (1, 3, 2, (), (0, 1)),
    ],
)
def test_expand_rational_known_values(p, q, base, preperiod, period):
    e = expand_rational(p, q, base)
    assert (e.preperiod, e.period) == (preperiod, period)


@pytest.mark.parametrize(
    "base,preperiod,period,value",
    [
        (3, (), (1,), Fraction(1, 2)),
        (3, (1,), (0,), Fraction(1, 3)),
        (2, (), (0, 1), Fraction(1, 3)),
    ],
)
def test_evaluate_expansion_known_values(base, preperiod, period, value):
    assert evaluate_expansion(RadixExpansion(base, preperiod, period)) == value


def test_round_trip_fuzz():
    rng = random.Random(20260815)
    for _ in range(300):
        q = rng.randint(1, 10**4)
        p = rng.randint(0, q - 1)
        base = rng.randint(2, 10)
        e = expand_rational(p, q, base)
        assert evaluate_expansion(e) == Fraction(p, q)
        assert e.period != (base - 1,) * len(e.period)
        reduced_q = Fraction(p, q).denominator
        total = len(e.preperiod) + len(e.period)
        if reduced_q >= 3:
            assert total < reduced_q
        else:
            # q in {1, 2}: 0 -> 0.(0) and e.g. 1/2 -> 0.5(0) in base 10,
            # so the length can reach q but never exceed it
            assert total <= 2


def test_parse_rational_refuses_an_exponent_past_the_int_string_limit():
    # Fraction would build 10**999999999 first; at the limit itself the power is still built
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    began = time.process_time()
    for text in ("1e999999999", "1e-999999999", f"1E+{limit + 1}", f"2.5e-{limit + 1}", "1e" + "9" * 10**5):
        with pytest.raises(DomainError, match=f"the exponent's magnitude exceeds {limit}$"):
            parse_rational(text)
    assert time.process_time() - began < 0.1
    assert parse_rational(f"1e{limit}") == 10**limit
    assert parse_rational(f" 1e-{limit}\n") == Fraction(1, 10**limit)
    assert parse_rational("2.5E+03") == 2500


def test_expand_rational_terminating_uses_zero_period():
    e = expand_rational(3, 8, 2)
    assert e.preperiod == (0, 1, 1)
    assert e.period == (0,)


def test_expand_rational_reduces_internally():
    assert expand_rational(2, 8, 3) == expand_rational(1, 4, 3)


@pytest.mark.parametrize("p,q", [(3, 2), (1, 0), (-1, 2), (2, 2), (1.0, 3), (1, Fraction(3))])
def test_expand_rational_domain_errors(p, q):
    with pytest.raises(DomainError):
        expand_rational(p, q, 3)


def test_expand_rational_bad_base():
    with pytest.raises(DomainError):
        expand_rational(1, 2, 1)


@pytest.mark.parametrize(
    "preperiod,period",
    [
        ((), ()),  # empty period
        ((), (2,)),  # all base-1
        ((), (2, 2)),
        ((), (0, 1, 0, 1)),  # not primitive
        ((1,), (2, 1)),  # absorbable suffix
        ((), (0, 1) * 360),  # not primitive, period length with many divisors
    ],
)
def test_expansion_canonical_invariants_enforced(preperiod, period):
    with pytest.raises(DomainError):
        RadixExpansion(3, preperiod, period)


def test_expansion_primitivity_names_shortest_repeating_word():
    with pytest.raises(DomainError, match=r"is a repetition of \(0, 1\)$"):
        RadixExpansion(3, (), (0, 1) * 6)
    assert len(RadixExpansion(3, (), (1,) + (0,) * 719).period) == 720


@pytest.mark.parametrize("base", [3, 12, 256, 300])
def test_expansion_checks_read_bytes_tuples_and_lists_alike(base):
    """Up to base 256 the canonical checks run on bytes; their messages name the digits as tuples in every base."""
    top = base - 1
    cases = [
        ((), (), "period must be non-empty; use (0,) for terminating expansions"),
        ((), (top, top), f"period of all {top}s is the non-canonical twin representation"),
        ((), (0, 1, 0, 1), "period (0, 1, 0, 1) is a repetition of (0, 1)"),
        ((1,), (2, 1), "preperiod suffix could be absorbed into the period"),
        ((), (1, base), f"digit {base} out of range for base {base}"),
    ]
    kinds = [tuple, list, iter] + ([bytes] if base <= 255 else [])
    for preperiod, period, message in cases:
        for kind in kinds:
            with pytest.raises(DomainError) as caught:
                RadixExpansion(base, kind(preperiod), kind(period))
            assert str(caught.value) == message, (kind, period)
    for kind in kinds:
        expansion = RadixExpansion(base, kind((2, 0)), kind((1, 0, 1, 1)))
        assert (expansion.preperiod, expansion.period) == ((2, 0), (1, 0, 1, 1))
        assert {type(d) for d in expansion.preperiod + expansion.period} == {int}


def all_divisors_root(word: tuple) -> int:
    """The length of the shortest word that `word` is a power of: every divisor of its length tried in ascending order."""
    n = len(word)
    return next(w for w in range(1, n + 1) if n % w == 0 and word == word[:w] * (n // w))


def test_primitivity_by_prime_cofactors_matches_the_all_divisors_search():
    # every word up to length 12 in bases 2 and 3
    for base in (2, 3):
        for n in range(1, 13):
            for word in product(range(base), repeat=n):
                assert core._root(word) == all_divisors_root(word), word
    # lengths with many divisors: a power of a word of each length that divides them, and the
    # same with one digit changed, which no rotation but the whole word matches
    rng = random.Random(49995)
    for n in (360, 720, 5040, 49995):
        for width in (w for w in range(1, n + 1) if n % w == 0):
            word = tuple(rng.randrange(2) for _ in range(width)) * (n // width)
            changed = word[:-1] + (1 - word[-1],)
            for period in (word, changed):
                expected = all_divisors_root(period)
                assert core._root(period) == expected, (n, width)
                if period.count(1) == n:  # the non-canonical twin, named as such
                    continue
                if expected == n:
                    assert RadixExpansion(2, (), period).period == period
                else:
                    with pytest.raises(DomainError) as caught:
                        RadixExpansion(2, (), period)
                    assert str(caught.value) == f"period {period} is a repetition of {period[:expected]}"


def test_expand_rational_matches_long_division_oracle():
    for base in range(2, 17):
        for q in range(1, 301):
            expansions = remainder_cycle_oracle(q, base)
            for p in range(q):
                if gcd(p, q) == 1:
                    expansion = expand_rational(p, q, base)
                    assert (expansion.base, expansion.preperiod, expansion.period) == (base, *expansions[p]), (p, q, base)


def long_division(p: int, q: int, base: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(preperiod, period) of p/q in lowest terms, one digit per step of the remainder r -> r*base mod q.

    A preperiod is shorter than q.bit_length() digits, so the remainder
    after that many steps lies on the cycle: the period is as long as the
    walk back to it, and the preperiod ends at the first remainder that
    recurs that many steps later.
    """
    digits, r = [], p
    for _ in range(q.bit_length()):
        r *= base
        digits.append(r // q)
        r %= q
    start = r
    while True:
        r *= base
        digits.append(r // q)
        r %= q
        if r == start:
            break
    length = len(digits) - q.bit_length()
    m = next(k for k in count() if p * pow(base, k, q) % q == p * pow(base, k + length, q) % q)
    return tuple(digits[:m]), tuple(digits[m : m + length])


@pytest.mark.parametrize(
    "p,q,base",
    [(12345, 99991, 10), (1, 99991, 2), (777, 3 * 99991, 16), (5, 2**80 * 7, 12)]
    + [(1, 999983, 3), (1, 999983, 10), (1, 999983, 16), (12345, 99991, 3), (12345, 99991, 16)]
    + [(5, 32 * 999983, 10), (5, 32 * 999983, 12), (5, 32 * 999983, 16)],  # with a preperiod
)
def test_long_expansion_round_trip(p, q, base):
    e = expand_rational(p, q, base)
    assert len(e.preperiod) + len(e.period) > 40
    assert (e.preperiod, e.period) == long_division(p, q, base)
    assert evaluate_expansion(e) == Fraction(p, q)


def division_digits(remainder: int, q: int, base: int, count: int) -> tuple[int, ...]:
    """`count` digits of long division from `remainder`, one remainder step each."""
    digits = []
    for _ in range(count):
        remainder *= base
        digits.append(remainder // q)
        remainder %= q
    return tuple(digits)


def test_long_expansions_under_the_smallest_int_string_limit():
    """Long periods expand, evaluate and round-trip under the smallest limit `sys.set_int_max_str_digits` accepts."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        pytest.skip("this Python has no int-string limit")
    previous = sys.get_int_max_str_digits()
    set_limit(640)
    try:
        q = 999983
        for base in (10, 2, 8, 16):
            period = expand_rational(1, q, base).period
            length = len(period)
            # the period's length is the order of the base modulo q, and its ends are those of long division
            assert pow(base, length, q) == 1
            assert all(pow(base, cofactor, q) != 1 for cofactor in core._prime_cofactors(length))
            assert period[:2000] == division_digits(1, q, base, 2000)
            assert period[-2000:] == division_digits(pow(base, length - 2000, q), q, base, 2000)
        for base in (3, 10):
            expansion = expand_rational(12345, 99991, base)
            assert len(expansion.period) > 640
            assert evaluate_expansion(expansion) == Fraction(12345, 99991)
            assert parse_expansion(format_expansion(expansion)) == expansion
    finally:
        set_limit(previous)


def walk_length(base: int, modulus: int) -> int:
    """The length of the cycle of r -> r*base mod `modulus` through 1, walked one remainder at a time."""
    r, length = base % modulus, 1
    while r != 1:
        r = r * base % modulus
        length += 1
    return length


@pytest.mark.parametrize("baby_steps", [core._BABY_STEPS, 5])
def test_order_matches_the_remainder_walk(monkeypatch, baby_steps):
    monkeypatch.setattr(core, "_BABY_STEPS", baby_steps)
    for base in range(2, 17):
        for q in range(2, 3001):
            if gcd(q, base) == 1:
                assert core._order(base, q) == walk_length(base, q), (base, q)


def test_order_search_memory_does_not_grow_with_the_modulus():
    """A period of 20000 digits modulo 2**20000 - 1: the baby steps hold no more bits than 2**16 residues of 64 bits."""
    tracemalloc.start()
    try:
        expansion = expand_rational(12345, 2**20000 - 1, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # a table of all 20000 baby steps, 20000 bits each, takes about 28 MB
    assert len(expansion.period) == 20000
    assert evaluate_expansion(expansion) == Fraction(12345, 2**20000 - 1)


def merged_value(expansion: RadixExpansion) -> Fraction:
    """The value by the merge alone: the oracle for `evaluate_expansion`, which reads most values off leading digits.

    (P * (b^L - 1) + R) / ((b^L - 1) * b^m), with the m preperiod digits
    read as P and the L period digits as R by `_periods._digits_value`.
    """
    b, preperiod, period = expansion.base, expansion.preperiod, expansion.period
    scale = b ** len(period) - 1
    value = _periods._digits_value
    return Fraction(value(preperiod, b) * scale + value(period, b), scale * b ** len(preperiod))


def coprime_sample(q: int, rng: random.Random) -> list[int]:
    """Every p in [0, q) coprime to q for q up to 30; above, 1, q - 1 and three at random."""
    ps = [p for p in range(q) if gcd(p, q) == 1]
    return ps if q <= 30 else sorted({ps[0], ps[-1], *rng.sample(ps, 3)})


@pytest.mark.parametrize("bits", [18, 1])
def test_evaluate_expansion_matches_the_merge_for_small_denominators(monkeypatch, bits):
    """Every q <= 300 in bases 2-16, read from fewer leading digits than b**K >= 2**129 asks for.

    At 18 bits every denominator up to 300 is read off the leading digits;
    at 1 bit most candidates are wrong and must be rejected.
    """
    monkeypatch.setattr(_periods, "_LEGENDRE_BITS", bits)
    rng = random.Random(300 + bits)
    for base in range(2, 17):
        for q in range(1, 301):
            for p in coprime_sample(q, rng):
                expansion = expand_rational(p, q, base)
                assert evaluate_expansion(expansion) == merged_value(expansion) == Fraction(p, q), (p, q, base)


def refuse_long_merges(monkeypatch, longest: int) -> None:
    """Make `_periods._digits_value` fail on more than `longest` digits: reading a value off them needs no more."""
    digits_value = _periods._digits_value

    def short_only(digits, base):
        assert len(digits) <= longest, f"merged {len(digits)} digits"
        return digits_value(digits, base)

    monkeypatch.setattr(_periods, "_digits_value", short_only)


@pytest.mark.parametrize(
    "p,q,base",
    [(12345, 99991, 10), (1, 99991, 2), (777, 3 * 99991, 16), (1, 999983, 3), (1, 999983, 10), (1, 999983, 16)]
    + [(5, 32 * 999983, 10), (5, 32 * 999983, 12), (1, 2**60, 10), (1, 3 * 2**60, 10), (2**62 - 1, 2**63, 2)],
)
def test_long_expansions_evaluate_from_their_leading_digits(monkeypatch, p, q, base):
    """A denominator below 2**64, with or without a preperiod: no more digits are merged than b**K >= 2**129 needs."""
    expansion = expand_rational(p, q, base)
    refuse_long_merges(monkeypatch, -(-_periods._LEGENDRE_BITS // (base.bit_length() - 1)))
    assert evaluate_expansion(expansion) == Fraction(p, q)


def random_expansion(base: int, rng: random.Random, longest: int) -> RadixExpansion:
    """A canonical expansion of at most `longest` random digits: most often of no fraction with a small denominator."""
    while True:
        preperiod = [rng.randrange(base) for _ in range(rng.randrange(longest // 2))]
        period = [rng.randrange(base) for _ in range(rng.randrange(1, longest // 2))]
        try:
            return RadixExpansion(base, preperiod, period)
        except DomainError:  # not canonical: draw again
            continue


def test_evaluate_expansions_of_random_digits_match_the_merge():
    rng = random.Random(129)
    for base in (2, 3, 7, 10, 12, 16, 255, 256, 257, 2**64):
        for _ in range(40):
            expansion = random_expansion(base, rng, 400)
            assert evaluate_expansion(expansion) == merged_value(expansion), expansion


def test_digits_value_matches_horners_rule():
    # the merge reads up to base 10 in text pieces of _VALUE_DIGITS digits; around each piece edge it must
    # give the value a digit at a time gives (`merged_value`, the oracle above, reads values through it)
    rng = random.Random(600)
    for base in (2, 3, 10, 12):
        for length in (0, 1, 599, 600, 601, 1199, 1200, 1201, 1800, 2501):
            digits = [rng.randrange(base) for _ in range(length)]
            assert _periods._digits_value(digits, base) == functools.reduce(lambda v, d: v * base + d, digits, 0)


def test_evaluate_expansion_rejects_a_round_trip_with_one_period_digit_changed():
    """The leading digits still give p/q, of the right preperiod and period lengths: only the last check rejects it."""
    rng = random.Random(99991)
    checked = 0
    for base, q in [(10, 9973), (3, 7 * 9973), (16, 2**10 * 9973), (12, 6**5 * 4481), (2, 99991)]:
        for _ in range(5):
            p = rng.randrange(1, q)
            expansion = expand_rational(p, q, base)
            period = list(expansion.period)
            place = rng.randrange(100, len(period))  # past the digits the candidate is read from
            period[place] = (period[place] + rng.randrange(1, base)) % base
            try:
                changed = RadixExpansion(base, expansion.preperiod, period)
            except DomainError:  # the change broke the canonical form
                continue
            assert evaluate_expansion(changed) == merged_value(changed) != Fraction(p, q)
            checked += 1
    assert checked >= 20


def test_evaluate_expansion_of_a_terminating_long_preperiod():
    for base, q in [(10, 2**300), (10, 5**300 * 2**7), (12, 2**600 * 3**5), (2, 2**1000)]:
        expansion = expand_rational(1, q, base)
        assert expansion.period == (0,) and len(expansion.preperiod) >= 300
        assert evaluate_expansion(expansion) == merged_value(expansion) == Fraction(1, q)


def test_evaluate_expansion_never_expands_a_candidate_whose_period_cannot_be_held(monkeypatch):
    """Leading digits of 1/(10**18 + 3), whose period has about 10**18 digits, then a short period.

    The candidate 1/(10**18 + 3) fails the preperiod or period length check, so it is never expanded.
    """
    q = 10**18 + 3
    head = tuple(int(d) for d in str(10**60 // q).zfill(60))
    leading = Fraction(_periods._digits_value(head[:43], 10), 10**43)  # the K = 43 digits read in base 10
    assert leading.limit_denominator(isqrt(10**43 // 2)) == Fraction(1, q)
    cases = [
        RadixExpansion(10, head, (1, 2) if head[-1] != 2 else (2, 1)),
        RadixExpansion(10, (), head + (1, 2)),
        RadixExpansion(10, head + (4,) * 700, (3,)),
    ]
    monkeypatch.setattr(_periods, "expand_rational", lambda *args: pytest.fail(f"expanded {args}"))
    for expansion in cases:
        assert Fraction(1, q) != evaluate_expansion(expansion) == merged_value(expansion)


def test_base_validation():
    assert DigitStream.constant(0, 2).base == RadixExpansion(2, (), (0,)).base == 2
    for base in [1, 0, -2, 2.0, 3.0, "3", None, Index(1)]:
        constructors = [
            lambda: DigitStream.from_digits([], base),
            lambda: DigitStream.constant(0, base),
            lambda: DigitStream.from_function(lambda n: 0, base),
            lambda: RadixExpansion(base, (), (0,)),
            lambda: expand_rational(0, 1, base),
            lambda: FrequencyProfile(base, (Fraction(1, 3),) * 3),
            lambda: PartialStats(base, 1, (1, 0, 0)),
        ]
        for construct in constructors:
            with pytest.raises(DomainError, match="base must be an integer >= 2"):
                construct()
    # any operator.index integer is a base, kept as a plain int
    records = [
        DigitStream.from_digits([0, 1, 2], Index(3)),
        DigitStream.constant(0, Index(3)),
        DigitStream.from_function(lambda n: 0, Index(3)),
        RadixExpansion(Index(3), (), (1,)),
        expand_rational(Index(1), Index(9), Index(3)),
        FrequencyProfile(Index(3), (Fraction(1, 3),) * 3),
        PartialStats(Index(3), 1, (1, 0, 0)),
    ]
    assert [(record.base, type(record.base)) for record in records] == [(3, int)] * len(records)
    assert expand_rational(Index(1), Index(7), Index(10)) == expand_rational(1, 7, 10)


def test_digit_stream_is_rereadable():
    stream = DigitStream.from_digits([0, 1, 2, 1], 3)
    assert list(stream) == list(stream) == [0, 1, 2, 1]
    assert stream.length == 4
    assert stream.take(2) == [0, 1]
    assert stream.take(10) == [0, 1, 2, 1]


def test_digit_stream_validates_digits():
    with pytest.raises(DomainError):
        DigitStream.from_digits([0, 3], 3)


@pytest.mark.parametrize("digits", [[-1], [1, 1.0], [0, "1"], [None], [[1]], [Fraction(1)]])
def test_digit_stream_rejects_non_int_or_negative_digits(digits):
    with pytest.raises(DomainError, match="out of range for base 3"):
        DigitStream.from_digits(digits, 3)


def test_digit_stream_accepts_int_subclasses():
    assert DigitStream.from_digits((True, False, 2), 3).take(3) == [True, False, 2]


class Index:
    """An integer-like type that is not an int."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("base", [3, 11, 256, 257, 2**70])
def test_every_public_digit_check_keeps_plain_ints(base):
    digits = (True, Index(2), False, Index(base - 1))
    expected = [1, 2, 0, base - 1]
    streams = [
        DigitStream.from_digits(digits, base),
        DigitStream.from_digits(iter(digits), base),
        with_prefix(digits, DigitStream.from_digits([], base)),
        DigitStream(base, lambda: iter(digits), 4),
    ]
    for stream in streams:
        assert stream.take(4) == expected
        assert {type(d) for d in stream} == {int}
    assert [type(d) for d in DigitStream.constant(Index(1), base).take(2)] == [int, int]
    expansion = RadixExpansion(base, (Index(1),), (True, False))
    assert (expansion.preperiod, expansion.period) == ((1,), (1, 0))
    assert {type(d) for d in expansion.preperiod + expansion.period} == {int}


@pytest.mark.parametrize("base", [3, 11, 256, 257])
def test_public_digit_checks_reject_with_the_same_message(base):
    for bad in (-1, base, 2**70, -(2**70), Index(base), Index(-1), 1.0, "1", None):
        message = f"digit {bad!r} out of range for base {base}"
        builds = [
            lambda: DigitStream.from_digits([0, bad, 1.5], base),
            lambda: DigitStream.constant(bad, base),
            lambda: with_prefix([1, bad], DigitStream.constant(0, base)),
            lambda: RadixExpansion(base, (0,), (1, bad)),
        ]
        if not isinstance(bad, (float, str, type(None))):  # a lazy stream names a non-integer by its depth
            lazies = (DigitStream(base, lambda: iter([0, bad])), DigitStream.from_function([0, 0, bad].__getitem__, base))
            for lazy in lazies:
                builds += [lambda lazy=lazy: lazy.take(2), lambda lazy=lazy: running_stats(lazy, [2])]
        for build in builds:
            with pytest.raises(DomainError) as caught:
                build()
            assert str(caught.value) == message


def test_checkpoints_and_lengths_take_any_integer():
    # checkpoints and lengths go through operator.index, as counts and depths do
    rows = running_stats(DigitStream.from_digits([0, 1, 1], 2), [Index(2), Index(3)])
    assert [(row.n, type(row.n)) for row in rows] == [(2, int), (3, int)]
    parity = DigitStream.from_function(lambda n: n % 2, 2, Index(3))
    for stream in (DigitStream(2, lambda: iter([1, 0, 1]), Index(3)), parity):
        assert (stream.length, type(stream.length), list(stream)) == (3, int, [1, 0, 1])
    for build in (
        lambda: running_stats(DigitStream.constant(0, 2), [Index(0)]),
        lambda: running_stats(DigitStream.constant(0, 2), [1.0]),
        lambda: DigitStream.from_function(lambda n: 0, 2, Index(-1)),
        lambda: DigitStream(2, lambda: iter([]), 1.0),
    ):
        with pytest.raises(DomainError):
            build()


def test_from_digits_keeps_one_byte_per_digit():
    digits = [i * 7 % 3 for i in range(2**20)]
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        stream = DigitStream.from_digits(digits, 3)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept - before < 1.05 * 2**20  # a tuple would hold 8 bytes per digit
    assert stream.length == 2**20
    assert stream.take(7) == digits[:7]
    assert list(stream) == digits


def test_digit_stream_constant_and_function():
    assert DigitStream.constant(2, 3).take(4) == [2, 2, 2, 2]
    parity = DigitStream.from_function(lambda n: n % 2, 2, length=5)
    assert list(parity) == [1, 0, 1, 0, 1]
    assert parity.length == 5


def test_digit_stream_from_expansion():
    stream = DigitStream.from_expansion(expand_rational(5, 6, 3))
    assert stream.take(6) == [2, 1, 1, 1, 1, 1]
    assert stream.length is None
    # 1/14 = 0.0(714285): the take spans three periods and more
    stream = DigitStream.from_expansion(expand_rational(1, 14, 10))
    assert stream.take(22) == list(text_to_digits("0714285714285714285714", 10))


def test_digit_stream_from_function_calls_once_per_digit(monkeypatch):
    for chunk in (1, 3, 7, core._CHUNK_DIGITS):
        monkeypatch.setattr(core, "_CHUNK_DIGITS", chunk)
        positions = []
        stream = DigitStream.from_function(lambda n: positions.append(n) or n % 2, 2)
        assert stream.take(5) == [1, 0, 1, 0, 1]
        assert positions == [1, 2, 3, 4, 5]
        positions.clear()
        assert list(islice(stream, 4)) == [1, 0, 1, 0]
        assert positions == [1, 2, 3, 4]


def independent_streams(base, tmp_path):
    """(name, stream, expected digits) for every kind of stream: all its digits, or the first 300.

    The expected digits are built here, not read from a stream: an
    expansion's from p * base**k // q, block runs from the rows of their
    spec, and digit texts are written from the digit list.
    """
    rng = random.Random(base)
    digits = [rng.randrange(base) for _ in range(23)]
    text = ("" if base <= 10 else ",").join(map(str, digits))
    path = tmp_path / f"digits{base}.txt"
    path.write_text(text)
    squares = [n * n % base for n in range(1, 301)]
    constant = base - 1
    cases = [
        ("from_digits", DigitStream.from_digits(digits, base), digits),
        ("init", DigitStream(base, lambda: iter(digits), len(digits)), digits),
        ("from_function", DigitStream.from_function(lambda n: digits[n - 1], base, len(digits)), digits),
        ("from_function unbounded", DigitStream.from_function(lambda n: n * n % base, base), squares),
        ("from_text", DigitStream.from_text(text, base), digits),
        ("from_file", DigitStream.from_file(path, base), digits),
        ("with_prefix", with_prefix(digits[:5], DigitStream.from_digits(digits[5:], base)), digits),
        ("with_prefix constant", with_prefix(digits[:4], DigitStream.constant(constant, base)), digits[:4] + [constant] * 296),
        ("constant", DigitStream.constant(constant, base), [constant] * 300),
    ]
    # periods of 1, 2 and (for every base here) more than 7 digits, with and without a preperiod
    for p, q in [(0, 1), (1, base * base), (1, base + 1), (5, 97), (13, 6 * 97 * base)]:
        expected = [p * base**k // q % base for k in range(1, 301)]
        cases.append((f"from_expansion {p}/{q}", DigitStream.from_expansion(expand_rational(p, q, base)), expected))
    if base == 3:
        spec, blocks = construct_mean_without_frequency(1, "1/5", "2/5", "1/20", 8)
        block_digits = [d for row in spec.rows for d, run in enumerate(row) for _ in range(run)]
        cases.append(("block", blocks, block_digits))
    return cases


@pytest.mark.parametrize("base", [2, 3, 10, 11, 16, 257])
@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_take_and_iteration_match_independent_digits_at_every_chunk_edge(monkeypatch, tmp_path, base, chunk):
    monkeypatch.setattr(core, "_CHUNK_DIGITS", chunk)
    for name, stream, expected in independent_streams(base, tmp_path):
        bounded = stream.length is not None
        assert not bounded or stream.length == len(expected), name
        # where the stream's own chunks end, and where chunks cut every `chunk` digits end
        edges = list(accumulate(map(len, islice(stream._chunks(), 12))))
        edges += range(chunk, 12 * chunk + 1, chunk)
        length = len(expected)
        counts = {0, 1, length, length + 1, length + 2 * chunk + 1}
        counts |= {edge + d for edge in edges for d in (-1, 0, 1)}
        for n in sorted(c for c in counts if 0 <= c and (bounded or c <= length)):
            want = expected[:n]
            assert stream.take(n) == want, (name, n)
            assert list(islice(iter(stream), n)) == want, (name, n)
            head = stream._head(n)
            assert head.length == len(want), (name, n)
            assert head.take(n + 1) == list(head) == want, (name, n)
            if want:  # counted to its end, and past it
                counts_of_want = tuple(want.count(d) for d in range(base))
                assert running_stats(head, [len(want)]) == [PartialStats(base, len(want), counts_of_want)], (name, n)
                assert running_stats(head, [len(want) + 1])[-1].truncated, (name, n)
            for k in (n // 2, n + 1):
                assert head._head(k).take(k + 1) == want[:k], (name, n, k)
        assert {type(d) for d in stream.take(40)} == {int}, name


def test_only_core_makes_cuts_or_bounds_chunks():
    # construct supplies digit rules and the CLI writes bounded streams; neither handles chunks itself
    from digitstats import cli, construct

    for module in (construct, cli):
        names = vars(module)
        assert not {"_first", "_take", "_periodic", "_pieces", "_Repeat", "_Chunk"} & names.keys(), module.__name__
        assert core not in names.values(), module.__name__


def test_with_prefix_identity_and_concatenation():
    base_stream = DigitStream.constant(0, 3)
    assert with_prefix([], base_stream).take(3) == [0, 0, 0]
    assert with_prefix([0, 1, 2], base_stream).take(5) == [0, 1, 2, 0, 0]


def test_with_prefix_length_and_validation():
    tail = DigitStream.from_digits([1, 1], 3)
    assert with_prefix([2], tail).length == 3
    with pytest.raises(DomainError):
        with_prefix([5], tail)


def test_with_prefix_counting_identity():
    rng = random.Random(7)
    prefix = [rng.randrange(3) for _ in range(6)]
    tail_digits = [rng.randrange(3) for _ in range(40)]
    combined = with_prefix(prefix, DigitStream.from_digits(tail_digits, 3))
    merged = combined.take(46)
    k = len(prefix)
    for n in range(1, 47):
        for i in range(3):
            expected = prefix[: min(n, k)].count(i) + tail_digits[: max(0, n - k)].count(i)
            assert merged[:n].count(i) == expected


def test_format_and_parse_round_trip():
    for p, q, base in [(1, 4, 3), (5, 6, 3), (1, 3, 2), (7, 13, 10)]:
        e = expand_rational(p, q, base)
        assert parse_expansion(format_expansion(e)) == e
    assert format_expansion(expand_rational(1, 4, 3)) == "0.(02)_3"


def test_format_parse_large_base_uses_commas():
    e = expand_rational(7, 24, 12)
    text = format_expansion(e)
    assert text.endswith("_12") and "," in text
    assert parse_expansion(text) == e


@pytest.mark.parametrize("text", ["0.1(2", "1.0(1)_3", "0.(1)_x", "0.1,2(3)_3"])
def test_parse_expansion_rejects_malformed(text):
    with pytest.raises(DomainError):
        parse_expansion(text)


@pytest.mark.parametrize(
    "base,digits,text",
    [(10, (0, 1, 9, 5), "0195"), (3, (), ""), (2, (1,), "1"), (16, (15, 0, 10), "15,0,10"), (11, (10,), "10")],
)
def test_digit_text_round_trip(base, digits, text):
    assert digits_to_text(digits, base) == text
    assert text_to_digits(text, base) == digits


def random_chunks(rng, base, chunk):
    """Chunks of every kind `_digit_text` meets, with their digits written out here, not by `_pieces`.

    Literal bytes (empty ones, and one object given twice in a row), runs
    of one digit and repeats of longer units, each as long as a piece, as
    `chunk`, or shorter or longer; a unit longer than `chunk` too.
    """
    chunks, digits = [], []
    for _ in range(12):
        kind = rng.randrange(4)
        if kind == 0:
            literal = bytes(rng.randrange(base) for _ in range(rng.randrange(3 * chunk)))
            parts = [literal] * rng.randint(1, 2)
            expected = list(literal) * len(parts)
        else:
            unit = bytes(rng.randrange(base) for _ in range(1 if kind == 1 else rng.randint(2, 2 * chunk + 1)))
            length = rng.choice([0, 1, chunk - 1, chunk, chunk + 1, rng.randrange(5 * chunk)])
            parts = [core._Repeat(core._RUN_UNITS[unit[0]] if len(unit) == 1 else unit, length)]
            expected = (list(unit) * (length // len(unit) + 1))[:length]
        chunks += parts
        digits += expected
    return chunks, digits


@pytest.mark.parametrize("base", [2, 3, 10])
@pytest.mark.parametrize("chunk", [1, 3, 7, None])
def test_digit_text_matches_each_digit_written_alone(monkeypatch, base, chunk):
    if chunk is not None:
        monkeypatch.setattr(core, "_CHUNK_DIGITS", chunk)
    rng = random.Random(base * 100 + (chunk or 0))
    for _ in range(20 if chunk else 1):  # at the real piece size a chunk holds up to 5 * 65,536 digits
        chunks, digits = random_chunks(rng, base, chunk or core._CHUNK_DIGITS)
        text = "".join(map(str, digits))
        assert "".join(core._digit_text(chunks, base)) == text
        for n in sorted({0, 1, len(digits) - 1, len(digits), *rng.sample(range(len(digits) + 1), min(8, len(digits)))}):
            assert "".join(core._digit_text(core._first(chunks, n), base)) == text[:n], n


def test_text_to_digits_ignores_ascii_whitespace():
    assert text_to_digits(" 01\n2\t\r\v\f0", 3) == (0, 1, 2, 0)
    assert text_to_digits("10,11 2\n,3\t0", 12) == (10, 11, 2, 3, 0)


@pytest.mark.parametrize(
    "text,base",
    [
        ("12\u00b2", 10),  # superscript two
        ("1\u0663", 10),  # Arabic-Indic three
        ("1\u00a02", 10),  # no-break space
        ("1,2", 10),
        ("-1", 10),
        ("1,\u0663", 16),
        ("1_0", 16),
        ("+2", 16),
        ("0x1", 16),
    ],
)
def test_text_to_digits_rejects_anything_but_ascii_digits(text, base):
    with pytest.raises(DomainError, match="invalid digit character"):
        text_to_digits(text, base)


def test_text_to_digits_rejects_overlong_token():
    with pytest.raises(DomainError, match="too long"):
        text_to_digits("1" * 5000, 16)


def test_parse_expansion_rejects_overlong_base():
    with pytest.raises(DomainError, match="too long"):
        parse_expansion("0.(1)_" + "9" * 5000)


def test_text_to_digits_checks_its_base_and_its_digits():
    with pytest.raises(DomainError, match="digit 5 out of range for base 3"):
        text_to_digits("0150", 3)
    for base in (1, 0, -5, 2.5):
        with pytest.raises(DomainError, match="base must be an integer >= 2"):
            text_to_digits("0120", base)
    for base in (1, 0):  # the base is named before a digit of the expansion is read
        with pytest.raises(DomainError, match=f"base must be an integer >= 2, got {base}"):
            parse_expansion(f"0.(1)_{base}")
    with pytest.raises(DomainError, match="digit 5 out of range for base 3"):
        parse_expansion("0.(5)_3")


@pytest.mark.parametrize(
    "name,call",
    [
        ("count", lambda bad: DigitStream.constant(0, 2).take(bad)),
        ("count", lambda bad: quota_construct(FrequencyProfile(2, (1, 0)), bad)),
        ("horizon", lambda bad: build_oscillating_schedule("1/5", "2/5", "1/20", bad)),
        ("blocks", lambda bad: construct_mean_without_frequency(1, "1/5", "2/5", "1/20", blocks=bad)),
        ("n", lambda bad: beatty_indicator("1/3", bad)),
        ("start", lambda bad: geometric_checkpoints(bad, 2, 10)),
        ("max_depth", lambda bad: geometric_checkpoints(1, 2, bad)),
        ("max_depth", lambda bad: no_mean_zero_run_ends(bad)),
        ("max_depth", lambda bad: no_mean_one_run_ends(bad)),
        ("trial_index", lambda bad: trial_seed(1, bad)),
        ("workers", lambda bad: normality_experiment(ExperimentConfig(3, 10, 2, 1), 0, workers=bad)),
        ("digits", lambda bad: decimal_str(Fraction(1, 3), bad)),
    ],
)
@pytest.mark.parametrize("bad", [2.5, 10.5, "3", None, Fraction(3)])
def test_public_integer_sizes_reject_non_integers(name, call, bad):
    with pytest.raises(DomainError) as caught:
        call(bad)
    assert str(caught.value) == f"{name} must be an integer, got {bad!r}"


@pytest.mark.parametrize("digits, base, bad", [([1, 12, 3], 10, 12), ([1, 300], 10, 300), ([1, -1], 16, -1)])
def test_digits_to_text_checks_its_digits(digits, base, bad):
    # a digit not in [0, base) has no digit text that reads back as it, so it is refused like from_digits refuses it
    with pytest.raises(DomainError, match=f"^digit {bad} out of range for base {base}$"):
        digits_to_text(digits, base)


def chunk_kinds(stream: DigitStream) -> set[type]:
    """The types of the literal digits of a stream's first chunks: the chunks, or their units where they repeat."""
    return {type(c.unit if isinstance(c, core._Repeat) else c) for c in islice(stream._chunks(), 4)}


@pytest.mark.parametrize("base", [11, 16, 256, 257])
def test_every_stream_holds_its_digits_as_bytes_up_to_base_256(tmp_path, base):
    # a byte holds every digit up to base 256, so no constructor keeps a tuple there; above, all keep tuples
    rng = random.Random(base)
    digits = [base - 1, 0, *(rng.randrange(base) for _ in range(40))]
    text = digits_to_text(digits, base)
    path = tmp_path / "digits.txt"
    path.write_text(text)
    profile = FrequencyProfile(base, [Fraction(1, 3), Fraction(2, 3), *[0] * (base - 2)])
    streams = {
        "from_digits": DigitStream.from_digits(digits, base),
        "from_text": DigitStream.from_text(text, base),
        "from_file": DigitStream.from_file(path, base),
        "_read_once": DigitStream._read_once(io.BytesIO(text.encode()), base),
        "constant": DigitStream.constant(base - 1, base),
        "from_expansion": DigitStream.from_expansion(expand_rational(1, 14, base)),
        "with_prefix": with_prefix(digits, DigitStream.constant(1, base)),
        "DigitStream": DigitStream(base, lambda: iter(digits), len(digits)),
        "DigitStream, unbounded": DigitStream(base, lambda: iter(digits)),
        "from_function": DigitStream.from_function(lambda n: digits[n - 1], base, len(digits)),
        "quota": construct._quota_stream(profile, 10**6),
        "_head": DigitStream.from_digits(digits, base)._head(5),
    }
    if Path("/dev/fd").is_dir():
        read, write = os.pipe()
        os.write(write, text.encode())
        os.close(write)
        with open(read, "rb") as pipe:
            streams["a pipe"] = DigitStream.from_file(f"/dev/fd/{pipe.fileno()}", base)
    for name, stream in streams.items():
        assert chunk_kinds(stream) == ({bytes} if base <= 256 else {tuple}), name


@pytest.mark.parametrize("base", [16, 256, 300])
def test_from_digits_of_a_tuple_keeps_one_byte_a_digit(base):
    # the checked bytes are the chunk, and above base 256 the caller's tuple of ints is:
    # no tuple of 8 bytes a digit is built again beside the caller's
    count = 10**6
    digits = tuple(random.Random(base).randbytes(count).translate(bytes(b % base for b in range(256))))
    tracemalloc.start()
    try:
        stream = DigitStream.from_digits(digits, base)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 1.5 * count, kept / count
    assert stream.length == count
    assert stream.take(9) == list(digits[:9])


@pytest.mark.parametrize("base", [16, 256, 300])
def test_from_expansion_keeps_at_most_one_byte_a_digit_beside_the_expansion(base):
    # up to base 256 the digits are packed to bytes; above, the expansion's own tuples are the chunks
    expansion = expand_rational(7, 100109 * 2**2000, base)
    count = len(expansion.preperiod) + len(expansion.period)
    assert count > 25000
    tracemalloc.start()
    try:
        stream = DigitStream.from_expansion(expansion)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < (1.5 if base <= 256 else 0.1) * count, kept / count
    assert stream.take(count + 9) == [*expansion.preperiod, *expansion.period, *expansion.period[:9]]
