"""Tests for exact expansions and digit streams."""

import random
from fractions import Fraction
from math import gcd

import pytest

from digitstats import (
    DigitStream,
    DomainError,
    RadixExpansion,
    digits_to_text,
    evaluate_expansion,
    expand_rational,
    format_expansion,
    parse_expansion,
    text_to_digits,
    with_prefix,
)


def long_division_oracle(p: int, q: int, base: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reference expansion of p/q: long division until a remainder repeats.

    Remembers every remainder, so it needs memory linear in q; the
    package's expand_rational must agree with it digit for digit.
    """
    g = gcd(p, q)
    p, q = p // g, q // g
    digits = []
    first_seen = {}
    remainder = p
    while remainder != 0 and remainder not in first_seen:
        first_seen[remainder] = len(digits)
        remainder *= base
        digits.append(remainder // q)
        remainder %= q
    if remainder == 0:
        return tuple(digits), (0,)
    start = first_seen[remainder]
    return tuple(digits[:start]), tuple(digits[start:])


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


def test_expand_rational_terminating_uses_zero_period():
    e = expand_rational(3, 8, 2)
    assert e.preperiod == (0, 1, 1)
    assert e.period == (0,)


def test_expand_rational_reduces_internally():
    assert expand_rational(2, 8, 3) == expand_rational(1, 4, 3)


@pytest.mark.parametrize("p,q", [(3, 2), (1, 0), (-1, 2), (2, 2)])
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
    ],
)
def test_expansion_canonical_invariants_enforced(preperiod, period):
    with pytest.raises(DomainError):
        RadixExpansion(3, preperiod, period)


def test_expand_rational_matches_long_division_oracle():
    for base in range(2, 17):
        for q in range(1, 301):
            for p in range(q):
                if gcd(p, q) == 1:
                    e = expand_rational(p, q, base)
                    assert (e.preperiod, e.period) == long_division_oracle(p, q, base), (p, q, base)


@pytest.mark.parametrize("p,q,base", [(12345, 99991, 10), (1, 99991, 2), (777, 3 * 99991, 16), (5, 2**80 * 7, 12)])
def test_long_expansion_round_trip(p, q, base):
    e = expand_rational(p, q, base)
    assert len(e.preperiod) + len(e.period) > 40
    assert evaluate_expansion(e) == Fraction(p, q)


def test_base_validation():
    assert DigitStream.constant(0, 2).base == RadixExpansion(2, (), (0,)).base == 2
    for base in [1, 0, -2, 2.0, "3", None]:
        constructors = [
            lambda: DigitStream.from_digits([], base),
            lambda: DigitStream.constant(0, base),
            lambda: DigitStream.from_function(lambda n: 0, base),
            lambda: RadixExpansion(base, (), (0,)),
            lambda: expand_rational(0, 1, base),
        ]
        for construct in constructors:
            with pytest.raises(DomainError, match="base must be an integer >= 2"):
                construct()


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


def test_digit_stream_constant_and_function():
    assert DigitStream.constant(2, 3).take(4) == [2, 2, 2, 2]
    parity = DigitStream.from_function(lambda n: n % 2, 2, length=5)
    assert list(parity) == [1, 0, 1, 0, 1]
    assert parity.length == 5


def test_digit_stream_from_expansion():
    stream = DigitStream.from_expansion(expand_rational(5, 6, 3))
    assert stream.take(6) == [2, 1, 1, 1, 1, 1]
    assert stream.length is None


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


def test_text_to_digits_leaves_range_to_the_stream():
    digits = text_to_digits("0150", 3)
    assert digits == (0, 1, 5, 0)
    with pytest.raises(DomainError, match="digit 5 out of range for base 3"):
        DigitStream.from_digits(digits, 3)
    with pytest.raises(DomainError):
        parse_expansion("0.(5)_3")
