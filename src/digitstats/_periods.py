"""Long periods: their digits past the walk, and the values of expansions.

`core.expand_rational` loads this module only for a period longer than its
walk, and `core.evaluate_expansion` when it is first called, so the CLI
subcommands that make no long period never compile it.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from math import isqrt
from typing import Sequence

from .core import _DIGIT_TO_CHAR, RadixExpansion, _prime_cofactors, _strip_base, expand_rational

_FORMAT_CODES = {2: "b", 8: "o", 16: "x"}  # bases whose digits `format` renders in linear time
_FORMAT_TO_DIGIT = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))
_VALUE_DIGITS = 600  # digits per piece `_digits_value` reads as text, below the smallest int-string limit, 640
_LEGENDRE_BITS = 129  # bits of the leading digits a value is read from: every denominator below 2**64 is found


def rest_of_period(period: list[int], remainder: int, q: int, base: int, count: int) -> tuple[int, ...]:
    """The walked digits `period`, then the next `count` digits of remainder/q.

    Read as one integer, the `count` digits are the floor of ``remainder *
    base**count / q``. In base 10 a ``decimal`` context precise enough for
    all of them, with rounding trapped, divides and renders it
    (``sys.set_int_max_str_digits`` does not bound a ``Decimal``); in bases
    2, 8 and 16 a shift, one division and ``format`` do, in linear time.
    Other bases take one division per digit, with no remainder compared,
    as the period's length is known.
    """
    if base == 10:
        traps = [decimal.Inexact, decimal.Rounded, decimal.InvalidOperation]  # none can occur at this precision
        context = decimal.Context(count + q.bit_length(), Emax=decimal.MAX_EMAX, traps=traps)
        tail = str(context.divide_int(decimal.Decimal(remainder).scaleb(count, context), q))
    elif base in _FORMAT_CODES:
        tail = format((remainder << (base.bit_length() - 1) * count) // q, _FORMAT_CODES[base])
    else:
        for _ in range(count):
            remainder *= base
            period.append(remainder // q)
            remainder %= q
        return tuple(period)
    return tuple(bytes(period) + tail.zfill(count).encode("ascii").translate(_FORMAT_TO_DIGIT))


def _digits_value(digits: Sequence[int], base: int) -> int:
    """The integer whose base-`base` digits, most significant first, are `digits`.

    Up to base 10 ``int()`` reads them as text, in pieces of _VALUE_DIGITS
    cut from the end. Neighbouring values are then merged pairwise,
    halving their number each round, so the large multiplications stay
    balanced and the cost stays near-linear instead of quadratic in the
    number of digits.
    """
    if base <= 10:
        text = bytearray(digits).translate(_DIGIT_TO_CHAR)
        cuts = range(-(-len(text) % _VALUE_DIGITS), len(text), _VALUE_DIGITS)
        values = [int(text[max(cut, 0) : cut + _VALUE_DIGITS], base) for cut in cuts] or [0]
        weight = base**_VALUE_DIGITS  # base ** (digits per value)
    else:
        values = list(digits) or [0]
        weight = base
    while len(values) > 1:
        if len(values) % 2:
            values.insert(0, 0)
        values = [high * weight + low for high, low in zip(values[::2], values[1::2])]
        if len(values) > 1:
            weight *= weight
    return values[0]


def expansion_value(expansion: RadixExpansion) -> Fraction:
    """The value of `expansion`, as `core.evaluate_expansion` describes: read off its leading digits, else summed."""
    b, preperiod, period = expansion.base, expansion.preperiod, expansion.period
    width = -(-_LEGENDRE_BITS // (b.bit_length() - 1))  # K: b^K >= 2^((b.bit_length() - 1) * K) >= 2^129
    if len(preperiod) + len(period) > width:
        scale = b**width
        head = preperiod[:width] + period[: max(width - len(preperiod), 0)]
        value = Fraction(_digits_value(head, b), scale).limit_denominator(isqrt(scale // 2))
        length, rest = _strip_base(value.denominator, b)
        one = 1 % rest  # 0 when rest is 1: then only a period of length 1, (0,), passes
        if (
            length == len(preperiod)
            and pow(b, len(period), rest) == one
            and all(pow(b, cofactor, rest) != one for cofactor in _prime_cofactors(len(period)))
            and expand_rational(value.numerator, value.denominator, b) == expansion
        ):
            return value
    scale = b ** len(period) - 1
    numerator = _digits_value(preperiod, b) * scale + _digits_value(period, b)
    return Fraction(numerator, scale * b ** len(preperiod))
