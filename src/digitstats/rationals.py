"""Parsing and rendering of exact rationals.

Every numeric parameter in this package is a `fractions.Fraction`; floats
never enter any computation. These helpers convert between Fractions and
the two textual forms used in output: the exact ``p/q`` form and a
correctly rounded decimal with a fixed number of significant digits.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Context, DivisionByZero, InvalidOperation, Overflow
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import index
from typing import Sequence

from .errors import DomainError

__all__ = [
    "DECIMAL_SIGNIFICANT_DIGITS",
    "parse_rational",
    "coerce_rational",
    "ratio_str",
    "decimal_str",
]

DECIMAL_SIGNIFICANT_DIGITS = 20


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q``, an integer, or a finite decimal, exactly.

    Decimal literals are converted without any float round trip, so
    ``"0.2"`` becomes exactly 1/5.
    """
    try:
        return Fraction(text.strip())
    except ValueError as exc:
        raise DomainError(f"cannot parse rational {text!r}: {exc}") from None
    except ZeroDivisionError:  # whose message, "Fraction(1, 0)", names no fault
        raise DomainError(f"cannot parse rational {text!r}: the denominator is 0") from None


def coerce_rational(value) -> Fraction:
    """Accept Fraction, int, numeric string, or float, exactly.

    Floats are read through their shortest repr, so 0.2 coerces to 1/5
    rather than to the nearest binary fraction.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        return parse_rational(repr(value))
    raise DomainError(f"cannot interpret {value!r} as a rational")


def coerce_index(value, name: str, least: int | None = None) -> int:
    """`value` as an exact int (through `operator.index`), and at least `least` if given; else DomainError."""
    try:
        value = index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")
    return value


def ratio_str(value: Fraction) -> str:
    """Exact ``p/q`` rendering (plain integer when q = 1)."""
    return str(Fraction(value))


@lru_cache(maxsize=64)
def _decimal_context(digits: int) -> Context:
    """Python's default context at precision `digits`, pinned, so that no caller's context counts."""
    traps = [InvalidOperation, DivisionByZero, Overflow]
    return Context(digits, ROUND_HALF_EVEN, -999999, 999999, 1, 0, [], traps)


def decimal_str(value: Fraction, digits: int = DECIMAL_SIGNIFICANT_DIGITS) -> str:
    """Decimal rendering rounded half-even to `digits` significant digits."""
    if coerce_index(digits, "digits") < 1:
        raise DomainError("need at least one significant digit")
    f = value if isinstance(value, Fraction) else Fraction(value)
    return _decimal_texts((f.numerator,), f.denominator, digits)[0]


def _ratio_texts(numerators: Sequence[int], denominator: int) -> list[str]:
    """`ratio_str` of each numerator over the int `denominator` >= 1, by one gcd each, with no Fraction made."""
    texts = []
    for p in numerators:
        g = gcd(p, denominator)
        texts.append(str(p // g) if g == denominator else f"{p // g}/{denominator // g}")
    return texts


def _decimal_texts(numerators: Sequence[int], denominator: int, digits: int = DECIMAL_SIGNIFICANT_DIGITS) -> list[str]:
    """`decimal_str` of each numerator over the int `denominator` >= 1, with no Fraction made.

    The pinned context divides the two integers, as exact decimals, and
    rounds their quotient once, so a quotient left unreduced renders as
    its reduced form does.
    """
    context = _decimal_context(digits)
    divide, text = context.divide, context.to_sci_string
    return [text(divide(p, denominator)) for p in numerators]
