"""Parsing and rendering of exact rationals.

Every numeric parameter in this package is a `fractions.Fraction`; floats
never enter any computation. These helpers convert between Fractions and
the two textual forms used in output: the exact ``p/q`` form and a
correctly rounded decimal with a fixed number of significant digits.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction

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
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse rational {text!r}: {exc}") from None


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


def ratio_str(value: Fraction) -> str:
    """Exact ``p/q`` rendering (plain integer when q = 1)."""
    return str(Fraction(value))


def decimal_str(value: Fraction, digits: int = DECIMAL_SIGNIFICANT_DIGITS) -> str:
    """Decimal rendering rounded to `digits` significant digits."""
    if digits < 1:
        raise DomainError("need at least one significant digit")
    f = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = digits
        quotient = Decimal(f.numerator) / Decimal(f.denominator)
    return str(quotient)
