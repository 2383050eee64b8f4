"""Exact digit expansions in integer bases and re-readable digit streams.

A number x in [0, 1) is handled through its digit string in base s: either
as a lazily produced :class:`DigitStream` or, for rationals, as the
eventually periodic :class:`RadixExpansion`. All arithmetic is unbounded
integer arithmetic; values round-trip bit-exactly.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DomainError

__all__ = [
    "DigitStream",
    "RadixExpansion",
    "expand_rational",
    "evaluate_expansion",
    "with_prefix",
    "digits_to_text",
    "text_to_digits",
    "format_expansion",
    "parse_expansion",
]


def _check_base(base: int) -> int:
    if not isinstance(base, int) or base < 2:
        raise DomainError(f"base must be an integer >= 2, got {base!r}")
    return base


def _check_digits(digits: Sequence, base: int) -> None:
    """Raise unless every digit is an int in [0, base).

    Both scans run in C: one collects the digits' types, the other their
    distinct values, of which valid digits have at most `base`.
    """
    if all(issubclass(kind, int) for kind in set(map(type, digits))) and all(
        0 <= d < base for d in set(digits)
    ):
        return
    bad = next(d for d in digits if not isinstance(d, int) or not 0 <= d < base)
    raise DomainError(f"digit {bad!r} out of range for base {base}")


class DigitStream:
    """A deterministic digit sequence that can be re-read from the start.

    ``length`` is None for unbounded streams. Each call to ``iter()``
    produces an independent iterator starting at the first digit, so a
    single stream instance may serve several readers; the digits seen are
    identical on every pass.
    """

    __slots__ = ("base", "length", "_factory")

    def __init__(
        self,
        base: int,
        factory: Callable[[], Iterator[int]],
        length: int | None = None,
    ) -> None:
        self.base = _check_base(base)
        if length is not None and (not isinstance(length, int) or length < 0):
            raise DomainError(f"length must be a nonnegative int or None, got {length!r}")
        self.length = length
        self._factory = factory

    def __iter__(self) -> Iterator[int]:
        return self._factory()

    def take(self, count: int) -> list[int]:
        """First `count` digits (fewer if the stream is shorter)."""
        if count < 0:
            raise DomainError("count must be >= 0")
        return list(itertools.islice(self, count))

    @classmethod
    def from_digits(cls, digits: Iterable[int], base: int) -> "DigitStream":
        b = _check_base(base)
        data = tuple(digits)
        _check_digits(data, b)
        return cls(b, lambda: iter(data), len(data))

    @classmethod
    def constant(cls, digit: int, base: int) -> "DigitStream":
        b = _check_base(base)
        _check_digits((digit,), b)
        return cls(b, lambda: itertools.repeat(digit), None)

    @classmethod
    def from_function(
        cls,
        position_to_digit: Callable[[int], int],
        base: int,
        length: int | None = None,
    ) -> "DigitStream":
        """Stream whose digit at 1-based position n is position_to_digit(n)."""

        def factory() -> Iterator[int]:
            positions = itertools.count(1) if length is None else range(1, length + 1)
            return map(position_to_digit, positions)

        return cls(base, factory, length)

    @classmethod
    def from_expansion(cls, expansion: "RadixExpansion") -> "DigitStream":
        """Unbounded stream: the preperiod once, then the period forever."""

        def factory() -> Iterator[int]:
            periods = itertools.chain.from_iterable(itertools.repeat(expansion.period))
            return itertools.chain(expansion.preperiod, periods)

        return cls(expansion.base, factory, None)


@dataclass(frozen=True)
class RadixExpansion:
    """Eventually periodic expansion ``0.<preperiod>(<period>)`` in `base`.

    The canonical form is enforced on construction:

    * the period is non-empty, and a terminating value carries period
      ``(0,)`` rather than an empty one;
    * the period is never the digit base-1 repeated, which is the
      non-canonical twin of a terminating expansion;
    * the period is primitive (not a power of a shorter word);
    * the preperiod does not end with the last period digit, since such a
      suffix could be rotated into the period.
    """

    base: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self) -> None:
        b = _check_base(self.base)
        object.__setattr__(self, "preperiod", tuple(self.preperiod))
        object.__setattr__(self, "period", tuple(self.period))
        _check_digits(self.preperiod + self.period, b)
        if not self.period:
            raise DomainError("period must be non-empty; use (0,) for terminating expansions")
        if all(d == b - 1 for d in self.period):
            raise DomainError(f"period of all {b - 1}s is the non-canonical twin representation")
        n = len(self.period)
        divisors = [w for w in range(1, isqrt(n) + 1) if n % w == 0]
        divisors += [n // w for w in reversed(divisors) if w * w != n]  # ascending, ends with n
        for width in divisors[:-1]:
            if self.period == self.period[:width] * (n // width):
                raise DomainError(f"period {self.period} is a repetition of {self.period[:width]}")
        if self.preperiod and self.preperiod[-1] == self.period[-1]:
            raise DomainError("preperiod suffix could be absorbed into the period")


def expand_rational(p: int, q: int, base: int) -> RadixExpansion:
    """Expand p/q in [0, 1) by exact long division.

    The preperiod has one digit for each time the reduced denominator
    must be divided by its gcd with the base before the two are coprime;
    after it the remainders cycle, and the period ends where its first
    remainder recurs. This
    yields the canonical form directly: the preperiod is minimal, the
    period is primitive, and a reduced denominator whose primes all divide
    the base terminates with period ``(0,)``. Each of the preperiod and
    period is shorter than the reduced denominator.

    The endpoint x = 1 is rejected: it has no digit string starting "0.",
    so this package works on [0, 1).
    """
    b = _check_base(base)
    if not isinstance(p, int) or not isinstance(q, int):
        raise DomainError(f"p and q must be integers, got p={p!r}, q={q!r}")
    if q < 1 or p < 0:
        raise DomainError(f"need p >= 0 and q >= 1, got p={p}, q={q}")
    if p >= q:
        if p == q:
            raise DomainError("x = 1 has no expansion starting '0.'; only [0, 1) is supported")
        raise DomainError(f"{p}/{q} lies outside [0, 1]")
    g = gcd(p, q)
    p, q = p // g, q // g
    preperiod_length = 0
    rest = q
    while (common := gcd(rest, b)) > 1:
        rest //= common
        preperiod_length += 1
    preperiod = []
    remainder = p
    for _ in range(preperiod_length):
        remainder *= b
        preperiod.append(remainder // q)
        remainder %= q
    if remainder == 0:
        return RadixExpansion(b, tuple(preperiod), (0,))
    first = remainder
    period = []
    while True:
        remainder *= b
        period.append(remainder // q)
        remainder %= q
        if remainder == first:
            return RadixExpansion(b, tuple(preperiod), tuple(period))


def _digits_value(digits: Sequence[int], base: int) -> int:
    """The integer whose base-`base` digits, most significant first, are `digits`.

    Neighbouring values are merged pairwise, halving their number each
    round, so the large multiplications stay balanced and the cost stays
    near-linear instead of quadratic in the number of digits.
    """
    values = list(digits) or [0]
    weight = base  # base ** (digits per value)
    while len(values) > 1:
        if len(values) % 2:
            values.insert(0, 0)
        values = [high * weight + low for high, low in zip(values[::2], values[1::2])]
        if len(values) > 1:
            weight *= weight
    return values[0]


def evaluate_expansion(expansion: RadixExpansion) -> Fraction:
    """Exact value: the preperiod plus the geometric tail of the period.

    With m preperiod digits forming P and L period digits forming R, the
    value is (P * (b^L - 1) + R) / ((b^L - 1) * b^m).
    """
    b = expansion.base
    scale = b ** len(expansion.period) - 1
    numerator = _digits_value(expansion.preperiod, b) * scale + _digits_value(expansion.period, b)
    return Fraction(numerator, scale * b ** len(expansion.preperiod))


def with_prefix(prefix: Iterable[int], tail: DigitStream) -> DigitStream:
    """Stream emitting the `prefix` digits, then `tail` unchanged."""
    pre = tuple(prefix)
    _check_digits(pre, tail.base)
    length = None if tail.length is None else tail.length + len(pre)

    def factory() -> Iterator[int]:
        return itertools.chain(pre, tail)

    return DigitStream(tail.base, factory, length)


_SPACE = b" \t\n\r\v\f"  # ASCII whitespace
_NOT_DIGIT_TEXT = re.compile(f"[^0-9{_SPACE.decode()}]")
_NOT_TOKEN_TEXT = re.compile(f"[^0-9,{_SPACE.decode()}]")
_CHAR_TO_DIGIT = bytes.maketrans(b"0123456789", bytes(range(10)))
_DIGIT_TO_CHAR = bytes.maketrans(bytes(range(10)), b"0123456789")


def digits_to_text(digits: Iterable[int], base: int) -> str:
    """The digit-text format: ``0120`` for bases up to 10, ``11,0,3`` above.

    The digits must already lie in [0, base).
    """
    if base <= 10:
        return bytes(digits).translate(_DIGIT_TO_CHAR).decode("ascii")
    return ",".join(map(str, digits))


def text_to_digits(text: str, base: int) -> tuple[int, ...]:
    """Read the digit-text format; ASCII whitespace between digits is ignored.

    For bases up to 10 every digit is one ASCII character ``0``-``9``;
    above 10 digits are ASCII ``[0-9]+`` tokens separated by commas or
    whitespace. Anything else, such as non-ASCII digits, signs or
    underscores, raises DomainError. Only the syntax is checked here: the
    stream or expansion built from the digits checks that they lie below
    the base.
    """
    bad = (_NOT_DIGIT_TEXT if base <= 10 else _NOT_TOKEN_TEXT).search(text)
    if bad is not None:
        raise DomainError(f"invalid digit character {bad.group()!r}")
    if base <= 10:
        return tuple(text.encode("ascii").translate(_CHAR_TO_DIGIT, _SPACE))
    try:
        return tuple(map(int, text.replace(",", " ").split()))
    except ValueError:  # longer than int() reads
        raise DomainError("digit token too long") from None


def format_expansion(expansion: RadixExpansion) -> str:
    """Render as ``0.<preperiod>(<period>)_<base>``, e.g. ``0.2(1)_3``.

    The digits use the digit-text format, so bases above 10 separate them
    with commas.
    """
    b = expansion.base
    return f"0.{digits_to_text(expansion.preperiod, b)}({digits_to_text(expansion.period, b)})_{b}"


_EXPANSION_RE = re.compile(r"0\.([0-9,]*)\(([0-9,]+)\)_([0-9]+)\Z")


def parse_expansion(text: str) -> RadixExpansion:
    """Inverse of :func:`format_expansion`, bit-exact."""
    match = _EXPANSION_RE.match(text.strip())
    if match is None:
        raise DomainError(f"cannot parse expansion {text!r}")
    pre_text, per_text, base_text = match.groups()
    try:
        b = int(base_text)
    except ValueError:  # longer than int() reads
        raise DomainError("expansion base too long") from None
    return RadixExpansion(b, text_to_digits(pre_text, b), text_to_digits(per_text, b))
