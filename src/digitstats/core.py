"""Exact digit expansions in integer bases and re-readable digit streams.

A number x in [0, 1) is handled through its digit string in base s: either
as a lazily produced :class:`DigitStream` or, for rationals, as the
eventually periodic :class:`RadixExpansion`. All arithmetic is unbounded
integer arithmetic; values round-trip bit-exactly.
"""

from __future__ import annotations

import codecs
import decimal
import functools
import itertools
import operator
import os
import re
import stat
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable, Iterable, Iterator, Sequence, Union

from ._base import _probe_memory, _Record, _restore  # pickles made before `_base` name `core._restore`
from .errors import DomainError
from .rationals import _int_text_limit, coerce_index

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

_CHUNK_BYTES = 1 << 16  # bytes read from a digit file at a time: below glibc's 128 KiB mmap threshold
_CHUNK_DIGITS = 1 << 16  # digits per chunk cut from an iterator, and per piece a repeat is written in
_REPEAT_DIGITS = 1 << 60  # about the most digits of one chunk of an unbounded period
_BYTE_BASE = 256  # the largest base whose digits a chunk holds as a bytes of values; a tuple of ints above
_BYTE_VALUES = bytes(range(256))
_RUN_UNITS = tuple(_BYTE_VALUES[digit : digit + 1] for digit in range(256))  # the unit of a run of each digit


class _Repeat:
    """A chunk of the first `length` digits of `unit` repeated: a run when `unit` is one digit long.

    `unit` is a non-empty bytes of digit values, or a tuple of ints above
    base 256. Its ``len()`` is `length`, and a prefix cut (``[:count]``,
    the only cut `_first` makes) is a shorter repeat, so a chunk's digits
    cost nothing until they are read: counting reads the unit
    (``stats.running_stats``), and `_pieces` writes it out.
    """

    __slots__ = ("unit", "length")

    def __init__(self, unit: Union[bytes, tuple], length: int) -> None:
        self.unit, self.length = unit, length

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, cut: slice) -> "_Repeat":
        if cut.start or cut.step not in (None, 1):
            raise ValueError("a repeat is cut only to a prefix")
        return _Repeat(self.unit, cut.indices(self.length)[1])


# A stream's digits as counting reads them: a bytes of digit values, ints, or a repeat.
_Chunk = Union[bytes, Sequence[int], _Repeat]


def _check_base(base: int) -> int:
    """`base` as a plain int (through `operator.index`) of at least 2; else DomainError."""
    try:
        value = operator.index(base)
    except TypeError:
        value = 0
    if value < 2:
        raise DomainError(f"base must be an integer >= 2, got {base!r}")
    return value


def _checked_word(digits: Iterable, base: int, depth: int | None = None) -> Union[bytes, tuple]:
    """`digits`, any iterable of them, checked, as a chunk: a bytes of values up to base 256, else a tuple of ints.

    A digit is accepted when `operator.index` accepts it and its value
    lies in [0, base); it is kept as a plain int. Up to base 256 one
    ``bytearray()`` conversion (faster than ``bytes()`` on a list; a bytes
    is kept) does both in C, and one ``translate`` checks the range; above,
    a tuple of plain ints is kept, not copied. Otherwise DomainError names
    the first bad digit by its repr, as out of range; when `digits` are a
    lazy stream's digits after depth `depth`, one that is not an integer
    is named by its depth.
    """
    digits = digits if isinstance(digits, (bytes, tuple, list)) else tuple(digits)  # a failed check reads them again
    try:
        if base <= _BYTE_BASE:
            values = digits if digits.__class__ is bytes else bytes(bytearray(digits))
            if not values.translate(None, _BYTE_VALUES[:base]):
                return values
        else:
            plain = digits.__class__ is tuple and set(map(type, digits)) <= {int}
            values = digits if plain else tuple(map(operator.index, digits))
            if not values or (min(values) >= 0 and max(values) < base):
                return values
    except (TypeError, ValueError):
        pass
    for position, digit in enumerate(digits, (depth or 0) + 1):
        try:
            value = operator.index(digit)
        except TypeError as exc:
            if depth is not None:
                raise DomainError(f"the digit at depth {position} is not an integer: {exc}") from exc
            value = -1
        if not 0 <= value < base:
            raise DomainError(f"digit {digit!r} out of range for base {base}")
    raise AssertionError("unreachable: some digit failed the check")


class DigitStream:
    """A deterministic digit sequence that can be re-read from the start.

    ``length`` is None for unbounded streams. Each call to ``iter()``
    produces an independent iterator starting at the first digit, so a
    single stream instance may serve several readers; the digits seen are
    identical on every pass.

    A stream holds its digits as one thing only, ``_chunks(stop)``: a
    callable returning an iterator of chunks, whose reader needs no digit
    past depth `stop` (None: all of them). A chunk is one of three kinds:

    * a ``bytes`` of digit values, in every base up to 256;
    * a tuple of ints, only above base 256;
    * a `_Repeat`: a run of one digit, or a period, repeated to a length.
      Block runs, the no-mean runs and every short period come as these,
      so counting costs one step per run or period, not per digit.

    Iteration, `take` and counting all read the chunks, and iteration and
    `take` write a repeat out in pieces of at most _CHUNK_DIGITS digits.
    Each digit is checked once: where the package builds the stream from
    checked or canonical digits, on construction (see ``_trusted``);
    where a caller's function yields them, as each chunk is made.
    """

    __slots__ = ("base", "length", "_chunks")

    def __init__(
        self,
        base: int,
        factory: Callable[[], Iterator[int]],
        length: int | None = None,
    ) -> None:
        """Stream of the digits `factory()` yields, each checked as it is read."""
        self.base = b = _check_base(base)
        self.length = None if length is None else coerce_index(length, "length", 0)
        self._chunks = lambda stop=None: _checked_chunks(factory(), b, stop)

    @classmethod
    def _trusted(cls, base: int, length: int | None, chunks: Callable[..., Iterator[_Chunk]]) -> "DigitStream":
        """A stream whose digits are known to lie in [0, base): none is checked again.

        Only for streams the package builds: `from_digits`, `constant` and
        `with_prefix` checked their digits on construction; an expansion's
        digits come from a checked or long-division `RadixExpansion`; block
        runs are of 0, 1 and 2; each piece of a digit text is checked before
        it is counted; and a `_head` passes on its stream's chunks, checked
        as that stream checks them. `chunks(stop=None)` yields the digits
        in chunks.
        """
        stream = object.__new__(cls)
        stream.base, stream.length, stream._chunks = base, length, chunks
        return stream

    def __iter__(self) -> Iterator[int]:
        return itertools.chain.from_iterable(_pieces(self._chunks()))

    def take(self, count: int) -> list[int]:
        """First `count` digits (fewer if the stream is shorter)."""
        count = coerce_index(count, "count", 0)
        digits: list[int] = []
        for piece in _pieces(_first(self._chunks(count), count)):
            digits += piece
        return digits

    def _head(self, count: int) -> "DigitStream":
        """A trusted stream of the first `count` digits, or of all of them if the stream is shorter."""
        length = count if self.length is None else min(count, self.length)

        def chunks(stop: int | None = None) -> Iterator[_Chunk]:
            n = length if stop is None else min(stop, length)
            return _first(self._chunks(n), n)

        return DigitStream._trusted(self.base, length, chunks)

    @classmethod
    def from_digits(cls, digits: Iterable[int], base: int) -> "DigitStream":
        """The digits of `digits`, checked here and held as one chunk (see `_checked_word`)."""
        b = _check_base(base)
        data = _checked_word(digits, b)
        return cls._trusted(b, len(data), lambda stop=None: iter((data,)))

    @classmethod
    def from_text(cls, text: str | bytes, base: int) -> "DigitStream":
        """The digits of `text`, a str or UTF-8 bytes, in the digit-text format.

        See :func:`text_to_digits`. The one pass that reads the text checks
        it whole, as :meth:`from_file` checks a file, so a digit out of range
        is an error too; its digits are held as bytes up to base 256, else ints.
        """
        b = _check_base(base)
        data = _text_digits(text, b)
        return cls._trusted(b, len(data), lambda stop=None: iter((data,)))

    @classmethod
    def from_file(cls, path: str | os.PathLike, base: int) -> "DigitStream":
        """The digits of a UTF-8 digit-text file, read 64 KiB at a time.

        The whole file is checked here, as :meth:`from_text` checks a text,
        and nothing of it is kept: each ``iter()`` reopens the file, and
        raises DomainError if its size or modification time has changed.
        A path that opens as no regular file, such as a pipe or
        ``/dev/stdin``, yields its bytes once, so its digits are kept, as
        :meth:`from_text` keeps a text's, and a later pass reads them.
        Either way a fault is named as reading the whole text names it,
        also where a piece ends inside a UTF-8 sequence. OSError from
        opening or reading the file propagates.
        """
        b = _check_base(base)
        with open(path, "rb") as file:
            if not stat.S_ISREG(os.fstat(file.fileno()).st_mode):
                return cls.from_text(_text_pieces(file), b)  # a text in pieces
        stamp: list[tuple[int, int]] = []

        def raw() -> Iterator[bytes]:
            with open(path, "rb") as file:
                status = os.fstat(file.fileno())
                stamp.append((status.st_size, status.st_mtime_ns))
                if stamp[-1] != stamp[0]:
                    raise DomainError(f"{os.fspath(path)!r} changed after it was checked")
                yield from _text_pieces(file)

        length = sum(map(len, _digit_chunks(raw(), b)))
        return cls._trusted(b, length, lambda stop=None: _digit_chunks(raw(), b))

    @classmethod
    def _read_once(cls, file, base: int) -> "DigitStream":
        """The digits of the digit text in the binary `file`, each piece checked as it is read, none kept.

        So the stream, of unknown length, is read once: every ``_chunks()``
        call returns the same iterator, and a reader that stops early leaves
        the rest of it to the next.
        """
        b = _check_base(base)
        chunks = _digit_chunks(_text_pieces(file), b)
        return cls._trusted(b, None, lambda stop=None: chunks)

    @classmethod
    def constant(cls, digit: int, base: int) -> "DigitStream":
        b = _check_base(base)
        return cls._trusted(b, None, _periodic(_checked_word((digit,), b)))

    @classmethod
    def from_function(
        cls,
        position_to_digit: Callable[[int], int],
        base: int,
        length: int | None = None,
    ) -> "DigitStream":
        """Stream whose digit at 1-based position n is position_to_digit(n)."""

        def factory() -> Iterator[int]:  # reads the length the stream checked
            positions = itertools.count(1) if stream.length is None else range(1, stream.length + 1)
            return map(position_to_digit, positions)

        stream = cls(base, factory, length)
        return stream

    @classmethod
    def from_expansion(cls, expansion: "RadixExpansion") -> "DigitStream":
        """Unbounded stream: the preperiod once, then the period forever."""
        b = expansion.base
        return with_prefix(expansion.preperiod, cls._trusted(b, None, _periodic(_checked_word(expansion.period, b))))


def _periodic(period: _Chunk) -> Callable[..., Iterator[_Chunk]]:
    """Chunks of `period`, a non-empty chunk of valid digits, repeated forever.

    Each chunk is the same `_Repeat` of whole periods, about _REPEAT_DIGITS
    digits long, so its unit is a bytes up to base 256, else a tuple.
    """
    repeat = _Repeat(period, len(period) * max(1, _REPEAT_DIGITS // len(period)))
    return lambda stop=None: itertools.repeat(repeat)


def _repeated(period: Callable[[], Iterator[int]], base: int) -> Callable[..., Iterator[_Chunk]]:
    """Chunks of the digits `period()` yields, repeated forever.

    A period that ends within the first chunk is kept, and repeated as
    `_Repeat` chunks (see `_periodic`); a longer one is made again for
    each repeat, so no more than one chunk is held whatever the period's
    length. The first chunk stops at depth `stop`. Chunks are bytes up to
    base 256, else tuples.
    """
    pack = bytes if base <= _BYTE_BASE else tuple

    def chunks(stop: int | None = None) -> Iterator[_Chunk]:
        size = _CHUNK_DIGITS if stop is None else min(_CHUNK_DIGITS, stop)
        digits = period()
        head = pack(itertools.islice(digits, size))
        if len(head) < size:
            yield from _periodic(head)()
            return
        yield head
        digits = itertools.chain(digits, itertools.chain.from_iterable(iter(period, None)))  # one period() a repeat
        yield from iter(lambda: pack(itertools.islice(digits, _CHUNK_DIGITS)), pack())

    return chunks


def _run_chunks(digits: Iterable[int], lengths: Iterable[int]) -> Iterator[_Repeat]:
    """Each of `digits` repeated as often as the matching one of `lengths` says, one run chunk a run."""
    return map(_Repeat, map(_RUN_UNITS.__getitem__, digits), lengths)


def _pieces(chunks: Iterable[_Chunk]) -> Iterator[Union[bytes, Sequence[int]]]:
    """The digits of `chunks`, each `_Repeat` written out in pieces of at most _CHUNK_DIGITS digits.

    A unit of up to _CHUNK_DIGITS digits is repeated whole to about that
    many, and a longer one cut, so the pieces of one repeat are the same
    few objects again; other chunks pass unchanged.
    """
    for chunk in chunks:
        if chunk.__class__ is not _Repeat:
            yield chunk
            continue
        unit, length = chunk.unit, chunk.length
        if length <= _CHUNK_DIGITS:  # one piece, as most runs are
            yield (unit * -(-length // len(unit)))[:length]
            continue
        block = unit * max(1, _CHUNK_DIGITS // len(unit))
        cuts = [block[i : i + _CHUNK_DIGITS] for i in range(0, len(block), _CHUNK_DIGITS)]
        whole, part = divmod(length, len(block))
        yield from itertools.chain.from_iterable(itertools.repeat(cuts, whole))
        yield from (block[i : min(i + _CHUNK_DIGITS, part)] for i in range(0, part, _CHUNK_DIGITS))


def _first(chunks: Iterable[_Chunk], count: int) -> Iterator[_Chunk]:
    """The chunks of the first `count` digits of `chunks`, the last one cut to fit; none read past it."""
    if count <= 0:
        return
    for chunk in chunks:
        size = len(chunk)  # once: a repeat's len() is a Python call
        if size >= count:
            yield chunk[:count]
            return
        yield chunk
        count -= size


def _checked_chunks(digits: Iterator, base: int, stop: int | None) -> Iterator[_Chunk]:
    """`digits` in checked chunks (see `_checked_word`), none read past depth `stop`.

    With no `stop` each chunk holds one digit, so no digit is made before
    it is read.
    """
    depth = 0
    while stop is None or depth < stop:
        raw = tuple(itertools.islice(digits, 1 if stop is None else min(_CHUNK_DIGITS, stop - depth)))
        if not raw:
            return
        yield _checked_word(raw, base, depth)
        depth += len(raw)


class RadixExpansion(_Record):
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

    __slots__ = ("base", "preperiod", "period")

    def __init__(self, base: int, preperiod: Sequence[int], period: Sequence[int]) -> None:
        b = _check_base(base)
        preperiod = tuple(_checked_word(preperiod, b))
        word = _checked_word(period, b)  # the checks below compare bytes up to base 256
        period = tuple(word)
        if not word:
            raise DomainError("period must be non-empty; use (0,) for terminating expansions")
        if word.count(b - 1) == len(word):
            raise DomainError(f"period of all {b - 1}s is the non-canonical twin representation")
        width = _root(word)
        if width < len(word):
            raise DomainError(f"period {period} is a repetition of {period[:width]}")
        if preperiod and preperiod[-1] == word[-1]:
            raise DomainError("preperiod suffix could be absorbed into the period")
        super().__init__(b, preperiod, period)


def _root(word: Sequence[int]) -> int:
    """The length of the shortest word that `word` is a power of: ``len(word)`` when it is primitive.

    A word of length n is a proper power exactly when it equals its rotation by
    n/p for some prime p dividing n; only once one does are the divisors searched.
    """
    n = len(word)
    if all(word[w:] != word[:-w] for w in _prime_cofactors(n)):
        return n
    return next(w for w in _proper_divisors(n) if word[w:] == word[:-w])


@functools.cache
def _proper_divisors(n: int) -> tuple[int, ...]:
    """The divisors of n below n, ascending."""
    low = [w for w in range(1, isqrt(n) + 1) if n % w == 0]
    return tuple(low + [n // w for w in reversed(low) if w * w != n])[:-1]


@functools.cache
def _prime_cofactors(n: int) -> tuple[int, ...]:
    """n/p for each prime p dividing n: the divisors of n below n that divide no larger one."""
    divisors = _proper_divisors(n)
    return tuple(w for i, w in enumerate(divisors) if all(v % w for v in divisors[i + 1 :]))


_FORMAT_CODES = {2: "b", 8: "o", 16: "x"}  # bases whose digits `format` renders in linear time
_FORMAT_TO_DIGIT = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))
_BABY_STEPS = 1 << 16  # most baby steps of the order search, for a modulus of up to 64 bits


def _order(base: int, modulus: int) -> int:
    """The least L >= 1 with base**L = 1 mod `modulus`, for coprime `base` and `modulus` >= 2.

    Baby-step giant-step: m = min(isqrt(modulus) + 1, _BABY_STEPS) baby
    steps tabulate base**j for j < m, unless one of them already returns
    to 1; above 64 bits, m shrinks in proportion, so that the table holds
    no more bits than _BABY_STEPS residues of 64 bits. Giant step i then
    looks base**(i*m) up in that table; the first hit, at j, gives
    L = i*m - j, after about L/m steps. A miss rules out every L <= i*m,
    and each time that length doubles, a probe asks for the 8 bytes per
    digit a period that long would hold.
    """
    steps = min(isqrt(modulus) + 1, _BABY_STEPS * 64 // max(64, modulus.bit_length()))
    table: dict[int, int] = {}
    power = 1
    for j in range(steps):
        table[power] = j
        power = power * base % modulus
        if power == 1:
            return j + 1
    giant, power = power, 1
    for i in itertools.count(1):
        power = power * giant % modulus
        j = table.get(power)
        if j is not None:
            return i * steps - j
        if i & (i - 1) == 0:
            _probe_memory(8 * i * steps, f"a period of more than {i * steps} digits")
    raise AssertionError("unreachable: the giant steps end at the order")


def _strip_base(q: int, base: int) -> tuple[int, int]:
    """(m, rest): q divided m times by its gcd with `base`, until `rest` is coprime to it.

    m is the preperiod length of a reduced fraction over q in `base`.
    """
    m = 0
    while (common := gcd(q, base)) > 1:
        q //= common
        m += 1
    return m, q


def _digits(p: int, q: int, base: int, count: int) -> tuple[int, ...]:
    """The first `count` digits of p/q in `base`, for 0 <= p < q.

    Read as one integer, they are the floor of ``p * base**count / q``. In
    base 10 a ``decimal`` context precise enough for all of them, with
    rounding trapped, divides and renders it (``sys.set_int_max_str_digits``
    does not bound a ``Decimal``); in bases 2, 8 and 16 a shift, one
    division and ``format`` do, in linear time. Other bases take one
    division per digit.
    """
    if base == 10:
        traps = [decimal.Inexact, decimal.Rounded, decimal.InvalidOperation]  # none can occur at this precision
        context = decimal.Context(count + q.bit_length(), Emax=decimal.MAX_EMAX, traps=traps)
        text = str(context.divide_int(decimal.Decimal(p).scaleb(count, context), q))
    elif base in _FORMAT_CODES:
        text = format((p << (base.bit_length() - 1) * count) // q, _FORMAT_CODES[base])
    else:
        digits = []
        for _ in range(count):
            p *= base
            digits.append(p // q)
            p %= q
        return tuple(digits)
    return tuple(text.zfill(count).encode("ascii").translate(_FORMAT_TO_DIGIT))


def expand_rational(p: int, q: int, base: int) -> RadixExpansion:
    """Expand p/q in [0, 1) by exact long division.

    In lowest terms, the preperiod has m digits, one for each time q must
    be divided by its gcd with the base before the two are coprime
    (`_strip_base`), and the period's length L is the order of the base
    modulo what is left of q (`_order`, which finds it without making a
    digit); a q whose primes all divide the base leaves 1, and its period
    is ``(0,)``. The first m + L digits of p/q (`_digits`) are then the
    preperiod and the period. This yields the canonical form directly: the
    preperiod is minimal, the period is primitive, and each is shorter
    than the reduced denominator. So the result skips ``RadixExpansion``'s
    checks (`_restore`). An expansion that cannot fit in memory raises
    MemoryError before any digit is made.

    The endpoint x = 1 is rejected: it has no digit string starting "0.",
    so this package works on [0, 1).
    """
    b = _check_base(base)
    try:
        p, q = operator.index(p), operator.index(q)
    except TypeError:
        raise DomainError(f"p and q must be integers, got p={p!r}, q={q!r}") from None
    if q < 1 or p < 0:
        raise DomainError(f"need p >= 0 and q >= 1, got p={p}, q={q}")
    if p >= q:
        if p == q:
            raise DomainError("x = 1 has no expansion starting '0.'; only [0, 1) is supported")
        raise DomainError(f"{p}/{q} lies outside [0, 1]")
    g = gcd(p, q)
    p, q = p // g, q // g
    m, rest = _strip_base(q, b)
    count = m + (1 if rest == 1 else _order(b, rest))
    _probe_memory(8 * count, f"an expansion of {count} digits")
    digits = _digits(p, q, b, count)
    return _restore(RadixExpansion, (b, digits[:m], digits[m:]))


def evaluate_expansion(expansion: RadixExpansion) -> Fraction:
    """Exact value: the preperiod plus the geometric tail of the period.

    With m preperiod digits forming P and L period digits forming R, the
    value is (P * (b^L - 1) + R) / ((b^L - 1) * b^m). Reading all the
    digits as integers costs O((m + L)^1.58) (`_periods._digits_value`),
    so a value with a denominator below 2^64 is read off its first K
    digits instead, with b^K >= 2^129: they lie within b^-K of it, and by
    Legendre's criterion (Hardy & Wright, Thm 184) no other fraction with
    a denominator up to sqrt(b^K / 2) does, so ``limit_denominator``
    finds it. That candidate p/q is returned only if q gives preperiod
    length m and period length exactly L, which integer checks alone
    decide (so no period too long to hold is expanded), and
    ``expand_rational(p, q, b)`` then equals the expansion. Canonical
    forms are unique, so this is exact, and it costs linear time. Any
    other expansion is evaluated by the formula, after 15 to 40
    microseconds spent on the candidate, mostly in ``limit_denominator``.
    """
    from ._periods import expansion_value

    return expansion_value(expansion)


def with_prefix(prefix: Iterable[int], tail: DigitStream) -> DigitStream:
    """Stream emitting the `prefix` digits, then `tail` unchanged."""
    pre = _checked_word(prefix, tail.base)
    length = None if tail.length is None else tail.length + len(pre)

    def chunks(stop: int | None = None) -> Iterator[_Chunk]:
        return itertools.chain((pre,), tail._chunks(None if stop is None else max(stop - len(pre), 0)))

    return DigitStream._trusted(tail.base, length, chunks)


_SPACE = b" \t\n\r\v\f"  # ASCII whitespace
_DIGIT_CHARS = b"0123456789"
_NOT_DIGIT_TEXT = re.compile(f"[^0-9{_SPACE.decode()}]")
_NOT_TOKEN_TEXT = re.compile(f"[^0-9,{_SPACE.decode()}]")
_CHAR_TO_DIGIT = bytes.maketrans(_DIGIT_CHARS, bytes(range(10)))
_DIGIT_TO_ONE = bytes.maketrans(_DIGIT_CHARS, b"1" * 10)  # a token becomes a run of 1s as long as it
_DIGIT_TO_CHAR = bytes.maketrans(bytes(range(10)), _DIGIT_CHARS)
_RUN_TEXT = tuple("0123456789")  # the text of each digit up to base 10, which a run repeats


def digits_to_text(digits: Iterable[int], base: int) -> str:
    """The digit-text format: ``0120`` for bases up to 10, ``11,0,3`` above.

    The digits are checked as `DigitStream.from_digits` checks them, so one
    not in [0, base) raises DomainError.
    """
    return "".join(_digit_text((_checked_word(digits, _check_base(base)),), base))


def _digit_text(chunks: Iterable[_Chunk], base: int) -> Iterator[str]:
    """The digit-text format of the digits of `chunks`, one str per piece (see `_pieces`).

    Joined, the strs are `digits_to_text` of all the digits: up to base
    10 a run of one piece is its digit's text from `_RUN_TEXT` repeated,
    and each other ``bytes`` piece is translated to ASCII digits; above,
    the tokens of a piece are joined by commas, with one more comma before
    every piece but the first that holds a digit. In every base a piece
    that is the previous piece object again, as a repeat's pieces are, is
    not rendered again.
    """
    previous = text = None
    if base <= 10:
        for chunk in chunks:
            if chunk.__class__ is _Repeat and chunk.length <= _CHUNK_DIGITS and len(chunk.unit) == 1:  # most runs
                yield _RUN_TEXT[chunk.unit[0]] * chunk.length
                continue
            for piece in _pieces((chunk,)):
                if piece is not previous:
                    previous, text = piece, piece.translate(_DIGIT_TO_CHAR).decode("ascii")
                yield text
        return
    comma = ""
    for piece in _pieces(chunks):
        if piece:
            if piece is not previous:
                previous, text = piece, ",".join(map(str, piece))
            yield comma + text
            comma = ","


def text_to_digits(text: str, base: int) -> tuple[int, ...]:
    """Read the digit-text format; ASCII whitespace between digits is ignored.

    For bases up to 10 every digit is one ASCII character ``0``-``9``;
    above 10 digits are ASCII ``[0-9]+`` tokens separated by commas or
    whitespace. Anything else, such as non-ASCII digits, signs or
    underscores, raises DomainError naming the first such character, and
    so does a digit not below the base, or a base below 2. The text goes
    through the same byte reader as a digit file.
    """
    return tuple(_text_digits(text, _check_base(base)))


def _text_digits(text: Union[str, bytes, Iterable[bytes]], base: int) -> Union[bytes, tuple]:
    """A digit text's digits, checked below `base`: `_digit_chunks`' chunks joined.

    `text` is a str, UTF-8 bytes or byte pieces, which may cut a UTF-8 sequence; faults are named as in a file.
    """
    if isinstance(text, str):
        if not text.isascii():  # digit text is ASCII: name the first character of the fault
            bad = (_NOT_DIGIT_TEXT if base <= 10 else _NOT_TOKEN_TEXT).search(text)
            raise DomainError(f"invalid digit character {bad.group()!r}")
        text = text.encode("ascii")
    chunks = _digit_chunks([text] if isinstance(text, bytes) else text, base)
    return b"".join(chunks) if base <= _BYTE_BASE else tuple(itertools.chain.from_iterable(chunks))


def _text_pieces(file) -> Iterator[bytes]:
    """The bytes of the binary `file`, _CHUNK_BYTES at a time; a piece may end inside a UTF-8 sequence."""
    return iter(functools.partial(file.read, _CHUNK_BYTES), b"")


def _digit_chunks(pieces: Iterable[bytes], base: int) -> Iterator[_Chunk]:
    """The digit values of the digit text that `pieces` hold, each piece checked as it arrives.

    Digits must lie below `base`. Up to base 10 one ``translate`` per
    piece deletes ASCII whitespace and turns each digit below the base
    into its value and every other byte into 0xFF, which rejects the
    piece; a chunk is the bytes of the values. Above, a piece of ASCII
    digits, commas and whitespace is read as tokens, and a chunk is the
    bytes of their values up to base 256, else a tuple of ints. A token
    that runs to the end of a piece is carried into the next one. A token
    longer than `_int_text_limit` digits is a fault at once, wherever the
    pieces cut it, in linear time.

    From the first fault on nothing more is yielded, and the rest of
    `pieces` is read once, to the end, keeping nothing: each piece is
    decoded as UTF-8 and searched for a character that is not digit text,
    and tokens are read as before until one is too long. The fault raised
    is the one reading the whole text meets first: bytes that are not
    UTF-8 anywhere, else the first character that is not digit text, else
    a token too long anywhere, else the first digit not below `base`.
    """
    overlong = b"1" * (_int_text_limit() + 1)  # a token past the bound, as `_DIGIT_TO_ONE` maps it
    if base <= 10:
        table = bytes(byte - 48 if 48 <= byte < 48 + base else 0xFF for byte in range(256))
    pack = bytes if base <= _BYTE_BASE else tuple  # the token step's chunk
    allowed = _DIGIT_CHARS + b"," + _SPACE
    decoder = codecs.getincrementaldecoder("utf-8")()  # reads the pieces from the first fault on
    faulty, too_long, carry = False, False, b""
    not_utf8 = bad = first_out = None
    for piece in itertools.chain(pieces, (b"",)):  # the empty last piece ends a carried token and the decoding
        if not faulty and base <= 10:
            values = piece.translate(table, _SPACE)
            if 0xFF not in values:
                if values:  # an empty piece, as the last is, makes no chunk: a one-piece text joins uncopied
                    yield values
                continue
        if faulty or base <= 10 or piece.translate(None, allowed):  # a fault in this piece or before it
            faulty = True
            try:
                text = decoder.decode(piece, final=not piece)
            except UnicodeDecodeError as exc:
                not_utf8 = not_utf8 or exc.object[exc.start : exc.end]
                continue
            bad = bad or (_NOT_DIGIT_TEXT if base <= 10 else _NOT_TOKEN_TEXT).search(text)
            if bad or too_long or piece.translate(None, allowed):  # a character cut at the piece's end is bad whole
                continue
        if base <= 10:
            values = piece.translate(_CHAR_TO_DIGIT, _SPACE)
        else:
            data = carry + piece
            if overlong in data.translate(_DIGIT_TO_ONE):  # no token is read past the first too long
                faulty = too_long = True
                continue
            tokens = data.replace(b",", b" ").split()
            carry = tokens.pop() if piece[-1:].isdigit() else b""
            try:
                values = pack(map(int, tokens))
            except ValueError:  # a digit of 256 or more for bytes: ints name it, on the fault path only
                values = tuple(map(int, tokens))
        if first_out is None and values and (
            values.translate(None, _BYTE_VALUES[:base]) if values.__class__ is bytes else max(values) >= base
        ):
            faulty, first_out = True, next(digit for digit in values if digit >= base)
        elif not faulty:
            yield values
    if not_utf8 is not None:
        raise DomainError(f"invalid digit character {not_utf8!r}: the input is not UTF-8")
    if bad is not None:
        raise DomainError(f"invalid digit character {bad.group()!r}")
    if too_long:
        raise DomainError("digit token too long")
    if first_out is not None:
        raise DomainError(f"digit {first_out} out of range for base {base}")


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
    if len(base_text) > _int_text_limit():
        raise DomainError("expansion base too long")
    b = int(base_text)
    _check_base(b)
    return RadixExpansion(b, _text_digits(pre_text, b), _text_digits(per_text, b))
