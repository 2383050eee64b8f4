"""Running digit statistics and finite-depth limit diagnostics.

For a digit stream of x in base s, the depth-n counts N_i, relative
frequencies v_i = N_i/n, and digit mean r_n = (1/n) * sum of the first n
digits are kept as exact rationals, so the identity r_n = sum(i * v_i)
holds with zero tolerance at every depth. Whether the v_i or r_n converge
as n grows can only be judged from finitely many samples; classify_limit
gives a conservative verdict (Converged, Oscillating, or Undetermined)
that is evidence, not proof.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from math import ceil
from operator import index
from typing import Iterable, Iterator, Sequence, Union

from ._base import _probe_memory, _Record, _set
from .core import DigitStream, RadixExpansion, _check_base, _Repeat
from .errors import DomainError, Infeasible
from .rationals import _decimal_texts, _ratio_texts, coerce_index, coerce_rational

__all__ = [
    "PartialStats",
    "FrequencyProfile",
    "Converged",
    "Oscillating",
    "Undetermined",
    "ConvergenceVerdict",
    "running_stats",
    "mean_from_frequencies",
    "exact_frequencies_rational",
    "solve_ternary_system",
    "classify_limit",
    "geometric_checkpoints",
    "stats_table",
    "stats_to_csv",
    "stats_to_json",
]

_END = float("inf")  # the CLI's checkpoint when none is given: past every depth, its row is the end, untruncated
_DEPTH_BYTES = 100  # memory a geometric checkpoint holds while made: 88 bytes of peak RSS at 1.7e6 (Python 3.11)


class PartialStats(_Record):
    """Digit statistics of one stream prefix: `counts` of each digit among the first `n`.

    ``truncated`` marks rows produced because the stream ended before the
    requested depth was reached.
    """

    __slots__ = ("base", "n", "counts", "truncated")

    def __init__(self, base: int, n: int, counts: Iterable[int], truncated: bool = False) -> None:
        base = _check_base(base)
        try:
            n, counts = index(n), tuple(map(index, counts))
        except TypeError:
            raise DomainError(f"depth and counts must be integers, got n={n!r}, counts={counts!r}") from None
        if len(counts) != base:
            raise DomainError(f"counts must have one entry per digit of base {base}")
        if n < 1 or min(counts) < 0 or sum(counts) != n:
            raise DomainError(f"counts {counts} do not sum to depth {n}")
        _set(self, "base", base)
        _set(self, "n", n)
        _set(self, "counts", counts)
        _set(self, "truncated", truncated)

    @property
    def freqs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.n) for c in self.counts)

    @property
    def mean(self) -> Fraction:
        return Fraction(sum(i * c for i, c in enumerate(self.counts)), self.n)


class FrequencyProfile(_Record):
    """A target digit-frequency vector (tau_0, ..., tau_{s-1})."""

    __slots__ = ("base", "tau")

    def __init__(self, base: int, tau: Iterable) -> None:
        base = _check_base(base)
        tau = tuple(coerce_rational(t) for t in tau)
        if len(tau) != base:
            raise DomainError(f"tau must have one entry per digit of base {base}")
        if any(t < 0 for t in tau):
            raise DomainError(f"frequencies must be nonnegative, got {tau}")
        if sum(tau) != 1:
            raise DomainError(f"frequencies must sum to 1, got sum {sum(tau)}")
        super().__init__(base, tau)

    @property
    def theta(self) -> Fraction:
        """Digit mean forced by the profile; always in [0, base-1]."""
        return mean_from_frequencies(self)


class Converged(_Record):
    """Tail window, ending at `depth`, spreads within `tolerance`; `value` is its midpoint."""

    __slots__ = ("value", "depth", "tolerance")


class Oscillating(_Record):
    """Tail window makes repeated excursions to `liminf_estimate` and `limsup_estimate`, at `witness_depths`."""

    __slots__ = ("liminf_estimate", "limsup_estimate", "witness_depths")


class Undetermined(_Record):
    """Too few samples up to `depth`, or neither convergence nor oscillation is evident."""

    __slots__ = ("depth",)


ConvergenceVerdict = Union[Converged, Oscillating, Undetermined]


def running_stats(stream: DigitStream, checkpoints: Sequence[int]) -> list[PartialStats]:
    """Statistics of `stream` at each checkpoint depth, in one pass.

    If the stream ends before the last checkpoint, the final row reports
    the statistics at the actual length with ``truncated=True``. A run
    chunk is counted in one step for each checkpoint it reaches, and a
    period chunk from its unit (see `_count`), so the cost is
    O(runs + checkpoints) there, not O(digits).
    """
    marks = [m if m is _END else coerce_index(m, "checkpoint", 1) for m in checkpoints]
    if not marks:
        raise DomainError("checkpoints must be non-empty")
    if any(later <= earlier for earlier, later in zip(marks, marks[1:])):
        raise DomainError(f"checkpoints must be strictly ascending, got {marks}")

    base = stream.base
    _probe_memory(8 * base, f"a row of {base} counts")  # a row's `base` pointers, before any digit

    def row(truncated: bool) -> PartialStats:
        return PartialStats(base, depth, counts, truncated)

    counts = [0] * base
    depth = 0
    rows: list[PartialStats] = []
    pending = iter(marks)
    mark = next(pending)
    for chunk in stream._chunks(marks[-1]):
        if chunk.__class__ is _Repeat and len(chunk.unit) == 1:  # a run
            digit, end = chunk.unit[0], depth + chunk.length
            while end >= mark:
                counts[digit] += mark - depth
                depth = mark
                rows.append(row(False))
                mark = next(pending, None)
                if mark is None:
                    return rows
            counts[digit] += end - depth
            depth = end
            continue
        start, size = 0, len(chunk)
        while start < size:
            end = min(size, start + mark - depth)
            _count(counts, chunk, start, end, base)
            depth += end - start
            start = end
            if depth == mark:
                rows.append(row(False))
                mark = next(pending, None)
                if mark is None:
                    return rows
    # the stream ended before the last checkpoint
    if depth == 0:
        raise DomainError("no digits in input" if mark is _END else "stream produced no digits")
    if rows and rows[-1].n == depth:
        rows.pop()
    rows.append(row(mark is not _END))
    return rows


def _count(counts, chunk, start: int, end: int, base: int) -> None:
    """Add the counts of the digits of ``chunk[start:end]`` to `counts`, a list or Counter.

    A literal chunk is counted by `_count_bytes`. A `_Repeat` of a unit of
    P digits is counted from its unit: the tail of the copy that `start`
    falls in, the whole copies after it times their count, and the head
    of the copy that `end` falls in, so no more than about 3P digits are
    read.
    """
    if chunk.__class__ is not _Repeat:
        return _count_bytes(counts, chunk, start, end, base)
    unit = chunk.unit
    size = len(unit)
    (first, start), (last, end) = divmod(start, size), divmod(end, size)
    if first == last:
        _count(counts, unit, start, end, base)
        return
    _count(counts, unit, start, size, base)
    _count(counts, unit, 0, end, base)
    if last - first > 1:
        whole: Counter[int] = Counter()
        _count(whole, unit, 0, size, base)
        for digit, count in whole.items():
            counts[digit] += count * (last - first - 1)


_PIECE = 1 << 14  # digits per bit-plane pass of `_count_bytes`
_PLANE_DIGITS = 3 << 10  # the shortest segment `_count_bytes` counts by bit planes, where they overtake `bytes.count`
_COUNTER_BASE = 44  # above this base one `Counter` pass beats a `bytes.count` pass per value on every segment
_CODES = bytes((1, 2, 4, 8, 16, 32, 64, 128, 0b11, 0b1100))  # `_count_bytes`' code of each digit below 10


@cache
def _planes() -> tuple[int, ...]:
    """PLANES for `_count_bytes`, built on first use, not at import.

    PLANES[d] is an int of _PIECE bytes with bit d set in each.
    """
    return tuple(int.from_bytes(bytes((1 << d,)) * _PIECE, "little") for d in range(8))


def _count_bytes(counts, digits, start: int, end: int, base: int) -> None:
    """Add the count of each digit value below `base` in ``digits[start:end]`` to `counts`.

    `digits` is a bytes, or above base 256 a tuple of ints. The method
    follows from the base and the segment's length alone. One `Counter`
    pass counts above _COUNTER_BASE, and above base 10 a segment shorter
    than _PLANE_DIGITS digits. Otherwise a segment of at least that many
    is counted by bit planes, a piece of up to _PIECE digits at a time:
    one `translate` makes each digit d < 8 the byte 1 << d, 8 the byte
    0b11 and 9 the byte 0b1100, one `int.from_bytes` reads the piece, and
    N_d for d < 8 is the `bit_count` of its AND with plane d. Only the
    codes of 8 and 9 hold two adjacent bits, so in ``pairs = bits & bits
    >> 1`` N_8 is the `bit_count` on plane 0 and N_9 on plane 2; each is
    then taken back from the two planes its code set. Values from 10 up,
    every value of a shorter segment up to base 10 and base 2, whose long
    runs `bytes.count` predicts well, take one `bytes.count` pass each.
    Each value is counted on its own, and a byte not below `base` is in
    no count, so it leaves the counts short of the segment's length.
    """
    if base > 10 and (base > _COUNTER_BASE or end - start < _PLANE_DIGITS):
        for digit, count in Counter(digits[start:end]).items():
            if digit < base:
                counts[digit] += count
        return
    counted = 0  # the values below it are counted by bit planes
    if base != 2 and end - start >= _PLANE_DIGITS:
        counted, planes = min(base, 10), _planes()[:base]
        codes = _CODES[:base].ljust(256, b"\0")  # a byte not below the base codes to 0
        for at in range(start, end, _PIECE):
            bits = int.from_bytes(digits[at : min(end, at + _PIECE)].translate(codes), "little")
            for digit, plane in enumerate(planes):
                counts[digit] += (bits & plane).bit_count()
            if base > 8:
                pairs = bits & bits >> 1
                for digit, low in ((8, 0), (9, 2))[: base - 8]:
                    paired = (pairs & planes[low]).bit_count()
                    counts[digit] += paired
                    counts[low] -= paired
                    counts[low + 1] -= paired
    for digit in range(counted, base):
        counts[digit] += digits.count(digit, start, end)


def mean_from_frequencies(profile: FrequencyProfile) -> Fraction:
    """The digit mean sum(i * tau_i) determined by a frequency vector."""
    return sum((i * t for i, t in enumerate(profile.tau)), Fraction(0))


def exact_frequencies_rational(expansion: RadixExpansion) -> FrequencyProfile:
    """Exact digit frequencies of a rational from its period.

    Preperiod digits are finitely many and do not affect the limit, so
    tau_i is the share of digit i within one period.
    """
    counts = Counter(expansion.period)
    tau = tuple(Fraction(counts[i], len(expansion.period)) for i in range(expansion.base))
    return FrequencyProfile(expansion.base, tau)


def solve_ternary_system(v0, r) -> tuple[Fraction, Fraction]:
    """The unique ternary (v1, v2) with v0+v1+v2 = 1 and v1 + 2*v2 = r.

    Solving the two linear equations gives v1 = 2 - 2*v0 - r and
    v2 = r - 1 + v0. When either lands outside [0, 1] no frequency vector
    realizes the (v0, r) pair and Infeasible is raised.
    """
    v0 = coerce_rational(v0)
    r = coerce_rational(r)
    if not 0 <= v0 <= 1:
        raise DomainError(f"v0 must lie in [0, 1], got {v0}")
    if not 0 <= r <= 2:
        raise DomainError(f"r must lie in [0, 2] for base 3, got {r}")
    v1 = 2 - 2 * v0 - r
    v2 = r - 1 + v0
    if not 0 <= v1 <= 1:
        raise Infeasible(f"no ternary frequency vector has v0={v0}, r={r}: v1={v1} is outside [0, 1]")
    if not 0 <= v2 <= 1:
        raise Infeasible(f"no ternary frequency vector has v0={v0}, r={r}: v2={v2} is outside [0, 1]")
    return v1, v2


def classify_limit(
    samples: Sequence[tuple[int, Fraction]],
    gap: Fraction = Fraction(1, 1000),
    tail_fraction: Fraction = Fraction(1, 2),
) -> ConvergenceVerdict:
    """Judge a sampled sequence as Converged, Oscillating, or Undetermined.

    Only the tail window (the last `tail_fraction` of the samples, at
    least 2) is examined, so early transients are ignored:

    * spread of the window <= gap: Converged at the window midpoint;
    * otherwise samples are classified against two hysteresis thresholds
      `gap` apart around the window midpoint, and consecutive same-side
      samples collapse into one excursion keeping the most extreme depth
      as witness; at least two excursions per side: Oscillating;
    * anything else (including fewer than 4 samples): Undetermined.
    """
    gap = coerce_rational(gap)
    tail_fraction = coerce_rational(tail_fraction)
    if gap <= 0:
        raise DomainError(f"gap must be positive, got {gap}")
    if not 0 < tail_fraction <= 1:
        raise DomainError(f"tail_fraction must lie in (0, 1], got {tail_fraction}")
    points = [(depth, coerce_rational(value)) for depth, value in samples]
    depths = [depth for depth, _ in points]
    if any(b <= a for a, b in zip(depths, depths[1:])):
        raise DomainError("sample depths must be strictly ascending")
    if len(points) < 4:
        return Undetermined(depth=depths[-1] if depths else 0)

    tail_len = max(2, min(len(points), ceil(tail_fraction * len(points))))
    tail = points[-tail_len:]
    lo = min(value for _, value in tail)
    hi = max(value for _, value in tail)
    if hi - lo <= gap:
        return Converged(value=(hi + lo) / 2, depth=tail[-1][0], tolerance=gap)

    mid = (hi + lo) / 2
    t_high = mid + gap / 2
    t_low = mid - gap / 2
    runs: list[tuple[str, int, Fraction]] = []
    for depth, value in tail:
        if value >= t_high:
            side = "high"
        elif value <= t_low:
            side = "low"
        else:
            continue
        if runs and runs[-1][0] == side:
            _, _, extreme = runs[-1]
            if (side == "high" and value > extreme) or (side == "low" and value < extreme):
                runs[-1] = (side, depth, value)
        else:
            runs.append((side, depth, value))
    sides = Counter(side for side, _, _ in runs)
    if sides["high"] >= 2 and sides["low"] >= 2:
        witnesses = tuple(sorted(depth for _, depth, _ in runs))
        return Oscillating(liminf_estimate=lo, limsup_estimate=hi, witness_depths=witnesses)
    return Undetermined(depth=tail[-1][0])


def geometric_checkpoints(start: int, factor, max_depth: int) -> list[int]:
    """Depths start, start*factor, ... capped at and including max_depth.

    Geometric spacing matches phenomena whose breakpoints grow by a
    constant ratio. Depths that cannot fit in memory raise MemoryError
    before the first is made.
    """
    factor = coerce_rational(factor)
    start, max_depth = coerce_index(start, "start"), coerce_index(max_depth, "max_depth")
    if start < 1 or max_depth < start:
        raise DomainError(f"need 1 <= start <= max_depth, got start={start}, max_depth={max_depth}")
    if factor <= 1:
        raise DomainError(f"factor must exceed 1, got {factor}")
    p, q = factor.numerator, factor.denominator
    # log2(f) >= min(f - 1, 1), so there are at most 2 + log2(max_depth / start) / min(f - 1, 1) depths
    count = min(max_depth - start + 1, 2 + (max_depth.bit_length() - start.bit_length() + 1) * q // min(p - q, q))
    _probe_memory(_DEPTH_BYTES * count, f"{count} checkpoints")
    if (p - q) * max_depth <= q:  # each step below max_depth grows by less than 1, so every depth is hit
        return list(range(start, max_depth + 1))
    # x / 2**shift tracks v_k = start * f**k, f = p/q, from below. Each
    # step's floor x*p//q loses less than 1, so after k steps x falls short
    # of v_k * 2**shift by less than 1 + f + ... + f**(k-1) < f**k / (f-1)
    # <= f**k * q. Step k is taken only once f**(k-1) <= max_depth / start
    # is known, so the shortfall stays below slack = p * max_depth, which
    # is 2**64 times smaller than the unit 2**shift. Where [x, x + slack]
    # does not fix the floor of v_k, or whether v_k <= max_depth, the step
    # is settled with exact integers.
    slack = p * max_depth
    shift = slack.bit_length() + 64
    top = max_depth << shift
    depths = {max_depth}
    x, k = start << shift, 0
    while x <= top:
        if x + slack <= top and x >> shift == (x + slack) >> shift:
            depths.add(x >> shift)
        else:
            num, den = start * p**k, q**k
            if num > max_depth * den:
                break
            depths.add(num // den)
        x = x * p // q
        k += 1
    return sorted(depths)


def _stats_base(rows: Sequence[PartialStats]) -> int:
    if not rows:
        raise DomainError("no statistics rows to export")
    base = rows[0].base
    if any(row.base != base for row in rows):
        raise DomainError("statistics rows mix bases")
    return base


def _stats_header(base: int, freq_decimals: bool = True) -> list[str]:
    header = ["n", *(f"N{i}" for i in range(base)), *(f"v{i}" for i in range(base)), "r"]
    if freq_decimals:
        header += [f"v{i}_dec" for i in range(base)]
    return header + ["r_dec", "truncated"]


def stats_table(
    rows: Sequence[PartialStats], freq_decimals: bool = True
) -> tuple[list[str], list[list[str]]]:
    """Header and cells of the statistics columns, one row per depth.

    Columns: ``n``, the counts ``N<i>``, the frequencies ``v<i>`` and the
    mean ``r`` as exact ``p/q``, then decimal twins ``v<i>_dec`` (only
    with `freq_decimals`) and ``r_dec``, and the truncation flag.
    """
    header = _stats_header(_stats_base(rows), freq_decimals)
    body = []
    for row in rows:
        numerators, exact, decimals = _row_cells(row, freq_decimals)
        body.append([str(row.n), *map(str, numerators[:-1]), *exact, *decimals, str(row.truncated).lower()])
    return header, body


def _row_cells(row: PartialStats, freq_decimals: bool = True) -> tuple[list[int], list[str], list[str]]:
    """A row's counts and sum of digits, then each over ``n`` as exact ``p/q`` and as a decimal twin.

    The cells are built from the integers, so no `Fraction` is made for
    them; the frequencies' decimal twins are left out without
    `freq_decimals`. `stats_table` and `_stats_pieces` share this path.
    """
    numerators = [*row.counts, sum(i * c for i, c in enumerate(row.counts))]
    decimals = _decimal_texts(numerators if freq_decimals else numerators[-1:], row.n)
    return numerators, _ratio_texts(numerators, row.n), decimals


_ITEM = ",\n        "  # between the items of a list in a JSON row
_QUOTED = '",\n        "'  # between the string items of a list in a JSON row


def _stats_pieces(rows: Sequence[PartialStats], fmt: str) -> Iterator[str]:
    """The text of `rows` as ``csv`` or ``json``: a head, each row's text as it is made, a tail.

    Nothing of a row outlives it but its text. A CSV row is its cells
    joined by commas: every cell is an int, ``p/q``, a decimal or
    ``true``/``false``, so none needs quoting. The JSON text is the same
    bytes as ``json.dumps(payload, indent=2) + "\n"`` of the payload
    ``{"base": ..., "rows": [...]}``: its strings need no escape, and its
    lists have one entry per digit, so none is empty. The rows are
    checked before the head is made.
    """
    base = _stats_base(rows)
    as_json = fmt == "json"
    yield f'{{\n  "base": {base},\n  "rows": [' if as_json else ",".join(_stats_header(base)) + "\n"
    separator = "\n"
    for row in rows:
        numerators, exact, decimals = _row_cells(row)
        flag = "true" if row.truncated else "false"
        if not as_json:
            yield f"{row.n},{','.join(map(str, numerators[:-1]))},{','.join(exact)},{','.join(decimals)},{flag}\n"
            continue
        yield (
            f"{separator}    {{\n"
            f'      "n": {row.n},\n'
            f'      "counts": [\n        {_ITEM.join(map(str, numerators[:-1]))}\n      ],\n'
            f'      "freqs": [\n        "{_QUOTED.join(exact[:-1])}"\n      ],\n'
            f'      "freqs_decimal": [\n        "{_QUOTED.join(decimals[:-1])}"\n      ],\n'
            f'      "mean": "{exact[-1]}",\n'
            f'      "mean_decimal": "{decimals[-1]}",\n'
            f'      "truncated": {flag}\n'
            "    }"
        )
        separator = ",\n"
    if as_json:
        yield "\n  ]\n}\n"


def stats_to_csv(rows: Sequence[PartialStats]) -> str:
    """CSV of :func:`stats_table`: `n,N0..,v0..,r`, decimal twins, truncation flag."""
    return "".join(_stats_pieces(rows, "csv"))


def stats_to_json(rows: Sequence[PartialStats]) -> str:
    """JSON mirror of the CSV columns."""
    return "".join(_stats_pieces(rows, "json"))
