"""Constructors for digit streams with prescribed statistics.

Four families of machinery:

* floor-indicator generators (`beatty_indicator`, `beatty_construct`)
  placing digit 0 at density `a` via increments of the floor sequence
  [n*a], plus the greedy `quota_construct` which guarantees every digit's
  running count stays within 2 of its target share;
* `floor_weighted_average` w_n = ([k*x] + ... + [n*x]) / (n(n+1)/2), the
  triangular-weighted average that tends to x for a fixed x;
* `build_oscillating_schedule`, which switches a value sequence between
  x1 and x2 exactly when the running floor-weighted average crosses
  x1 + eps from above or x2 - eps from below, so the average oscillates
  forever instead of converging;
* the block construction (`construct_mean_without_frequency`) emitting
  per block k a run of [k*alpha_k] zeros, [k*beta_k] ones, [k*gamma_k]
  twos with alpha following the oscillating schedule; its digit mean
  converges to theta while the frequency of digit 0 oscillates; and
  `no_mean_example` (paired runs of 2^m zeros then 2^m ones), whose digit
  mean has no limit at all.

All parameters are exact rationals and all floors are exact integer
division.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, chain, cycle, repeat
from math import lcm
from operator import mul, sub
from typing import TYPE_CHECKING, Iterator

from ._base import _probe_memory, _Record
from .core import DigitStream, _repeated, _run_chunks
from .errors import DomainError, Infeasible
from .rationals import coerce_index, coerce_rational, ratio_str

if TYPE_CHECKING:  # annotations only: the constructors never load `stats`
    from .stats import FrequencyProfile

__all__ = [
    "beatty_indicator",
    "beatty_construct",
    "quota_construct",
    "floor_weighted_average",
    "OscillationSchedule",
    "build_oscillating_schedule",
    "BlockSpec",
    "construct_mean_without_frequency",
    "block_digit_stream",
    "block_boundaries",
    "blockspec_table",
    "no_mean_example",
    "no_mean_zero_run_ends",
    "no_mean_one_run_ends",
]


_BLOCK_BYTES = 184  # a block's row, alpha and references, by tracemalloc at 1e5 blocks


def _floor(value: Fraction) -> int:
    return value.numerator // value.denominator


def beatty_indicator(a, n: int) -> int:
    """Increment d_n = [(n+1)*a] - [n*a] of the floor sequence; 0 or 1."""
    a = coerce_rational(a)
    if not 0 <= a <= 1:
        raise DomainError(f"a must lie in [0, 1], got {a}")
    n = coerce_index(n, "n", 1)
    return _floor((n + 1) * a) - _floor(n * a)


def beatty_construct(a, b, count: int) -> list[int]:
    """Ternary digits from two floor indicators, digit 0 at density `a`.

    Position n gets digit 0 when the indicator of `a` fires there, else
    digit 1 or 2 as the indicator of `b` is 0 or 1. The count of zeros is
    controlled within 2 of n*a at every depth; the counts of digits 1 and
    2 are NOT guaranteed to track b and 1-a-b, because the digit-0 rule
    wins whenever both indicators fire (a measured fidelity gap, e.g.
    a = b = 0 yields all 1s against a target of all 2s). Use
    quota_construct when every digit's frequency must be guaranteed.

    The indicator of a = p/q repeats with period q, since
    [(n+q)*a] = [n*a] + p; so the digits repeat with the period
    lcm(a.denominator, b.denominator), and only one period is computed.
    """
    stream = _beatty_stream(a, b, count)
    return stream.take(stream.length)


def _beatty_stream(a, b, count: int) -> DigitStream:
    """The first `count` digits of `beatty_construct`, made in chunks."""
    a = coerce_rational(a)
    b = coerce_rational(b)
    if a < 0 or b < 0 or a + b > 1:
        raise DomainError(f"need a >= 0, b >= 0, a + b <= 1, got a={a}, b={b}")
    count = coerce_index(count, "count", 0)
    ap, aq = a.numerator, a.denominator
    bp, bq = b.numerator, b.denominator

    def period() -> Iterator[int]:
        floor_a = ap // aq
        floor_b = bp // bq
        for n in range(1, lcm(aq, bq) + 1):
            next_a = ((n + 1) * ap) // aq
            next_b = ((n + 1) * bp) // bq
            if next_a - floor_a == 1:
                yield 0
            elif next_b - floor_b == 0:
                yield 1
            else:
                yield 2
            floor_a = next_a
            floor_b = next_b

    return DigitStream._trusted(3, None, _repeated(period, 3))._head(count)


def quota_construct(profile: FrequencyProfile, count: int) -> list[int]:
    """Greedy quota digits: every count stays within 2 of its target.

    At step m the digit with the largest deficit m*tau_i - N_i(m-1) is
    emitted, ties broken by the smallest digit. The deficit of the chosen
    digit is the maximum of quantities averaging to 0, hence >= 0 before
    the step and > -1 after; a standard quota argument keeps
    |N_i(m) - m*tau_i| <= 2 for every digit and every depth.

    The choice at step m+1 depends only on the deficits after step m. If
    they are all 0, as before step 1, then step m+j chooses what step j
    chose, and the digits repeat the first m with period m. That happens
    only where m is a multiple of the common denominator of the targets,
    so it is checked there, and the period ends at the first such m.
    """
    stream = _quota_stream(profile, count)
    return stream.take(stream.length)


def _quota_stream(profile: FrequencyProfile, count: int) -> DigitStream:
    """The first `count` digits of `quota_construct`, made in chunks."""
    count = coerce_index(count, "count", 0)
    # integer deficits: scale by the common denominator of the targets
    scale = lcm(*(t.denominator for t in profile.tau))
    weights = [t.numerator * (scale // t.denominator) for t in profile.tau]

    def period() -> Iterator[int]:
        counts = [0] * profile.base
        m = 0
        while True:
            m += 1
            best = 0
            best_deficit = m * weights[0] - counts[0] * scale
            for i in range(1, profile.base):
                deficit = m * weights[i] - counts[i] * scale
                if deficit > best_deficit:
                    best = i
                    best_deficit = deficit
            counts[best] += 1
            yield best
            if m % scale == 0 and all(c * scale == m * w for c, w in zip(counts, weights)):
                return

    return DigitStream._trusted(profile.base, None, _repeated(period, profile.base))._head(count)


def floor_weighted_average(x, k: int, n: int) -> Fraction:
    """([k*x] + [(k+1)*x] + ... + [n*x]) / (n(n+1)/2), exactly.

    For k = 1 and fixed x the value is sandwiched in (x - 2/(n+1), x],
    so it converges to x as n grows.
    """
    x = coerce_rational(x)
    k, n = coerce_index(k, "k"), coerce_index(n, "n")
    if x < 0:
        raise DomainError(f"x must be >= 0, got {x}")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if k > n:
        raise DomainError(f"need k <= n, got k={k}, n={n}")
    p, q = x.numerator, x.denominator
    total = _floor_sum(n + 1, p, 0, q) - _floor_sum(k, p, 0, q)
    return Fraction(total, n * (n + 1) // 2)


def _floor_sum(n: int, a: int, b: int, m: int) -> int:
    """Sum of [(a*j + b)/m] over j = 0..n-1, for n, a, b >= 0 and m >= 1, in O(log m) steps.

    The whole parts of a/m and b/m add closed-form terms; the lattice points
    under the line y = (a*j + b)/m that remain are counted along the other
    axis, a floor sum with a and m swapped, as in Euclid's algorithm.
    """
    total = 0
    while True:
        total += n * (n - 1) // 2 * (a // m) + n * (b // m)
        a, b = a % m, b % m
        top = a * n + b
        if top < m:
            return total
        n, b, m, a = top // m, top % m, a, m


class OscillationSchedule(_Record):
    """A value sequence alternating x1-runs and x2-runs, x1 first.

    ``breakpoints[i]`` is the last index of run i+1; the floor-weighted
    average of the values, taken at a breakpoint, sits below x1 + epsilon
    at x1-run ends and above x2 - epsilon at x2-run ends
    (``w_at_breakpoints`` records it). Values are defined for positions
    1..horizon.
    """

    __slots__ = ("x1", "x2", "epsilon", "horizon", "breakpoints", "w_at_breakpoints")

    def __init__(
        self,
        x1: Fraction,
        x2: Fraction,
        epsilon: Fraction,
        horizon: int,
        breakpoints: tuple[int, ...],
        w_at_breakpoints: tuple[Fraction, ...],
    ) -> None:
        if len(breakpoints) != len(w_at_breakpoints):
            raise DomainError("one w value is required per breakpoint")
        if any(b <= a for a, b in zip(breakpoints, breakpoints[1:])):
            raise DomainError("breakpoints must be strictly ascending")
        if breakpoints and breakpoints[-1] > horizon:
            raise DomainError("breakpoints cannot exceed the horizon")
        super().__init__(x1, x2, epsilon, horizon, breakpoints, w_at_breakpoints)

    def value_at(self, n: int) -> Fraction:
        """The run value at position n: x1 in odd runs, x2 in even runs."""
        if not 1 <= n <= self.horizon:
            raise DomainError(f"position {n} outside 1..{self.horizon}")
        finished_runs = bisect_left(self.breakpoints, n)
        return self.x1 if finished_runs % 2 == 0 else self.x2

    def values(self) -> Iterator[Fraction]:
        """All values for positions 1..horizon in order: each run's value repeated for its length."""
        lengths = map(sub, (*self.breakpoints, self.horizon), (0, *self.breakpoints))
        return chain.from_iterable(map(repeat, cycle((self.x1, self.x2)), lengths))


def build_oscillating_schedule(x1, x2, epsilon, horizon: int) -> OscillationSchedule:
    """Switch between x1 and x2 so the floor-weighted average oscillates.

    Starting with value x1, the current run ends at the least n whose
    average w_n = (sum of [j * value_j]) / (n(n+1)/2) falls strictly below
    x1 + epsilon (for x1-runs) or rises strictly above x2 - epsilon (for
    x2-runs); the next run then uses the other value. Because the average
    of a constant-x tail is dragged toward x, each hunt terminates, so w_n
    crosses the two bands forever and never converges: consecutive
    breakpoint averages differ by more than x2 - x1 - 2*epsilon.
    """
    x1 = coerce_rational(x1)
    x2 = coerce_rational(x2)
    epsilon = coerce_rational(epsilon)
    if not 0 < x1 < x2:
        raise DomainError(f"need 0 < x1 < x2, got x1={x1}, x2={x2}")
    if not 0 < epsilon < (x2 - x1) / 2:
        raise DomainError(
            f"epsilon must lie in (0, (x2-x1)/2) so that x1+eps < x2-eps, got {epsilon}"
        )
    horizon = coerce_index(horizon, "horizon", 1)
    low = x1 + epsilon
    high = x2 - epsilon
    # the current run's value p/q, its bound bp/bq and its side: the run
    # ends where side * (w_n - bound) < 0, tested on integers
    p, q, bp, bq, side = x1.numerator, x1.denominator, low.numerator, low.denominator, 1
    other = x2.numerator, x2.denominator, high.numerator, high.denominator, -1
    numerator_sum = 0
    breakpoints: list[int] = []
    w_values: list[Fraction] = []
    for n in range(1, horizon + 1):
        numerator_sum += n * p // q
        weight = n * (n + 1) // 2
        if side * (numerator_sum * bq - weight * bp) < 0:
            breakpoints.append(n)
            w_values.append(Fraction(numerator_sum, weight))
            (p, q, bp, bq, side), other = other, (p, q, bp, bq, side)
    return OscillationSchedule(
        x1=x1,
        x2=x2,
        epsilon=epsilon,
        horizon=horizon,
        breakpoints=tuple(breakpoints),
        w_at_breakpoints=tuple(w_values),
    )


class BlockSpec(_Record):
    """Run lengths per block of the mean-without-frequency construction.

    Row k (1-based) is ([k*alpha_k], [k*beta_k], [k*gamma_k]): the counts
    of digits 0, 1, 2 emitted by block k, where beta_k = 2 - 2*alpha_k -
    theta and gamma_k = alpha_k - 1 + theta, so that alpha+beta+gamma = 1
    and beta + 2*gamma = theta identically. The rows are derived from
    theta and the alphas on construction; zero-length runs are allowed.
    """

    __slots__ = ("theta", "alphas", "rows")
    __match_args__ = ("theta", "alphas")

    def __init__(self, theta: Fraction, alphas: tuple[Fraction, ...]) -> None:
        rows = []
        previous = object()
        for k, alpha in enumerate(alphas, start=1):
            if alpha is not previous:  # a schedule's run repeats one object; recomputing is exact
                beta = 2 - 2 * alpha - theta
                gamma = alpha - 1 + theta
                if beta < 0 or gamma < 0 or alpha < 0:
                    raise DomainError(f"block {k}: run densities ({alpha}, {beta}, {gamma}) negative")
                (ap, aq), (bp, bq), (gp, gq) = [(v.numerator, v.denominator) for v in (alpha, beta, gamma)]
                previous = alpha
            rows.append((k * ap // aq, k * bp // bq, k * gp // gq))
        super().__init__(theta, alphas, tuple(rows))

    @property
    def blocks(self) -> int:
        return len(self.rows)


def construct_mean_without_frequency(
    theta, x1, x2, epsilon, blocks: int
) -> tuple[BlockSpec, DigitStream]:
    """Ternary stream with digit mean theta but no digit-0 frequency.

    Block k emits [k*alpha_k] zeros, [k*beta_k] ones, [k*gamma_k] twos,
    with alpha_k following the oscillating schedule on {x1, x2}. The mean
    of the first n digits tends to theta, while the frequency of digit 0
    measured at run-end block boundaries oscillates between roughly x1
    and x2 and so has no limit.

    theta = 0 or 2 is infeasible, not merely out of range: a ternary mean
    of 0 forces the frequency of digit 0 to 1, and a mean of 2 forces the
    frequency of digit 2 to 1, so every such stream has full frequencies.
    x1 and x2 must lie strictly inside (max(0, 1-theta), (2-theta)/2) to
    keep the run densities beta_k and gamma_k positive. Blocks that
    cannot fit in memory raise MemoryError before any is built.
    """
    theta = coerce_rational(theta)
    x1 = coerce_rational(x1)
    x2 = coerce_rational(x2)
    if theta == 0:
        raise Infeasible("theta = 0 forces the frequency of digit 0 to exist (and equal 1)")
    if theta == 2:
        raise Infeasible("theta = 2 forces the frequency of digit 2 to exist (and equal 1)")
    if not 0 < theta < 2:
        raise DomainError(f"theta must lie in (0, 2) for ternary digits, got {theta}")
    window_low = max(Fraction(0), 1 - theta)
    window_high = (2 - theta) / 2
    if not window_low < x1 < x2 < window_high:
        raise DomainError(
            f"x1, x2 must satisfy {window_low} < x1 < x2 < {window_high}, got x1={x1}, x2={x2}"
        )
    blocks = coerce_index(blocks, "blocks", 1)
    _probe_memory(_BLOCK_BYTES * blocks, f"{blocks} blocks")
    schedule = build_oscillating_schedule(x1, x2, epsilon, horizon=blocks)
    spec = BlockSpec(theta=theta, alphas=tuple(schedule.values()))
    return spec, block_digit_stream(spec)


def block_digit_stream(spec: BlockSpec) -> DigitStream:
    """The ternary stream emitting each block's zeros, then ones, then twos."""
    def chunks(stop: int | None = None) -> Iterator[bytes]:
        return _run_chunks(cycle((0, 1, 2)), chain.from_iterable(spec.rows))

    return DigitStream._trusted(3, sum(map(sum, spec.rows)), chunks)


def block_boundaries(spec: BlockSpec) -> tuple[int, ...]:
    """Cumulative digit depth at the end of each block."""
    return tuple(accumulate(map(sum, spec.rows)))


_BLOCKSPEC_HEADER = ("k", "a_k1", "a_k2", "a_k3", "alpha_k")


def blockspec_table(spec: BlockSpec) -> tuple[list[str], list[list]]:
    """Header and rows `k,a_k1,a_k2,a_k3,alpha_k`: run lengths as ints, alpha as p/q."""
    rows = [
        [k, zeros, ones, twos, ratio_str(alpha)]
        for k, (alpha, (zeros, ones, twos)) in enumerate(zip(spec.alphas, spec.rows), start=1)
    ]
    return list(_BLOCKSPEC_HEADER), rows


def no_mean_example(count: int) -> list[int]:
    """First `count` digits of paired runs: 2^m zeros then 2^m ones.

    The running digit mean dips toward 1/3 at the end of each 0-run and
    returns to exactly 1/2 at the end of each 1-run, so it has no limit
    even though a mean is the weakest digit statistic.
    """
    stream = _no_mean_stream(count)
    return stream.take(stream.length)


def _no_mean_stream(count: int) -> DigitStream:
    """The first `count` digits of `no_mean_example`, made in chunks."""
    count = coerce_index(count, "count", 1)

    def runs(stop: int | None = None) -> Iterator[bytes]:
        lengths = accumulate(repeat(2), mul, initial=1)  # 1, 2, 4, ...
        return _run_chunks(cycle((0, 1)), chain.from_iterable(map(repeat, lengths, repeat(2))))

    return DigitStream._trusted(2, None, runs)._head(count)


def _no_mean_run_ends(c: int, max_depth: int) -> list[int]:
    """Depths c*2^m - 2 for m = 0, 1, ..., up to max_depth."""
    max_depth = coerce_index(max_depth, "max_depth", 1)
    depths = []
    while c - 2 <= max_depth:
        depths.append(c - 2)
        c *= 2
    return depths


def no_mean_zero_run_ends(max_depth: int) -> list[int]:
    """Depths 3*2^m - 2 ending each 0-run, up to max_depth."""
    return _no_mean_run_ends(3, max_depth)


def no_mean_one_run_ends(max_depth: int) -> list[int]:
    """Depths 2^(m+2) - 2 ending each 1-run, up to max_depth."""
    return _no_mean_run_ends(4, max_depth)
