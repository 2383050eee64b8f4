"""Reference results that the benchmark checks digitstats outputs against.

Nothing here imports digitstats. Expected values come from the paper's
closed forms, from ``str.count`` over the generated text, or from
integer arithmetic written separately from the package's own code.
Every ``check_*`` function returns a list of failure messages. An empty
list means the output is correct. The benchmark's tests feed corrupted
outputs to these functions to show that failures are caught.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

MASK64 = (1 << 64) - 1


# ------------------------------------------------------------ references


def geometric_depths(start: int, factor: int, max_depth: int) -> list[int]:
    """start, start*factor, ... up to max_depth, plus max_depth itself."""
    depths = []
    depth = start
    while depth <= max_depth:
        depths.append(depth)
        depth *= factor
    if depths[-1] != max_depth:
        depths.append(max_depth)
    return depths


def fine_geometric_depths(factor: Fraction, max_depth: int) -> list[int]:
    """Distinct floor(factor**k) <= max_depth for k >= 0, plus max_depth.

    Floats locate each power. A power within 1e-6 of an integer is
    recomputed exactly, so the result is exact.
    """
    p, q = factor.numerator, factor.denominator
    log_factor = math.log(p) - math.log(q)
    depths = set()
    k = 0
    while True:
        approx = math.exp(k * log_factor)
        if abs(approx - round(approx)) < 1e-6 or abs(approx - max_depth) < 1:
            value = p**k // q**k
            exceeded = p**k > max_depth * q**k
        else:
            value = math.floor(approx)
            exceeded = approx > max_depth
        if exceeded:
            break
        depths.add(value)
        k += 1
    depths.add(max_depth)
    return sorted(depths)


def oscillating_blocks(theta, x1, x2, eps, blocks: int):
    """Block run lengths of the mean-without-frequency construction.

    Returns ``(rows, breakpoints)``. Row k holds the lengths of the
    zero, one and two runs of block k: floor(k*alpha_k), floor(k*beta_k)
    and floor(k*gamma_k), with beta = 2 - 2*alpha - theta and
    gamma = alpha - 1 + theta. alpha_k starts at x1 and switches between
    x1 and x2 after each block k where the running floor-weighted average
    (floor(1*alpha_1) + ... + floor(k*alpha_k)) / (k(k+1)/2) falls below
    x1 + eps (while alpha = x1) or rises above x2 - eps (while alpha = x2).
    ``breakpoints`` lists those switching blocks.
    """
    low, high = x1 + eps, x2 - eps
    alpha = x1
    weighted = 0
    rows, breakpoints = [], []
    for k in range(1, blocks + 1):
        beta = 2 - 2 * alpha - theta
        gamma = alpha - 1 + theta
        rows.append((math.floor(k * alpha), math.floor(k * beta), math.floor(k * gamma)))
        weighted += rows[-1][0]
        average = Fraction(weighted, k * (k + 1) // 2)
        if (alpha == x1 and average < low) or (alpha == x2 and average > high):
            breakpoints.append(k)
            alpha = x2 if alpha == x1 else x1
    return rows, breakpoints


def block_text(rows) -> str:
    """The block stream as digit text: each block's 0-run, 1-run, 2-run."""
    return "".join("0" * z + "1" * o + "2" * t for z, o, t in rows)


def cumulative_counts(rows) -> list[tuple[int, tuple[int, int, int]]]:
    """(depth, (N0, N1, N2)) at the end of each block."""
    out = []
    totals = [0, 0, 0]
    for row in rows:
        for i in range(3):
            totals[i] += row[i]
        out.append((sum(totals), tuple(totals)))
    return out


def no_mean_text(count: int) -> str:
    """First `count` digits of 2^m zeros then 2^m ones, m = 0, 1, ..."""
    parts, length, m = [], 0, 0
    while length < count:
        parts.append("0" * (1 << m) + "1" * (1 << m))
        length += 2 << m
        m += 1
    return "".join(parts)[:count]


def no_mean_one_run_ends(max_depth: int) -> list[int]:
    """Depths 2^(m+2) - 2 that end each 1-run, up to max_depth."""
    depths, m = [], 0
    while (4 << m) - 2 <= max_depth:
        depths.append((4 << m) - 2)
        m += 1
    return depths


def _prime_factors(n: int) -> list[int]:
    factors, p = [], 2
    while p * p <= n:
        if n % p == 0:
            factors.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        factors.append(n)
    return factors


def multiplicative_order(base: int, q: int) -> int:
    """Least L >= 1 with base**L == 1 (mod q); gcd(base, q) must be 1."""
    phi = q
    for p in _prime_factors(q):
        phi = phi // p * (p - 1)
    order = phi
    for p in _prime_factors(phi):
        while order % p == 0 and pow(base, order // p, q) == 1:
            order //= p
    return order


def long_division_digit(p: int, q: int, base: int, position: int) -> int:
    """Digit at 1-based `position` of p/q in `base`, in O(log position)."""
    remainder = p * pow(base, position - 1, q) % q
    return remainder * base // q


# ---------------------------------------------------------------- checks


def check_stats_csv(text: str, digits: str, checkpoints: list[int], base: int = 10) -> list[str]:
    """`stats --format csv` output against str.count of the input digits."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return ["stats: empty CSV output"]
    header = rows[0]
    expected_header = ["n"] + [f"N{i}" for i in range(base)]
    if header[: base + 1] != expected_header or "r" not in header:
        return [f"stats: unexpected CSV header {header[:base + 2]}"]
    if len(rows) - 1 != len(checkpoints):
        return [f"stats: {len(rows) - 1} rows for {len(checkpoints)} checkpoints"]
    r_col, trunc_col = header.index("r"), header.index("truncated")
    failures = []
    counts = [0] * base
    previous = 0
    for mark, row in zip(checkpoints, rows[1:]):
        chunk = digits[previous:mark]
        for d in range(base):
            counts[d] += chunk.count(str(d))
        previous = mark
        got = [int(c) for c in row[1 : base + 1]]
        if int(row[0]) != mark or got != counts:
            failures.append(f"stats: counts at n={mark} are {got}, expected {counts}")
        elif Fraction(row[r_col]) != Fraction(sum(i * c for i, c in enumerate(counts)), mark):
            failures.append(f"stats: mean at n={mark} is {row[r_col]}")
        elif row[trunc_col] != "false":
            failures.append(f"stats: row n={mark} marked truncated")
    return failures


def check_simulate_json(text: str, base: int, depth: int, trials: int, seed: int) -> list[str]:
    """`simulate --format json` output: config, rng_id, trials, mean.

    Per-trial means are 20-significant-digit decimals, so their average
    is compared with `mean` within the rounding that rendering allows.
    """
    try:
        payload = json.loads(text)
        config = payload["config"]
        per_trial = [Fraction(v) for v in payload["per_trial"]]
        mean = Fraction(payload["mean"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"simulate: unreadable JSON output ({exc})"]
    failures = []
    expected = {"base": base, "depth": depth, "trials": trials, "master_seed": seed & MASK64}
    if config != expected:
        failures.append(f"simulate: config {config}, expected {expected}")
    if not payload.get("rng_id"):
        failures.append("simulate: rng_id missing")
    if len(per_trial) != trials:
        failures.append(f"simulate: {len(per_trial)} per-trial means for {trials} trials")
    elif abs(sum(per_trial) / trials - mean) > Fraction(base, 10**19):
        failures.append("simulate: per-trial means do not average to mean")
    if any(not 0 <= r <= base - 1 for r in per_trial):
        failures.append("simulate: per-trial mean outside [0, base-1]")
    return failures


def check_digit_text(label: str, text: str, expected: str) -> list[str]:
    """Digit output (one line) against the expected digit string."""
    body = text[:-1] if text.endswith("\n") else text
    if body == expected and text.endswith("\n"):
        return []
    if len(body) != len(expected):
        return [f"{label}: {len(body)} digits written, expected {len(expected)}"]
    first = next((i for i, (a, b) in enumerate(zip(body, expected)) if a != b), len(body))
    return [f"{label}: first wrong digit at position {first + 1}"]


def check_block_digits(text: str, rows) -> list[str]:
    """`construct-mean-nofreq --emit digits` against the block spec."""
    failures = check_digit_text("blocks", text, block_text(rows))
    if failures:
        body = text.rstrip("\n")
        depth = 0
        for k, (z, o, t) in enumerate(rows, start=1):
            block = body[depth : depth + z + o + t]
            if (block.count("0"), block.count("1"), block.count("2")) != (z, o, t):
                failures.append(f"blocks: block {k} digit counts differ from spec {(z, o, t)}")
                break
            depth += z + o + t
    return failures


def check_paper(params: dict, res: dict) -> list[str]:
    """The library session's results against independent references.

    `res` holds the package's return values, keyed as in
    ``session.paper_session``.
    """
    failures = []
    theta = Fraction(params["theta"])
    rows, breakpoints = oscillating_blocks(
        theta, Fraction(params["x1"]), Fraction(params["x2"]), Fraction(params["eps"]), params["blocks"]
    )
    cumulative = cumulative_counts(rows)

    # block rows: sums equal the boundaries; counts and the mean identity
    if tuple(res["boundaries"]) != tuple(depth for depth, _ in cumulative):
        failures.append("paper: block_boundaries differ from the block row sums")
    expected = {depth: counts for depth, counts in cumulative if depth >= 1}
    block_rows = res["block_rows"]
    if [row.n for row in block_rows] != sorted(expected):
        failures.append("paper: block stats rows are not at the block boundaries")
    for row in block_rows:
        if tuple(row.counts) != expected.get(row.n):
            failures.append(f"paper: block counts at n={row.n} are {row.counts}")
            break
        if row.mean != sum(i * v for i, v in enumerate(row.freqs)):
            failures.append(f"paper: mean identity broken at n={row.n}")
            break

    # the paper's claims: v0 oscillates at the switch points, the mean converges to theta
    if type(res["v0_verdict"]).__name__ != "Oscillating":
        failures.append(f"paper: v0 classified {type(res['v0_verdict']).__name__}")
    mean_verdict = res["mean_verdict"]
    if type(mean_verdict).__name__ != "Converged":
        failures.append(f"paper: mean classified {type(mean_verdict).__name__}")
    elif abs(mean_verdict.value - theta) > mean_verdict.tolerance:
        failures.append(f"paper: mean converged to {mean_verdict.value}, not {theta}")
    switch_depths = [depth for depth in (cumulative[k - 1][0] for k in breakpoints) if depth >= 1]
    if res["v0_depths"] != switch_depths:
        failures.append("paper: v0 sampled away from the schedule's switch points")

    # no-mean example: mean exactly 1/2 at every 1-run end
    ends = no_mean_one_run_ends(params["no_mean_count"])
    no_mean_rows = res["no_mean_rows"]
    if [row.n for row in no_mean_rows] != ends:
        failures.append("paper: no-mean rows are not at the 1-run ends")
    for row in no_mean_rows:
        if row.mean != Fraction(1, 2) or tuple(row.counts) != (row.n // 2, row.n // 2):
            failures.append(f"paper: no-mean mean at n={row.n} is {row.mean}, not 1/2")
            break

    failures += _check_quota(res["quota"], [Fraction(t) for t in params["tau"]], params["quota_count"])
    failures += _check_beatty(
        res["beatty"], Fraction(params["beatty_a"]), Fraction(params["beatty_b"]), params["beatty_count"]
    )
    failures += _check_expansion("expand_rational(1, q)", res["big_expansion"], 1, params["big_q"], 10)

    p, q = params["round_trip_p"], params["round_trip_q"]
    failures += _check_expansion("round trip", res["round_trip_expansion"], p, q, 10)
    if res["round_trip_value"] != Fraction(p, q):
        failures.append(f"paper: evaluate_expansion(expand_rational({p}, {q})) != {p}/{q}")
    if res["round_trip_parsed"] != res["round_trip_expansion"]:
        failures.append("paper: parse_expansion(format_expansion(e)) != e")

    start, factor, max_depth = params["checkpoints"]
    if res["checkpoints"] != fine_geometric_depths(Fraction(factor), max_depth):
        failures.append(f"paper: geometric_checkpoints({start}, {factor}, {max_depth}) differ")

    csv_rows = list(csv.reader(io.StringIO(res["csv"])))
    got = [(int(r[0]), tuple(int(c) for c in r[1:4])) for r in csv_rows[1:]]
    if got != sorted(expected.items()):
        failures.append("paper: stats_to_csv rows differ from the block counts")
    return failures


def _check_quota(digits, tau, count) -> list[str]:
    if len(digits) != count:
        return [f"paper: quota_construct gave {len(digits)} digits, expected {count}"]
    scale = math.lcm(*(t.denominator for t in tau))
    weights = [t.numerator * (scale // t.denominator) for t in tau]
    counts = [0] * len(tau)
    for m, digit in enumerate(digits, start=1):
        counts[digit] += 1
        if any(abs(c * scale - m * w) > 2 * scale for c, w in zip(counts, weights)):
            return [f"paper: quota count left the +-2 band at depth {m}"]
    return []


def _check_beatty(digits, a, b, count) -> list[str]:
    """Digit 0 where floor((n+1)a) steps, else 1 or 2 as floor((n+1)b) holds or steps."""
    if len(digits) != count:
        return [f"paper: beatty_construct gave {len(digits)} digits, expected {count}"]
    ap, aq, bp, bq = a.numerator, a.denominator, b.numerator, b.denominator
    for n, digit in enumerate(digits, start=1):
        if (n + 1) * ap // aq - n * ap // aq == 1:
            want = 0
        else:
            want = 1 if (n + 1) * bp // bq == n * bp // bq else 2
        if digit != want:
            return [f"paper: beatty digit {n} is {digit}, expected {want}"]
    return []


def _check_expansion(label, expansion, p, q, base, samples: int = 64) -> list[str]:
    """Purely periodic p/q (gcd(q, base) = 1): period length and sampled digits."""
    g = math.gcd(p, q)
    p, q = p // g, q // g
    if expansion.preperiod:
        return [f"paper: {label}: unexpected preperiod of {len(expansion.preperiod)} digits"]
    length = multiplicative_order(base, q)
    if len(expansion.period) != length:
        return [f"paper: {label}: period length {len(expansion.period)}, expected {length}"]
    step = max(1, length // samples)
    for position in list(range(1, length + 1, step)) + [length]:
        if expansion.period[position - 1] != long_division_digit(p, q, base, position):
            return [f"paper: {label}: wrong digit at position {position}"]
    return []
