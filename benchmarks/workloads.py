"""The four benchmark workloads: why each exists, its inputs and its oracle.

Each ``setup_*`` function builds a workload's inputs from the seed with
the standard library only, writes them under the run's work directory,
and returns a :class:`Prepared`. The program under test receives only
those files and arguments. The runner times ``setup_*`` into
``setup_s``.

Workloads, the layer each loads, and the change each one bypasses:

stats-file
    ``digitstats stats --base 10 --checkpoints geometric:10,2,N --format
    csv`` on a seeded file of N = 2e6 uniform base-10 digits, wrapped at
    80 columns like a ``pi.txt``. It is the read path for literal digits:
    per-character parsing (about 55% of the time), re-validation in
    ``DigitStream.from_digits`` (30%) and counting (12%). ``simulate``
    and ``construct`` do no work here. It is the bypass case for
    segment-aware streams, which count runs and periods, not literal text.
simulate
    ``digitstats simulate --base 3 --n 10000 --trials 200 --seed S
    --format json`` with the default single worker. SplitMix64 draws and
    rejection take nearly all of its time. It parses no input, so it
    isolates the ``simulate`` layer and is the bypass case for every
    stats or parse change.
paper-checks
    The paper's exact checks as library calls in a fresh child process
    (``session.paper_session``): the block construction, the no-mean
    example, the quota and Beatty constructors, ``expand_rational`` at
    q = 999983, the round trip at q = 99991, fine geometric checkpoints
    and CSV export. Its streams are run- and period-structured and its
    rationals long, so segment counting, an ``expand_rational`` /
    ``evaluate_expansion`` rewrite and the checkpoint-cost fix show here.
    No literal text is parsed and no RNG runs, so it is the bypass case
    for the literal-digit read path and for ``simulate`` throughput.
emit-digits
    ``digitstats construct-mean-nofreq ... --emit digits`` and
    ``digitstats no-mean-example --count 2000000``: the write side of the
    ``cli`` layer. Digit generation, ``DigitStream.take`` and rendering of
    about 4e6 digits, with the largest memory peak of the four. A renderer
    refactor or streaming output shows here; a parsing gain that costs
    rendering shows here too. It bypasses parsing and ``simulate``.

The round trip uses q = 99991, whose period has 49995 digits.
``evaluate_expansion`` is quadratic in the period length: about 0.5 s
here, while at q = 999983 (a 999982-digit period) the same call does not
finish in minutes. That is a known defect left for a later change; the
size is chosen so the workload finishes, and the 0.5 s stays visible in
``core.evaluate_expansion_s``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles

STATS_DIGITS = 2_000_000
LINE_WIDTH = 80
# byte -> ASCII digit; bytes 250..255 are dropped so every digit is equally likely
_TO_DIGIT = bytes(48 + b % 10 for b in range(256))
_DROP = bytes(range(250, 256))

BLOCK_ARGS = {"theta": "1", "x1": "1/5", "x2": "2/5", "eps": "1/20"}


@dataclass
class Prepared:
    """A workload's generated inputs and the oracle for its outputs."""

    args: dict  # resolved workload arguments, recorded in the result file
    digits: int  # digit count that digits_per_s divides by wall_s
    argvs: list[list[str]] = field(default_factory=list)  # CLI runs, in order
    check: Callable[[list[str]], list[str]] | None = None  # CLI outputs -> failures
    params: dict | None = None  # library session parameters (paper-checks)


def uniform_digit_text(rng: random.Random, count: int) -> str:
    """`count` uniform base-10 digits as one string."""
    chunks, have = [], 0
    while have < count:
        chunk = rng.randbytes(count - have + 4096).translate(_TO_DIGIT, _DROP)
        chunks.append(chunk)
        have += len(chunk)
    return b"".join(chunks)[:count].decode("ascii")


def setup_stats_file(seed: int, work: Path) -> Prepared:
    digits = uniform_digit_text(random.Random(seed), STATS_DIGITS)
    path = work / "digits.txt"
    lines = (digits[i : i + LINE_WIDTH] for i in range(0, len(digits), LINE_WIDTH))
    path.write_text("\n".join(lines) + "\n")
    checkpoints = oracles.geometric_depths(10, 2, STATS_DIGITS)
    spec = f"geometric:10,2,{STATS_DIGITS}"
    argv = ["stats", "--base", "10", "--digits-file", str(path), "--checkpoints", spec, "--format", "csv"]
    return Prepared(
        args={"argv": argv, "digits": STATS_DIGITS, "line_width": LINE_WIDTH},
        digits=STATS_DIGITS,
        argvs=[argv],
        check=lambda outs: oracles.check_stats_csv(outs[0], digits, checkpoints),
    )


def setup_simulate(seed: int, work: Path) -> Prepared:
    base, depth, trials = 3, 10_000, 200
    argv = ["simulate", "--base", str(base), "--n", str(depth), "--trials", str(trials)]
    argv += ["--seed", str(seed), "--format", "json"]
    first: list[str] = []

    def check(outs: list[str]) -> list[str]:
        # byte-identical output across the runs of one commit; no digest is pinned
        # across commits, because a versioned RNG_ID change may alter it
        if not first:
            first.append(outs[0])
        failures = oracles.check_simulate_json(outs[0], base, depth, trials, seed)
        if outs[0] != first[0]:
            failures.append("simulate: output differs from the first run of this seed")
        return failures

    return Prepared(args={"argv": argv}, digits=depth * trials, argvs=[argv], check=check)


def setup_paper_checks(seed: int, work: Path) -> Prepared:
    rng = random.Random(seed)
    zeros = rng.randrange(1, 59)
    ones = rng.randrange(1, 60 - zeros)
    beatty_a = rng.randrange(1, 49)
    params = {
        **BLOCK_ARGS,
        "blocks": 2000,
        "no_mean_count": 2**21,
        "tau": [str(Fraction(zeros, 60)), str(Fraction(ones, 60)), str(Fraction(60 - zeros - ones, 60))],
        "quota_count": 10**5,
        "beatty_a": str(Fraction(beatty_a, 97)),
        "beatty_b": str(Fraction(rng.randrange(1, 97 - beatty_a), 97)),
        "beatty_count": 10**5,
        "big_q": 999983,
        "round_trip_p": rng.randrange(1, 99991),
        "round_trip_q": 99991,
        "checkpoints": [1, "1.001", 10**4],
    }
    rows, _ = oracles.oscillating_blocks(
        *(Fraction(params[k]) for k in ("theta", "x1", "x2", "eps")), params["blocks"]
    )
    # digits whose statistics running_stats computes: the block stream and
    # the no-mean stream up to its last 1-run end
    counted = sum(map(sum, rows)) + oracles.no_mean_one_run_ends(params["no_mean_count"])[-1]
    return Prepared(args=params, digits=counted, params=params)


def setup_emit_digits(seed: int, work: Path) -> Prepared:
    rng = random.Random(seed)
    # the seed moves where both streams are cut, so truncation is checked at varied depths
    blocks = 2000 - rng.randrange(8)
    count = 2_000_000 - rng.randrange(4096)
    rows, _ = oracles.oscillating_blocks(*(Fraction(v) for v in BLOCK_ARGS.values()), blocks)
    no_mean = oracles.no_mean_text(count)
    block_argv = ["construct-mean-nofreq"]
    for key, value in BLOCK_ARGS.items():
        block_argv += [f"--{key}", value]
    block_argv += ["--blocks", str(blocks), "--emit", "digits"]
    no_mean_argv = ["no-mean-example", "--count", str(count)]
    return Prepared(
        args={"argvs": [block_argv, no_mean_argv]},
        digits=sum(map(sum, rows)) + count,
        argvs=[block_argv, no_mean_argv],
        check=lambda outs: oracles.check_block_digits(outs[0], rows)
        + oracles.check_digit_text("no-mean", outs[1], no_mean),
    )


WORKLOADS = {
    "stats-file": setup_stats_file,
    "simulate": setup_simulate,
    "paper-checks": setup_paper_checks,
    "emit-digits": setup_emit_digits,
}
