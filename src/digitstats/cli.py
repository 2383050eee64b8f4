"""Command-line front end.

Every subcommand maps 1:1 onto a library operation and adds no
computation of its own; outputs are deterministic byte-for-byte given
identical arguments. A handler only builds data (a table, a list of
``(field, value)`` pairs or text the library renders, plus its JSON
document, and any digit stream they show) and ``_render`` turns that
into the requested format. Digit text is written a chunk at a time as
the stream makes it, so its memory does not grow with ``--count``, and
``stats`` CSV and JSON a row at a time. Exit codes: 0 success, 1
domain/infeasible errors or running out of memory, 2 usage errors,
including an unreadable ``--digits-file`` or an unwritable ``--out``.
Errors are one-line and machine-parsable with the prefixes
``error: usage:``, ``error: domain:``, ``error: infeasible:``,
``error: memory:``.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from collections.abc import Iterator
from contextlib import nullcontext
from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from ._base import _probe_memory
from .errors import DomainError, Infeasible
from .rationals import coerce_index, decimal_str, parse_rational, ratio_str

if TYPE_CHECKING:  # annotations only: only the handlers that read or write digits load `core`
    from .core import DigitStream

__all__ = ["run_cli"]


class _UsageError(Exception):
    """Bad flag combination detected after argparse."""


class _Parser(argparse.ArgumentParser):
    # one-line machine-parsable usage errors, exit code 2
    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(2, f"error: usage: {message}\n")


def _rational(text: str, expected: str = "a rational such as 1/4 or 0.25") -> Fraction:
    try:
        return parse_rational(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(f"expected {expected}: {exc}") from None


def _rational_list(text: str) -> tuple[Fraction, ...]:
    parts = [p for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise argparse.ArgumentTypeError("expected comma-separated rationals")
    return tuple(_rational(p, "comma-separated rationals t0,t1,...") for p in parts)


def _checkpoint_spec(text: str) -> Callable[[], list[int]]:
    """Parse a spec into a function the handler calls, so library errors exit 1, not 2."""
    kind, _, rest = text.partition(":")
    if kind == "geometric":
        expected = "geometric:start,factor,max with integers start and max and a rational factor"
        parts = rest.split(",")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"expected {expected}")
        try:
            start, factor, max_depth = int(parts[0]), parse_rational(parts[1]), int(parts[2])
        except ValueError as exc:  # DomainError is one
            raise argparse.ArgumentTypeError(f"expected {expected}: {exc}") from None
        from .stats import geometric_checkpoints

        return lambda: geometric_checkpoints(start, factor, max_depth)
    if kind == "list":
        try:
            depths = sorted({int(p) for p in rest.split(",") if p.strip() != ""})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected list:n1,n2,... of integers: {exc}") from None
        if not depths:
            raise argparse.ArgumentTypeError("expected at least one depth")
        return lambda: depths
    raise argparse.ArgumentTypeError("expected geometric:start,factor,max or list:n1,n2,...")


# ---------------------------------------------------------------- rendering


class _Table(NamedTuple):
    header: Sequence[str]
    rows: Iterable[Sequence[object]]  # cells are printed with str()


def _mark(stream: DigitStream) -> str:
    """A view's stand-in for the digit text: unique in it, with a comma just when the text has one."""
    return "<digits,>" if stream.base > 10 and stream.length > 1 else "<digits>"


class _Output(NamedTuple):
    """A subcommand's result, ready for any --format.

    A table or CSV view is a _Table, a list of (field, value) pairs, or
    text already rendered; the JSON view is a payload or JSON text. Any
    view may instead be an iterator of text pieces that the library makes
    as they are written, as statistics rows are. A view that costs work
    the other formats do not need is given as a function returning it, so
    only the requested view is built. Where the bounded stream `digits` is given, each view holds
    its `_mark`, and the digit text is written there a chunk at a time, as
    it is made.
    """

    json: object
    table: object
    csv: object = None  # None: there is no CSV form
    digits: DigitStream | None = None


def _render(output: _Output, fmt: str) -> Iterable[str]:
    """The pieces of text to write, in order; digit text and streamed views are made as they are written.

    A streamed view's first piece is made here, before anything is
    opened, so the checks its generator runs first reject the run before
    a byte is written.
    """
    data = getattr(output, fmt)
    if callable(data):
        data = data()
    if data is None:
        raise _UsageError("digit output supports --format table or json")
    if isinstance(data, Iterator):
        return chain((next(data),), data)
    text = _view_text(data, fmt)
    digits = output.digits
    if digits is None:
        return (text,)
    from .core import _digit_text

    head, tail = text.split(_mark(digits))
    return chain((head,), _digit_text(digits._chunks(), digits.base), (tail,))


def _view_text(data: object, fmt: str) -> str:
    if isinstance(data, str):
        return data
    if fmt == "json":
        import json

        return json.dumps(data, indent=2) + "\n"
    if isinstance(data, _Table):
        lines = [list(data.header), *([str(cell) for cell in row] for row in data.rows)]
    elif fmt == "csv":
        lines = [("field", "value"), *data]
    else:
        return "".join(f"{field}: {value}\n" for field, value in data)
    if fmt == "csv":
        return _csv_text(lines)
    widths = [max(map(len, column)) for column in zip(*lines)]
    return "".join("  ".join(map(str.ljust, line, widths)).rstrip() + "\n" for line in lines)


def _csv_text(lines: Iterable[Sequence[object]]) -> str:
    """CSV with ``\n`` line ends; cells holding commas or quotes, such as ``<digits,>``, are quoted."""
    import csv  # here, so that only these views load it

    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(lines)
    return out.getvalue()


def _stream_output(stream: DigitStream) -> _Output:
    """Every digit of the bounded `stream`, as digit text, or as JSON with its base and count."""
    mark = _mark(stream)
    return _Output(
        json={"base": stream.base, "count": stream.length, "digits": mark},
        table=mark + "\n",
        digits=stream,
    )


# ---------------------------------------------------------------- handlers
# A handler imports `core`, `stats`, `construct` or `simulate` itself, so
# that a subcommand loads only the layers it runs: only the subcommands
# that read or write digits load `core` (`digits` and `stats` import it
# here, the constructions through `construct`, and `_render` its digit
# writer), so `simulate` does not; only `stats` and quota `construct-freq`
# load `stats`; only the CSV views that `_csv_text` writes load `csv`,
# which statistics rows never need; and only JSON output loads `json`,
# which statistics rows do not use either.


def _cmd_digits(args) -> _Output:
    from .core import DigitStream, expand_rational, format_expansion

    value = ratio_str(args.rational)
    expansion = expand_rational(args.rational.numerator, args.rational.denominator, args.base)
    text = format_expansion(expansion)
    digits = mark = None
    if args.count is not None:
        digits = DigitStream.from_expansion(expansion)._head(coerce_index(args.count, "count", 0))
        mark = _mark(digits)
    shown = [] if digits is None else [("digits", mark)]
    return _Output(
        json=lambda: {
            "base": expansion.base,
            "value": value,
            "expansion": text,
            "preperiod": list(expansion.preperiod),
            "period": list(expansion.period),
            "digits": mark,
        },
        table=[("expansion", text), ("value", value), *shown],
        csv=[("base", expansion.base), ("value", value), ("expansion", text), *shown],
        digits=digits,
    )


def _cmd_stats(args) -> _Output:
    from .core import DigitStream
    from .stats import _END, _stats_pieces, running_stats, stats_table

    path = None if args.digits_file == "-" else args.digits_file
    try:
        with nullcontext(sys.stdin.buffer) if path is None else open(path, "rb") as file:
            stream = DigitStream._read_once(file, args.base)
            rows = running_stats(stream, [_END] if args.checkpoints is None else args.checkpoints())
            for _ in stream._chunks():  # the digits past the last checkpoint are checked too, before any output
                pass
    except OSError as exc:
        raise _UsageError(f"cannot read {path or 'stdin'}: {exc.strerror}") from None
    return _Output(
        json=lambda: _stats_pieces(rows, "json"),
        table=lambda: _Table(*stats_table(rows, freq_decimals=False)),
        csv=lambda: _stats_pieces(rows, "csv"),
    )


def _cmd_construct_freq(args) -> _Output:
    from .construct import _beatty_stream, _quota_stream

    if args.rule == "quota":
        if args.tau is None:
            raise _UsageError("--rule quota requires --tau")
        from .stats import FrequencyProfile

        return _stream_output(_quota_stream(FrequencyProfile(len(args.tau), args.tau), args.count))
    if args.a is None or args.b is None:
        raise _UsageError("--rule beatty requires --a and --b")
    return _stream_output(_beatty_stream(args.a, args.b, args.count))


# bytes one block adds to the spec output's peak (VmHWM at 1e5 blocks, Python 3.11): table 919, CSV 897, JSON 1,611
_SPEC_BYTES = {"table": 1000, "csv": 1000, "json": 1750}


def _cmd_construct_mean_nofreq(args) -> _Output:
    from .construct import _BLOCKSPEC_HEADER, blockspec_table, construct_mean_without_frequency

    if args.emit == "spec":  # fails at once when the spec cannot fit, before the schedule is built
        _probe_memory(_SPEC_BYTES[args.format] * max(args.blocks, 0), f"the spec of {args.blocks} blocks")
    spec, stream = construct_mean_without_frequency(
        args.theta, args.x1, args.x2, args.eps, args.blocks
    )
    if args.emit == "digits":
        return _stream_output(stream)

    def table() -> _Table:
        return _Table(*blockspec_table(spec))

    return _Output(
        json=lambda: {
            "theta": ratio_str(spec.theta),
            "blocks": spec.blocks,
            "rows": [
                dict(zip(_BLOCKSPEC_HEADER, (k, *counts, ratio_str(alpha))))
                for k, (alpha, counts) in enumerate(zip(spec.alphas, spec.rows), start=1)
            ],
        },
        table=table,
        csv=table,
    )


def _cmd_no_mean_example(args) -> _Output:
    from .construct import _no_mean_stream

    return _stream_output(_no_mean_stream(args.count))


def _cmd_floor_average(args) -> _Output:
    from .construct import floor_weighted_average

    w = floor_weighted_average(args.x, args.k, args.n)
    exact, decimal = ratio_str(w), decimal_str(w)
    record = [("x", ratio_str(args.x)), ("k", args.k), ("n", args.n), ("w", exact), ("w_decimal", decimal)]
    return _Output(json=dict(record), table=[("w", f"{exact} = {decimal}")], csv=record)


def _cmd_schedule(args) -> _Output:
    from .construct import build_oscillating_schedule

    schedule = build_oscillating_schedule(args.x1, args.x2, args.eps, args.n)
    rows = [
        [k, n, ratio_str(w), decimal_str(w)]
        for k, (n, w) in enumerate(zip(schedule.breakpoints, schedule.w_at_breakpoints), start=1)
    ]
    table = _Table(["k", "n_k", "w", "w_dec"], rows)
    return _Output(
        json=lambda: {
            "x1": ratio_str(schedule.x1),
            "x2": ratio_str(schedule.x2),
            "epsilon": ratio_str(schedule.epsilon),
            "horizon": schedule.horizon,
            "breakpoints": [dict(zip(("k", "n", "w", "w_decimal"), row)) for row in rows],
        },
        table=table,
        csv=table,
    )


def _cmd_simulate(args) -> _Output:
    from .simulate import ExperimentConfig, normality_experiment, summary_to_json

    cfg = ExperimentConfig(base=args.base, depth=args.n, trials=args.trials, master_seed=args.seed)
    summary = normality_experiment(cfg, args.band, workers=args.workers)
    return _Output(
        json=lambda: summary_to_json(summary),
        table=lambda: [
            ("trials", cfg.trials),
            ("depth", cfg.depth),
            ("center", ratio_str(Fraction(cfg.base - 1, 2))),
            ("band", ratio_str(summary.band)),
            ("mean", decimal_str(summary.mean)),
            ("stddev", summary.stddev_decimal()),
            ("fraction_in_band", decimal_str(summary.fraction_in_band)),
        ],
        csv=lambda: _Table(
            ["trial", "r", "r_dec"],
            [[i, ratio_str(r), decimal_str(r)] for i, r in enumerate(summary.r_values)],
        ),
    )


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="digitstats", description="Exact digit statistics and constructions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument(
            "--format",
            choices=["table", "csv", "json"],
            default="table",
            help="output format (default table)",
        )
        return p

    p = add("digits", _cmd_digits, "expand a rational into its digit string")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--rational", type=_rational, required=True, help="value in [0,1), e.g. 1/4 or 0.25")
    p.add_argument("--count", type=int, help="also print this many leading digits")

    p = add("stats", _cmd_stats, "running digit statistics of a digit file or stdin")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--digits-file", help="digit text file ('-' or omitted: stdin)")
    p.add_argument(
        "--checkpoints",
        type=_checkpoint_spec,
        help="geometric:start,factor,max or list:n1,n2,... (default: full length)",
    )

    p = add("construct-freq", _cmd_construct_freq, "digits with prescribed digit frequencies")
    p.add_argument("--rule", choices=["quota", "beatty"], default="quota")
    p.add_argument("--tau", type=_rational_list, help="target frequencies t0,t1,... (quota rule)")
    p.add_argument("--a", type=_rational, help="digit-0 density (beatty rule, ternary)")
    p.add_argument("--b", type=_rational, help="digit-1 target density (beatty rule, ternary)")
    p.add_argument("--count", type=int, required=True)

    p = add(
        "construct-mean-nofreq",
        _cmd_construct_mean_nofreq,
        "ternary stream with digit mean theta but no digit-0 frequency",
    )
    p.add_argument("--theta", type=_rational, required=True)
    p.add_argument("--x1", type=_rational, required=True)
    p.add_argument("--x2", type=_rational, required=True)
    p.add_argument("--eps", type=_rational, required=True)
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--emit", choices=["spec", "digits"], default="spec")

    p = add("no-mean-example", _cmd_no_mean_example, "digits whose running mean has no limit")
    p.add_argument("--count", type=int, required=True)

    p = add("floor-average", _cmd_floor_average, "floor-weighted average ([kx]+...+[nx])/(n(n+1)/2)")
    p.add_argument("--x", type=_rational, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n", type=int, required=True)

    p = add("schedule", _cmd_schedule, "oscillating value schedule and its breakpoints")
    p.add_argument("--x1", type=_rational, required=True)
    p.add_argument("--x2", type=_rational, required=True)
    p.add_argument("--eps", type=_rational, required=True)
    p.add_argument("--n", type=int, required=True, help="schedule horizon (positions 1..n)")

    p = add("simulate", _cmd_simulate, "seeded uniform-digit Monte Carlo experiment")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="digits per trial")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--band", type=_rational, default=Fraction(33, 1000))
    p.add_argument("--workers", type=int, default=1)

    return parser


def run_cli(argv: Sequence[str] | None = None) -> int:
    """Parse argv, run the subcommand, write its output; return exit code.

    Every check runs before the first byte is written, so a rejected run
    writes nothing and creates no --out file.
    """
    args = build_parser().parse_args(argv)
    try:
        pieces = _render(args.handler(args), args.format)
        if args.out:
            try:
                with open(args.out, "w") as out:
                    out.writelines(pieces)
            except OSError as exc:
                raise _UsageError(f"cannot write {args.out}: {exc.strerror}") from None
        else:
            sys.stdout.writelines(pieces)
    except _UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    except Infeasible as exc:
        print(f"error: infeasible: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: domain: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader of stdout has gone; so that the flush at exit is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except MemoryError:
        pass  # reported below, once the traceback and what it held are let go
    else:
        return 0
    print("error: memory: out of memory", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(run_cli())
