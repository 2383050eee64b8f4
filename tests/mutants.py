"""A catalogue of named mutations of the package, each of which named tests must kill.

Run from anywhere: ``python tests/mutants.py``. It copies ``src/`` into a
temporary directory and, one mutation at a time, replaces the mutation's
snippet in its file there and runs only the tests the mutation names
against that copy, each run under a timeout. A mutation
is killed when a named test fails or the run times out, and survives
when they all pass. The runner exits 1 if any mutation survives, and 2
if a snippet is not found exactly once or pytest cannot run the named
tests.

A mutation guards a fast path or a check: it breaks the code in the way
a careless refactor would, so a surviving one shows a path that no test
holds to its reference. ``tests/test_mutants.py`` checks in tier-1 that
every snippet still occurs exactly once in ``src/``, so code that moves
takes its mutation along.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 120  # seconds per mutation; a run that hangs is a kill


class Mutant(NamedTuple):
    name: str
    file: str  # under src/digitstats/
    snippet: str  # occurs exactly once in `file`
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, at least one of which must fail


MUTANTS = [
    # digit text: the reader checks digits below the base, and names its faults as the whole text holds them
    Mutant(
        "digit-table-bound", "core.py",
        "48 <= byte < 48 + base else 0xFF", "48 <= byte < 58 else 0xFF",
        ("tests/test_core.py::test_text_to_digits_checks_its_base_and_its_digits",),
    ),
    Mutant(
        "token-range-check", "core.py",
        "else max(values) >= base", "else max(values) > base",
        ("tests/test_digit_file.py::test_the_token_reader_matches_a_plain_reader[300]",),
    ),
    Mutant(
        "token-range-check-bytes", "core.py",
        "values.translate(None, _BYTE_VALUES[:base]) if values.__class__ is bytes",
        "values.translate(None, _BYTE_VALUES[: base + 1]) if values.__class__ is bytes",
        ("tests/test_digit_file.py::test_the_token_reader_matches_a_plain_reader[16]",),
    ),
    Mutant(
        "text-to-digits-base-check", "core.py",
        "return tuple(_text_digits(text, _check_base(base)))", "return tuple(_text_digits(text, base))",
        ("tests/test_core.py::test_text_to_digits_checks_its_base_and_its_digits",),
    ),
    Mutant(
        "parse-expansion-base-check", "core.py",
        "    b = int(base_text)\n    _check_base(b)\n", "    b = int(base_text)\n",
        ("tests/test_core.py::test_text_to_digits_checks_its_base_and_its_digits",),
    ),
    Mutant(
        "too-long-token", "core.py",
        "if overlong in data.translate(_DIGIT_TO_ONE):",
        "if overlong in data.translate(_DIGIT_TO_ONE) and not piece[-1:].isdigit():",
        ("tests/test_digit_file.py::test_a_long_digit_token_is_refused_in_linear_time",),
    ),
    Mutant(
        "decode-after-bad-character", "core.py",
        "            faulty = True\n            try:\n",
        "            faulty = True\n            if bad:\n                continue\n            try:\n",
        ("tests/test_digit_file.py::test_the_token_reader_matches_a_plain_reader[16]",),
    ),
    Mutant(
        "carry-past-a-fault", "core.py",
        'carry = tokens.pop() if piece[-1:].isdigit() else b""',
        'carry = tokens.pop() if piece[-1:].isdigit() and not faulty else b""',
        ("tests/test_digit_file.py::test_the_token_reader_matches_a_plain_reader[255]",),
    ),
    Mutant(
        "later-out-of-range-digit", "core.py",
        "if first_out is None and values and (", "if values and (",
        ("tests/test_digit_file.py::test_the_token_reader_matches_a_plain_reader[11]",),
    ),
    Mutant(
        "checked-word-copies-bytes", "core.py",
        "values = digits if digits.__class__ is bytes else bytes(bytearray(digits))",
        "values = bytes(bytearray(digits))",
        ("tests/test_digit_file.py::test_a_held_text_is_checked_as_it_is_read_and_not_copied",),
    ),
    Mutant(
        "expansion-base-bound", "core.py",
        "if len(base_text) > _int_text_limit():", "if len(base_text) > 2 * _int_text_limit():",
        ("tests/test_core.py::test_parse_expansion_rejects_overlong_base",),
    ),
    Mutant(
        "int-text-limit-fallback", "rationals.py",
        '"get_int_max_str_digits", int)() or 4300', '"get_int_max_str_digits", int)() or 43000',
        ("tests/test_cli.py::test_rationals_and_digit_tokens_share_one_int_string_bound",),
    ),
    # digit output
    Mutant(
        "run-text-writer", "core.py",
        "yield _RUN_TEXT[chunk.unit[0]] * chunk.length", "yield _RUN_TEXT[chunk.unit[0]] * (chunk.length - 1)",
        ("tests/test_core.py::test_digit_text_matches_each_digit_written_alone",),
    ),
    Mutant(
        "piece-rendered-once", "core.py",
        "                if piece is not previous:\n                    previous, text = piece, piece.translate(",
        "                if len(piece) != len(previous or b''):\n                    previous, text = piece, piece.translate(",
        ("tests/test_core.py::test_digit_text_matches_each_digit_written_alone",),
    ),
    Mutant(
        "repeat-written-in-pieces", "core.py",
        "whole, part = divmod(length, len(block))", "whole, part = divmod(length - 1, len(block))",
        ("tests/test_core.py::test_digit_text_matches_each_digit_written_alone",),
    ),
    # expansions: the period's length from its order, then every digit from one call
    Mutant(
        "preperiod-split-at-m", "core.py",
        "digits[:m], digits[m:]", "digits[: m + 1], digits[m + 1 :]",
        ("tests/test_core.py::test_expand_rational_matches_long_division_oracle",),
    ),
    Mutant(
        "terminating-period-of-one-digit", "core.py",
        "count = m + (1 if rest == 1 else", "count = m + (2 if rest == 1 else",
        ("tests/test_core.py::test_expand_rational_matches_long_division_oracle",),
    ),
    Mutant(
        "decimal-division-tail", "core.py",
        "decimal.Decimal(p).scaleb(count, context)", "decimal.Decimal(p + 1).scaleb(count, context)",
        ("tests/test_core.py::test_long_expansion_round_trip",),
    ),
    Mutant(
        "shift-and-format-tail", "core.py",
        "format((p << (base.bit_length() - 1) * count) // q,",
        "format(((p << (base.bit_length() - 1) * count) + q) // q,",
        ("tests/test_core.py::test_long_expansion_round_trip",),
    ),
    Mutant(
        "format-digits-translated", "core.py",
        'b"0123456789abcdef", bytes(range(16))', 'b"0123456789abcdfe", bytes(range(16))',
        ("tests/test_core.py::test_long_expansion_round_trip",),
    ),
    # the values of expansions
    Mutant(
        "value-pieces-merged", "_periods.py",
        "weight = base**_VALUE_DIGITS", "weight = base ** (_VALUE_DIGITS - 1)",
        ("tests/test_core.py::test_digits_value_matches_horners_rule",),
    ),
    Mutant(
        "reconstruction-checked-by-expansion", "_periods.py",
        "and expand_rational(value.numerator, value.denominator, b) == expansion", "and True",
        ("tests/test_core.py::test_evaluate_expansion_rejects_a_round_trip_with_one_period_digit_changed",),
    ),
    Mutant(
        "primitivity-by-prime-cofactors", "core.py",
        "for w in _prime_cofactors(n)):", "for w in _prime_cofactors(n)[1:]):",
        ("tests/test_core.py::test_primitivity_by_prime_cofactors_matches_the_all_divisors_search",),
    ),
    Mutant(
        "canonical-checks-on-bytes", "core.py",
        "if word.count(b - 1) == len(word):", "if word.count(b - 1) == len(word) > 1:",
        ("tests/test_core.py::test_expansion_canonical_invariants_enforced",),
    ),
    # counting
    Mutant(
        "run-in-one-step", "stats.py",
        "while end >= mark:", "while end > mark:",
        ("tests/test_stats.py::test_every_block_count_up_to_300_matches_the_enumerated_stream",),
    ),
    Mutant(
        "period-from-its-unit", "stats.py",
        "counts[digit] += count * (last - first - 1)", "counts[digit] += count * (last - first - 2)",
        ("tests/test_stats.py::test_repeat_chunks_match_the_digit_by_digit_counter",),
    ),
    Mutant(
        "two-hot-codes", "stats.py",
        "128, 0b11, 0b1100))", "128, 0b11, 0b110))",
        ("tests/test_stats.py::test_count_bytes_matches_a_bytes_count_of_each_value",),
    ),
    Mutant(
        "paired-planes", "stats.py",
        "((8, 0), (9, 2))[: base - 8]", "((8, 0), (9, 1))[: base - 8]",
        ("tests/test_stats.py::test_count_bytes_matches_a_bytes_count_of_each_value",),
    ),
    Mutant(
        "counter-pass", "stats.py",
        "Counter(digits[start:end]).items()", "Counter(digits[start + 1 : end]).items()",
        ("tests/test_stats.py::test_count_bytes_matches_a_bytes_count_of_each_value",),
    ),
    Mutant(
        "geometric-every-depth-at-once", "stats.py",
        "if (p - q) * max_depth <= q:", "if (p - q) * max_depth <= 2 * q:",
        ("tests/test_stats.py::test_geometric_checkpoints_where_each_step_grows_by_less_than_1_match_the_loop",),
    ),
    Mutant(
        "json-rows-spliced", "stats.py",
        'separator = ",\\n"', 'separator = "\\n"',
        ("tests/test_stats.py::test_stats_json_mirror",),
    ),
    # constructions
    Mutant(
        "schedule-one-crossing-test", "construct.py",
        "if side * (numerator_sum * bq - weight * bp) < 0:", "if side * (numerator_sum * bq - weight * bp) <= 0:",
        ("tests/test_construct.py::test_schedule_matches_the_scan_by_branches_at_every_horizon",),
    ),
    Mutant(
        "block-densities-once-a-run", "construct.py",
        "if alpha is not previous:", "if k == 1:",
        ("tests/test_construct.py::test_block_rows_match_fraction_products_for_every_block_count",),
    ),
    # simulation
    Mutant(
        "chunk-sums-translate", "simulate.py",
        'translate(_chunk_sums(base), b"\\0")', 'translate(_chunk_sums(base), b"\\0\\1")',
        ("tests/test_simulate.py::test_block_kernel_matches_draw_by_draw_reference",),
    ),
    Mutant(
        "lane-wise-sums", "simulate.py",
        "total += sum(_low_words(sum(rounds), lanes))", "total += sum(_low_words(sum(rounds[1:]), lanes))",
        ("tests/test_simulate.py::test_aggregates_match_fraction_formulas",),
    ),
]


def _pytest(tests: tuple[str, ...], env: dict[str, str]) -> tuple[str, str]:
    """("killed" | "survived" | "error", the run's last lines) of running `tests` under `env`."""
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        result = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "killed", f"timed out after {TIMEOUT} s"
    tail = "\n".join(result.stdout.strip().splitlines()[-3:])
    return {0: "survived", 1: "killed"}.get(result.returncode, "error"), tail


def main() -> int:
    survivors = errors = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        # no bytecode: a mutated file of the same size and mtime second could load a stale one
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run([sys.executable, "-c", "import digitstats; print(digitstats.__file__)"],
                               env=env, capture_output=True, text=True, check=True).stdout.strip()
        if not Path(where).is_relative_to(src):
            print(f"the tests would import {where}, not the copy", file=sys.stderr)
            return 2
        for mutant in MUTANTS:
            path = src / "digitstats" / mutant.file
            original = path.read_text(encoding="utf-8")
            if original.count(mutant.snippet) != 1:
                print(f"{mutant.name}: snippet found {original.count(mutant.snippet)} times in {mutant.file}")
                errors += 1
                continue
            path.write_text(original.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
            start = time.perf_counter()
            try:
                outcome, tail = _pytest(mutant.tests, env)
            finally:
                path.write_text(original, encoding="utf-8")
            print(f"{mutant.name}: {outcome} ({time.perf_counter() - start:.1f} s)", flush=True)
            if outcome != "killed":
                print("    " + tail.replace("\n", "\n    "))
            survivors += outcome == "survived"
            errors += outcome == "error"
    print(f"{len(MUTANTS) - survivors - errors} of {len(MUTANTS)} mutations killed")
    return 2 if errors else 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
