"""Tests for the command-line front end."""

import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import digitstats
from digitstats import DomainError, core, no_mean_example, quota_construct, rationals, FrequencyProfile
from digitstats.cli import build_parser, run_cli

from fractions import Fraction


def run(capsys, argv):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_digits_table(capsys):
    code, out, err = run(capsys, ["digits", "--base", "3", "--rational", "1/4", "--count", "6"])
    assert code == 0 and err == ""
    assert "expansion: 0.(02)_3" in out
    assert "digits: 020202" in out


def test_digits_json(capsys):
    code, out, _ = run(
        capsys, ["digits", "--base", "3", "--rational", "0.25", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["expansion"] == "0.(02)_3"
    assert payload["period"] == [0, 2]
    assert payload["digits"] is None


def test_digits_domain_error(capsys):
    code, out, err = run(capsys, ["digits", "--base", "3", "--rational", "5/4"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: domain:")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["digits", "--base", "3", "--rational", "1/4", "--bogus"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error: usage:")


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "--base", "2", "--checkpoints", "geometric:1,2"],
        ["stats", "--base", "2", "--checkpoints", "list:1,x"],
        ["stats", "--base", "2", "--checkpoints", "list: ,"],
        ["stats", "--base", "2", "--checkpoints", "linear:1,2"],
        ["construct-freq", "--tau", ", ,", "--count", "3"],
    ],
)
def test_malformed_checkpoints_or_tau_is_one_line_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    err = capsys.readouterr().err
    assert (exc.value.code, err.count("\n")) == (2, 1) and err.startswith("error: usage: argument --")


def test_malformed_rational_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["digits", "--base", "3", "--rational", "x/y"])
    assert exc.value.code == 2


_GEOMETRIC = "geometric:start,factor,max with integers start and max and a rational factor"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["floor-average", "--x", "x", "--n", "3"],
            "argument --x: expected a rational such as 1/4 or 0.25: "
            "cannot parse rational 'x': Invalid literal for Fraction: 'x'",
        ),
        (
            ["schedule", "--x1", "1/4", "--x2", "3/4", "--eps", "1/0", "--n", "5"],
            "argument --eps: expected a rational such as 1/4 or 0.25: cannot parse rational '1/0': the denominator is 0",
        ),
        (
            ["construct-freq", "--tau", "1/2,x", "--count", "3"],
            "argument --tau: expected comma-separated rationals t0,t1,...: "
            "cannot parse rational 'x': Invalid literal for Fraction: 'x'",
        ),
        (
            ["stats", "--base", "3", "--checkpoints", "geometric:10,2,abc"],
            f"argument --checkpoints: expected {_GEOMETRIC}: invalid literal for int() with base 10: 'abc'",
        ),
        (
            ["stats", "--base", "3", "--checkpoints", "geometric:10,1/0,100"],
            f"argument --checkpoints: expected {_GEOMETRIC}: cannot parse rational '1/0': the denominator is 0",
        ),
        (
            ["stats", "--base", "3", "--checkpoints", "list:1,a"],
            "argument --checkpoints: expected list:n1,n2,... of integers: invalid literal for int() with base 10: 'a'",
        ),
    ],
    ids=["rational", "zero-denominator", "rational-list", "geometric-max", "geometric-factor", "list"],
)
def test_bad_argument_says_what_is_expected_and_why(capsys, argv, message):
    # the message names the expected form and the parser's reason, never a private function of the CLI
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert (exc.value.code, capsys.readouterr().err) == (2, f"error: usage: {message}\n")


_CPU_BOUND_CHILD = (
    "import resource, runpy, sys\n"
    "resource.setrlimit(resource.RLIMIT_CPU, (10, 10))\n"
    "sys.argv[0] = 'digitstats'\n"
    "runpy.run_module('digitstats.cli', run_name='__main__', alter_sys=True)\n"
)


@pytest.mark.parametrize(
    "argv, option",
    [
        (["floor-average", "--x", "1e999999999", "--n", "3"], "--x"),
        (["construct-freq", "--tau", "1e-999999999,1", "--count", "3"], "--tau"),
        (["schedule", "--x1", "1/5", "--x2", "2/5", "--eps", "1e-999999999", "--n", "5"], "--eps"),
        (["stats", "--base", "3", "--checkpoints", "geometric:1,1e999999999,10"], "--checkpoints"),
    ],
    ids=["x", "tau", "eps", "geometric-factor"],
)
def test_a_huge_exponent_is_refused_at_once(argv, option):
    # Fraction would build 10**999999999 first, for minutes; the child is killed after 10 s of CPU
    pytest.importorskip("resource")
    env = {**os.environ, "PYTHONPATH": str(Path(digitstats.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", _CPU_BOUND_CHILD, *argv], input="", env=env, capture_output=True, text=True, timeout=60
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith(f"error: usage: argument {option}: expected ") and result.stderr.count("\n") == 1
    assert "the exponent's magnitude exceeds" in result.stderr


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="needs an int-string limit")
def test_a_rational_with_more_digits_than_the_int_string_limit_is_a_usage_error(capsys):
    # 1e-4300 passes the exponent check, but its denominator has 4301 digits, which no output can render:
    # it is refused as the argument is parsed, not by a traceback from the rendering
    limit = sys.get_int_max_str_digits()
    env = {**os.environ, "PYTHONPATH": str(Path(digitstats.__file__).parents[1]), "PYTHONINTMAXSTRDIGITS": str(limit)}
    argv = ["floor-average", "--x", f"1e-{limit}", "--n", "5"]
    result = subprocess.run(
        [sys.executable, "-c", _CPU_BOUND_CHILD, *argv], input="", env=env, capture_output=True, text=True, timeout=60
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: usage: argument --x: expected ") and result.stderr.count("\n") == 1
    message = f": its numerator or denominator has more than {limit} digits (PYTHONINTMAXSTRDIGITS)\n"
    assert result.stderr.endswith(message)
    assert run_cli(["floor-average", "--x", f"1e-{limit - 1}", "--n", "5", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["x"] == f"1/{10 ** (limit - 1)}"


@pytest.mark.parametrize("interpreter_limit, limit", [(640, 640), (0, 4300), (None, 4300)], ids=["640", "0", "none"])
def test_rationals_and_digit_tokens_share_one_int_string_bound(capsys, monkeypatch, interpreter_limit, limit):
    # the interpreter's int-string limit, or CPython's default of 4300 where it is 0 (PYTHONINTMAXSTRDIGITS=0)
    # or missing (before Python 3.10.7), bounds an exponent, a rational argument's digits and a digit token
    if interpreter_limit is None:
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    else:
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: interpreter_limit, raising=False)
    assert rationals._int_text_limit() == limit
    with pytest.raises(DomainError, match=f"the exponent's magnitude exceeds {limit}$"):
        rationals.parse_rational(f"1e-{limit + 1}")
    with pytest.raises(SystemExit) as exc:
        run_cli(["floor-average", "--x", f"1e-{limit}", "--n", "5"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"has more than {limit} digits (PYTHONINTMAXSTRDIGITS)\n")
    with pytest.raises(DomainError, match="^digit token too long$"):
        list(core._digit_chunks([b"1" * limit, b"1", b""], 16))


HELP = Path(__file__).parent / "help"
COMMANDS = [
    "digits", "stats", "construct-freq", "construct-mean-nofreq", "no-mean-example", "floor-average", "schedule",
    "simulate",
]


@pytest.mark.parametrize("name", ["digitstats", *COMMANDS])
def test_help_text_is_pinned(capsys, monkeypatch, name):
    # tests/help/<name>.txt holds `digitstats --help` or `digitstats <name> --help` at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("NO_COLOR", "1")
    with pytest.raises(SystemExit) as exc:
        run_cli(["--help"] if name == "digitstats" else [name, "--help"])
    assert (exc.value.code, capsys.readouterr().out) == (0, (HELP / f"{name}.txt").read_text())


def test_help_and_usage_formatted_without_a_parse_hold_every_argument(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("NO_COLOR", "1")

    def subparsers():  # each subcommand's parser in a new parser, before any parse
        (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    for name in COMMANDS:
        text = (HELP / f"{name}.txt").read_text()
        assert subparsers()[name].format_help() == text
        assert text.startswith(subparsers()[name].format_usage() + "\n")


def test_stats_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"020202\n")))
    code, out, _ = run(
        capsys,
        ["stats", "--base", "3", "--checkpoints", "list:3,6", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("n,N0,N1,N2,v0,v1,v2,r")
    assert lines[1].split(",")[:4] == ["3", "2", "0", "1"]


def test_stats_from_file_with_out(capsys, tmp_path):
    digit_file = tmp_path / "digits.txt"
    digit_file.write_text("0101 0101\n01\n")
    out_file = tmp_path / "stats.csv"
    code, out, _ = run(
        capsys,
        [
            "stats",
            "--base",
            "2",
            "--digits-file",
            str(digit_file),
            "--format",
            "csv",
            "--out",
            str(out_file),
        ],
    )
    assert code == 0 and out == ""
    content = out_file.read_text()
    assert content.split("\n")[1].split(",")[0] == "10"  # whitespace ignored


def test_stats_geometric_checkpoints(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"0" * 100)))
    code, out, _ = run(
        capsys,
        ["stats", "--base", "2", "--checkpoints", "geometric:10,2,100", "--format", "json"],
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["n"] for row in rows] == [10, 20, 40, 80, 100]


@pytest.mark.parametrize(
    "spec,message",
    [
        ("geometric:10,1,100", "error: domain: factor must exceed 1, got 1\n"),
        ("geometric:50,2,10", "error: domain: need 1 <= start <= max_depth, got start=50, max_depth=10\n"),
    ],
)
def test_stats_geometric_checkpoints_domain_error(capsys, monkeypatch, spec, message):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"0" * 100)))
    code, out, err = run(capsys, ["stats", "--base", "2", "--checkpoints", spec])
    assert (code, out, err) == (1, "", message)


def test_stats_rejects_bad_digit(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"0102")))
    code, _, err = run(capsys, ["stats", "--base", "2"])
    assert code == 1
    assert err.startswith("error: domain:")


def test_construct_freq_quota(capsys):
    code, out, _ = run(capsys, ["construct-freq", "--tau", "1/3,1/3,1/3", "--count", "12"])
    assert code == 0
    expected = quota_construct(FrequencyProfile(3, (Fraction(1, 3),) * 3), 12)
    assert out.strip() == "".join(str(d) for d in expected)


def test_construct_freq_beatty(capsys):
    code, out, _ = run(
        capsys,
        ["construct-freq", "--rule", "beatty", "--a", "1/2", "--b", "1/2", "--count", "8"],
    )
    assert code == 0
    assert out.strip() == "01010101"


def test_construct_freq_missing_tau_is_usage(capsys):
    code, _, err = run(capsys, ["construct-freq", "--count", "5"])
    assert code == 2
    assert err.startswith("error: usage:")


def test_construct_mean_nofreq_csv(capsys):
    code, out, _ = run(
        capsys,
        [
            "construct-mean-nofreq",
            "--theta", "1", "--x1", "1/5", "--x2", "2/5", "--eps", "1/20",
            "--blocks", "5", "--format", "csv",
        ],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,a_k1,a_k2,a_k3,alpha_k"
    assert len(lines) == 6


def test_construct_mean_nofreq_infeasible(capsys):
    code, _, err = run(
        capsys,
        [
            "construct-mean-nofreq",
            "--theta", "0", "--x1", "1/5", "--x2", "2/5", "--eps", "1/20",
            "--blocks", "5",
        ],
    )
    assert code == 1
    assert err.startswith("error: infeasible:")


def test_construct_mean_nofreq_digits(capsys):
    code, out, _ = run(
        capsys,
        [
            "construct-mean-nofreq",
            "--theta", "1", "--x1", "1/5", "--x2", "2/5", "--eps", "1/20",
            "--blocks", "6", "--emit", "digits",
        ],
    )
    assert code == 0
    assert set(out.strip()) <= {"0", "1", "2"}


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_spec_output_that_cannot_fit_fails_before_the_construction(capsys, monkeypatch, fmt):
    # the spec output's own probe refuses the blocks; no construction, schedule or spec is made
    from digitstats import cli, construct

    asked = []

    def probe(size, what):
        asked.append(size)
        raise MemoryError(what)

    def never(*args, **kwargs):
        raise AssertionError("ran past the probe")

    monkeypatch.setattr(cli, "_probe_memory", probe)
    for name in ("construct_mean_without_frequency", "build_oscillating_schedule", "BlockSpec", "blockspec_table"):
        monkeypatch.setattr(construct, name, never)
    argv = ["construct-mean-nofreq", "--theta", "1", "--x1", "1/5", "--x2", "2/5", "--eps", "1/20"]
    code, out, err = run(capsys, [*argv, "--blocks", "2000000", "--format", fmt])
    assert (code, out, err) == (1, "", "error: memory: out of memory\n")
    assert asked == [cli._SPEC_BYTES[fmt] * 2000000]
    # digit output keeps the construction's own probe, and a spec that fits passes this one
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_probe_memory", probe)
    assert run(capsys, [*argv, "--blocks", "3", "--emit", "digits"])[0] == 0
    assert asked == [cli._SPEC_BYTES[fmt] * 2000000]
    monkeypatch.setattr(cli, "_probe_memory", lambda size, what: asked.append(size))
    assert run(capsys, [*argv, "--blocks", "3", "--format", fmt])[0] == 0
    assert asked[-1] == cli._SPEC_BYTES[fmt] * 3


def test_no_mean_example_output(capsys):
    code, out, _ = run(capsys, ["no-mean-example", "--count", "6"])
    assert code == 0
    assert out == "010011\n"
    assert [int(c) for c in "010011"] == no_mean_example(6)


def test_floor_average_output(capsys):
    code, out, _ = run(capsys, ["floor-average", "--x", "1/2", "--n", "4"])
    assert code == 0
    assert out == "w: 2/5 = 0.4\n"


def test_floor_average_domain_error(capsys):
    code, _, err = run(capsys, ["floor-average", "--x", "1/2", "--k", "9", "--n", "4"])
    assert code == 1
    assert err.startswith("error: domain:")


def test_schedule_csv(capsys):
    code, out, _ = run(
        capsys,
        ["schedule", "--x1", "1/5", "--x2", "2/5", "--eps", "1/20", "--n", "100",
         "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,n_k,w,w_dec"
    assert lines[1].startswith("1,1,0,")
    assert lines[2].split(",")[1] == "16"


def test_simulate_json_deterministic(capsys):
    argv = [
        "simulate", "--base", "3", "--n", "500", "--trials", "6", "--seed", "42",
        "--format", "json",
    ]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["rng_id"] == "splitmix64-multidigit-v2"
    assert len(payload["per_trial"]) == 6


@pytest.mark.parametrize("base", [str(2**64 + 1), str(10**30)])
def test_simulate_rejects_base_above_2_64(capsys, base):
    # such a base leaves no 64-bit draw acceptable; it used to loop forever
    code, out, err = run(capsys, ["simulate", "--base", base, "--n", "10", "--trials", "2", "--seed", "1"])
    assert (code, out) == (1, "")
    assert err == f"error: domain: base must be <= 2**64 (a 64-bit draw holds no digit of a larger base), got {base}\n"


def test_simulate_base_2_64_finishes():
    # trial means come from digit sums; a count per digit value never finished
    env = {**os.environ, "PYTHONPATH": str(Path(digitstats.__file__).parents[1])}
    argv = ["simulate", "--base", str(2**64), "--n", "10", "--trials", "2", "--seed", "1", "--format", "json"]
    result = subprocess.run(
        [sys.executable, "-m", "digitstats.cli", *argv], env=env, capture_output=True, text=True, timeout=20
    )
    assert (result.returncode, result.stderr) == (0, "")
    payload = json.loads(result.stdout)
    assert payload["config"]["base"] == 2**64 and len(payload["per_trial"]) == 2


def test_simulate_table(capsys):
    code, out, _ = run(
        capsys,
        ["simulate", "--base", "2", "--n", "200", "--trials", "3", "--seed", "1"],
    )
    assert code == 0
    assert out.startswith("trials: 3\n")
    assert "fraction_in_band:" in out


def test_digit_output_rejects_csv_format(capsys):
    code, _, err = run(capsys, ["no-mean-example", "--count", "4", "--format", "csv"])
    assert code == 2
    assert err.startswith("error: usage:")


def test_out_file_matches_stdout(capsys, tmp_path):
    argv = ["digits", "--base", "3", "--rational", "1/4", "--count", "9", "--format", "json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    out_path = tmp_path / "digits.json"
    code, empty, _ = run(capsys, argv + ["--out", str(out_path)])
    assert code == 0 and empty == ""
    assert out_path.read_text() == out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_failed_row_check_writes_no_byte_of_the_streamed_rows(capsys, monkeypatch, tmp_path, fmt):
    # the row writer checks the rows before its first piece, which the CLI makes before it opens --out
    monkeypatch.setattr(digitstats.stats, "running_stats", lambda stream, marks: [])
    digits = tmp_path / "digits.txt"
    digits.write_text("0120\n")
    out = tmp_path / "out.txt"
    for extra in ([], ["--out", str(out)]):
        code, text, err = run(capsys, ["stats", "--base", "3", "--digits-file", str(digits), "--format", fmt, *extra])
        assert (code, text, err) == (1, "", "error: domain: no statistics rows to export\n")
        assert not out.exists()


@pytest.mark.parametrize(
    "text,base",
    [("12²", "10"), ("1٣", "10"), ("1,٣", "16"), ("1_0", "16"), ("+2", "16")],
)
def test_stats_rejects_non_ascii_digits_and_signs(capsys, monkeypatch, text, base):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
    code, out, err = run(capsys, ["stats", "--base", base])
    assert (code, out) == (1, "")
    assert err.startswith("error: domain: invalid digit character")
    assert err.count("\n") == 1


def test_stats_base16_tokens(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"15,0\n10 10,3\n")))
    code, out, _ = run(capsys, ["stats", "--base", "16", "--format", "json"])
    assert code == 0
    assert json.loads(out)["rows"][0]["counts"] == [1, 0, 0, 1] + [0] * 6 + [2] + [0] * 4 + [1]


def test_stats_missing_digits_file_is_usage(capsys, tmp_path):
    code, out, err = run(capsys, ["stats", "--base", "10", "--digits-file", str(tmp_path / "absent.txt")])
    assert (code, out) == (2, "")
    assert err.startswith("error: usage: cannot read") and err.count("\n") == 1


def test_stats_unreadable_digits_file_is_usage(capsys, tmp_path):
    code, out, err = run(capsys, ["stats", "--base", "10", "--digits-file", str(tmp_path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: usage: cannot read") and err.count("\n") == 1


def test_unwritable_out_is_usage(capsys, tmp_path):
    out_path = tmp_path / "no-such-dir" / "out.txt"
    code, out, err = run(capsys, ["no-mean-example", "--count", "4", "--out", str(out_path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: usage: cannot write") and err.count("\n") == 1


@pytest.mark.parametrize("data", [b"01\xff1", "01²".encode()])
def test_stats_non_utf8_or_non_ascii_file_is_domain(capsys, tmp_path, data):
    digit_file = tmp_path / "digits.txt"
    digit_file.write_bytes(data)
    code, out, err = run(capsys, ["stats", "--base", "10", "--digits-file", str(digit_file)])
    assert (code, out) == (1, "")
    assert err.startswith("error: domain: invalid digit character") and err.count("\n") == 1


_IMPORT_CHILD = """
import sys
bare = set(sys.modules)  # what the interpreter and its `site` load differs from host to host
if sys.argv[1:] == ["cli"]:
    import digitstats.cli
elif len(sys.argv) > 1:
    from digitstats.cli import run_cli
    assert run_cli(sys.argv[1:]) == 0
else:
    import digitstats
print(*set(sys.modules) - bare)
"""
# no run below needs these: the process pool serves only `simulate --workers` above 1, and
# `_periods` only an evaluated expansion
_UNNEEDED = {"dataclasses", "concurrent.futures.process", "digitstats._periods"}
_NO_SIMULATE = {"digitstats.simulate", *_UNNEEDED}
_NO_CONSTRUCT = {"digitstats.construct", *_UNNEEDED}
# a run that counts no digit and writes no CSV or JSON loads none of these
_NO_OUTPUT_LAYERS = {"digitstats.stats", "csv", "json", *_NO_SIMULATE}
_SUBMODULES = {
    f"digitstats.{name}"
    for name in ("cli", "construct", "core", "errors", "rationals", "simulate", "stats", "_base", "_periods")
}
_BLOCKS = ["construct-mean-nofreq", "--theta", "1", "--x1", "1/5", "--x2", "2/5", "--eps", "1/20", "--blocks", "5"]
# (arguments, modules the run must not load); no arguments: a bare `import digitstats`, and
# ["cli"]: a bare `import digitstats.cli`
IMPORT_TABLE = [
    pytest.param([], _SUBMODULES, id="import"),
    pytest.param(["cli"], {"digitstats.core", *_NO_OUTPUT_LAYERS, *_NO_CONSTRUCT}, id="import-cli"),
    # statistics rows are written without `csv` or `json` in every format
    pytest.param(
        ["stats", "--base", "3", "--digits-file", "{digits}"], {"csv", "json", *_NO_SIMULATE, *_NO_CONSTRUCT}, id="stats"
    ),
    pytest.param(
        ["stats", "--base", "3", "--digits-file", "{digits}", "--format", "csv"],
        {"csv", "json", *_NO_SIMULATE, *_NO_CONSTRUCT},
        id="stats-csv",
    ),
    pytest.param(
        ["stats", "--base", "3", "--digits-file", "{digits}", "--format", "json"],
        {"csv", "json", *_NO_SIMULATE, *_NO_CONSTRUCT},
        id="stats-json",
    ),
    pytest.param(
        ["digits", "--base", "3", "--rational", "1/4", "--count", "5"], _NO_OUTPUT_LAYERS | _NO_CONSTRUCT, id="digits"
    ),
    pytest.param(["construct-freq", "--tau", "1/2,1/2", "--count", "6"], _NO_SIMULATE, id="construct-freq0"),
    pytest.param(
        ["construct-freq", "--rule", "beatty", "--a", "1/3", "--b", "1/3", "--count", "6"],
        _NO_OUTPUT_LAYERS,
        id="construct-freq1",
    ),
    pytest.param([*_BLOCKS, "--emit", "digits"], _NO_OUTPUT_LAYERS, id="construct-mean-nofreq"),
    pytest.param([*_BLOCKS, "--emit", "spec"], _NO_OUTPUT_LAYERS, id="construct-mean-nofreq-spec"),
    pytest.param(["no-mean-example", "--count", "6"], _NO_OUTPUT_LAYERS, id="no-mean-example"),
    pytest.param(["floor-average", "--x", "1/3", "--n", "5"], _NO_OUTPUT_LAYERS, id="floor-average"),
    pytest.param(
        ["schedule", "--x1", "1/4", "--x2", "3/4", "--eps", "1/10", "--n", "20"], _NO_OUTPUT_LAYERS, id="schedule"
    ),
    pytest.param(
        ["simulate", "--base", "3", "--n", "10", "--trials", "2", "--seed", "1", "--workers", "1"],
        _NO_CONSTRUCT | {"digitstats.core", "digitstats.stats", "csv", "json"},
        id="simulate",
    ),
]


@pytest.mark.parametrize("argv, unloaded", IMPORT_TABLE)
def test_each_subcommand_imports_only_the_layers_it_runs(tmp_path, argv, unloaded):
    digits = tmp_path / "digits.txt"
    digits.write_text("0120\n")
    argv = [arg.format(digits=digits) for arg in argv] + (["--out", str(tmp_path / "out")] if argv[1:] else [])
    env = {**os.environ, "PYTHONPATH": str(Path(digitstats.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_CHILD, *argv], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(result.stdout.split())
    assert "digitstats" in loaded and not loaded & unloaded
