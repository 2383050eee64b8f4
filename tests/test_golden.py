"""Byte-for-byte CLI outputs pinned in tests/golden/.

Each case runs ``run_cli`` in-process on small fixed arguments (and, for
``stats``, a fixed stdin). A case that succeeds is pinned by its stdout,
``<name>.out``; a rejected one by its stderr, ``<name>.err``, and its exit
code, ``<name>.code``. The files are only ever written on purpose, when an
output change is intended: ``python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from digitstats.cli import run_cli

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("table", "csv", "json")

BLOCK = ["--theta", "1", "--x1", "1/5", "--x2", "2/5", "--eps", "1/20"]
TAU_BASE12 = "1/4,0,0,1/12,0,0,0,0,0,0,1/6,1/2"

# name -> (argv without --format, stdin text or None); run once per format
BY_FORMAT = {
    "digits": (["digits", "--base", "3", "--rational", "5/6", "--count", "8"], None),
    "digits-nocount": (["digits", "--base", "7", "--rational", "1/3"], None),
    "digits-base16": (["digits", "--base", "16", "--rational", "5/28", "--count", "12"], None),
    "stats": (["stats", "--base", "3", "--checkpoints", "list:3,7,20"], "0120210122 2100\n"),
    "stats-default": (["stats", "--base", "10"], "31415926535897932384\n"),
    "stats-geometric": (["stats", "--base", "2", "--checkpoints", "geometric:2,3/2,64"], "0110100110010110" * 4),
    "stats-base16": (["stats", "--base", "16"], "15,0,3 12\n7,7,1,10,11\n"),
    "construct-freq-quota": (["construct-freq", "--tau", "1/2,1/3,1/6", "--count", "24"], None),
    "construct-freq-beatty": (["construct-freq", "--rule", "beatty", "--a", "1/3", "--b", "1/4", "--count", "20"], None),
    "construct-freq-base12": (["construct-freq", "--tau", TAU_BASE12, "--count", "16"], None),
    "construct-mean-nofreq-spec": (["construct-mean-nofreq", *BLOCK, "--blocks", "12"], None),
    "construct-mean-nofreq-digits": (["construct-mean-nofreq", *BLOCK, "--blocks", "8", "--emit", "digits"], None),
    "no-mean-example": (["no-mean-example", "--count", "20"], None),
    "floor-average": (["floor-average", "--x", "2/5", "--k", "3", "--n", "50"], None),
    "schedule": (["schedule", "--x1", "1/5", "--x2", "2/5", "--eps", "1/20", "--n", "200"], None),
    "simulate": (["simulate", "--base", "3", "--n", "300", "--trials", "5", "--seed", "7"], None),
    "simulate-band": (["simulate", "--base", "2", "--n", "64", "--trials", "4", "--seed", "1", "--band", "1/10"], None),
}

# name -> (full argv, stdin text or None)
SINGLE = {
    "digits-outside-unit-interval": (["digits", "--base", "3", "--rational", "5/4"], None),
    "stats-digit-out-of-range": (["stats", "--base", "2"], "0102"),
    "stats-empty-input": (["stats", "--base", "10"], " \n"),
    "construct-freq-missing-tau": (["construct-freq", "--count", "5"], None),
    "construct-freq-beatty-missing-b": (["construct-freq", "--rule", "beatty", "--a", "1/3", "--count", "5"], None),
    "construct-mean-nofreq-infeasible": (["construct-mean-nofreq", "--theta", "0", *BLOCK[2:], "--blocks", "5"], None),
    "floor-average-k-above-n": (["floor-average", "--x", "1/2", "--k", "9", "--n", "4"], None),
}

CASES = {
    **{f"{name}-{fmt}": ([*argv, "--format", fmt], stdin) for name, (argv, stdin) in BY_FORMAT.items() for fmt in FORMATS},
    **SINGLE,
}


def run_case(argv: list[str], stdin: str | None) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    code, out, err = run_case(*CASES[name])
    if (GOLDEN / f"{name}.out").exists():
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"{name}.out").read_text()
    else:
        assert out == ""
        assert code == int((GOLDEN / f"{name}.code").read_text())
        assert err == (GOLDEN / f"{name}.err").read_text()


def write_goldens() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    for name, (argv, stdin) in CASES.items():
        code, out, err = run_case(argv, stdin)
        if code == 0:
            (GOLDEN / f"{name}.out").write_text(out)
        else:
            (GOLDEN / f"{name}.err").write_text(err)
            (GOLDEN / f"{name}.code").write_text(f"{code}\n")


if __name__ == "__main__":
    write_goldens()
