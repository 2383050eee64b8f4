"""Every subcommand, on extreme and random arguments, under a memory cap.

Each case runs the CLI in a child process limited to 1 GiB of address
space (``RLIMIT_AS``) and a timeout. Whatever the arguments, the run ends
with exit code 0, 1 or 2 and a stderr that is empty or one ``error: ``
line, never a traceback. A command that writes digits streams them, so
on a count too large to finish it writes its first digits at once; it is
killed then. The arguments are drawn with a seeded ``random.Random``.
"""

from __future__ import annotations

import os
import random
import select
import subprocess
import sys
import time
from pathlib import Path

import pytest

import digitstats

resource = pytest.importorskip("resource")

LIMIT = 1 << 30
TIMEOUT_S = 20
CHILD = (
    "import resource, runpy, sys\n"
    "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
    f"cap = {LIMIT} if hard == resource.RLIM_INFINITY else min({LIMIT}, hard)\n"
    "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
    "sys.argv[0] = 'digitstats'\n"
    "runpy.run_module('digitstats.cli', run_name='__main__', alter_sys=True)\n"
)
HUGE = str(10**12)
BLOCK = ["--theta", "1", "--x1", "1/5", "--x2", "2/5", "--eps", "1/20"]

# (argv, stdin, streams digits): commands whose output would outgrow the cap
EXTREME = [
    (["stats", "--base", "1099511627776"], b"1,2,3", False),
    (["stats", "--base", str(10**30)], b"1,2,3", False),  # a count row larger than any address space
    (["no-mean-example", "--count", HUGE], b"", True),
    (["construct-freq", "--tau", "1/3,1/3,1/3", "--count", HUGE], b"", True),
    (["construct-freq", "--tau", "1/709,1/701,495599/497009", "--count", HUGE], b"", True),  # a long period
    (["simulate", "--base", "3", "--n", "10", "--trials", str(10**11), "--seed", "1"], b"", False),
    (["digits", "--base", "10", "--rational", "1/7", "--count", HUGE, "--format", "json"], b"", True),
    (["digits", "--base", "10", "--rational", "1/1000000000000000003"], b"", False),  # a period larger than memory
    (["construct-mean-nofreq", *BLOCK, "--blocks", str(10**8)], b"", False),  # blocks larger than memory
    (["construct-mean-nofreq", *BLOCK, "--blocks", str(2 * 10**6)], b"", False),  # blocks that fit, a spec that does not
]


def rational(rng: random.Random) -> str:
    """A rational argument: usually in [0, 1), sometimes out of range or not a number."""
    q = rng.choice([1, 2, 7, 12, 97, 1000, 999983])
    return rng.choice([f"{rng.randrange(q)}/{q}", f"{rng.randrange(q)}/{q}", f"{q + 1}/{q}", "-1/3", "1/0", "x"])


def count(rng: random.Random) -> str:
    return str(rng.choice([-1, 0, 1, rng.randrange(10**5)]))


def random_case(rng: random.Random) -> tuple[list[str], bytes, bool]:
    kind = rng.choice(["digits", "stats", "freq", "beatty", "blocks", "no-mean", "floor", "schedule", "simulate"])
    if kind == "digits":
        argv = ["digits", "--base", str(rng.choice([0, 2, 10, 16, 97, 2**64])), "--rational", rational(rng)]
        argv += rng.choice([[], ["--count", count(rng)]])
    elif kind == "stats":
        base = rng.choice([1, 2, 10, 16, 1000])
        alphabet = rng.choice([b"0123456789", b"0123456789, \n", b"01\xff x"])
        stdin = bytes(rng.choice(alphabet) for _ in range(rng.randrange(200)))
        argv = ["stats", "--base", str(base)]
        argv += rng.choice([[], ["--checkpoints", f"list:{rng.randint(-2, 50)},{rng.randint(1, 500)}"],
                            ["--checkpoints", f"geometric:{rng.randint(0, 5)},{rng.choice(['11/10', '2', '1'])},{rng.randint(1, 10**9)}"]])
        return [*argv, "--format", rng.choice(["table", "csv", "json"])], stdin, False
    elif kind == "freq":
        parts = [rng.randrange(5) for _ in range(rng.randint(1, 14))]
        total = sum(parts) or 1
        argv = ["construct-freq", "--tau", ",".join(f"{p}/{total + rng.choice([0, 0, 1])}" for p in parts), "--count", count(rng)]
    elif kind == "beatty":
        argv = ["construct-freq", "--rule", "beatty", "--a", rational(rng), "--b", rational(rng), "--count", count(rng)]
    elif kind == "blocks":
        argv = ["construct-mean-nofreq", "--theta", rng.choice(["0", "1", "3/2", "2", "5"]), *BLOCK[2:]]
        argv += ["--blocks", str(rng.choice([0, 1, rng.randrange(3000)])), "--emit", rng.choice(["spec", "digits"])]
    elif kind == "no-mean":
        argv = ["no-mean-example", "--count", count(rng)]
    elif kind == "floor":
        argv = ["floor-average", "--x", rational(rng), "--k", str(rng.choice([0, 1, 10**30])), "--n", str(rng.choice([1, 10**30]))]
    elif kind == "schedule":
        argv = ["schedule", "--x1", rational(rng), "--x2", rational(rng), "--eps", rational(rng), "--n", str(rng.randrange(10**4))]
    else:
        argv = ["simulate", "--base", str(rng.choice([1, 2, 3, 10, 2**64, 2**64 + 1])), "--n", str(rng.randint(0, 500))]
        argv += ["--trials", str(rng.randint(0, 20)), "--seed", str(rng.randrange(-5, 2**70)), "--band", rational(rng)]
    return [*argv, "--format", rng.choice(["table", "csv", "json"])], b"", False


def cases():
    rng = random.Random(20261018)
    return EXTREME + [random_case(rng) for _ in range(20)]


@pytest.mark.parametrize("argv,stdin,streams", cases(), ids=lambda value: " ".join(value) if isinstance(value, list) else "")
def test_no_arguments_end_in_a_traceback(argv, stdin, streams):
    env = {**os.environ, "PYTHONPATH": str(Path(digitstats.__file__).parents[1])}
    child = subprocess.Popen([sys.executable, "-c", CHILD, *argv], env=env,
                             stdin=subprocess.DEVNULL if streams else subprocess.PIPE,
                             stdout=subprocess.PIPE if streams else subprocess.DEVNULL, stderr=subprocess.PIPE)
    if streams:  # its end is hours away, but its first digits are not: it is killed once they are written
        ready, _, _ = select.select([child.stdout], [], [], TIMEOUT_S)
        written = os.read(child.stdout.fileno(), 1 << 12) if ready else b""
        child.kill()
        _, err = child.communicate(timeout=TIMEOUT_S)
        assert written, f"no digits written within {TIMEOUT_S} s: {err.decode(errors='replace')}"
    else:
        try:
            _, err = child.communicate(stdin, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise AssertionError(f"no end within {TIMEOUT_S} s") from None
        assert child.returncode in (0, 1, 2), err.decode(errors="replace")
    lines = err.decode(errors="replace").splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: ")), lines


def test_a_geometric_spec_larger_than_memory_fails_within_a_second():
    # factor 1.0000001 up to 1e12 makes about 2.8e8 depths, some 25 GB: the probe refuses them before any step,
    # and before the digits are read
    env = {**os.environ, "PYTHONPATH": str(Path(digitstats.__file__).parents[1])}
    argv = ["stats", "--base", "10", "--checkpoints", "geometric:1,1.0000001,1000000000000"]
    started = time.monotonic()
    child = subprocess.run([sys.executable, "-c", CHILD, *argv], input=b"0123", env=env, capture_output=True,
                           timeout=TIMEOUT_S)
    elapsed = time.monotonic() - started
    assert (child.returncode, child.stdout, child.stderr) == (1, b"", b"error: memory: out of memory\n")
    assert elapsed < 1, elapsed
