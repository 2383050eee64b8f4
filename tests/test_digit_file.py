"""The chunked digit-text reader and writer against the in-memory paths they replaced.

`in_memory_stream` is the reader's old path, kept here as the oracle:
read the whole file as UTF-8 text, check its syntax with one regular
expression, parse it into a tuple, and let ``DigitStream.from_digits``
check the range. ``DigitStream.from_file``, and the CLI's single pass
over the file, over stdin and over a pipe, read the same bytes in chunks
of a few bytes here, so every character, multi-byte sequence and token
meets a chunk boundary somewhere, and must name the same fault or give
the same digits.

`listed_output` is the writer's old path: the CLI built every digit as a
list, then ``digits_to_text`` of it, wrapped in its format, then wrote
it. The CLI now writes digit text chunk by chunk, and must write the same
bytes at chunk sizes down to one digit, and hold memory that does not
grow with the count.
"""

import contextlib
import csv
import functools
import gc
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction as F
from pathlib import Path

import pytest

import digitstats
from digitstats import (
    DigitStream,
    DomainError,
    FrequencyProfile,
    beatty_construct,
    construct_mean_without_frequency,
    core,
    digits_to_text,
    expand_rational,
    format_expansion,
    no_mean_example,
    quota_construct,
    running_stats,
    stats_to_csv,
    text_to_digits,
)
from digitstats import cli
from digitstats.cli import build_parser, run_cli

_SPACE = " \t\n\r\v\f"
_NOT_DIGIT_TEXT = re.compile(f"[^0-9{_SPACE}]")
_NOT_TOKEN_TEXT = re.compile(f"[^0-9,{_SPACE}]")


def in_memory_stream(path: Path, base: int) -> DigitStream:
    """Oracle: the whole text, one syntax check, a tuple, then the range check."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start : exc.end]
        raise DomainError(f"invalid digit character {bad!r}: the input is not UTF-8") from None
    bad = (_NOT_DIGIT_TEXT if base <= 10 else _NOT_TOKEN_TEXT).search(text)
    if bad is not None:
        raise DomainError(f"invalid digit character {bad.group()!r}")
    try:
        digits = tuple(int(token) for token in re.findall("[0-9]" if base <= 10 else "[0-9]+", text))
    except ValueError:  # longer than int() reads
        raise DomainError("digit token too long") from None
    return DigitStream.from_digits(digits, base)


VALID = [*"0123456789", " ", "\n", "\r\n", "\t", "\v\f"]
FAULTS = [
    "²".encode(),  # two bytes
    "€".encode(),  # three bytes
    "😀".encode(),  # four bytes
    " ".encode(),  # no-break space
    b"a",
    b"-",
    b"_",
    b"\xff",  # never UTF-8
    b"\x80",  # a lone continuation byte
    b"\xe2\x82",  # a truncated three-byte sequence
    b"\xed\xa0\x80",  # an encoded surrogate
]
BOM = b"\xef\xbb\xbf"


def fuzzed_text(rng: random.Random, base: int) -> bytes:
    """Mostly digits and whitespace (commas between tokens above base 10), some faults."""
    pieces = [BOM] if rng.random() < 0.05 else []
    for _ in range(rng.randint(0, 24)):
        roll = rng.random()
        too_large = rng.random() < 0.02
        if roll < 0.03:
            pieces.append(rng.choice(FAULTS))
        elif roll < 0.75 and base > 10:
            token = str(rng.randrange(base, base + 3) if too_large else rng.randrange(base))
            pieces.append((token + rng.choice([",", " ", "\n", "\r\n", ", "])).encode())
        elif roll < 0.75:
            pieces.append(str(rng.randrange(base, 10) if too_large and base < 10 else rng.randrange(base)).encode())
        else:
            pieces.append(rng.choice(VALID).encode())
    if rng.random() < 0.05:
        pieces.append(rng.choice([b"\xc3", b"\xf0\x9f"]))  # cut off by the end of the file
    return b"".join(pieces)


EDGE_CASES = [
    (BOM + b"0101", 2),
    ("01²1".encode(), 10),
    ("€ 2".encode(), 2),
    (b"2 x \xff", 2),  # non-UTF-8 after a bad character and a digit out of range
    (b"2 0 x", 2),  # a bad character after a digit out of range
    (b"0\r\n1\r\n", 2),
    (b"0\xe2\x82", 10),
    (b"15,0\r\n10 3,11", 16),
    (b"15,16 " + b"1" * 5000, 16),  # a token too long after one out of range
    (b"1" * 5000 + b" x", 16),
    (b"", 10),
    (b" \n\t", 3),
]


def cli_result(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def stats_result(read, path: Path, base: int, marks: list[int] | None) -> tuple[int, str, str]:
    """What ``stats --format csv`` prints for the file when `read` makes its stream."""
    try:
        stream = read(path, base)
        if marks is None and not stream.length:
            raise DomainError("no digits in input")
        rows = running_stats(stream, marks or [stream.length])
    except DomainError as exc:
        return 1, "", f"error: domain: {exc}\n"
    return 0, stats_to_csv(rows), ""


def fuzz_cases():
    rng = random.Random(20261018)
    for _ in range(300):
        base = rng.choice([2, 3, 7, 10, 12, 16])
        marks = None if rng.random() < 0.4 else sorted(rng.sample(range(1, 40), rng.randint(1, 4)))
        yield fuzzed_text(rng, base), base, marks
    for data, base in EDGE_CASES:
        yield data, base, None
        yield data, base, [1, 3]


def test_file_stream_matches_in_memory_path(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "build_parser", functools.cache(build_parser))  # most of a short run is building it
    path = tmp_path / "digits.txt"
    for case, (data, base, marks) in enumerate(fuzz_cases()):
        path.write_bytes(data)
        expected = stats_result(in_memory_stream, path, base, marks)
        try:
            oracle = list(in_memory_stream(path, base))
        except DomainError:
            oracle = None
        argv = ["stats", "--base", str(base), "--format", "csv"]
        if marks is not None:
            argv += ["--checkpoints", "list:" + ",".join(map(str, marks))]
        for size in range(1, 8):
            monkeypatch.setattr(core, "_CHUNK_BYTES", size)
            assert stats_result(DigitStream.from_file, path, base, marks) == expected, (case, data, base, marks, size)
            if oracle is not None:
                stream = DigitStream.from_file(path, base)
                assert (stream.length, list(stream), list(stream)) == (len(oracle), oracle, oracle), (case, size)
            # the CLI's single pass over the file, over the same bytes on stdin, and through a pipe
            assert cli_result([*argv, "--digits-file", str(path)]) == expected, (case, data, base, marks, size)
            # with the error handler a real stdin gets under UTF-8 mode or the C locale
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), "utf-8", "surrogateescape"))
            assert cli_result([*argv, "--digits-file", "-"]) == expected, (case, data, base, marks, size)
            if Path("/dev/fd").is_dir():
                read, write = os.pipe()
                os.write(write, data)  # the fuzzed texts fit a pipe's 64 KiB buffer
                os.close(write)
                with open(read, "rb") as pipe:
                    piped = cli_result([*argv, "--digits-file", f"/dev/fd/{pipe.fileno()}"])
                assert piped == expected, (case, data, base, marks, size)


def test_text_stream_matches_in_memory_path(tmp_path):
    # a text is one piece: the one-piece case of the same reader
    path = tmp_path / "digits.txt"
    for data, base, marks in fuzz_cases():
        path.write_bytes(data)
        try:
            expected = list(in_memory_stream(path, base))
        except DomainError as exc:
            expected = str(exc)
        texts = [data]
        with contextlib.suppress(UnicodeDecodeError):  # a str holds only UTF-8 text
            texts.append(data.decode("utf-8"))
        for text in texts:
            try:
                got = list(DigitStream.from_text(text, base))
            except DomainError as exc:
                got = str(exc)
            assert got == expected, (text, base)


@pytest.mark.parametrize("encoding", ["utf-8:strict", "utf-8:surrogateescape"])
def test_stdin_that_is_not_utf8_is_named_under_any_text_encoding(encoding):
    # stdin is read as bytes, so its error handler cannot change the fault named
    env = {**os.environ, "PYTHONPATH": str(Path(digitstats.__file__).parents[1]), "PYTHONIOENCODING": encoding}
    result = subprocess.run([sys.executable, "-m", "digitstats.cli", "stats", "--base", "2"], input=b"2 x \xff",
                            env=env, capture_output=True, timeout=60)
    assert (result.returncode, result.stdout) == (1, b"")
    assert result.stderr == b"error: domain: invalid digit character b'\\xff': the input is not UTF-8\n"


@pytest.mark.parametrize("base, text, row", [
    (3, b"0120", b"4,2,1,1,1/2,1/4,1/4,3/4,"),
    (3, b"0 1\n2 0\n" * 50000, b"200000,100000,50000,50000,1/2,1/4,1/4,3/4,"),
    (12, b"11,0\n3 10,2", b"5,1,0,1,1,0,0,0,0,0,0,1,1,"),
], ids=["one row", "long", "base 12"])
def test_stdin_as_a_digit_file_reads_as_stdin_does(base, text, row):
    # a pipe yields its bytes once, so --digits-file /dev/stdin must read it once, as --digits-file - does
    env = {**os.environ, "PYTHONPATH": str(Path(digitstats.__file__).parents[1])}
    outs = []
    for path in ("-", "/dev/stdin"):
        argv = ["stats", "--base", str(base), "--digits-file", path, "--format", "csv"]
        result = subprocess.run([sys.executable, "-m", "digitstats.cli", *argv], input=text,
                                env=env, capture_output=True, timeout=60)
        assert (result.returncode, result.stderr) == (0, b""), path
        outs.append(result.stdout)
    assert outs[0] == outs[1]
    assert outs[0].split(b"\n")[1].startswith(row)


@pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="reads a pipe as /dev/stdin")
@pytest.mark.parametrize("data, base, checkpoints, fault", [
    (b"0" * 70000 + b"\0" * 70000, 10, [], r"'\x00'"),
    (b"0120" * 20000 + b" x", 3, ["--checkpoints", "list:5,50"], "'x'"),
    (b"3" + b"0" * (1 << 20) + b"\xff", 3, [], r"b'\xff': the input is not UTF-8"),
], ids=["NUL bytes", "a bad character past the last checkpoint", "out of range, then not UTF-8"])
def test_a_fault_on_any_input_is_named_before_any_output(tmp_path, data, base, checkpoints, fault):
    # a file, stdin and /dev/stdin on a pipe are read in one pass, to the end: each names the fault reading
    # the whole text names, and writes nothing
    env = {**os.environ, "PYTHONPATH": str(Path(digitstats.__file__).parents[1])}
    path, out = tmp_path / "digits.txt", tmp_path / "stats.csv"
    path.write_bytes(data)
    for source in (str(path), "-", "/dev/stdin"):
        for extra in ([], ["--out", str(out)]):
            argv = ["stats", "--base", str(base), "--digits-file", source, *checkpoints, "--format", "csv", *extra]
            result = subprocess.run([sys.executable, "-m", "digitstats.cli", *argv], input=data, env=env,
                                    capture_output=True, timeout=60)
            expected = (1, b"", f"error: domain: invalid digit character {fault}\n".encode())
            assert (result.returncode, result.stdout, result.stderr) == expected, (source, extra)
            assert not out.exists()


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="opens a pipe by its /dev/fd path")
@pytest.mark.parametrize("base, text", [(3, b"0120 2\n1"), (12, b"11,0\n3 10,2 7")])
def test_a_pipe_is_read_in_checked_pieces_and_replayed(monkeypatch, base, text):
    # each piece is checked; a fault is named once the pipe is read to its end, and a good pipe re-reads
    monkeypatch.setattr(core, "_CHUNK_BYTES", 3)
    for data, fault in ((text, None), (b"01x" + b"0" * 60000, "'x'")):  # fits a pipe's 64 KiB buffer
        read, write = os.pipe()
        os.write(write, data)
        os.close(write)
        with open(read, "rb", closefd=True) as pipe:
            if fault is None:
                stream = DigitStream.from_file(f"/dev/fd/{pipe.fileno()}", base)
                assert list(stream) == stream.take(99) == list(DigitStream.from_text(text, base))
                assert running_stats(stream, [stream.length])[0].n == stream.length
            else:
                with pytest.raises(DomainError, match=f"invalid digit character {fault}$"):
                    DigitStream.from_file(f"/dev/fd/{pipe.fileno()}", base)
                assert pipe.read() == b""


def read_fault(path, base: int) -> str:
    with pytest.raises(DomainError) as caught:
        DigitStream.from_file(path, base)
    return str(caught.value)


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="opens a pipe by its /dev/fd path")
def test_a_pipe_names_a_fault_as_the_file_does(tmp_path, monkeypatch):
    # a piece read from a pipe may end inside a multi-byte character; the fault is named whole all the same
    path = tmp_path / "digits.txt"
    for size in range(1, 8):
        monkeypatch.setattr(core, "_CHUNK_BYTES", size)
        for fault in FAULTS:
            for before in range(9):
                for after in range(4):
                    data = b"0" * before + fault + b"0" * after
                    path.write_bytes(data)
                    read, write = os.pipe()
                    os.write(write, data)
                    os.close(write)
                    with open(read, "rb", closefd=True) as pipe:
                        piped = read_fault(f"/dev/fd/{pipe.fileno()}", 10)
                    assert piped == read_fault(path, 10), (size, data)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="needs an int-string limit")
@pytest.mark.parametrize("head, tail, fault", [
    (b"", b"", "digit token too long"),
    (b"", b" x", "invalid digit character 'x'"),
    (b"16," + b"\n" * (1 << 16), b"", "digit token too long"),
], ids=["the token alone", "a bad character after it", "a digit out of range a piece before it"])
def test_a_long_digit_token_is_refused_in_linear_time(tmp_path, head, tail, fault):
    # one base-16 token of 32 MiB: carried piece by piece whole, it cost CPU time quadratic in its length
    # (about 11 s a run on a 2-CPU host); refused once it is longer than int() reads, a run takes well under 3 s.
    # A digit out of range in the 64 KiB piece before the token is a fault first: the rest is then read for a
    # fault named before it, and the token must be refused as fast there too
    resource = pytest.importorskip("resource")
    env = {**os.environ, "PYTHONPATH": str(Path(digitstats.__file__).parents[1])}
    data = head + b"1" * (32 << 20) + tail
    path = tmp_path / "token.txt"
    path.write_bytes(data)
    for source in (str(path), "-"):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        argv = [sys.executable, "-m", "digitstats.cli", "stats", "--base", "16", "--digits-file", source]
        result = subprocess.run(argv, input=data, env=env, capture_output=True, timeout=120)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        expected = (1, b"", f"error: domain: {fault}\n".encode())
        assert (result.returncode, result.stdout, result.stderr) == expected, source
        assert cpu < 3, (source, cpu)


@pytest.mark.parametrize("base, text", [(3, "0120 2\n1"), (12, "11,0\n3 10,2 7"), (12, b"11,0\n3 10,2 7")])
def test_a_text_is_parsed_once(monkeypatch, base, text):
    # the digits are held, so a later pass reads them without the text reader
    stream = DigitStream.from_text(text, base)
    expected = list(text_to_digits(text if isinstance(text, str) else text.decode(), base))

    def no_reader(*args):
        raise AssertionError("the text was parsed again")

    monkeypatch.setattr(core, "_digit_chunks", no_reader)
    assert list(stream) == stream.take(99) == expected
    assert running_stats(stream, [stream.length])[0].n == len(expected)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="needs an int-string limit")
def test_tokens_at_the_int_string_limit_read_as_text_to_digits_reads_them(tmp_path, monkeypatch):
    # 640 is the least limit Python accepts: a token of 640 digits is read, one of 641 is too long, and a bad
    # character after either is named first, whichever piece ends cut the token
    def outcome(read):
        try:
            return list(read())
        except DomainError as exc:
            return str(exc)

    path = tmp_path / "token.txt"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for width in (639, 640, 641):
            for tail, digits in (("", [1]), (",3", [1, 3]), (" x", "invalid digit character 'x'")):
                text = "0" * (width - 1) + "1" + tail
                expected = outcome(lambda: text_to_digits(text, 16))
                assert expected == ("digit token too long" if width > 640 and tail != " x" else digits), (width, tail)
                for given in (text, text.encode()):
                    assert outcome(lambda: DigitStream.from_text(given, 16)) == expected, (width, tail, given)
                path.write_text(text)
                for size in (1, 2, 3, 7, 640, 641, 65536):
                    monkeypatch.setattr(core, "_CHUNK_BYTES", size)
                    assert outcome(lambda: DigitStream.from_file(path, 16)) == expected, (width, tail, size)
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_held_text_is_checked_as_it_is_read_and_not_copied():
    # from_text keeps the bytes its one reading pass makes, and from_digits keeps a bytes of values as it is:
    # copying them again, as checking the held digits once more did, peaks at 3 and 2 bytes a digit
    count = 2 * 10**6
    text = b"0123456789" * (count // 10)
    values = text.translate(bytes.maketrans(b"0123456789", bytes(range(10))))
    builds = ((lambda: DigitStream.from_text(text, 10), 2.5), (lambda: DigitStream.from_digits(values, 10), 1.5))
    for build, bound in builds:
        tracemalloc.start()
        try:
            stream = build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * count, (bound, peak / count)
        assert stream.length == count
        assert stream.take(12) == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1]
    with pytest.raises(DomainError, match="^digit 9 out of range for base 9$"):
        DigitStream.from_text(text, 9)


def test_text_to_digits_names_a_lone_surrogate():
    # surrogateescape'd stdin holds lone surrogates; they are named, not called non-UTF-8
    with pytest.raises(DomainError, match=r"invalid digit character '\\udcff'$"):
        text_to_digits("01\udcff", 10)
    with pytest.raises(DomainError, match=r"invalid digit character '\\udcff'$"):
        DigitStream.from_text("01\udcff", 10)


def test_file_stream_rejects_a_file_changed_after_its_check(tmp_path):
    path = tmp_path / "digits.txt"
    path.write_text("0101")
    stream = DigitStream.from_file(path, 2)
    path.write_text("01012")
    with pytest.raises(DomainError, match="changed after it was checked"):
        list(stream)


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="counts open descriptors in /proc")
def test_abandoned_file_stream_closes_its_file(tmp_path, monkeypatch):
    path = tmp_path / "digits.txt"
    path.write_text("0123456789\n" * 200)
    faulty = tmp_path / "faulty.txt"
    monkeypatch.setattr(core, "_CHUNK_BYTES", 64)
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        stream = DigitStream.from_file(path, 10)
        baseline = len(os.listdir("/proc/self/fd"))
        # both stop long before the end of the file
        assert [row.n for row in running_stats(stream, [5, 70])] == [5, 70]
        digits = iter(stream)
        assert next(digits) == 0
        del digits
        # rejected files, one read to its end and one left at its fault
        for text, base in [("2" + "01" * 1000, 2), ("1" * 5000 + ",3," + "1," * 1000, 16)]:
            faulty.write_text(text)
            with pytest.raises(DomainError):
                DigitStream.from_file(faulty, base)
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) == baseline
    assert unraisable == []


def child_peak_mb(argv: list[str]) -> float:
    """Peak RSS (``VmHWM``) in MB of a child process that runs the CLI on `argv`, which must succeed."""
    env = {**os.environ, "PYTHONPATH": str(Path(digitstats.__file__).parents[1])}
    child = (
        "import sys\n"
        "from digitstats.cli import run_cli\n"
        "assert run_cli(sys.argv[1:]) == 0\n"
        "status = open('/proc/self/status').read()\n"
        "print(next(line.split()[1] for line in status.splitlines() if line.startswith('VmHWM')))\n"
    )
    result = subprocess.run([sys.executable, "-c", child, *argv], env=env, capture_output=True, text=True,
                            check=True, timeout=120)
    return int(result.stdout) / 1024


needs_vmhwm = pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the child's VmHWM from /proc")


@needs_vmhwm
def test_stats_file_memory_does_not_grow_with_the_file(tmp_path):
    def peak_mb(count: int) -> float:
        path = tmp_path / f"digits-{count}.txt"
        path.write_text(("8327950288419716939937510582097494459230781640628620899862803482534211706" + "7982148\n") * (count // 80))
        argv = ["stats", "--base", "10", "--digits-file", str(path), "--checkpoints", f"geometric:10,2,{count}",
                "--format", "csv", "--out", str(tmp_path / "stats.csv")]
        peak = child_peak_mb(argv)
        path.unlink()
        return peak

    small, large = peak_mb(2 * 10**6), peak_mb(2 * 10**7)
    assert large - small < 3, (small, large)


BLOCK = ["--theta", "1", "--x1", "1/5", "--x2", "2/5", "--eps", "1/20"]
TAU_BASE12 = "1/4,0,0,1/12,0,0,0,0,0,0,1/6,1/2"

# subcommand -> argv writing about `count` digits
DIGIT_COMMANDS = {
    "no-mean-example": lambda count: ["no-mean-example", "--count", str(count)],
    "construct-freq quota": lambda count: ["construct-freq", "--tau", TAU_BASE12, "--count", str(count)],
    "construct-freq beatty": lambda count: ["construct-freq", "--rule", "beatty", "--a", "2/7", "--b", "1/5",
                                            "--count", str(count)],
    "construct-mean-nofreq": lambda count: ["construct-mean-nofreq", *BLOCK, "--blocks", str(math.isqrt(2 * count)),
                                            "--emit", "digits"],
    "digits": lambda count: ["digits", "--base", "16", "--rational", "5/28", "--count", str(count)],
}


@needs_vmhwm
@pytest.mark.parametrize("command", sorted(DIGIT_COMMANDS))
def test_digit_output_memory_does_not_grow_with_the_count(tmp_path, command):
    def peak_mb(count: int) -> float:
        out = tmp_path / "digits.txt"
        peak = child_peak_mb([*DIGIT_COMMANDS[command](count), "--format", "json", "--out", str(out)])
        assert out.stat().st_size > 0.9 * count
        out.unlink()
        return peak

    small, large = peak_mb(3 * 10**5), peak_mb(3 * 10**6)
    assert large - small < 3, (small, large)


@needs_vmhwm
def test_digit_output_memory_does_not_grow_with_a_long_period(tmp_path):
    # targets over 709 * 701: a base-12 quota period of 497,009 digits, longer than a chunk
    tau = "1/709,1/701,0,0,0,0,0,0,0,0,0,495599/497009"

    def peak_mb(count: int) -> float:
        out = tmp_path / "digits.txt"
        peak = child_peak_mb(["construct-freq", "--tau", tau, "--count", str(count), "--out", str(out)])
        assert out.stat().st_size > 2 * count
        out.unlink()
        return peak

    small, large = peak_mb(10**5), peak_mb(12 * 10**5)
    assert large - small < 3, (small, large)


def listed_output(argv: list[str], fmt: str) -> str:
    """What the CLI wrote for `argv` when it built the digit text whole: digits_to_text of the list, wrapped."""
    args = build_parser().parse_args(argv)
    if args.command == "no-mean-example":
        base, digits = 2, no_mean_example(args.count)
    elif args.command == "construct-freq" and args.rule == "quota":
        base, digits = len(args.tau), quota_construct(FrequencyProfile(len(args.tau), args.tau), args.count)
    elif args.command == "construct-freq":
        base, digits = 3, beatty_construct(args.a, args.b, args.count)
    elif args.command == "construct-mean-nofreq":
        _, stream = construct_mean_without_frequency(args.theta, args.x1, args.x2, args.eps, args.blocks)
        base, digits = 3, stream.take(stream.length)
    else:
        expansion = expand_rational(args.rational.numerator, args.rational.denominator, args.base)
        base, digits = args.base, DigitStream.from_expansion(expansion).take(args.count)
    text = digits_to_text(digits, base)
    if args.command != "digits":
        if fmt == "json":
            return json.dumps({"base": base, "count": len(digits), "digits": text}, indent=2) + "\n"
        return text + "\n"
    value, shown = str(args.rational), format_expansion(expansion)
    if fmt == "json":
        payload = {"base": base, "value": value, "expansion": shown, "preperiod": list(expansion.preperiod),
                   "period": list(expansion.period), "digits": text}
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        lines = io.StringIO()
        rows = [("field", "value"), ("base", base), ("value", value), ("expansion", shown), ("digits", text)]
        csv.writer(lines, lineterminator="\n").writerows(rows)
        return lines.getvalue()
    return f"expansion: {shown}\nvalue: {value}\ndigits: {text}\n"


def random_digit_argv(rng: random.Random) -> list[str]:
    kind = rng.choice(["no-mean", "quota", "quota12", "beatty", "blocks", "digits", "digits16"])
    if kind == "no-mean":
        return ["no-mean-example", "--count", str(rng.randint(1, 300))]
    if kind in ("quota", "quota12"):
        base = 12 if kind == "quota12" else rng.randint(2, 10)
        cuts = sorted(rng.randint(0, 24) for _ in range(base - 1))
        tau = ",".join(f"{high - low}/24" for low, high in zip([0, *cuts], [*cuts, 24]))
        return ["construct-freq", "--tau", tau, "--count", str(rng.choice([0, 1, 2, rng.randint(0, 300)]))]
    if kind == "beatty":
        a = F(rng.randint(0, 12), 12)
        b = F(rng.randint(0, 12 - a.numerator * 12 // a.denominator), 12)
        return ["construct-freq", "--rule", "beatty", "--a", str(a), "--b", str(b), "--count", str(rng.choice([0, 1, 2, rng.randint(0, 300)]))]
    if kind == "blocks":
        return ["construct-mean-nofreq", *BLOCK, "--blocks", str(rng.randint(1, 25)), "--emit", "digits"]
    base = 16 if kind == "digits16" else rng.randint(2, 16)
    q = rng.randint(1, 400)
    return ["digits", "--base", str(base), "--rational", f"{rng.randrange(q)}/{q}", "--count", str(rng.choice([0, 1, 2, rng.randint(0, 300)]))]


def test_streamed_digit_output_matches_the_list_path(tmp_path, monkeypatch):
    rng = random.Random(11)
    for case in range(250):
        monkeypatch.setattr(core, "_CHUNK_DIGITS", rng.choice([1, 2, 3, 7, 1 << 16]))
        argv = random_digit_argv(rng)
        fmt = rng.choice(["table", "json", "csv"] if argv[0] == "digits" else ["table", "json"])
        expected = listed_output(argv, fmt)
        if rng.random() < 0.5:
            assert cli_result([*argv, "--format", fmt]) == (0, expected, ""), (case, argv, fmt)
        else:
            out = tmp_path / f"out-{case}.txt"
            assert cli_result([*argv, "--format", fmt, "--out", str(out)]) == (0, "", ""), (case, argv, fmt)
            assert out.read_text() == expected, (case, argv, fmt)


@pytest.mark.parametrize(
    "argv,code",
    [
        (["no-mean-example", "--count", "5", "--format", "csv"], 2),
        (["construct-freq", "--tau", "1/2,1/2", "--count", "5", "--format", "csv"], 2),
        (["construct-freq", "--rule", "beatty", "--a", "1/3", "--b", "1/3", "--count", "5", "--format", "csv"], 2),
        (["construct-mean-nofreq", *BLOCK, "--blocks", "5", "--emit", "digits", "--format", "csv"], 2),
        (["no-mean-example", "--count", "0"], 1),
        (["construct-freq", "--tau", "1/2,1/2", "--count", "-1", "--format", "json"], 1),
        (["construct-freq", "--rule", "beatty", "--a", "1/3", "--b", "1/3", "--count", "-3"], 1),
        (["digits", "--base", "16", "--rational", "1/7", "--count", "-1", "--format", "csv"], 1),
    ],
)
def test_rejected_digit_output_writes_nothing(tmp_path, argv, code):
    out = tmp_path / "out.txt"
    for extra in ([], ["--out", str(out)]):
        result = cli_result([*argv, *extra])
        assert result[:2] == (code, ""), (argv, extra)
        assert result[2].startswith("error: ") and result[2].count("\n") == 1, result
        assert not out.exists()
