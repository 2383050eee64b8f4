"""The chunked digit-text reader against the in-memory path it replaced.

`in_memory_stream` is that path, kept here as the oracle: read the whole
file as UTF-8 text, check its syntax with one regular expression, parse
it into a tuple, and let ``DigitStream.from_digits`` check the range.
``DigitStream.from_file`` reads the same file in chunks of a few bytes
here, so every character, multi-byte sequence and token meets a chunk
boundary somewhere, and must name the same fault or give the same digits.
"""

import contextlib
import gc
import io
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import digitstats
from digitstats import DigitStream, DomainError, core, running_stats, stats_to_csv, text_to_digits
from digitstats.cli import run_cli

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
    path = tmp_path / "digits.txt"
    for case, (data, base, marks) in enumerate(fuzz_cases()):
        path.write_bytes(data)
        expected = stats_result(in_memory_stream, path, base, marks)
        try:
            oracle = list(in_memory_stream(path, base))
        except DomainError:
            oracle = None
        for size in range(1, 8):
            monkeypatch.setattr(core, "_CHUNK_BYTES", size)
            assert stats_result(DigitStream.from_file, path, base, marks) == expected, (case, data, base, marks, size)
            if oracle is not None:
                stream = DigitStream.from_file(path, base)
                assert (stream.length, list(stream), list(stream)) == (len(oracle), oracle, oracle), (case, size)
        # the CLI itself, at one chunk size per case, reading the file and the same bytes on stdin
        argv = ["stats", "--base", str(base), "--format", "csv"]
        if marks is not None:
            argv += ["--checkpoints", "list:" + ",".join(map(str, marks))]
        assert cli_result([*argv, "--digits-file", str(path)]) == expected, (case, data, base, marks, size)
        # with the error handler a real stdin gets under UTF-8 mode or the C locale
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), "utf-8", "surrogateescape"))
        assert cli_result([*argv, "--digits-file", "-"]) == expected, (case, data, base, marks)


def test_text_stream_matches_in_memory_path(tmp_path):
    # stdin is read whole, as bytes: the one-chunk case of the same reader
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


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the child's VmHWM from /proc")
def test_stats_file_memory_does_not_grow_with_the_file(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(digitstats.__file__).parents[1])}
    child = (
        "import sys\n"
        "from digitstats.cli import run_cli\n"
        "assert run_cli(sys.argv[1:]) == 0\n"
        "status = open('/proc/self/status').read()\n"
        "print(next(line.split()[1] for line in status.splitlines() if line.startswith('VmHWM')))\n"
    )

    def peak_mb(count: int) -> float:
        path = tmp_path / f"digits-{count}.txt"
        path.write_text(("8327950288419716939937510582097494459230781640628620899862803482534211706" + "7982148\n") * (count // 80))
        argv = ["stats", "--base", "10", "--digits-file", str(path), "--checkpoints", f"geometric:10,2,{count}",
                "--format", "csv", "--out", str(tmp_path / "stats.csv")]
        result = subprocess.run([sys.executable, "-c", child, *argv], env=env, capture_output=True, text=True,
                                check=True, timeout=120)
        path.unlink()
        return int(result.stdout) / 1024

    small, large = peak_mb(2 * 10**6), peak_mb(2 * 10**7)
    assert large - small < 3, (small, large)
