"""Tests of the benchmark itself: oracles catch corrupted outputs, counts
repeat exactly, and the runner keeps to its output contract.

Run from the repository root: python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
from digitstats import cli  # noqa: E402
from workloads import Prepared  # noqa: E402

SMALL_PAPER = {
    "theta": "1",
    "x1": "1/5",
    "x2": "2/5",
    "eps": "1/20",
    "blocks": 600,
    "no_mean_count": 2**12,
    "tau": ["1/4", "1/3", "5/12"],
    "quota_count": 500,
    "beatty_a": "3/97",
    "beatty_b": "40/97",
    "beatty_count": 500,
    "big_q": 9973,
    "round_trip_p": 123,
    "round_trip_q": 997,
    "checkpoints": [1, "1.01", 1000],
}


def _cli_output(argv, capsys) -> str:
    assert cli.run_cli(argv) == 0
    return capsys.readouterr().out


def test_stats_oracle_catches_a_wrong_count(tmp_path, capsys):
    digits = "".join(str((i * 7) % 10) for i in range(1000))
    path = tmp_path / "d.txt"
    path.write_text(digits[:500] + "\n" + digits[500:] + "\n")
    marks = oracles.geometric_depths(10, 2, 1000)
    out = _cli_output(["stats", "--base", "10", "--digits-file", str(path), "--checkpoints",
                       "geometric:10,2,1000", "--format", "csv"], capsys)
    assert oracles.check_stats_csv(out, digits, marks) == []
    lines = out.splitlines()
    fields = lines[2].split(",")
    fields[1] = str(int(fields[1]) + 1)
    corrupted = "\n".join(lines[:2] + [",".join(fields)] + lines[3:]) + "\n"
    assert oracles.check_stats_csv(corrupted, digits, marks)
    assert oracles.check_stats_csv("\n".join(lines[:-1]) + "\n", digits, marks)


def test_simulate_oracle_catches_a_wrong_mean(capsys):
    out = _cli_output(["simulate", "--base", "3", "--n", "100", "--trials", "7", "--seed", "5",
                       "--format", "json"], capsys)
    assert oracles.check_simulate_json(out, 3, 100, 7, 5) == []
    payload = json.loads(out)
    payload["mean"] = str(Fraction(payload["mean"]) + Fraction(1, 10**6))
    assert oracles.check_simulate_json(json.dumps(payload), 3, 100, 7, 5)
    del payload["rng_id"]
    assert oracles.check_simulate_json(json.dumps(payload), 3, 100, 7, 5)
    assert oracles.check_simulate_json(out, 3, 100, 8, 5)


def test_emit_oracles_catch_a_moved_digit(capsys):
    rows, _ = oracles.oscillating_blocks(Fraction(1), Fraction(1, 5), Fraction(2, 5), Fraction(1, 20), 300)
    out = _cli_output(["construct-mean-nofreq", "--theta", "1", "--x1", "1/5", "--x2", "2/5",
                       "--eps", "1/20", "--blocks", "300", "--emit", "digits"], capsys)
    assert oracles.check_block_digits(out, rows) == []
    i = out.index("01")
    assert oracles.check_block_digits(out[:i] + "10" + out[i + 2:], rows)
    assert oracles.check_block_digits(out[:-2] + "\n", rows)

    out = _cli_output(["no-mean-example", "--count", "1000"], capsys)
    assert oracles.check_digit_text("no-mean", out, oracles.no_mean_text(1000)) == []
    assert oracles.check_digit_text("no-mean", out.replace("0", "1", 1), oracles.no_mean_text(1000))


def test_paper_oracle_catches_each_corruption():
    res = session.paper_session(SMALL_PAPER)
    assert oracles.check_paper(SMALL_PAPER, res) == []
    corruptions = {
        "round_trip_value": lambda v: v + Fraction(1, 10**9),
        "block_rows": lambda rows: rows[:-1],
        "no_mean_rows": lambda rows: rows[1:],
        "boundaries": lambda b: b[:-1] + (b[-1] + 1,),
        "quota": lambda d: [0] * 10 + d[10:],
        "beatty": lambda d: [1 - x if x < 2 else x for x in d],
        "checkpoints": lambda c: c[:-1],
        "csv": lambda text: text.rsplit("\n", 2)[0] + "\n",
        "v0_verdict": lambda v: res["mean_verdict"],
    }
    for key, corrupt in corruptions.items():
        broken = dict(res, **{key: corrupt(res[key])})
        assert oracles.check_paper(SMALL_PAPER, broken), key


def test_fine_geometric_depths_match_exact_powers():
    factor = Fraction(1001, 1000)
    exact = sorted({1001**k // 1000**k for k in range(0, 7000) if 1001**k <= 1000 * 1000**k} | {1000})
    assert oracles.fine_geometric_depths(factor, 1000) == exact


def test_error_rate_rises_on_a_corrupted_output(tmp_path):
    argv = ["simulate", "--base", "3", "--n", "200", "--trials", "4", "--seed", "9", "--format", "json"]
    prep = Prepared(args={}, digits=800, argvs=[argv],
                    check=lambda outs: oracles.check_simulate_json(outs[0], 3, 200, 4, 9))
    metrics, detail = run.measure(prep, tmp_path, seconds=0)
    assert metrics["error_rate"] == 0 and detail["failed"] == 0
    assert metrics["cpu_ref"] > 0 and metrics["cpu_s"] > 0
    honest = prep.check
    prep.check = lambda outs: honest([outs[0].replace('"rng_id"', '"rng"')])
    metrics, detail = run.measure(prep, tmp_path, seconds=0)
    assert metrics["error_rate"] == 1 and detail["failed"] == detail["attempted"] == 1


def _traced_counts(request) -> dict:
    response = session.traced_rounds(request)
    assert all(not f for f in response["failures"])
    return response["rounds"][0]["counts"]


def test_counts_repeat_exactly(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("31415926535897932384626433832795028841971\n" * 20)
    scaling = {"base": 3, "depth": 50, "trials": 3, "seed": 1, "workers": 1}
    requests = [
        {"mode": "cli", "argvs": [
            ["stats", "--base", "10", "--digits-file", str(path), "--checkpoints", "geometric:10,2,800",
             "--format", "csv"],
            ["simulate", "--base", "3", "--n", "300", "--trials", "5", "--seed", "2", "--format", "json"],
            ["no-mean-example", "--count", "999"],
        ]},
        {"mode": "library", "argvs": [], "params": SMALL_PAPER},
    ]
    for request in requests:
        request.update(seconds=0, out_prefix=str(tmp_path / "o-"), spans_path=str(tmp_path / "s.jsonl"),
                       scaling=scaling)
        first, second = _traced_counts(request), _traced_counts(request)
        assert first == second
    cli_counts = _traced_counts(requests[0])
    assert cli_counts["stats.digits_counted"] == 800
    assert cli_counts["simulate.digits_drawn"] == 1500
    assert cli_counts["cli.input_bytes"] == path.stat().st_size
    assert cli_counts["cli.output_bytes"] > 999


def test_self_times_add_up_to_the_traced_wall(tmp_path):
    request = {"mode": "library", "argvs": [], "params": SMALL_PAPER, "seconds": 0,
               "out_prefix": str(tmp_path / "o-"), "spans_path": str(tmp_path / "s.jsonl"),
               "scaling": {"base": 3, "depth": 50, "trials": 3, "seed": 1, "workers": 1}}
    metrics = session.traced_rounds(request)["rounds"][0]["metrics"]
    parts = sum(v for k, v in metrics.items() if k.endswith(".self_s")) + metrics["trace.unattributed_s"]
    assert abs(parts - metrics["trace.wall_s"]) < 1e-6
    assert len((tmp_path / "s.jsonl").read_text().splitlines()) > 0


def test_worker_cap_never_exceeds_cpu_count():
    assert run.cap_workers(10**6) == (os.cpu_count() or 1)
    assert run.cap_workers(0) == 1


def test_runner_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "simulate", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
