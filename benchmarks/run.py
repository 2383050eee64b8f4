"""Benchmark runner for digitstats.

Usage, from the repository root:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of stats-file, simulate, paper-checks, emit-digits (see
``workloads.py`` for why each exists). The runner builds the workload's
inputs from the seed, then:

* ``--trace 0`` repeats the workload's operation, each in fresh
  processes, while a typical one still ends within S seconds, checks
  every output against an oracle, and reports the end-to-end metrics:
  ``cpu_ref`` (the operation's CPU time in units of a reference
  computation that shares its CPU; see ``reference.py``), median
  ``peak_rss_mb`` (per child, its ``VmHWM``) and ``setup_s`` (median of
  five set-ups). ``cpu_s``, ``ref_chunk_ms``, ``wall_s``,
  ``digits_per_s`` and ``error_rate`` are printed and kept in the result
  file but are not in BENCHMARK.json (see README.md).
* ``--trace 1`` runs the workload in-process in one child, alternating
  untraced and traced passes for S seconds (see ``session.py`` and
  ``tracing.py``), and reports the per-layer metrics.

Every metric is printed as ``name = value unit``. The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics that BENCHMARK.json lists for the mode. The full result, with
provenance and every sample, goes to
``.bench_work/results/BENCH_<workload>-seed<N>-trace<T>.json``.

The runner needs ``src/digitstats`` beside it; without it, it exits with
status 2 and prints no result. Every worker count it passes is capped at
``os.cpu_count()``: ``normality_experiment`` hands its ``workers``
argument to ``ProcessPoolExecutor`` unchecked.

README.md maps the ROADMAP baseline rows onto these metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import reference
from workloads import WORKLOADS, Prepared

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
STARTUP_PROBES = 5
OP_TIMEOUT_S = 120
SCALING_PROBE = {"base": 3, "depth": 10_000, "trials": 40}
# measured and printed, but not listed in BENCHMARK.json
INFORMATIONAL = {
    "cpu_s": "s",
    "ref_chunk_ms": "ms",
    "wall_s": "s",
    "digits_per_s": "1/s",
    "error_rate": "ratio",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def cap_workers(requested: int) -> int:
    return max(1, min(requested, os.cpu_count() or 1))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], stdout_path: Path) -> tuple[float, float, int, str]:
    """Run cmd with stdout to a file; (wall s, CPU s, exit code, stderr)."""
    err_path = stdout_path.with_suffix(".err")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, proc.returncode, err_path.read_text()[-2000:]


def cli_cmd(argv: list[str], rss_path: Path) -> list[str]:
    return [sys.executable, str(ROOT / "benchmarks" / "cli_child.py"), str(rss_path), *argv]


def session_cmd(request: dict, work: Path) -> tuple[list[str], Path]:
    req, resp = work / "request.json", work / "response.json"
    req.write_text(json.dumps(request))
    resp.unlink(missing_ok=True)
    return [sys.executable, str(ROOT / "benchmarks" / "session.py"), str(req), str(resp)], resp


def warm_up(work: Path) -> float:
    """Start the interpreter and import the CLI; fails if the package cannot load."""
    wall, _, code, err = run_child([sys.executable, "-c", "import digitstats.cli"], work / "warmup.out")
    if code != 0:
        raise BenchError(f"cannot import digitstats.cli: {err.strip()}")
    return wall


# ------------------------------------------------------------- timed ops


def timed_op(prep: Prepared, work: Path) -> dict:
    """One untraced operation in fresh processes."""
    if prep.params is not None:
        cmd, resp = session_cmd({"mode": "library", "traced": False, "params": prep.params}, work)
        wall, cpu, code, err = run_child(cmd, work / "session.out")
        if code != 0:
            failures = [f"session exited {code}: {err}"]
            return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": 0.0, "failures": failures}
        return json.loads(resp.read_text())
    wall, cpu, rss, failures, outputs = 0.0, 0.0, 0.0, [], []
    for i, argv in enumerate(prep.argvs):
        out, rss_path = work / f"out-{i}.txt", work / f"rss-{i}.txt"
        rss_path.unlink(missing_ok=True)
        op_wall, op_cpu, code, err = run_child(cli_cmd(argv, rss_path), out)
        wall += op_wall
        cpu += op_cpu
        if rss_path.exists():
            rss = max(rss, float(rss_path.read_text()))
        if code != 0:
            failures.append(f"{argv[0]} exited {code}: {err}")
        outputs.append(out.read_text())
    if not failures:
        failures = prep.check(outputs)
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "failures": failures}


def measure(prep: Prepared, work: Path, seconds: float) -> tuple[dict, dict]:
    """Repeat the operation beside the reference process, all on one CPU (see reference.py)."""
    ops, lengths = [], []
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        with reference.Reference() as ref:
            started = time.perf_counter()
            # start another operation only while a typical one still ends within the run
            while not ops or time.perf_counter() - started + statistics.median(lengths) <= seconds:
                t0 = time.perf_counter()
                chunks0, ref_cpu0 = ref.read()
                op = timed_op(prep, work)
                chunks1, ref_cpu1 = ref.read()
                if chunks1 == chunks0:
                    raise BenchError("the reference process made no progress during an operation")
                op["ref_chunk_s"] = (ref_cpu1 - ref_cpu0) / (chunks1 - chunks0)
                op["cpu_ref"] = op["cpu_s"] / op["ref_chunk_s"]
                ops.append(op)
                lengths.append(time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, cpus)
    wall = statistics.median(op["wall_s"] for op in ops)
    failed = sum(1 for op in ops if op["failures"])
    metrics = {
        "cpu_ref": statistics.median(op["cpu_ref"] for op in ops),
        "cpu_s": statistics.median(op["cpu_s"] for op in ops),
        "ref_chunk_ms": statistics.median(op["ref_chunk_s"] for op in ops) * 1000,
        "wall_s": wall,
        "digits_per_s": prep.digits / wall,
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in ops),
        "error_rate": failed / len(ops),
    }
    return metrics, {"attempted": len(ops), "failed": failed, "ops": ops}


# ------------------------------------------------------------ traced run


def measure_traced(prep: Prepared, work: Path, seconds: float, seed: int, spans_path: Path) -> tuple[dict, dict]:
    startup = [warm_up(work) for _ in range(STARTUP_PROBES)]
    request = {
        "mode": "library" if prep.params is not None else "cli",
        "traced": True,
        "seconds": seconds,
        "params": prep.params,
        "argvs": prep.argvs,
        "out_prefix": str(work / "traced-"),
        "spans_path": str(spans_path),
        "scaling": {**SCALING_PROBE, "seed": seed, "workers": cap_workers(2)},
    }
    cmd, resp = session_cmd(request, work)
    _, _, code, err = run_child(cmd, work / "session.out")
    if code != 0:
        raise BenchError(f"traced session exited {code}: {err.strip()}")
    response = json.loads(resp.read_text())
    pass_failures = response["failures"]
    for failures, paths in zip(pass_failures, response["outputs"]):
        if paths:
            failures += prep.check([Path(p).read_text() for p in paths])
    rounds = response["rounds"]
    counts = rounds[0]["counts"]
    # two further checks: counts repeat exactly, and the probe's summary ignores the worker count
    checks = [
        ["trace: counts differ between rounds"] if any(r["counts"] != counts for r in rounds) else [],
        [] if response["scaling"]["identical"] else ["simulate: summary depends on the worker count"],
    ]
    metrics = {key: statistics.median(r["metrics"][key] for r in rounds) for key in rounds[0]["metrics"]}
    metrics.update(counts)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["cli.startup_s"] = statistics.median(startup)
    drawn = metrics["simulate.digits_drawn"]
    metrics["simulate.ns_per_digit"] = metrics["simulate.experiment_s"] / drawn * 1e9 if drawn else 0.0
    scaling = response["scaling"]
    metrics["simulate.scaling_efficiency_w2"] = scaling["serial_s"] / (2 * scaling["parallel_s"])
    outcomes = pass_failures + checks
    failed = sum(1 for f in outcomes if f)
    metrics["error_rate"] = failed / len(outcomes)
    detail = {
        "attempted": len(outcomes),
        "failed": failed,
        "failures": [f for f in outcomes if f],
        "rounds": rounds,
        "scaling": scaling,
    }
    return metrics, detail


# ------------------------------------------------------------ provenance


def git_commit() -> str | None:
    """HEAD of a .git directory at the root, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "digitstats").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ------------------------------------------------------------------ main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args) -> dict:
    if not (ROOT / "src" / "digitstats" / "cli.py").is_file():
        raise BenchError(f"no digitstats package under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            prep = WORKLOADS[args.workload](args.seed, work)
            warm_up(work)
            setup_times.append(time.perf_counter() - t0)
        label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics, detail = measure_traced(prep, work, args.seconds, args.seed, results / f"SPANS_{label}.jsonl")
        else:
            metrics, detail = measure(prep, work, args.seconds)
        metrics["setup_s"] = statistics.median(setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics listed in BENCHMARK.json but not measured: {missing}")
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "commit": git_commit(),
            "source_sha256": source_digest(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "workers_cap": cap_workers(2),
        },
        "resolved_args": prep.args,
        "digits": prep.digits,
        "setup_samples_s": setup_times,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
        "error_rate": metrics["error_rate"],
        "all_metrics": metrics,
        **detail,
    }
    (results / f"BENCH_{label}.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for name, unit in INFORMATIONAL.items():
        if name in result["all_metrics"]:
            print(f"{name} = {result['all_metrics'][name]:.6g} {unit}")
    print(f"attempted = {result['attempted']}, failed = {result['failed']}")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
