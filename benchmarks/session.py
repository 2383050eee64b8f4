"""Child process that runs digitstats in-process for the benchmark.

Usage: python3 session.py REQUEST.json RESPONSE.json

The request selects a mode:

* ``library``: the paper-checks session (``paper_session``) as library
  calls. Untraced, it runs once and reports the wall and CPU time of
  the calls, the process's peak RSS and the oracle failures.
* ``cli``: ``digitstats.cli.run_cli(argv)`` for each argv, stdout going
  to a file. Only the traced run uses this mode. The timed CLI runs are
  separate ``python -m digitstats.cli`` processes.

A traced request repeats rounds while a typical round still ends within
``seconds``. Each round makes one untraced pass and one pass with the
wrappers of ``tracing.install`` in place, so the difference of the two
is the tracing overhead. Then a scaling probe times ``normality_experiment``
serially and with the requested worker count.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import sys
import time
import traceback
from fractions import Fraction

import oracles
import tracing
from cli_child import peak_rss_mb
from digitstats import cli, construct, core, simulate, stats


def paper_session(p: dict) -> dict:
    """The paper's exact checks, through the package's module attributes."""
    theta, x1, x2, eps = (Fraction(p[k]) for k in ("theta", "x1", "x2", "eps"))
    spec, stream = construct.construct_mean_without_frequency(theta, x1, x2, eps, p["blocks"])
    bounds = construct.block_boundaries(spec)
    rows = stats.running_stats(stream, sorted({d for d in bounds if d >= 1}))
    schedule = construct.build_oscillating_schedule(x1, x2, eps, p["blocks"])
    by_depth = {row.n: row for row in rows}
    v0_depths = [bounds[k - 1] for k in schedule.breakpoints if bounds[k - 1] >= 1]
    v0_verdict = stats.classify_limit([(d, by_depth[d].freqs[0]) for d in v0_depths])
    mean_verdict = stats.classify_limit([(row.n, row.mean) for row in rows])

    no_mean = construct.no_mean_example(p["no_mean_count"])
    no_mean_stream = core.DigitStream.from_digits(no_mean, 2)
    no_mean_rows = stats.running_stats(no_mean_stream, oracles.no_mean_one_run_ends(p["no_mean_count"]))

    profile = stats.FrequencyProfile(3, tuple(Fraction(t) for t in p["tau"]))
    quota = construct.quota_construct(profile, p["quota_count"])
    beatty = construct.beatty_construct(Fraction(p["beatty_a"]), Fraction(p["beatty_b"]), p["beatty_count"])

    big_expansion = core.expand_rational(1, p["big_q"], 10)
    expansion = core.expand_rational(p["round_trip_p"], p["round_trip_q"], 10)
    value = core.evaluate_expansion(expansion)
    parsed = core.parse_expansion(core.format_expansion(expansion))

    start, factor, max_depth = p["checkpoints"]
    checkpoints = stats.geometric_checkpoints(start, factor, max_depth)
    csv_text = stats.stats_to_csv(rows)
    return {
        "boundaries": bounds,
        "block_rows": rows,
        "v0_depths": v0_depths,
        "v0_verdict": v0_verdict,
        "mean_verdict": mean_verdict,
        "no_mean_rows": no_mean_rows,
        "quota": quota,
        "beatty": beatty,
        "big_expansion": big_expansion,
        "round_trip_expansion": expansion,
        "round_trip_value": value,
        "round_trip_parsed": parsed,
        "checkpoints": checkpoints,
        "csv": csv_text,
    }


def _cli_pass(argvs, out_paths) -> tuple[list[str], int]:
    """run_cli on each argv with stdout in a file; failures and bytes written."""
    failures = []
    for argv, path in zip(argvs, out_paths):
        with open(path, "w") as out, contextlib.redirect_stdout(out):
            code = cli.run_cli(argv)
        if code != 0:
            failures.append(f"run_cli({argv[0]}) exited {code}")
    return failures, sum(os.path.getsize(path) for path in out_paths)


def _input_bytes(argvs) -> int:
    return sum(
        os.path.getsize(argv[i + 1]) for argv in argvs for i, a in enumerate(argv) if a == "--digits-file"
    )


def _run_pass(request: dict, out_paths: list[str]):
    """One pass of the request's operations.

    Returns (failures, bytes written, library results or None). The
    caller checks library results after the pass, outside its timing. An
    exception from the package is that pass's failure; the other passes
    still run.
    """
    try:
        if request["mode"] == "cli":
            return (*_cli_pass(request["argvs"], out_paths), None)
        return [], 0, paper_session(request["params"])
    except Exception:
        return [traceback.format_exc(limit=-3)], 0, None


def traced_rounds(request: dict) -> dict:
    tracer = tracing.Tracer()
    rounds, outputs, failures = [], [], []  # outputs and failures: one list per pass
    started = time.perf_counter()
    index, lengths = 0, []
    # start another round only while a typical one still ends within the run
    while index == 0 or time.perf_counter() - started + statistics.median(lengths) <= request["seconds"]:
        round_started = time.perf_counter()
        walls, written = {}, 0
        # alternate which pass goes first, so warm-up effects do not bias the overhead
        for kind in ("untraced", "traced") if index % 2 == 0 else ("traced", "untraced"):
            paths = [f"{request['out_prefix']}{index}-{kind}-{i}.txt" for i in range(len(request["argvs"]))]
            outputs.append(paths)
            if kind == "traced":
                tracer.op += 1
                tracer.counts.clear()
                first_span = len(tracer.spans)
                uninstall = tracing.install(tracer)
                root = tracer.begin("op")
            t0 = time.perf_counter()
            try:
                pass_failures, pass_written, result = _run_pass(request, paths)
            finally:
                walls[kind] = time.perf_counter() - t0
                if kind == "traced":
                    tracer.end(root)
                    uninstall()
            if result is not None:
                pass_failures += oracles.check_paper(request["params"], result)
                del result
            if kind == "traced":
                written = pass_written
            failures.append(pass_failures)
        metrics = tracing.summarize(tracer.spans[first_span:], root)
        metrics["trace.untraced_wall_s"] = walls["untraced"]
        counts = dict.fromkeys(tracing.COUNTS, 0)
        counts.update(tracer.counts)
        counts["trace.spans"] = len(tracer.spans) - first_span
        counts["cli.input_bytes"] = _input_bytes(request["argvs"])
        counts["cli.output_bytes"] = written
        rounds.append({"metrics": metrics, "counts": counts})
        lengths.append(time.perf_counter() - round_started)
        index += 1
    with open(request["spans_path"], "w") as out:
        for span in tracer.spans:
            out.write(json.dumps(span) + "\n")
    return {
        "rounds": rounds,
        "outputs": outputs,
        "failures": failures,
        "scaling": scaling_probe(request["scaling"]),
    }


def scaling_probe(cfg: dict) -> dict:
    """normality_experiment serially and with cfg['workers'] workers."""
    config = simulate.ExperimentConfig(cfg["base"], cfg["depth"], cfg["trials"], cfg["seed"])
    times, summaries = [], []
    for workers in (1, cfg["workers"]):
        t0 = time.perf_counter()
        summaries.append(simulate.normality_experiment(config, Fraction(33, 1000), workers=workers))
        times.append(time.perf_counter() - t0)
    return {
        "workers": cfg["workers"],
        "serial_s": times[0],
        "parallel_s": times[1],
        "identical": summaries[0] == summaries[1],
    }


def main(request_path: str, response_path: str) -> None:
    with open(request_path) as f:
        request = json.load(f)
    if request["traced"]:
        response = traced_rounds(request)
    else:
        t0, c0 = time.perf_counter(), time.process_time()
        result = paper_session(request["params"])
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        failures = oracles.check_paper(request["params"], result)
        response = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb(), "failures": failures}
    with open(response_path, "w") as f:
        json.dump(response, f)


if __name__ == "__main__":
    main(*sys.argv[1:])
