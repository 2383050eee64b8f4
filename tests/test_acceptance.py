"""Acceptance gate: nine end-to-end criteria at their stated tolerances.

Each test prints exactly one PASS/FAIL line (visible with `pytest -s`)
and then asserts, so a red run still shows which criteria held.
"""

import random
import time
from fractions import Fraction as F
from math import lcm

from digitstats import (
    DigitStream,
    FrequencyProfile,
    Infeasible,
    Oscillating,
    beatty_construct,
    block_boundaries,
    build_oscillating_schedule,
    classify_limit,
    construct_mean_without_frequency,
    evaluate_expansion,
    expand_rational,
    floor_weighted_average,
    geometric_checkpoints,
    no_mean_example,
    no_mean_one_run_ends,
    no_mean_zero_run_ends,
    normality_experiment,
    quota_construct,
    running_stats,
    solve_ternary_system,
    summary_to_json,
    uniform_digits,
    with_prefix,
)
from digitstats import construct
from digitstats.simulate import ExperimentConfig


def _finish(label, failures, elapsed=None, budget=None):
    if elapsed is not None and budget is not None and elapsed >= budget:
        failures.append(f"runtime {elapsed:.2f}s exceeded {budget:.0f}s budget")
    status = "PASS" if not failures else "FAIL"
    timing = "" if elapsed is None else f" ({elapsed:.2f}s)"
    print(f"{status}: criterion {label}{timing}")
    assert not failures, "; ".join(failures)


def test_criterion_1_exact_identities():
    start = time.perf_counter()
    failures = []
    marks = geometric_checkpoints(10, 2, 10**4)
    for index in range(100):
        base = (2, 3, 5, 10)[index % 4]
        stream = DigitStream.from_digits(uniform_digits(base, 10**4, seed=1000 + index), base)
        for row in running_stats(stream, marks):
            if sum(row.freqs) != 1:
                failures.append(f"stream {index}: frequencies sum != 1 at n={row.n}")
                break
            if row.mean != sum(i * v for i, v in enumerate(row.freqs)):
                failures.append(f"stream {index}: mean identity broken at n={row.n}")
                break
    _finish(
        "1: mean/frequency identities hold with zero tolerance on 100 random streams",
        failures,
        time.perf_counter() - start,
        5.0,
    )


def test_criterion_2_rational_round_trip():
    start = time.perf_counter()
    failures = []
    rng = random.Random(424242)
    for _ in range(1000):
        q = rng.randint(3, 10**4)
        p = rng.randint(0, q - 1)
        base = rng.randint(2, 10)
        e = expand_rational(p, q, base)
        if evaluate_expansion(e) != F(p, q):
            failures.append(f"round trip failed for {p}/{q} base {base}")
            break
        if e.period == (base - 1,) * len(e.period):
            failures.append(f"non-canonical period for {p}/{q} base {base}")
            break
        if len(e.preperiod) + len(e.period) >= q:
            failures.append(f"expansion of {p}/{q} base {base} not shorter than q")
            break
    _finish(
        "2: 1000 rational expansions round-trip exactly, canonically, shorter than q",
        failures,
        time.perf_counter() - start,
        10.0,
    )


def test_criterion_3_floor_average_sandwich():
    start = time.perf_counter()
    failures = []
    n = 10**5
    for x in (F(1, 5), F(1, 3), F(3, 4), F(17, 12)):
        w = floor_weighted_average(x, 1, n)
        if not x - F(2, n + 1) < w <= x:
            failures.append(f"sandwich broken for x={x}")
        if abs(w - x) > F(2, 10**5):
            failures.append(f"|w - x| > 2e-5 for x={x}")
    _finish(
        "3: floor-weighted average sandwich x - 2/(n+1) < w <= x at n=1e5",
        failures,
        time.perf_counter() - start,
        2.0,
    )


def test_criterion_4_constructor_count_bounds():
    start = time.perf_counter()
    failures = []
    n = 10**5
    for a in (F(1, 3), F(29, 100), F(1, 2)):
        b = (1 - a) / 2
        zeros = 0
        ap, aq = a.numerator, a.denominator
        for m, digit in enumerate(beatty_construct(a, b, n), start=1):
            zeros += digit == 0
            if abs(zeros * aq - m * ap) > 2 * aq:
                failures.append(f"indicator rule: |N_0 - n*a| > 2 at n={m}, a={a}")
                break

        profile = FrequencyProfile(3, (a, b, 1 - a - b))
        scale = lcm(*(t.denominator for t in profile.tau))
        weights = [t.numerator * (scale // t.denominator) for t in profile.tau]
        slack = 2 * scale
        deficits = [0, 0, 0]
        counts = [0, 0, 0]
        for m, digit in enumerate(quota_construct(profile, n), start=1):
            # independent replay: incremental deficits instead of recomputation
            deficits[0] += weights[0]
            deficits[1] += weights[1]
            deficits[2] += weights[2]
            best = 0
            if deficits[1] > deficits[best]:
                best = 1
            if deficits[2] > deficits[best]:
                best = 2
            if best != digit:
                failures.append(f"quota replay disagrees at n={m}, a={a}")
                break
            deficits[best] -= scale
            counts[best] += 1
            if any(abs(counts[i] * scale - m * weights[i]) > slack for i in range(3)):
                failures.append(f"quota: some |N_i - n*tau_i| > 2 at n={m}, a={a}")
                break
    _finish(
        "4: constructor count bounds |N - n*target| <= 2 for all n <= 1e5",
        failures,
        time.perf_counter() - start,
        5.0,
    )


def test_quota_counts_repeat_with_their_period_so_one_period_bounds_every_depth():
    # Criterion 4's bound |N_i - n*tau_i| <= 2, checked over one period m, holds for every n:
    # the quota digits repeat their first m with every deficit back at 0, so
    # N_i(j*m + t) = N_i(t) + j*m*tau_i. Counted here at depths near 10**15.
    start = time.perf_counter()
    failures = []
    profiles = [
        FrequencyProfile(3, (F(1, 3), F(1, 3), F(1, 3))),
        FrequencyProfile(3, (F(7, 60), F(13, 60), F(2, 3))),
        FrequencyProfile(3, (F(0), F(29, 100), F(71, 100))),
        FrequencyProfile(12, tuple(F(k, 66) for k in range(12))),
    ]
    for profile in profiles:
        scale = lcm(*(t.denominator for t in profile.tau))
        counts, m = [0] * profile.base, 0
        for m, digit in enumerate(quota_construct(profile, 100 * scale), start=1):
            counts[digit] += 1
            if m % scale == 0 and all(c == m * t for c, t in zip(counts, profile.tau)):
                break
        else:
            failures.append(f"no period within {100 * scale} digits for tau={profile.tau}")
            continue
        j = 10**15 // m
        marks = list(range(1, m + 1)) + [j * m + t for t in range(m + 1)]
        rows = running_stats(construct._quota_stream(profile, marks[-1]), marks)
        near, far = rows[:m], rows[m:]
        if any(abs(c - row.n * t) > 2 for row in near for c, t in zip(row.counts, profile.tau)):
            failures.append(f"some |N_i - n*tau_i| > 2 within one period for tau={profile.tau}")
        for t, row in enumerate(far):
            at_t = rows[t - 1].counts if t else (0,) * profile.base
            if list(row.counts) != [c + j * m * tau for c, tau in zip(at_t, profile.tau)]:
                failures.append(f"counts at {j}*{m} + {t} are not those at {t} plus j*m*tau")
                break
    _finish(
        "4 (every n): quota counts at j*m + t are those at t plus j*m*tau, at depths near 1e15",
        failures,
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_5_block_construction():
    start = time.perf_counter()
    failures = []
    theta, x1, x2, eps, blocks = F(1), F(1, 5), F(2, 5), F(1, 20), 2000
    spec, stream = construct_mean_without_frequency(theta, x1, x2, eps, blocks)
    schedule = build_oscillating_schedule(x1, x2, eps, blocks)

    # (a) per-row linear identities, exact
    for alpha in spec.alphas:
        beta = 2 - 2 * alpha - theta
        gamma = alpha - 1 + theta
        if alpha + beta + gamma != 1 or beta + 2 * gamma != theta:
            failures.append(f"row identities broken at alpha={alpha}")
            break

    # (b) prefix sums of digit value and length against the triangular bounds.
    # Both prefix sums are empty (= 0) ahead of block 1, where the open lower
    # bound is vacuous; the strict sandwich applies from k = 2 on.
    digit_sum = 0
    length = 0
    for k in range(1, blocks + 1):
        t = (k - 1) * k // 2
        if k == 1:
            if digit_sum != 0 or length != 0:
                failures.append("nonzero sums ahead of the first block")
        else:
            if not theta * t - 3 * (k - 1) < digit_sum <= theta * t:
                failures.append(f"digit-sum sandwich broken at k={k}")
                break
            if not t - 3 * (k - 1) < length <= t:
                failures.append(f"length sandwich broken at k={k}")
                break
        zeros, ones, twos = spec.rows[k - 1]
        digit_sum += ones + 2 * twos
        length += zeros + ones + twos

    # (c) + (d) one stats pass over ~2e6 digits
    bounds = block_boundaries(spec)
    # the first breakpoint falls in the empty leading blocks (depth 0), where
    # no frequency exists; sample at the positive-depth breakpoints
    bp_depths = [bounds[k - 1] for k in schedule.breakpoints if bounds[k - 1] >= 1]
    marks = sorted(set(bp_depths + [bounds[-1]]))
    by_depth = {row.n: row for row in running_stats(stream, marks)}
    r_final = by_depth[bounds[-1]].mean
    if abs(r_final - theta) > F(2, 100):
        failures.append(f"final mean {float(r_final):.4f} not within 0.02 of {theta}")
    if F(digit_sum, length) != r_final:
        failures.append("row totals disagree with the counted digit mean")

    verdict = classify_limit([(d, by_depth[d].freqs[0]) for d in bp_depths])
    if not isinstance(verdict, Oscillating):
        failures.append(f"v0 at breakpoints classified {type(verdict).__name__}")
    elif verdict.limsup_estimate - verdict.liminf_estimate < F(5, 100):
        failures.append("v0 oscillation spread below 0.05")
    ws = schedule.w_at_breakpoints
    witness = x2 - x1 - 2 * eps  # = 1/10 here
    if any(abs(b - a) <= witness for a, b in zip(ws, ws[1:])):
        failures.append("consecutive breakpoint averages within the witness gap")
    _finish(
        "5: block construction (identities, sandwiches, mean within 0.02, oscillating v0)",
        failures,
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_6_infeasibility():
    failures = []
    for theta in (0, 2):
        try:
            construct_mean_without_frequency(theta, F(1, 5), F(2, 5), F(1, 20), 5)
            failures.append(f"theta={theta} was not rejected")
        except Infeasible:
            pass
    if solve_ternary_system(0, 2) != (0, 1):
        failures.append("solve_ternary_system(0, 2) != (0, 1)")
    _finish("6: theta in {0, 2} rejected as infeasible; boundary solution exact", failures)


def test_criterion_7_no_mean_example():
    start = time.perf_counter()
    failures = []
    limit = 10**6
    digits = no_mean_example(limit)
    zero_ends = no_mean_zero_run_ends(limit)
    one_ends = no_mean_one_run_ends(limit)
    marks = sorted(zero_ends + one_ends)
    by_depth = {row.n: row for row in running_stats(DigitStream.from_digits(digits, 2), marks)}
    for m in range(len(zero_ends) - 3, len(zero_ends)):
        r = by_depth[zero_ends[m]].mean
        if abs(r - F(1, 3)) > F(1, 100):
            failures.append(f"0-run end m={m}: mean {float(r):.4f} not within 0.01 of 1/3")
    for m in range(len(one_ends) - 3, len(one_ends)):
        r = by_depth[one_ends[m]].mean
        if r != F(2 ** (m + 1) - 1, 2 ** (m + 2) - 2):
            failures.append(f"1-run end m={m}: mean not the exact closed form")
        if abs(r - F(1, 2)) > F(1, 100):
            failures.append(f"1-run end m={m}: mean not within 0.01 of 1/2")
    verdict = classify_limit([(d, by_depth[d].mean) for d in marks])
    if not isinstance(verdict, Oscillating):
        failures.append(f"run-end means classified {type(verdict).__name__}")
    _finish(
        "7: no-mean example returns to 1/3 and 1/2 at run ends and is Oscillating",
        failures,
        time.perf_counter() - start,
        5.0,
    )


def test_criterion_8_monte_carlo(monkeypatch):
    start = time.perf_counter()
    failures = []
    cfg = ExperimentConfig(base=3, depth=10**4, trials=200, master_seed=42)
    band = F(33, 1000)
    summary = normality_experiment(cfg, band)
    if summary.fraction_in_band < F(99, 100):
        failures.append(f"only {float(summary.fraction_in_band):.3f} of trials in band")
    if abs(summary.mean - 1) > F(3, 1000):
        failures.append(f"sample mean {float(summary.mean):.5f} not within 0.003 of 1")
    rerun = normality_experiment(cfg, band)
    if rerun != summary or summary_to_json(rerun) != summary_to_json(summary):
        failures.append("identical seed did not reproduce bit-identical results")
    # a run this small takes the serial path whatever `workers` says; compare a real pool
    monkeypatch.setattr("digitstats.simulate._SERIAL_DRAWS", 0)
    parallel = normality_experiment(cfg, band, workers=4)
    if parallel != summary:
        failures.append("parallel execution differs from serial")
    _finish(
        "8: Monte Carlo concentration at (s-1)/2 with bit-identical reruns",
        failures,
        time.perf_counter() - start,
        10.0,
    )


def test_criterion_9_distinctness_and_prefix_invariance():
    start = time.perf_counter()
    failures = []
    # schedules whose target values differ by 1/20 must give themselves away
    # through some zero-run length within the first 20 blocks
    spec_a, _ = construct_mean_without_frequency(1, F(1, 5), F(2, 5), F(1, 20), 20)
    for x1, x2 in ((F(1, 4), F(9, 20)), (F(3, 20), F(7, 20))):
        spec_b, _ = construct_mean_without_frequency(1, x1, x2, F(1, 20), 20)
        if all(ra[0] == rb[0] for ra, rb in zip(spec_a.rows, spec_b.rows)):
            failures.append(f"({x1},{x2}) agrees with (1/5,2/5) on all 20 zero-run lengths")

    depth = 10**5
    _, stream = construct_mean_without_frequency(1, F(1, 5), F(2, 5), F(1, 20), 460)
    if stream.length < depth:
        failures.append("reference stream shorter than 1e5 digits")
    else:
        base_mean = running_stats(stream, [depth])[0].mean
        # the shift in r at fixed depth is (prefix digit sum - displaced tail
        # sum)/depth, monotone in the prefix sum, so the all-0 and all-2
        # prefixes are the extreme cases and passing them covers every prefix
        for prefix in ([0] * 20, [2] * 20, ([0, 1, 2] * 7)[:20]):
            mean = running_stats(with_prefix(prefix, stream), [depth])[0].mean
            if abs(mean - base_mean) > F(4, 10**4):
                failures.append(f"prefix {prefix[:3]}... moved the mean beyond 4e-4")
                break
    _finish(
        "9: gap-separated schedules diverge early; 20-digit prefixes move r by <= 4e-4",
        failures,
        time.perf_counter() - start,
        10.0,
    )
