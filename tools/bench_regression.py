#!/usr/bin/env python3
"""Soft benchmark-regression check for suite --bench reports.

Compares the fresh report (e.g. BENCH_PR4.json) against a committed
baseline (e.g. BENCH_PR3.json) and prints a verdict per metric. The
check is *soft* for measurements: CI wall-clock numbers are noisy, so
regressions are reported as warnings. Deterministic facts and same-run
ratios are hard: the analytic search probe must scan exactly 1,048,576
points, short-list 8 candidates and find the baseline's feasible count;
the event kernel must reproduce the cycle kernel's statistics in the
low-utilization and saturated Bernoulli probes and beat it by at least
5x on the saturated long-burst lineup; otherwise the script exits 1.
The other hard gates (byte-identity of result documents) live in the
suite binary itself. Baselines from older report formats (e.g. with
the retired `tlm` section) are accepted; their extra keys are ignored.

Usage: bench_regression.py CURRENT.json BASELINE.json
"""

import json
import sys

# Wall-clock comparisons tolerate this much slowdown before warning.
NOISE_TOLERANCE = 0.25

# Kernel probes (`kernel_lowutil`, `kernel_saturated`): one floor each,
# soft, with the probe's statistics-equality flag hard. On the
# mostly-idle workload the event kernel must beat the cycle kernel by
# at least this factor (the PR-7 acceptance target; measured ~20x).
LOWUTIL_MIN_SPEEDUP = 10.0
# On the saturated Bernoulli workload the sources draw ahead to their
# next arrival, so the event kernel batches between arrivals; it should
# beat the cycle kernel by at least this factor. Measured ~1.3x, so it
# warns: the cycle kernel's horizon-aware poll loop skips the same
# polls, and an arrival every few cycles keeps the batches short.
SATURATED_MIN_SPEEDUP = 1.5

# Saturated hot-path throughput (cycles/sec per protocol, the `hot`
# section) may drop this far against the baseline before warning.
HOT_NOISE_TOLERANCE = 0.25

# Event-kernel gate (the `event` section). On the saturated long-burst
# lineup, TDMA included, the event kernel must beat the cycle kernel of
# the same run by at least this factor (the PR-9 fleet floor; measured
# ~12x), with every protocol's statistics hard-asserted equal inside
# the suite binary. A same-run ratio, so the gate is hard.
EVENT_MIN_SPEEDUP = 5.0

# Analytic-model gates (the `analytic` section, PR-8). Validation-grid
# error ceilings leave headroom over the measured quick-suite numbers
# (share max ~0.014 / mean ~0.003; latency rel max ~0.51 / mean ~0.16 —
# the worst latency cells are TDMA, whose slot-alignment wait is an
# upper bound) without letting the model drift into a different regime.
#
# The share-max ceiling is deliberately tight: the committed quick
# (60k-cycle) window measures 0.0141 — the oft-quoted 0.0068 is the
# full 200k-cycle window's number, not a drifted one (both PR-8 and
# PR-9 artifacts record identical 0.0141 digits) — and 0.02 means a
# silent doubling of the quick-window error trips the gate instead of
# hiding under a slack ceiling.
ANALYTIC_MAX_SHARE_ABS_ERROR = 0.02
ANALYTIC_MEAN_SHARE_ABS_ERROR = 0.02
ANALYTIC_MAX_LATENCY_REL_ERROR = 1.0
ANALYTIC_MEAN_LATENCY_REL_ERROR = 0.40
# The search probe's deterministic facts (hard): four masters x tickets
# 1..=32 is exactly 2^20 points, and its short list is full. Its
# feasible count must equal the baseline's.
ANALYTIC_SEARCH_POINTS = 1_048_576
ANALYTIC_SEARCH_SHORTLISTED = 8
# The scan's wall clock stays informational: a warning above the PR-8
# acceptance bound (measured ~0.1s).
ANALYTIC_MAX_SEARCH_WALL_SECS = 5.0
# The validation grid must keep comparing a healthy number of cells —
# a shrinking grid would hollow the error ceilings out silently.
ANALYTIC_MIN_SHARE_CELLS = 50
ANALYTIC_MIN_LATENCY_CELLS = 15


def load(path):
    with open(path) as handle:
        return json.load(handle)


def check_kernel_probe(name, probe, floor, warn, fail):
    """Gate one kernel probe: exactness (hard) and its speed floor (soft)."""
    if probe is None:
        warn(f"report lacks {name} (old report format?)")
        return
    if probe.get("byte_identical") is not True:
        fail(f"{name}: event kernel statistics differ from the cycle kernel's")
    speedup = probe.get("speedup")
    if speedup is None:
        warn(f"{name} lacks speedup")
    elif speedup < floor:
        warn(f"{name} speedup is {speedup:.2f}x (want >= {floor:.1f}x)")
    else:
        print(f"ok: {name} speedup {speedup:.2f}x (exact)")


def check_event(event, fail):
    """Gate the event probe: exactness and the same-run speedup, hard."""
    if event.get("byte_identical") is not True:
        fail("event probe statistics differ from the cycle kernel's")
    speedup = event.get("aggregate_speedup")
    protocols = len(event.get("protocols", []))
    if speedup is None:
        fail("event section lacks aggregate_speedup")
    elif speedup < EVENT_MIN_SPEEDUP:
        fail(
            f"event kernel aggregate speedup is {speedup:.2f}x over {protocols} protocols "
            f"(want >= {EVENT_MIN_SPEEDUP:.1f}x vs the cycle kernel)"
        )
    else:
        print(f"ok: event kernel {speedup:.2f}x over {protocols} protocols (exact)")


def check_analytic(analytic, baseline_analytic, warn, fail):
    """Gate the analytic model's validation-grid error and search probe.

    The probe's point, feasible and short-list counts are deterministic,
    so a mismatch is a hard failure, not a noise warning.
    """
    validation = analytic.get("validation", {})
    for key, ceiling in (
        ("share_max_abs_error", ANALYTIC_MAX_SHARE_ABS_ERROR),
        ("share_mean_abs_error", ANALYTIC_MEAN_SHARE_ABS_ERROR),
        ("latency_max_rel_error", ANALYTIC_MAX_LATENCY_REL_ERROR),
        ("latency_mean_rel_error", ANALYTIC_MEAN_LATENCY_REL_ERROR),
    ):
        value = validation.get(key)
        if value is None:
            warn(f"analytic.validation lacks {key}")
        elif value > ceiling:
            warn(f"analytic {key} is {value:.4f} (ceiling {ceiling:.2f})")
        else:
            print(f"ok: analytic {key} {value:.4f} <= {ceiling:.2f}")
    for key, floor in (
        ("share_cells", ANALYTIC_MIN_SHARE_CELLS),
        ("latency_cells", ANALYTIC_MIN_LATENCY_CELLS),
    ):
        value = validation.get(key)
        if value is None:
            warn(f"analytic.validation lacks {key}")
        elif value < floor:
            warn(f"analytic validation grid has only {value} {key} (floor {floor})")
        else:
            print(f"ok: analytic validation grid compares {value} {key}")

    search = analytic.get("search", {})
    points = search.get("points")
    wall = search.get("wall_secs")
    feasible = search.get("feasible")
    baseline_feasible = ((baseline_analytic or {}).get("search") or {}).get("feasible")
    for key, value, want in (
        ("points", points, ANALYTIC_SEARCH_POINTS),
        ("shortlisted", search.get("shortlisted"), ANALYTIC_SEARCH_SHORTLISTED),
        ("feasible", feasible, baseline_feasible),
    ):
        if want is None:
            print(f"info: analytic search {key} {value} (no baseline)")
        elif value != want:
            fail(f"analytic search {key} is {value}, want exactly {want}")
        else:
            print(f"ok: analytic search {key} {value} (exact)")
    if points is None or wall is None:
        warn("analytic.search lacks points/wall_secs")
        return
    if wall > ANALYTIC_MAX_SEARCH_WALL_SECS:
        warn(
            f"analytic search took {wall:.3f}s for {points} points "
            f"(ceiling {ANALYTIC_MAX_SEARCH_WALL_SECS:.1f}s)"
        )
    else:
        print(
            f"ok: analytic search scanned {points} points in {wall:.3f}s "
            f"({points / max(wall, 1e-12) / 1e6:.1f}M points/s, single-threaded)"
        )


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 0
    current = load(argv[1])
    try:
        baseline = load(argv[2])
    except OSError as error:
        print(f"note: no baseline ({error}); skipping wall-clock comparison")
        baseline = None

    warnings = 0
    failures = 0

    def warn(message):
        nonlocal warnings
        warnings += 1
        print(f"WARNING: {message}")

    def fail(message):
        nonlocal failures
        failures += 1
        print(f"FAIL: {message}")

    if baseline is not None:
        for key in (
            "serial_wall_secs",
            "parallel_wall_secs",
            "metrics_serial_wall_secs",
            "scenario_suite_wall_secs",
        ):
            if key not in current or key not in baseline:
                continue
            was, now = baseline[key], current[key]
            if was > 0 and now > was * (1 + NOISE_TOLERANCE):
                warn(f"{key} regressed: {was:.3f}s -> {now:.3f}s")
            else:
                print(f"ok: {key} {was:.3f}s -> {now:.3f}s")

    # Scenario-suite bench documents carry only wall-clock keys; the
    # kernel and hot-path sections below apply to suite --bench reports.
    is_suite_report = any(
        key in current for key in ("kernel_lowutil", "kernel_saturated", "hot")
    )
    if not is_suite_report:
        if warnings:
            print(f"{warnings} warning(s); soft check, exiting 0")
        else:
            print("benchmark comparison clean")
        return 0

    for name, floor in (
        ("kernel_lowutil", LOWUTIL_MIN_SPEEDUP),
        ("kernel_saturated", SATURATED_MIN_SPEEDUP),
    ):
        check_kernel_probe(name, current.get(name), floor, warn, fail)

    suite = current.get("kernel_suite_speedup")
    if suite is not None:
        print(f"info: whole-suite event-kernel speedup {suite:.2f}x")

    analytic = current.get("analytic")
    if analytic is None:
        # Pre-PR8 reports (e.g. the PR7 baseline re-checked in CI) have
        # no analytic section; only warn for fresh reports that should.
        print("note: report has no analytic section (pre-PR8 format)")
    else:
        check_analytic(analytic, (baseline or {}).get("analytic"), warn, fail)

    event = current.get("event")
    if event is None:
        # Reports from before the event kernel (e.g. the committed
        # baselines re-checked in CI) have no event section.
        print("note: report has no event section (pre-event-kernel format)")
    else:
        check_event(event, fail)

    hot = current.get("hot", {}).get("protocols")
    if hot is None:
        warn("report lacks the hot-path lineup (old report format?)")
    else:
        baseline_hot = (baseline or {}).get("hot", {}).get("protocols", {})
        for name, probe in hot.items():
            now = probe.get("cycles_per_sec")
            if now is None:
                warn(f"hot.{name} lacks cycles_per_sec")
                continue
            was = baseline_hot.get(name, {}).get("cycles_per_sec")
            if was is None:
                print(f"info: hot {name} {now / 1e6:.2f}M cycles/s (no baseline)")
            elif was > 0 and now < was * (1 - HOT_NOISE_TOLERANCE):
                warn(
                    f"hot {name} regressed: {was / 1e6:.2f}M -> {now / 1e6:.2f}M cycles/s"
                )
            else:
                print(f"ok: hot {name} {was / 1e6:.2f}M -> {now / 1e6:.2f}M cycles/s")

    if failures:
        print(f"{failures} hard failure(s), {warnings} warning(s); exiting 1")
        return 1
    if warnings:
        print(f"{warnings} warning(s); soft check, exiting 0")
    else:
        print("benchmark comparison clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
