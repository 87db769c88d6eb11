#!/usr/bin/env python3
"""Throughput gate for the engine fast path (DESIGN.md section 12).

Reads a bench_sim_throughput ``--json-out`` report and enforces two
invariants:

  1. Speedup ratio (host-independent, the hard gate): on the 64-processor
     hierarchical CFM configuration, fast-path-on at span 64 must deliver
     at least ``--min-speedup`` (default 5x) the cycles/second of
     fast-path-off on the same host, same binary, same run.

     The ratio is decided per repetition: the raw rows of the two
     benchmarks are paired by ``repetition_index`` (the k-th raw row of
     each when a report has no such field), and the gate reads the
     median of the per-pair ratios and prints their min and quartiles.
     Run with --benchmark_repetitions=N and
     --benchmark_enable_random_interleaving=true, a pair's two samples
     come from the same stretch of a noisy host, so host drift cancels
     in each ratio; two medians taken from separate stretches did not
     (an unchanged build read 4.27-4.88x against the 5x floor).  The
     telemetry-overhead bound is decided the same way.

  2. Absolute regression (host-dependent, the trend gate): every
     benchmark present in the committed baseline
     (bench/baselines/sim_throughput.json) must stay within
     ``--tolerance`` (default 15%) of its baseline items_per_second.
     This catches "the fast path still wins its ratio but everything got
     slower" regressions.  Because the baseline is tied to the host class
     it was recorded on, refresh it whenever the benchmark set, machine
     configuration, or reference hardware changes:

         ./build/bench/bench_sim_throughput \
             --benchmark_filter=BM_FastPath \
             --json-out report.json
         python3 tools/check_throughput.py report.json --update

     and commit the updated baseline alongside the change that moved the
     numbers.

Exit status: 0 = all gates pass, 1 = a gate failed, 2 = bad input.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SERIAL_OFF = "BM_FastPathHierarchical/0/1/real_time"
SERIAL_FAST_SPAN64 = "BM_FastPathHierarchical/1/64/real_time"
TELEMETRY_OFF = "BM_TelemetryOverhead/0/real_time"
TELEMETRY_ON = "BM_TelemetryOverhead/1/real_time"


def load_rates(path: Path) -> tuple[dict[str, float],
                                     dict[str, dict[int, float]]]:
    """Return ({name: items_per_second}, {name: {repetition: raw rate}}).

    A report run with --benchmark_repetitions=N carries N raw rows per
    benchmark plus mean/median/stddev aggregate rows; the "_median"
    aggregate is the benchmark's rate then, because one raw sample on a
    shared runner can be off by tens of percent.  A single-sample report
    (the committed baseline) has raw rows only; a repeated name without
    a median falls back to the median of its raw rows.
    """
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"check_throughput: cannot read {path}: {err}")
    runs = doc.get("tables", {}).get("runs", [])
    raw: dict[str, list[float]] = {}
    reps: dict[str, dict[int, float]] = {}
    medians: dict[str, float] = {}
    for row in runs:
        name = row.get("name")
        rate = row.get("items_per_second")
        if not isinstance(name, str) or not isinstance(rate, (int, float)):
            continue
        aggregate = row.get("aggregate")
        if aggregate is None:
            samples = raw.setdefault(name, [])
            rep = row.get("repetition_index", len(samples))
            reps.setdefault(name, {})[int(rep)] = float(rate)
            samples.append(float(rate))
        elif aggregate == "median":
            medians[name.removesuffix("_median")] = float(rate)
    rates = {name: statistics.median(samples)
             for name, samples in raw.items()}
    rates.update(medians)
    if not rates:
        sys.exit(f"check_throughput: {path} has no usable runs "
                 "(expected tables.runs rows with items_per_second)")
    return rates, reps


def pair_ratios(reps: dict[str, dict[int, float]], num: str,
                den: str) -> list[float] | None:
    """num/den rate ratios of the repetitions both benchmarks ran, or
    None when they share none."""
    if num not in reps or den not in reps:
        return None
    common = sorted(set(reps[num]) & set(reps[den]))
    ratios = [reps[num][i] / reps[den][i] for i in common
              if reps[den][i] > 0]
    return ratios or None


def spread(values: list[float], fmt) -> str:
    """`n pairs, min .., quartiles ..-..` for a list of per-pair values."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return (f"{len(values)} pairs, min {fmt(min(values))}, "
            f"quartiles {fmt(q1)}-{fmt(q3)}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("report", type=Path,
                        help="bench_sim_throughput --json-out report")
    parser.add_argument("--baseline", type=Path,
                        default=Path(__file__).resolve().parent.parent /
                        "bench" / "baselines" / "sim_throughput.json",
                        help="committed baseline report (default: "
                             "bench/baselines/sim_throughput.json)")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="required serial fast/off ratio at span 64")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="max fractional regression vs baseline")
    parser.add_argument("--max-telemetry-overhead", type=float, default=0.25,
                        help="max fractional cycles/sec cost of the flight "
                             "recorder (telemetry-on vs telemetry-off)")
    parser.add_argument("--update", "--update-baseline", action="store_true",
                        dest="update",
                        help="overwrite the baseline with this report "
                             "and exit (no gates checked)")
    args = parser.parse_args()

    rates, reps = load_rates(args.report)

    if args.update:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(
            json.dumps(json.loads(args.report.read_text()), indent=4,
                       sort_keys=True) + "\n")
        print(f"baseline refreshed: {args.baseline}")
        return 0

    failed = False

    # --- Gate 1: host-independent speedup ratio --------------------------
    ratios = pair_ratios(reps, SERIAL_FAST_SPAN64, SERIAL_OFF)
    if ratios is None:
        print(f"FAIL  span=64: missing runs ({SERIAL_FAST_SPAN64} / "
              f"{SERIAL_OFF})")
        failed = True
    else:
        ratio = statistics.median(ratios)
        ok = ratio >= args.min_speedup
        if not ok:
            failed = True
        print(f"{'ok  ' if ok else 'FAIL'}  span=64: fast/off speedup "
              f"{ratio:.2f}x, median of "
              f"{spread(ratios, lambda v: f'{v:.2f}x')} "
              f"(floor {args.min_speedup:.1f}x)")

    # --- Gate 1b: telemetry overhead bound -------------------------------
    # Also a same-host ratio: the flight recorder (DESIGN.md section 14)
    # must cost at most --max-telemetry-overhead of the busy-machine
    # cycles/sec it observes.  Skipped when the report was filtered down
    # to a benchmark set that does not include the pair.
    if TELEMETRY_ON in rates or TELEMETRY_OFF in rates:
        ratios = pair_ratios(reps, TELEMETRY_ON, TELEMETRY_OFF)
        if ratios is None:
            print("FAIL  telemetry: missing runs "
                  f"({TELEMETRY_ON} / {TELEMETRY_OFF})")
            failed = True
        else:
            overheads = [1.0 - r for r in ratios]
            overhead = statistics.median(overheads)
            ok = overhead <= args.max_telemetry_overhead
            if not ok:
                failed = True
            print(f"{'ok  ' if ok else 'FAIL'}  telemetry: recorder overhead "
                  f"{overhead:+.1%}, median of "
                  f"{spread(overheads, lambda v: f'{v:+.1%}')} "
                  f"(budget {args.max_telemetry_overhead:.0%})")

    # --- Gate 2: absolute regression vs committed baseline ---------------
    # Coverage must match in BOTH directions.  A benchmark present in the
    # baseline but missing from the live report means the gate lost a
    # regression tripwire; a benchmark present in the report but missing
    # from the baseline means it runs with NO tripwire at all — both used
    # to slip through silently (the loop below only walked the baseline).
    base, _ = load_rates(args.baseline)
    coverage_gap = False
    for name in sorted(set(base) - set(rates)):
        print(f"FAIL  baseline benchmark missing from report: {name}")
        coverage_gap = failed = True
    for name in sorted(set(rates) - set(base)):
        print(f"FAIL  report benchmark missing from baseline: {name} "
              "(it would run ungated)")
        coverage_gap = failed = True
    width = max(len(n) for n in base)
    print(f"\n{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  "
          f"{'delta':>8}")
    for name in sorted(base):
        if name not in rates:
            print(f"{name:<{width}}  {base[name]:>12.3e}  {'missing':>12}  "
                  f"{'FAIL':>8}")
            continue
        delta = (rates[name] - base[name]) / base[name]
        flag = "" if delta >= -args.tolerance else "  <-- regression"
        if delta < -args.tolerance:
            failed = True
        print(f"{name:<{width}}  {base[name]:>12.3e}  {rates[name]:>12.3e}  "
              f"{delta:>+7.1%}{flag}")

    if failed:
        msg = ("\nthroughput gate FAILED (see rows above); to accept a new "
               "performance floor, refresh the baseline with\n"
               f"    python3 tools/check_throughput.py {args.report} "
               "--update-baseline\nand commit it")
        if coverage_gap:
            msg += ("\n(coverage mismatch: the benchmark sets in the report "
                    "and the committed baseline differ — refreshing the "
                    "baseline realigns them; if a benchmark disappeared "
                    "unintentionally, fix the benchmark filter instead)")
        print(msg, file=sys.stderr)
        return 1
    print("\nthroughput gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
