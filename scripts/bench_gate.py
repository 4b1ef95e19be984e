#!/usr/bin/env python3
"""Perf-regression gate over the micro-benchmark --bench_json records.

The micro binaries (bench_micro_event_queue, bench_micro_trace_overhead)
append one record per run to a JSON array; each record carries a "rates"
object of per-benchmark items/s. CI runs the binaries several rounds,
interleaved, into one candidate file, then calls this script to compare the
per-benchmark *medians* against the committed baseline:

  scripts/bench_gate.py check --baseline bench/perf_gate_baseline.json \
      --candidate /tmp/gate.json [--threshold 0.15]

A benchmark fails the gate when its normalized candidate median drops more
than the threshold below the baseline. Normalization is the machine-noise
guard: every micro binary carries BM_CalibrationSpin, a fixed pure-ALU
workload independent of repo code; the candidate/baseline calibration ratio
estimates how fast this machine is running relative to the machine that
recorded the baseline, and candidate rates are divided by it before the
comparison. A benchmark present in the baseline but missing from the
candidate is a failure (coverage must not silently shrink); one present
only in the candidate is a warning to refresh the baseline.

Refreshing the baseline after an intentional perf change:

  scripts/bench_gate.py write-baseline --baseline bench/perf_gate_baseline.json \
      --candidate /tmp/gate.json

and commit the updated file (see README.md, "perf gate"). write-baseline
refuses a candidate that lacks a binary the current baseline gates, the
same coverage rule check applies.
"""

import argparse
import json
import statistics
import sys

CALIBRATION = "BM_CalibrationSpin"

# A calibration ratio outside this band means the machine differs too much
# from the baseline machine (or the run was badly disturbed) for a 15%-class
# comparison to mean anything; the gate degrades to a loud warning + pass so
# exotic runners don't spuriously block merges.
CALIBRATION_SANE_LOW = 0.25
CALIBRATION_SANE_HIGH = 4.0


def load_rates(path):
    """path -> {binary: {benchmark: [rate, ...]}} across interleaved rounds."""
    with open(path, encoding="utf-8") as fh:
        records = json.load(fh)
    if not isinstance(records, list):
        raise SystemExit(f"bench_gate: {path} is not a JSON array")
    rates = {}
    for record in records:
        per_binary = rates.setdefault(record.get("name", "?"), {})
        for bench, rate in record.get("rates", {}).items():
            per_binary.setdefault(bench, []).append(float(rate))
    return rates


def medians(rates):
    return {
        binary: {bench: statistics.median(values) for bench, values in per.items()}
        for binary, per in rates.items()
    }


def write_baseline(args):
    candidate = medians(load_rates(args.candidate))
    if not candidate:
        raise SystemExit(f"bench_gate: no rates in {args.candidate}")
    # Same coverage rule as check: a binary the current baseline gates must
    # not silently drop out because the refresh run skipped it.
    try:
        with open(args.baseline, encoding="utf-8") as fh:
            current = json.load(fh)["binaries"]
    except FileNotFoundError:
        current = {}
    missing = sorted(set(current) - set(candidate))
    if missing:
        raise SystemExit(
            f"bench_gate: {args.candidate} has no records for "
            f"{', '.join(missing)}, which {args.baseline} gates; run every "
            "gated binary (see README.md, \"perf gate\")"
        )
    for binary, per in candidate.items():
        if CALIBRATION not in per:
            raise SystemExit(
                f"bench_gate: {binary} records carry no {CALIBRATION}; "
                "baseline would be unnormalizable"
            )
    with open(args.baseline, "w", encoding="utf-8") as fh:
        json.dump({"binaries": candidate}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    total = sum(len(per) for per in candidate.values())
    print(f"bench_gate: wrote baseline {args.baseline} "
          f"({len(candidate)} binaries, {total} benchmarks)")
    return 0


def check(args):
    with open(args.baseline, encoding="utf-8") as fh:
        baseline = json.load(fh)["binaries"]
    candidate = medians(load_rates(args.candidate))

    failures = []
    warnings = []
    for binary, base_per in sorted(baseline.items()):
        cand_per = candidate.get(binary)
        if cand_per is None:
            failures.append(f"{binary}: no candidate records")
            continue

        base_cal = base_per.get(CALIBRATION)
        cand_cal = cand_per.get(CALIBRATION)
        if not base_cal or not cand_cal:
            failures.append(f"{binary}: {CALIBRATION} missing; cannot normalize")
            continue
        cal_ratio = cand_cal / base_cal
        normalizing = True
        if not CALIBRATION_SANE_LOW <= cal_ratio <= CALIBRATION_SANE_HIGH:
            warnings.append(
                f"{binary}: calibration ratio {cal_ratio:.2f} outside "
                f"[{CALIBRATION_SANE_LOW}, {CALIBRATION_SANE_HIGH}] — machine "
                "too different from baseline; comparison skipped"
            )
            normalizing = False

        for bench, base_rate in sorted(base_per.items()):
            if bench == CALIBRATION:
                continue
            cand_rate = cand_per.get(bench)
            if cand_rate is None:
                failures.append(f"{binary}/{bench}: missing from candidate")
                continue
            if not normalizing:
                continue
            normalized = cand_rate / cal_ratio
            ratio = normalized / base_rate
            verdict = "ok"
            if ratio < 1.0 - args.threshold:
                verdict = "REGRESSION"
                failures.append(
                    f"{binary}/{bench}: {normalized:.3g} vs baseline "
                    f"{base_rate:.3g} items/s ({(1.0 - ratio) * 100:.1f}% down, "
                    f"threshold {args.threshold * 100:.0f}%)"
                )
            print(f"  {binary}/{bench}: {ratio * 100:6.1f}% of baseline "
                  f"(cal ratio {cal_ratio:.2f}) {verdict}")

        for bench in sorted(set(cand_per) - set(base_per)):
            warnings.append(
                f"{binary}/{bench}: not in baseline — refresh it "
                "(scripts/bench_gate.py write-baseline)"
            )

    for warning in warnings:
        print(f"bench_gate: WARNING: {warning}", file=sys.stderr)
    if failures:
        for failure in failures:
            print(f"bench_gate: FAIL: {failure}", file=sys.stderr)
        return 1
    print("bench_gate: pass")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="compare candidate against baseline")
    p_check.add_argument("--baseline", required=True)
    p_check.add_argument("--candidate", required=True)
    p_check.add_argument("--threshold", type=float, default=0.15,
                         help="max allowed fractional drop (default 0.15)")
    p_check.set_defaults(func=check)

    p_write = sub.add_parser("write-baseline",
                             help="record candidate medians as the baseline")
    p_write.add_argument("--baseline", required=True)
    p_write.add_argument("--candidate", required=True)
    p_write.set_defaults(func=write_baseline)

    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
