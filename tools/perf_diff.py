#!/usr/bin/env python3
"""Compare two benchmark JSON files produced by the bench binaries.

Usage:
    python3 tools/perf_diff.py BASELINE CURRENT [--threshold PCT] [--strict]

Supported schemas (both files must carry the same one):
    capr-kernel-bench-v1   bench_gemm / bench_conv, metric: gflops
    capr-serve-bench-v1    bench_serve (closed loop only), metric: qps
    capr-serve-bench-v2    bench_serve incl. open-loop latency-under-load
                           rows ("open/...") and per-variant saturation
                           rows ("sat/...", qps = peak sustained
                           throughput), metric: qps
    capr-tournament-v1     capr-tournament pruning-strategy frontier
                           rows ("tournament/<arch>/<strategy>", qps =
                           measured saturation throughput), metric: qps

Matches results by benchmark name and reports the metric delta for each.
A drop larger than --threshold percent (default 20) is flagged as a
regression. By default regressions only WARN (exit 0) because CI runners
have noisy clocks; --strict makes them fail the step (exit 1).

Benchmarks present in only one file are listed but never fatal — the
sweep grows over time and smoke runs are a subset of the full sweep.
"""

import argparse
import json
import sys

# schema -> (higher-is-better metric key, unit suffix for the table)
SCHEMAS = {
    "capr-kernel-bench-v1": ("gflops", "G"),
    "capr-serve-bench-v1": ("qps", "/s"),
    "capr-serve-bench-v2": ("qps", "/s"),
    "capr-tournament-v1": ("qps", "/s"),
}


def load_doc(path):
    with open(path) as f:
        doc = json.load(f)
    schema = doc.get("schema")
    if schema not in SCHEMAS:
        sys.exit(f"{path}: unexpected schema {schema!r}")
    return schema, {r["name"]: r for r in doc.get("results", [])}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=20.0,
                    help="regression threshold in percent (default 20)")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 on regression instead of warning")
    args = ap.parse_args()

    base_schema, base = load_doc(args.baseline)
    curr_schema, curr = load_doc(args.current)
    if base_schema != curr_schema:
        sys.exit(f"schema mismatch: {args.baseline} is {base_schema}, "
                 f"{args.current} is {curr_schema}")
    metric, unit = SCHEMAS[base_schema]

    common = sorted(set(base) & set(curr))
    if not common:
        print("perf_diff: no common benchmarks between the two files")
        return 0

    width = max(len(n) for n in common)
    regressions = []
    print(f"{'benchmark':<{width}}  {'base':>9}  {'curr':>9}  {'delta':>8}")
    for name in common:
        b, c = base[name][metric], curr[name][metric]
        delta = (c - b) / b * 100.0 if b > 0 else 0.0
        mark = ""
        if delta < -args.threshold:
            mark = "  << REGRESSION"
            regressions.append((name, delta))
        print(f"{name:<{width}}  {b:>8.2f}{unit}  {c:>8.2f}{unit}  {delta:>+7.1f}%{mark}")

    for name in sorted(set(base) - set(curr)):
        print(f"{name:<{width}}  (baseline only)")
    for name in sorted(set(curr) - set(base)):
        print(f"{name:<{width}}  (current only)")

    if regressions:
        print(f"\nperf_diff: {len(regressions)} benchmark(s) regressed more than "
              f"{args.threshold:.0f}% {metric} vs baseline")
        if args.strict:
            return 1
        print("perf_diff: warning only (pass --strict to fail)")
    else:
        print(f"\nperf_diff: no regression beyond {args.threshold:.0f}% "
              f"on {len(common)} common benchmark(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
