#!/usr/bin/env python3
"""Builds and runs the capr benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds perfbench/ (and the capr libraries from src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) if needed,
then runs one workload; the last stdout line is the result object. The
second form runs every workload briefly, traced and untraced, and checks
that every metric in BENCHMARK.json is printed with its unit and that the
correctness checks pass. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = "3"


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures (once) and builds capr-perfbench; returns its path."""
    out = build_dir()
    binary = os.path.join(out, "capr-perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "capr-perfbench", "-j", BUILD_JOBS],
                   check=True, stdout=sys.stderr)
    return binary


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (result object, info object)."""
    os.makedirs(os.path.join(build_dir(), "traces"), exist_ok=True)
    trace_out = os.path.join(build_dir(), "traces", f"{workload}-seed{seed}.json")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]), json.loads(lines[-2])["perfbench_info"]


def smoke(binary):
    """Seconds-long run of every workload; checks names, units, correctness."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, info = run_once(binary, workload, 1, 2, trace)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = []
            if got != want:
                problems.append(f"metrics differ: missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, units "
                                f"{sorted(k for k in want if k in got and got[k] != want[k])}")
            # failed counts phases still late after their re-runs too.
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"correct={result['correct']} failed={result['failed']}")
            reruns = {k: v["reruns"] for k, v in info.items()
                      if isinstance(v, dict) and v.get("reruns", 0) > 0}
            if trace == 1:
                accounted = result["metrics"]["trace.prune_accounted"]["value"]
                if abs(accounted - 1.0) > 0.05:
                    problems.append(f"layer spans cover {accounted:.3f} of the prune loop")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {workload} trace={trace}: {status} (host {info['host']}, "
                  f"nproc {info['nproc']}, attempted {result['attempted']}, "
                  f"late phases re-run {reruns or 'none'})", flush=True)
            ok = ok and not problems
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    try:
        binary = build()
        if args.smoke:
            return 0 if smoke(binary) else 1
        result, info = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    except (subprocess.CalledProcessError, OSError, ValueError, IndexError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"perfbench_info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
