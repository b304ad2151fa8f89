#!/usr/bin/env python3
"""Fleet benchmark: builds perfbench/ from source and runs one workload.

One run (from the repository root):

    python3 perfbench/run.py --workload steady --seed 1 --seconds 25 --trace 0

prints every metric with its unit; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. --trace 0
runs the untraced binary (end-to-end metrics), --trace 1 the traced one
(per-layer metrics; the Chrome trace of its first pass is written under the
build directory). The exit code is nonzero when the build fails or the
correctness gate rejects the run.

Steadiness mode runs one workload once per seed 1..N and prints, for each
metric, the median, the quartiles and the spread (Q3 - Q1) / median, with
each tick percentile's sample count and the flush-tick share:

    python3 perfbench/run.py --steadiness 10 --workload steady --seconds 25

The build tree is $CARGO_TARGET_DIR, or .bench_build when unset.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("steady", "long-window", "duty-flaky")
TARGETS = ("perfbench_fleet", "perfbench_trace")
RUN_TIMEOUT_S = 175


def build(out):
    """Configures and builds both executables (incrementally after the
    first time); build logs go to stderr so standard output stays the
    benchmark's."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "--target", *TARGETS,
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def run_once(out, workload, seed, seconds, trace, echo):
    """Runs one benchmark process. Returns (exit code, result or None,
    standard output)."""
    binary = out / TARGETS[1 if trace else 0]
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} seed {seed} timed out", file=sys.stderr)
        return 1, None, ""
    lines = proc.stdout.rstrip("\n").splitlines()
    if echo:
        # The result line is reprinted by the caller once it is checked.
        print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(out, args):
    """Runs `args.workload` once per seed and prints the spread table."""
    runs = []
    tick_info = []
    for seed in range(1, args.steadiness + 1):
        code, result, stdout = run_once(out, args.workload, seed,
                                        args.seconds, args.trace, echo=False)
        if code != 0 or result is None or not result.get("correct"):
            print(f"seed {seed}: FAILED (exit {code})\n{stdout}")
            return 1
        runs.append(result["metrics"])
        match = re.search(r"n=(\d+) ticks.*flush_tick_share=([\d.]+)", stdout)
        if match:
            tick_info.append((seed, int(match.group(1)),
                              float(match.group(2))))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
    print(f"\n{args.workload}: {len(runs)} runs, {args.seconds} s each")
    print(f"{'metric':36} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread/median':>14}")
    summary = {}
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        q1, median, q3 = quartiles(values)
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = spread
        print(f"{name:36} {median:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:14.4f}")
    for seed, n, share in tick_info:
        print(f"seed {seed}: tick percentiles over n={n} ticks, "
              f"flush-tick share {share:.4f}")
    print(json.dumps({"workload": args.workload, "runs": len(runs),
                      "spread_over_median": summary}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run seeds 1..N and print each metric's spread")
    args = parser.parse_args()

    out = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    build(out)
    if args.steadiness > 0:
        return steadiness(out, args)

    code, result, _ = run_once(out, args.workload, args.seed, args.seconds,
                               args.trace, echo=True)
    if result is None:
        print("perfbench: the benchmark printed no result", file=sys.stderr)
        return code or 1
    print(json.dumps(result))
    return code if code else (0 if result.get("correct") else 1)


if __name__ == "__main__":
    sys.exit(main())
