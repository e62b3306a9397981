#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark runner (perfbench/pbench.exe) and the interferometry
CLI with dune, runs the workload from the repository root, and checks that
the runner's result line holds exactly the metrics BENCHMARK.json lists
(end-to-end, or per-layer with --trace 1). Progress goes to stderr, the
result line alone to stdout. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["campaign-cold", "sweep", "sweep-steered", "serve"]
# A run measures for --seconds plus set-up and checks; past this the
# runner is stopped (SIGTERM, so it can stop the daemon it started).
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"perfbench: no {need} in {ROOT}; run from a checkout of the repository",
                  file=sys.stderr)
            return 2

    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/pbench.exe",
         "./bin/interferometry_cli.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    exe = os.path.join(ROOT, "_build", "default", "perfbench", "pbench.exe")
    cli = os.path.join(ROOT, "_build", "default", "bin", "interferometry_cli.exe")
    proc = subprocess.Popen(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--cli", cli],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        proc.send_signal(signal.SIGTERM)
        try:
            proc.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        return 3
    *head, last = out.splitlines() or [""]
    for line in head:
        print(line, file=sys.stderr)
    if proc.returncode != 0:
        print(last, file=sys.stderr)
        print(f"perfbench: runner exited {proc.returncode}", file=sys.stderr)
        return proc.returncode
    problem = check_result(last, "per_layer" if args.trace else "end_to_end")
    if problem:
        print(f"perfbench: bad result line: {problem}", file=sys.stderr)
        return 4
    print(last)
    return 0


def check_result(line, section):
    """Why the result line does not hold exactly the metrics that
    BENCHMARK.json lists under [section], in their units; None if it does."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        want = {m["name"]: m["unit"] for m in json.load(f)[section]}
    try:
        got = {k: v["unit"] for k, v in json.loads(line)["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        return f"not a result object ({e!r})"
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        return f"missing {missing}, not in BENCHMARK.json {extra}, wrong unit {units}"
    return None


if __name__ == "__main__":
    sys.exit(main())
