#!/usr/bin/env python3
"""Campaign benchmark entry point.

Builds the benchmark package in this directory (release profile, offline)
and runs one workload of it, or every workload in turn with `--workload all`:

    python3 perfbench/run.py --workload single-hop --seed 1 --seconds 15 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`), state directories to `.bench_state`. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give each run's
environment record and a human-readable summary. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("single-hop", "multi-hop", "service", "fleet")
STATE_DIR = ".bench_state"
# The benchmark binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def run_workload(exe, workload, args):
    """Run one workload; return its full result with peak RSS added, or None."""
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", STATE_DIR]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        # wait4 returns this child's own resource usage: its peak RSS.
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {workload} exited with {proc.returncode}", file=sys.stderr)
        return None
    full = json.loads(lines[-1])
    if not args.trace:
        # ru_maxrss is in KiB on Linux.
        full["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024, "unit": "MiB"}
    print(json.dumps({"env": full["env"], "self_check": full["self_check"],
                      "failed_share": full["failed_share"], "notes": full["notes"]}))
    for name, m in full["metrics"].items():
        print(f"  {workload:10s} {name:36s} {m['value']:>18.6g} {m['unit']}")
    print(f"  {workload:10s} {'failed_share':36s} {full['failed_share']:>18.6g} "
          f"({full['failed']} of {full['attempted']} ops)")
    return full


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        full = run_workload(exe, workload, args)
        if full is None:
            return 1
        results[workload] = full
    if len(results) == 1:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, full in results.items()
                   for name, m in full["metrics"].items()}
    print(json.dumps({
        "correct": all(full["correct"] for full in results.values()),
        "attempted": sum(full["attempted"] for full in results.values()),
        "failed": sum(full["failed"] for full in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
