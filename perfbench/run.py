"""needle's benchmark: one command for every workload and metric.

    python3 perfbench/run.py [--workload fib|lists|validate|compile|all]
                             [--seed N] [--trace 0|1]

Each workload runs in a fresh child interpreter (`worker.py`), one after the
other, with no extra threads.  The last line printed is the result as one
JSON object; for several workloads its metric names carry the workload as a
prefix.  The exit code is 0 only if every child finished.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fib", "lists", "validate", "compile")
CHILD_TIMEOUT_S = 170
# How long the rounds of one workload run: fixed, so that every run of the
# benchmark measures the same amount of time.  `--smoke` runs are shorter.
RUN_SECONDS = 20
SMOKE_SECONDS = 0.3


def run_child(name, args):
    seconds = SMOKE_SECONDS if args.smoke else RUN_SECONDS
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=HERE.parent, env=env,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {name} ran past {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"error: workload {name} exited with code {proc.returncode}",
              file=sys.stderr)
        return None
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run needle's benchmark workloads.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help=f"accepted for callers that pass the run length; "
                             f"must be {RUN_SECONDS}")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds != RUN_SECONDS:
        parser.error(f"--seconds must be {RUN_SECONDS}: the run length is "
                     f"fixed so that runs compare")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_child(name, args)
        if result is None:
            return 1
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": value
                        for name, r in results.items()
                        for key, value in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
