"""Run one workload in this process and print its metrics.

`run.py` starts this file in a fresh interpreter for each workload; the last
line it prints is the result as one JSON object.  With `--trace 1` it runs
untraced rounds for half the time and traced rounds for the other half, and
reports the per-layer metrics, the layers' self times and the tracing
overhead; the spans go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

SETUP_REPEATS = 11
# Imported afresh by every set-up: needle and the benchmark's own modules.
FRESH_MODULES = ("needle", "layers", "workloads", "gen")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "source_steps_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def set_up(args):
    """Set the workload up SETUP_REPEATS times, each time importing needle
    anew; keep the last set-up.

    Returns the `layers` module, the `Layers` and the workload of the last
    set-up, and the median set-up time at reference speed (see `calibrate`).
    With tracing on, the spans of every set-up are kept."""
    times, spans, layers = [], [], None
    for i in range(SETUP_REPEATS):
        if layers is not None:
            layers.set_tracing(False)
        for name in [m for m in sys.modules
                     if m.split(".")[0] in FRESH_MODULES]:
            del sys.modules[name]
        gc.collect()
        start = time.perf_counter()
        layers_mod = importlib.import_module("layers")
        workloads = importlib.import_module("workloads")
        layers = layers_mod.Layers()
        layers.spans = spans
        layers.unit = f"setup-{i}"
        layers.set_tracing(bool(args.trace))
        workload = workloads.WORKLOADS[args.workload](layers, args.seed,
                                                      args.smoke)
        workload.setup()
        elapsed = time.perf_counter() - start
        times.append(elapsed * layers_mod.CALIBRATION_S
                     / layers_mod.calibrate())
    return layers_mod, layers, workload, statistics.median(times)


def measure(workload, layers, seconds, first_index=0):
    """Run whole rounds until `seconds` have passed (at least one round)."""
    tallies = []
    deadline = time.perf_counter() + seconds
    while not tallies or time.perf_counter() < deadline:
        index = first_index + len(tallies)
        layers.start_round(index)
        gc.collect()
        workload.run_round(index)
        tallies.append(layers.tally)
    return tallies


def op_percentiles(samples):
    """Median and 90th percentile in ms, and how many samples lie above the
    90th percentile."""
    ms = sorted(s * 1000 for s in samples)
    if len(ms) < 2:
        return ms[0], ms[0], 0
    p90 = statistics.quantiles(ms, n=10)[8]
    return statistics.median(ms), p90, sum(1 for v in ms if v > p90)


def end_to_end(name, setup_s, tallies):
    per_verdict = name == "validate"
    steps_per_s = [t.steps / (sum(t.op_s) if per_verdict else t.eval_s)
                   for t in tallies]
    ops = [s for t in tallies for s in t.op_s]
    p50, p90, above = op_percentiles(ops)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    print(f"# {name}: {len(tallies)} round(s), {len(ops)} operation "
          f"sample(s), {above} above op_p90_ms", flush=True)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(t.wall_s for t in tallies),
        "steps_per_s": statistics.median(steps_per_s),
        "source_steps_per_s": statistics.median(r for t in tallies
                                                for r in t.src_rates),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "ok_frac": (attempted - failed) / attempted,
    }, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    layers_mod, layers, workload, setup_s = set_up(args)

    if not args.trace:
        tallies = measure(workload, layers, args.seconds)
        metrics, attempted, failed = end_to_end(args.workload, setup_s,
                                                tallies)
        units = END_TO_END
    else:
        layers.set_tracing(False)
        plain = measure(workload, layers, args.seconds / 2)
        layers.set_tracing(True)
        traced = measure(workload, layers, args.seconds / 2, len(plain))
        layers.set_tracing(False)
        metrics = layers_mod.per_layer(layers.spans)
        metrics["runtime.trace_peak_mb"] = workload.trace_peak_mb()
        plain_wall = statistics.median(t.wall_s for t in plain)
        traced_wall = statistics.median(t.wall_s for t in traced)
        metrics["trace.overhead_pct"] = 100 * (traced_wall / plain_wall - 1)
        attempted = sum(t.attempted for t in plain + traced)
        failed = sum(t.failed for t in plain + traced)
        units = layers_mod.PER_LAYER
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for span in layers.spans:
                handle.write(json.dumps(span) + "\n")
        print(f"# {args.workload}: {len(plain)} untraced and {len(traced)} "
              f"traced round(s); {len(layers.spans)} spans in "
              f"{path.relative_to(HERE.parent)}", flush=True)

    for key, unit in units.items():
        print(f"{args.workload:>8}  {key:<34} {metrics[key]:>16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in units.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
