"""Timed calls into needle's layers, and the spans of a traced run.

Every call the benchmark makes into needle goes through `Layers`, which times
it and adds its work to the current round's `Tally`, scaled to a reference
machine speed measured by `calibrate`.  With tracing on, each
call is also kept as a span (name, start, end, parent span, operation id)
with the counters read at the same boundary; `per_layer` turns the spans
into the per-layer metrics.  Spans are taken only here, around the public
functions of `needle.frontend`, `needle.deftree`, `needle.codegen`,
`needle.runtime`, `needle.oracle` and `needle.render`.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from needle import (build_all_deftrees, build_program, evaluate, oracle_eval,
                    parse_expr, parse_system, validate_trace)
from needle.deftree import DTBranch, DTIntBranch
from needle.frontend import scan
from needle.render import format_node, format_program, format_trace

MODES = ("cr", "tr", "or")
LAYERS = ("frontend", "deftree", "codegen", "runtime", "oracle", "render",
          "bench")
COUNTERS = ("rewrite_steps", "shortcut_steps", "dispatch_steps", "norm_steps",
            "node_matches", "node_allocations", "nodes_created")


def _per_layer_units():
    units = {}
    for m in MODES:
        units[f"runtime.{m}.eval_s"] = "s"
        units[f"runtime.{m}.steps_per_s"] = "1/s"
        units[f"runtime.{m}.matches_per_step"] = "ratio"
        units.update((f"runtime.{m}.{c}", "count") for c in COUNTERS)
    units.update({
        "runtime.gc_s": "s",
        "runtime.gc_collections": "count",
        "runtime.first_eval_s": "s",
        "runtime.trace_s": "s",
        "runtime.trace_states": "count",
        "runtime.trace_peak_mb": "MB",
        "oracle.eval_s": "s",
        "oracle.steps_per_s": "1/s",
        "oracle.validate_s": "s",
        "oracle.validate_steps_per_s": "1/s",
        "oracle.violations": "count",
        "frontend.parse_s": "s",
        "frontend.tokens_per_s": "1/s",
        "deftree.build_s": "s",
        "deftree.nodes": "count",
    })
    units.update((f"codegen.{m}_s", "s") for m in MODES)
    units.update((f"codegen.{m}_rules", "count") for m in MODES)
    units.update({
        "render.format_node_s": "s",
        "render.format_trace_s": "s",
        "render.format_program_s": "s",
    })
    units.update((f"{layer}.self_s", "s") for layer in LAYERS)
    units.update({"trace.spans": "count", "trace.overhead_pct": "%"})
    return units


# Per-layer metrics with their units, in the order they are printed.
PER_LAYER = _per_layer_units()


# How long `calibrate` takes on the machine in README.md at its usual speed,
# and how often to run it.
CALIBRATION_S = 0.005
CALIBRATE_EVERY_S = 0.25


def calibrate():
    """Time a fixed piece of pure-Python work, best of two.

    A shared virtual machine runs the same code up to a third slower for a
    second or more at a time.  Timing this loop beside the measured calls
    lets their times be scaled to one reference speed, which keeps that
    drift out of the end-to-end metrics."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class Tally:
    """The end-to-end work of one round, its times at reference speed."""

    op_s: list = field(default_factory=list)  # latency samples
    wall_s: float = 0.0  # time in the round's outermost timed calls
    attempted: int = 0
    failed: int = 0
    steps: int = 0  # machine steps on programs with built rule groups
    eval_s: float = 0.0
    src_rates: list = field(default_factory=list)  # per oracle_eval call


class Layers:
    """needle's public functions, each call timed and, if tracing, spanned."""

    def __init__(self):
        self.tracing = False
        self.spans = []
        self.tally = Tally()
        self.unit = None  # "setup-<i>" or "round-<i>"
        self._op = None
        self._ops = 0
        self._open = []  # indices of the open spans
        self._depth = 0
        self._untimed = False
        self._gc_s = 0.0
        self._gc_n = 0
        self._gc_t0 = 0.0
        self._scale = 1.0  # reference speed / current speed
        self._calibrated_at = float("-inf")

    def start_round(self, index):
        self.unit = f"round-{index}"
        self.tally = Tally()

    def set_tracing(self, on):
        """Keep spans from now on (and time the garbage collector), or stop."""
        if on and not self.tracing:
            gc.callbacks.append(self._on_gc)
        elif self.tracing and not on:
            gc.callbacks.remove(self._on_gc)
        self.tracing = on

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self._gc_s += time.perf_counter() - self._gc_t0
            self._gc_n += 1

    @contextmanager
    def span(self, name, **attrs):
        """Time a block; with tracing on, keep it as a span."""
        rec = attrs
        if self.tracing:
            rec["name"] = name
            rec["op"] = self._op
            rec["unit"] = self.unit
            rec["parent"] = self._open[-1] if self._open else None
            rec["gc0"] = (self._gc_s, self._gc_n)
            self._open.append(len(self.spans))
            self.spans.append(rec)
        if not self._depth and (time.perf_counter() - self._calibrated_at
                                > CALIBRATE_EVERY_S):
            self._scale = CALIBRATION_S / calibrate()
            self._calibrated_at = time.perf_counter()
        self._depth += 1
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._depth -= 1
            if not self._depth and not self._untimed:
                self.tally.wall_s += self.scaled(rec)
            if self.tracing:
                self._open.pop()
                gc_s, gc_n = rec.pop("gc0")
                rec["gc_s"] = self._gc_s - gc_s
                rec["gc_n"] = self._gc_n - gc_n

    def scaled(self, rec):
        """A span's duration at reference speed."""
        return (rec["end"] - rec["start"]) * self._scale

    @contextmanager
    def untimed(self):
        """Calls made by a correctness gate: spanned, and counted in the
        steps and rates, but not in `wall_s`."""
        self._untimed = True
        try:
            yield
        finally:
            self._untimed = False

    @contextmanager
    def op(self, kind):
        """One operation: its latency is a sample, its spans share an id."""
        self._ops += 1
        self._op = f"{self.unit}/{kind}-{self._ops}"
        try:
            with self.span("bench.op") as rec:
                yield
        finally:
            self._op = None
        self.tally.op_s.append(self.scaled(rec))

    # ---- frontend ---------------------------------------------------------

    def parse_system(self, text, name):
        tokens = len(scan(text)) if self.tracing else 0
        with self.span("frontend.parse_system", tokens=tokens):
            return parse_system(text, name=name)

    def parse_expr(self, system, text):
        tokens = len(scan(text)) if self.tracing else 0
        with self.span("frontend.parse_expr", tokens=tokens):
            expr, _ = parse_expr(system, text)
        return expr

    # ---- deftree and codegen ----------------------------------------------

    def build_all_deftrees(self, system):
        with self.span("deftree.build") as rec:
            trees = build_all_deftrees(system)
        if self.tracing:
            rec["nodes"] = sum(_tree_nodes(t) for t in trees.values())
        return trees

    def build_program(self, system, mode):
        with self.span("codegen.build_program", mode=mode) as rec:
            program = build_program(system, mode)
        rec["rules"] = len(program.rules)
        return program

    # ---- runtime and oracle -----------------------------------------------

    def evaluate(self, program, expr, max_steps=None, trace=False):
        first = program.rule_groups is None
        with self.span("runtime.evaluate", mode=program.mode, first=first,
                       traced=trace) as rec:
            result = evaluate(program, expr, max_steps=max_steps, trace=trace)
        if not first:
            self.tally.steps += result.steps
            self.tally.eval_s += self.scaled(rec)
        if self.tracing:
            rec["steps"] = result.steps
            rec["counters"] = asdict(result.counters)
            rec["states"] = len(result.trace) + 1 if trace else 0
        return result

    def oracle_eval(self, system, expr, max_steps=None, trees=None):
        with self.span("oracle.eval") as rec:
            result = oracle_eval(system, expr, max_steps=max_steps, trees=trees)
        if result.steps:
            self.tally.src_rates.append(result.steps / self.scaled(rec))
        rec["steps"] = result.steps
        return result

    def validate_trace(self, system, result):
        with self.span("oracle.validate", steps=len(result.trace)) as rec:
            report = validate_trace(system, result)
        rec["violations"] = len(report.violations)
        return report

    # ---- render -------------------------------------------------------------

    def format_node(self, node):
        with self.span("render.format_node"):
            return format_node(node)

    def format_trace(self, result):
        with self.span("render.format_trace"):
            return format_trace(result)

    def format_program(self, program):
        with self.span("render.format_program"):
            return format_program(program)


def _tree_nodes(tree):
    count, stack = 0, [tree]
    while stack:
        t = stack.pop()
        count += 1
        if isinstance(t, (DTBranch, DTIntBranch)):
            stack.extend(sub for _, sub in t.children)
            if isinstance(t, DTIntBranch) and t.default is not None:
                stack.append(t.default)
    return count


# ---- per-layer metrics from spans --------------------------------------------


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(s["end"] - s["start"] - covered)
    return out


def _unit_sums(spans, selfs):
    """Raw per-unit sums: unit -> {key: value}."""
    units = defaultdict(lambda: defaultdict(float))
    for s, self_s in zip(spans, selfs):
        u = units[s["unit"]]
        d = s["end"] - s["start"]
        name = s["name"]
        u[name.split(".")[0] + ".self_s"] += self_s
        u["trace.spans"] += 1
        if name == "runtime.evaluate":
            u["runtime.gc_s"] += s["gc_s"]
            u["runtime.gc_collections"] += s["gc_n"]
            if s["traced"]:
                u["runtime.trace_s"] += d
                u["runtime.trace_states"] += s["states"]
            if s["first"]:
                u["runtime.first_eval_s"] += d
                continue
            m = s["mode"]
            u[f"runtime.{m}.eval_s"] += d
            u[f"runtime.{m}._steps"] += s["steps"]
            for c in COUNTERS:
                u[f"runtime.{m}.{c}"] += s["counters"][c]
        elif name == "oracle.eval":
            u["oracle.eval_s"] += d
            u["oracle._steps"] += s["steps"]
        elif name == "oracle.validate":
            u["oracle.validate_s"] += d
            u["oracle._vsteps"] += s["steps"]
            u["oracle.violations"] += s["violations"]
        elif name.startswith("frontend.parse"):
            u["frontend.parse_s"] += d
            u["frontend._tokens"] += s["tokens"]
        elif name == "deftree.build":
            u["deftree.build_s"] += d
            u["deftree.nodes"] += s["nodes"]
        elif name == "codegen.build_program":
            u[f"codegen.{s['mode']}_s"] += d
            u[f"codegen.{s['mode']}_rules"] += s["rules"]
        elif name.startswith("render."):
            u[name + "_s"] += d
    for u in units.values():
        for m in MODES:
            steps = u.pop(f"runtime.{m}._steps", 0)
            if steps:
                u[f"runtime.{m}.steps_per_s"] = steps / u[f"runtime.{m}.eval_s"]
                u[f"runtime.{m}.matches_per_step"] = \
                    u[f"runtime.{m}.node_matches"] / steps
        for rate, amount, secs in (
                ("oracle.steps_per_s", "oracle._steps", "oracle.eval_s"),
                ("oracle.validate_steps_per_s", "oracle._vsteps",
                 "oracle.validate_s"),
                ("frontend.tokens_per_s", "frontend._tokens",
                 "frontend.parse_s")):
            n = u.pop(amount, 0)
            if n and u[secs] > 0:
                u[rate] = n / u[secs]
    return units


def per_layer(spans):
    """Each per-layer metric as the median of its per-round totals; for work
    a workload does only while setting up, the median of its per-setup
    totals.  Work a workload never does reads 0."""
    units = _unit_sums(spans, self_times(spans))
    rounds = [u for name, u in units.items() if name.startswith("round")]
    setups = [u for name, u in units.items() if name.startswith("setup")]
    out = {}
    for key in PER_LAYER:
        values = ([u[key] for u in rounds if key in u]
                  or [u[key] for u in setups if key in u])
        out[key] = statistics.median(values) if values else 0.0
    return out
