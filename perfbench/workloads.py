"""The four workloads: set-up, one measured round, and the correctness gates.

A round runs a fixed mix of operations; only the operations' contents come
from the seed, so every seed measures the same amount of work of the same
shape.  Gates run after the operation they check, outside its timing, and
each failed gate counts one failed operation.
"""

from __future__ import annotations

import gc
import hashlib
import random
import sys
import tracemalloc
from pathlib import Path

from needle import Node, build_program, evaluate
from needle.render import format_program

import gen
from layers import MODES

CORPUS = Path(__file__).resolve().parent / "corpus"
LIMIT = 10**6  # step budget for generated inputs, far above what they need


def read_corpus(name):
    return (CORPUS / f"{name}.rw").read_text(encoding="utf-8")


def value_of(node):
    """A value graph as nested tuples, read through forwarding pointers."""
    while node.forward is not None:
        node = node.forward
    label = node.label
    if isinstance(label, int):
        return label
    return (label.name,) + tuple(value_of(c) for c in node.children)


def counter_problems(what, counters, expected):
    return [f"{what}: {name} = {getattr(counters, name)}, expected {want}"
            for name, want in expected.items()
            if getattr(counters, name) != want]


class Workload:
    def __init__(self, layers, seed, smoke):
        self.layers = layers
        self.seed = seed
        self.smoke = smoke

    def setup(self):
        """Parse, compile, generate inputs and warm up; may run repeatedly."""
        self.rng = random.Random(self.seed)

    def run_round(self, index):
        raise NotImplementedError

    def trace_peak_mb(self):
        """Peak memory of this workload's traced evaluations, if it has any."""
        return 0.0

    def check(self, what, problems):
        """Count one checked operation; `problems` lists what was wrong."""
        tally = self.layers.tally
        tally.attempted += 1
        if problems:
            tally.failed += 1
            print(f"FAILED {self.name} {what}: {problems[0]}", file=sys.stderr)

    def guarded(self, what, fn):
        """Run an operation and its gate; an exception fails the operation.

        This is the boundary that keeps a run going past a program defect,
        so that the defect shows as a failed operation."""
        try:
            problems = fn()
        except Exception as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        self.check(what, problems)

    def _compile_corpus(self, names):
        layers = self.layers
        self.systems, self.programs = {}, {}
        for name in names:
            system = layers.parse_system(read_corpus(name), name)
            layers.build_all_deftrees(system)
            self.systems[name] = system
            for mode in MODES:
                self.programs[name, mode] = layers.build_program(system, mode)


# ---- fib ------------------------------------------------------------------------


def fib_counters(mode, k):
    """Closed forms of docs/benchmarks.md, with I = Fib(k+1) - 1."""
    i = gen.fib_value(k + 1) - 1
    common = {"norm_steps": 2}
    if mode == "cr":
        return dict(common, rewrite_steps=5 * i + 1, shortcut_steps=0,
                    dispatch_steps=4 * i, node_matches=22 * i + 4,
                    node_allocations=11 * i + 1)
    if mode == "tr":
        return dict(common, rewrite_steps=4 * i + 1, shortcut_steps=i,
                    dispatch_steps=4 * i, node_matches=13 * i + 3,
                    node_allocations=10 * i + 1)
    return dict(common, rewrite_steps=4 * i + 1, shortcut_steps=i,
                dispatch_steps=0, node_matches=8 * i + 3,
                node_allocations=6 * i + 1)


class Fib(Workload):
    """fib(k) in each compiled mode (one operation each), plus the oracle."""

    name = "fib"

    def setup(self):
        super().setup()
        self.k = 10 if self.smoke else 15
        self._compile_corpus(["fib"])
        for mode in MODES:
            self.layers.evaluate(self.programs["fib", mode],
                                 self.layers.parse_expr(self.systems["fib"],
                                                        "fib(3)"))

    def run_round(self, index):
        layers, k = self.layers, self.k
        system = self.systems["fib"]
        want = gen.fib_value(k)
        for mode in self.rng.sample(MODES, len(MODES)):
            def one():
                with layers.op(mode):
                    expr = layers.parse_expr(system, f"fib({k})")
                    result = layers.evaluate(self.programs["fib", mode], expr)
                problems = counter_problems(mode, result.counters,
                                            fib_counters(mode, k))
                if result.root.label != want:
                    problems.append(f"{mode}: value {result.root.label}")
                return problems
            self.guarded(f"fib({k}) {mode}", one)

        def source():
            expr = layers.parse_expr(system, f"fib({k})")
            result = layers.oracle_eval(system, expr)
            problems = []
            if result.root.label != want:
                problems.append(f"source: value {result.root.label}")
            if result.steps != fib_counters("cr", k)["rewrite_steps"]:
                problems.append(f"source: {result.steps} steps")
            return problems
        self.guarded(f"fib({k}) source", source)


# ---- lists ----------------------------------------------------------------------


def length_counters(mode, n):
    """Closed forms of docs/benchmarks.md for length(append(xs, ys)),
    |xs| = |ys| = n."""
    common = {"norm_steps": 2}
    if mode == "cr":
        return dict(common, rewrite_steps=5 * n + 2, shortcut_steps=0,
                    dispatch_steps=3 * n + 1, node_matches=20 * n + 9,
                    node_allocations=10 * n + 1)
    if mode == "tr":
        return dict(common, rewrite_steps=3 * n + 2, shortcut_steps=2 * n,
                    dispatch_steps=3 * n + 1, node_matches=12 * n + 6,
                    node_allocations=8 * n + 1)
    return dict(common, rewrite_steps=3 * n + 2, shortcut_steps=2 * n,
                dispatch_steps=n + 1, node_matches=8 * n + 6,
                node_allocations=6 * n + 1)


# Short-list oracle runs after each mode's operations: spread over the
# round, they meet more of the machine's speed swings than one batch would.
SOURCE_RUNS = 4


class Lists(Workload):
    """length(append(xs, ys)) and the rendered append(xs, ys) on long lists.

    One operation is one evaluation as `needle eval` gives it, in one mode:
    length(append(xs, ys)), or append(xs, ys) with its rendering.  The
    source strategy is quadratic on long lists, so it runs on short ones
    only."""

    name = "lists"

    def setup(self):
        super().setup()
        self.n = 200 if self.smoke else 10_000
        self.n_src = 20 if self.smoke else 150
        self._compile_corpus(["length"])
        self.system = self.systems["length"]
        self.xs = gen.int_list(self.rng, self.n)
        self.ys = gen.int_list(self.rng, self.n)
        self.xs_src = gen.int_list(self.rng, self.n_src)
        self.ys_src = gen.int_list(self.rng, self.n_src)
        for mode in MODES:
            self.layers.evaluate(
                self.programs["length", mode],
                self.layers.parse_expr(self.system,
                                       "length(append(Cons(1, Nil), Nil))"))
        self.expected_text = None

    def _graph(self, op, xs, ys):
        """A fresh input graph: evaluation rewrites its input in place."""
        sym = self.system.symbols
        node = Node(sym["append"], [_list_graph(sym, xs), _list_graph(sym, ys)])
        return Node(sym["length"], [node]) if op == "length" else node

    def run_round(self, index):
        layers, n = self.layers, self.n
        if self.expected_text is None:
            self.expected_text = gen.list_text(self.xs + self.ys)

        def source():
            expr = self._graph("length", self.xs_src, self.ys_src)
            gc.collect()
            result = layers.oracle_eval(self.system, expr)
            problems = []
            if result.root.label != 2 * self.n_src:
                problems.append(f"source: length {result.root.label}")
            if result.steps != 5 * self.n_src + 2:
                problems.append(f"source: {result.steps} steps")
            return problems

        for mode in self.rng.sample(MODES, len(MODES)):
            program = self.programs["length", mode]

            def length_op():
                graph = self._graph("length", self.xs, self.ys)
                gc.collect()
                with layers.op(mode):
                    result = layers.evaluate(program, graph)
                problems = counter_problems(mode, result.counters,
                                            length_counters(mode, n))
                if result.root.label != 2 * n:
                    problems.append(f"{mode}: length {result.root.label}")
                return problems

            def append_op():
                graph = self._graph("append", self.xs, self.ys)
                gc.collect()
                with layers.op(mode):
                    result = layers.evaluate(program, graph)
                    text = layers.format_node(result.root)
                problems = []
                if result.proper_steps != n + 1:
                    problems.append(f"{mode}: append took "
                                    f"{result.proper_steps} proper steps")
                if text != self.expected_text:
                    problems.append(f"{mode}: wrong append value")
                return problems

            self.guarded(f"length(append) n={n} {mode}", length_op)
            self.guarded(f"append n={n} {mode}", append_op)
            for _ in range(SOURCE_RUNS):
                self.guarded(f"lists n={self.n_src} source", source)


def _list_graph(sym, values):
    node = Node(sym["Nil"])
    cons = sym["Cons"]
    for v in reversed(values):
        node = Node(cons, [Node(v), node])
    return node


# ---- validate -------------------------------------------------------------------

WARM_UP = {"fib": "fib(2)", "length": "length(Nil)",
           "append": "append(Nil, Nil)", "tree": "size(Leaf)",
           "head": "head(Cons(1, Nil))", "loop": "snd(MkPair(1, 2))"}

EXPECTED_OUTCOME = {"head_nil": "aborted", "fst_loop": "steplimit"}


class Validate(Workload):
    """Verdicts as `needle validate` gives them, in all three modes."""

    name = "validate"

    def setup(self):
        super().setup()
        self._compile_corpus(list(WARM_UP))
        for (name, mode), program in self.programs.items():
            self.layers.evaluate(program, self.layers.parse_expr(
                self.systems[name], WARM_UP[name]))

    def _inputs(self):
        specs = gen.VALIDATE_SPECS[:5] if self.smoke else gen.VALIDATE_SPECS
        inputs = [(name, shape) + gen.validate_input(self.rng, shape, size)
                  for name, shape, size in specs]
        self.rng.shuffle(inputs)
        return inputs

    def run_round(self, index):
        for name, shape, text, max_steps in self._inputs():
            self.guarded(f"{name}: {text[:60]}",
                         lambda: self._verdict(name, shape, text, max_steps))

    def _verdict(self, name, shape, text, max_steps):
        layers, system = self.layers, self.systems[name]
        runs = []
        with layers.op(shape):
            for mode in MODES:
                expr = layers.parse_expr(system, text)
                result = layers.evaluate(self.programs[name, mode], expr,
                                         max_steps=max_steps, trace=True)
                report = layers.validate_trace(system, result)
                layers.format_trace(result)
                runs.append((mode, result, report))
            source = layers.oracle_eval(system, layers.parse_expr(system, text),
                                        max_steps=max_steps)
        problems = []
        want = EXPECTED_OUTCOME.get(shape, "value")
        if source.outcome != want:
            problems.append(f"source outcome {source.outcome}, expected {want}")
        for mode, result, report in runs:
            problems.extend(f"{mode}: {v}" for v in report.violations)
            if result.outcome != source.outcome:
                problems.append(f"{mode}: outcome {result.outcome}, "
                                f"source {source.outcome}")
            elif (result.outcome != "steplimit"
                  and report.proper_steps != source.steps):
                problems.append(f"{mode}: {report.proper_steps} proper steps, "
                                f"source {source.steps}")
        return problems

    def trace_peak_mb(self):
        peak = 0
        for name, _, text, max_steps in self._inputs():
            system = self.systems[name]
            for mode in MODES:
                expr = self.layers.parse_expr(system, text)
                tracemalloc.start()
                try:
                    evaluate(self.programs[name, mode], expr,
                             max_steps=max_steps, trace=True)
                    peak = max(peak, tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        return peak / 2**20


# ---- compile --------------------------------------------------------------------

# Operations per generated system, one system each per round.  Three of the
# eight are of the middle size, so that the median falls inside that size
# class, and one in eight is of the largest size, so that the 90th
# percentile falls inside that one.
COMPILE_SIZES = (3, 8, 8, 16, 16, 16, 28, 44)
GROUND_TERMS = 3


class Compile(Workload):
    """Generated systems taken through parse, trees, all three codegen modes
    and the listings; the gate then evaluates a few ground terms."""

    name = "compile"

    def run_round(self, index):
        sizes = COMPILE_SIZES[:2] if self.smoke else COMPILE_SIZES
        for size in self.rng.sample(sizes, len(sizes)):
            system = gen.SystemGen(self.rng, size)
            text, terms = system.text(), system.ground_terms(GROUND_TERMS)
            self.guarded(f"round {index}, system of {size} operations",
                         lambda: self._system(text, terms))

    def _system(self, text, terms):
        layers = self.layers
        with layers.op("system"):
            system = layers.parse_system(text, "generated")
            layers.build_all_deftrees(system)
            programs = {m: layers.build_program(system, m) for m in MODES}
            listings = {m: layers.format_program(programs[m]) for m in MODES}
        shapes = {m: (len(programs[m].rules), _digest(listings[m]))
                  for m in MODES}
        # The gate compiles each mode again and evaluates the ground terms on
        # that copy, one mode at a time, so that its memory stays below the
        # operation's and `peak_rss_mb` measures compiling.
        del programs, listings
        problems, sources = [], {}
        for mode in MODES:
            again = build_program(system, mode)
            if (len(again.rules), _digest(format_program(again))) != shapes[mode]:
                problems.append(f"{mode}: compiling twice gave another program")
            for term in terms:
                with layers.untimed():
                    if term not in sources:
                        sources[term] = layers.oracle_eval(
                            system, layers.parse_expr(system, term),
                            max_steps=LIMIT, trees=again.trees)
                    result = layers.evaluate(again,
                                             layers.parse_expr(system, term),
                                             max_steps=LIMIT)
                source = sources[term]
                if result.outcome != source.outcome:
                    problems.append(f"{mode} {term}: outcome {result.outcome}, "
                                    f"source {source.outcome}")
                elif result.proper_steps != source.steps:
                    problems.append(f"{mode} {term}: {result.proper_steps} "
                                    f"proper steps, source {source.steps}")
                elif (source.outcome == "value"
                      and value_of(result.root) != value_of(source.root)):
                    problems.append(f"{mode} {term}: value differs from source")
        return problems


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


WORKLOADS = {w.name: w for w in (Fib, Lists, Validate, Compile)}
