"""Shared fixtures and helpers for the test suite.

The programs under tests/corpus/ are the common ground: each .rw file is
parsed once per session and compiled on demand into object programs for the
three modes.  Evaluation rewrites graphs in place (through forwarding
pointers), so random inputs are drawn as plain `(label, children)` tuples
and materialised into a fresh graph for every independent run.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from needle import build_program, evaluate, oracle_eval, parse_system
from needle.core import Node
from needle.render import format_node
from needle.runtime import Replay, source_label

CORPUS_DIR = Path(__file__).parent / "corpus"
GOLDEN_DIR = Path(__file__).parent / "golden"
CORPUS_NAMES = ("append", "length", "fib", "head", "loop", "tree")
MODES = ("cr", "tr", "or")


def load_system(name):
    text = (CORPUS_DIR / f"{name}.rw").read_text()
    return parse_system(text, name)


def golden(name):
    return (GOLDEN_DIR / name).read_text()


def time_budget(seconds):
    """Wall-clock allowance, scaled for noisy shared-CPU machines.

    The baseline budgets assume a quiet desktop-class core.  Set
    NEEDLE_TIME_FACTOR=1 to enforce them as-is.
    """
    return seconds * float(os.environ.get("NEEDLE_TIME_FACTOR", "8"))


@pytest.fixture(scope="session")
def systems():
    return {name: load_system(name) for name in CORPUS_NAMES}


@pytest.fixture(scope="session")
def programs(systems):
    cache = {}

    def get(name, mode):
        key = (name, mode)
        if key not in cache:
            cache[key] = build_program(systems[name], mode)
        return cache[key]

    return get


# ---- graph builders ----------------------------------------------------------


def materialize(term):
    """Fresh graph (a tree) from a nested `(label, children)` tuple."""
    label, kids = term
    return Node(label, [materialize(k) for k in kids])


def int_list(system, values):
    """Cons/Nil graph for a Python list of ints; iterative, so any length."""
    node = Node(system.symbols["Nil"])
    cons = system.symbols["Cons"]
    for v in reversed(values):
        node = Node(cons, [Node(v), node])
    return node


def app(system, name, *children):
    return Node(system.symbols[name], children)


# ---- reference trace rendering -----------------------------------------------


def reference_text(node, resolve, relabel=lambda label: label):
    """Recursive rendering, rebuilt from scratch for every state."""
    node = resolve(node)
    label = relabel(node.label)
    if isinstance(label, int):
        return str(label)
    if not node.children:
        return label.name
    kids = ", ".join(reference_text(c, resolve, relabel)
                     for c in node.children)
    return f"{label.name}({kids})"


def reference_states(res):
    """What `trace_states` and `erased_states` should give for a traced
    run, each state rendered in full from the start root."""
    replay = Replay()
    states = [reference_text(res.start, replay.resolve)]
    erased = [reference_text(res.start, replay.erased, source_label)]
    for i, step in enumerate(res.trace, 1):
        replay.apply(step)
        if step.rule.origin != "literal-norm" or i == len(res.trace):
            states.append(reference_text(res.start, replay.resolve))
        state = reference_text(res.start, replay.erased, source_label)
        if state != erased[-1]:
            erased.append(state)
    return states, erased


# ---- random ground terms -----------------------------------------------------


class TermGen:
    """Random ground terms over a system's signature.

    Terms come out as `(label, children)` tuples (see `materialize`).  At
    depth 0 only leaves are drawn; sorts without a nullary constructor fall
    back to their smallest constructor with leaf arguments.
    """

    def __init__(self, system, rng, int_lo=-9, int_hi=9):
        self.system = system
        self.rng = rng
        self.int_lo = int_lo
        self.int_hi = int_hi
        self.ops_by_sort = {}
        for op in system.all_operations:
            self.ops_by_sort.setdefault(op.result_sort, []).append(op)

    def _literal(self):
        return (self.rng.randint(self.int_lo, self.int_hi), ())

    def leaf(self, sort):
        if sort == "Int":
            return self._literal()
        ctors = self.system.sorts[sort]
        nullary = [c for c in ctors if c.arity == 0]
        if nullary:
            return (self.rng.choice(nullary), ())
        smallest = min(ctors, key=lambda c: c.arity)
        return (smallest, tuple(self.leaf(s) for s in smallest.arg_sorts))

    def term(self, sort, depth):
        if depth <= 0:
            return self.leaf(sort)
        pool = []
        if sort == "Int":
            pool.append(None)  # stands for a literal
        pool.extend(self.system.sorts.get(sort, ()))
        pool.extend(self.ops_by_sort.get(sort, ()))
        pick = self.rng.choice(pool)
        if pick is None:
            return self._literal()
        return (pick, tuple(self.term(s, depth - 1) for s in pick.arg_sorts))

    def op_rooted(self, depth):
        op = self.rng.choice(self.system.all_operations)
        return (op, tuple(self.term(s, depth - 1) for s in op.arg_sorts))

    def expr(self, depth):
        """Mixed draw: usually operation-rooted, sometimes any sort."""
        if self.rng.random() < 0.7:
            return self.op_rooted(depth)
        sorts = [s for s in self.system.sorts if s != "Int"] or ["Int"]
        return self.term(self.rng.choice(sorts), depth)


# fib recurses on sub(n, 1)/sub(n, 2), so keep its literals small and
# non-negative; negative arguments descend forever (cut off by budgets).
INT_BOUNDS = {"fib": (0, 12)}


def make_gen(name, system, rng):
    lo, hi = INT_BOUNDS.get(name, (-9, 9))
    return TermGen(system, rng, int_lo=lo, int_hi=hi)


# ---- cross-evaluator agreement -----------------------------------------------


def assert_modes_agree(system, get_program, name, term, src_budget, mach_budget):
    """One input, four evaluators: the source strategy is the yardstick.

    A budget-limited baseline means the input needs more than `src_budget`
    proper steps, so a compiled run may legitimately either hit its own
    (larger) machine-step budget or finish having done more proper work.
    """
    base = oracle_eval(system, materialize(term), max_steps=src_budget)
    for mode in MODES:
        res = evaluate(get_program(name, mode), materialize(term),
                       max_steps=mach_budget)
        if base.outcome == "steplimit":
            assert res.outcome == "steplimit" or res.proper_steps > src_budget, (
                f"{name}/{mode}: baseline exceeded {src_budget} steps but "
                f"compiled finished in {res.proper_steps}")
        else:
            assert res.outcome == base.outcome, (
                f"{name}/{mode}: outcome {res.outcome} != {base.outcome}")
            if base.outcome == "value":
                assert format_node(res.root) == format_node(base.root), (
                    f"{name}/{mode}: value differs from source strategy")
