"""Randomized properties: round-trips, agreement, conservation, validation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needle import evaluate, parse_expr, validate_trace
from needle.core import Node
from needle.deftree import build_all_deftrees, demanded_args
from needle.render import format_node, format_trees

from conftest import (
    CORPUS_NAMES,
    MODES,
    assert_modes_agree,
    int_list,
    load_system,
    make_gen,
    materialize,
)

seeds = st.integers(0, 2**32 - 1)


# ---- parsing and printing ----------------------------------------------------


@pytest.mark.parametrize("name", CORPUS_NAMES)
@settings(max_examples=50, deadline=None)
@given(seed=seeds)
def test_printed_terms_parse_back(systems, name, seed):
    rng = random.Random(seed)
    gen = make_gen(name, systems[name], rng)
    expr = materialize(gen.expr(rng.randint(0, 5)))
    text = format_node(expr)
    again, _ = parse_expr(systems[name], text)
    assert format_node(expr) == format_node(again)


# ---- evaluation --------------------------------------------------------------


@pytest.mark.parametrize("name", CORPUS_NAMES)
@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_all_evaluators_agree(systems, programs, name, seed):
    rng = random.Random(seed)
    gen = make_gen(name, systems[name], rng)
    term = gen.expr(rng.randint(0, 4))
    assert_modes_agree(systems[name], programs, name, term,
                       src_budget=800, mach_budget=5000)


@pytest.mark.parametrize("name", CORPUS_NAMES)
@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_proper_steps_conserved(systems, programs, name, seed):
    rng = random.Random(seed)
    gen = make_gen(name, systems[name], rng)
    term = gen.expr(rng.randint(0, 4))
    results = [evaluate(programs(name, mode), materialize(term),
                        max_steps=5000) for mode in MODES]
    if all(r.outcome in ("value", "aborted") for r in results):
        proper = {r.proper_steps for r in results}
        assert len(proper) == 1, format_node(materialize(term))


@pytest.mark.parametrize("name", CORPUS_NAMES)
@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_traces_validate_even_when_truncated(systems, programs, name, seed):
    rng = random.Random(seed)
    gen = make_gen(name, systems[name], rng)
    expr = materialize(gen.expr(rng.randint(0, 4)))
    res = evaluate(programs(name, "cr"), expr, max_steps=400, trace=True)
    report = validate_trace(systems[name], res)
    assert report.ok, report.violations[:3]


# ---- tree construction -------------------------------------------------------


@pytest.mark.parametrize("name", ["append", "head", "loop", "tree"])
@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_rule_order_does_not_change_disjoint_trees(name, seed):
    # these systems have pairwise-disjoint rule patterns, so the tree
    # must come out the same whatever order the rules are considered in;
    # a system keeps the trees it built, so the shuffle gets its own parse
    system = load_system(name)
    trees = build_all_deftrees(system)
    reference = format_trees(system, trees)
    demanded = {op.name: demanded_args(op, t) for op, t in trees.items()}
    rng = random.Random(seed)
    system = load_system(name)
    for op in system.operations:
        rng.shuffle(system.rules[op])
    shuffled = build_all_deftrees(system)
    assert format_trees(system, shuffled) == reference
    for op, t in shuffled.items():
        assert demanded_args(op, t) == demanded[op.name]


# ---- algebraic identities ----------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(xs=st.lists(st.integers(-9, 9), max_size=8),
       ys=st.lists(st.integers(-9, 9), max_size=8))
def test_length_of_append_adds_lengths(systems, programs, xs, ys):
    system = systems["length"]
    expr = Node(system.symbols["length"],
                [Node(system.symbols["append"],
                      [int_list(system, xs), int_list(system, ys)])])
    res = evaluate(programs("length", "or"), expr)
    assert res.outcome == "value"
    assert res.root.label == len(xs) + len(ys)


@settings(max_examples=30, deadline=None)
@given(seed=seeds)
def test_mirror_preserves_size(systems, programs, seed):
    system = systems["tree"]
    rng = random.Random(seed)
    gen = make_gen("tree", system, rng)
    shape = gen.term("Tree", rng.randint(0, 5))
    plain = Node(system.symbols["size"], [materialize(shape)])
    flipped = Node(system.symbols["size"],
                   [Node(system.symbols["mirror"], [materialize(shape)])])
    a = evaluate(programs("tree", "cr"), plain)
    b = evaluate(programs("tree", "tr"), flipped)
    assert a.outcome == b.outcome == "value"
    assert a.root.label == b.root.label


@pytest.mark.parametrize("n", range(2, 13))
def test_fib_recurrence(systems, programs, n):
    def fib(k):
        expr, _ = parse_expr(systems["fib"], f"fib({k})")
        res = evaluate(programs("fib", "or"), expr)
        assert res.outcome == "value"
        return res.root.label

    assert fib(n) == fib(n - 1) + fib(n - 2)
