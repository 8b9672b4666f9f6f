"""Evaluator behaviour: outcomes, counters, budgets, tracing, failure modes."""

from __future__ import annotations

import gc
import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from conftest import CORPUS_INPUTS, MODES, app, int_list

from needle import (EvaluationError, build_program, evaluate, oracle_eval,
                    parse_expr, parse_system, validate_trace)
from needle.core import H, App, Lit, Node, Var, resolve
from needle.render import format_node, format_trace
from needle.runtime import DEFAULT_MAX_STEPS, NoRuleError, Replay, step_budget

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

APPEND_EXPR = "append(Cons(1, Nil), Cons(2, Nil))"


def run(systems, programs, name, mode, text, **kw):
    expr, _ = parse_expr(systems[name], text)
    return evaluate(programs(name, mode), expr, **kw)


# ---- outcomes ----------------------------------------------------------------


def test_values_across_modes(systems, programs):
    cases = [
        ("append", APPEND_EXPR, "Cons(1, Cons(2, Nil))"),
        ("length", "length(append(Cons(4, Nil), Cons(5, Cons(6, Nil))))", "3"),
        ("fib", "fib(10)", "55"),
        ("tree", "size(mirror(Fork(Tip(1), Fork(Tip(2), Leaf))))", "2"),
        ("tree", "mirror(Fork(Tip(1), Leaf))", "Fork(Leaf, Tip(1))"),
        ("loop", "snd(MkPair(loop, 0))", "0"),
        ("head", "head(Cons(7, Nil))", "7"),
    ]
    for name, text, want in cases:
        for mode in ("cr", "tr", "or"):
            res = run(systems, programs, name, mode, text)
            assert res.outcome == "value", (name, mode)
            assert format_node(res.root) == want, (name, mode)


def test_exempt_dispatch_aborts(systems, programs):
    for mode in ("cr", "tr", "or"):
        res = run(systems, programs, "head", mode, "head(Nil)")
        assert res.outcome == "aborted"
        assert res.abort_rule.origin == "exempt"


def test_step_budget_stops_divergence(systems, programs):
    res = run(systems, programs, "loop", "cr", "fst(MkPair(loop, 0))",
              max_steps=100)
    assert res.outcome == "steplimit"
    assert res.steps == 100
    res = run(systems, programs, "loop", "cr", "snd(MkPair(loop, 0))",
              max_steps=100)
    assert res.outcome == "value"


def test_zero_budget_takes_no_step(systems, programs):
    res = run(systems, programs, "append", "cr", APPEND_EXPR, max_steps=0)
    assert res.outcome == "steplimit" and res.steps == 0


def test_default_budget_ignores_the_environment(systems, programs,
                                                monkeypatch):
    monkeypatch.setenv("NEEDLE_MAX_STEPS", "5")
    assert step_budget() == DEFAULT_MAX_STEPS
    res = run(systems, programs, "fib", "cr", "fib(10)")
    assert res.outcome == "value" and res.steps > 5


# ---- counters ----------------------------------------------------------------


def counters_of(res):
    return tuple(res.counters.as_dict().values())


def test_append_counters_exact(systems, programs):
    want = {
        # (rewrite, shortcut, dispatch, norm, matches, allocs, created)
        "cr": (2, 0, 0, 7, 12, 2, 15),
        "tr": (2, 0, 0, 7, 10, 2, 13),
        "or": (2, 0, 0, 7, 10, 2, 13),
    }
    for mode, expected in want.items():
        res = run(systems, programs, "append", mode, APPEND_EXPR)
        assert counters_of(res) == expected, mode
        assert res.steps == sum(expected[:4])


def test_fib_counters_exact(systems, programs):
    want = {
        "cr": (36, 0, 28, 2, 158, 78, 172),
        "tr": (29, 7, 28, 2, 94, 71, 136),
        "or": (29, 7, 0, 2, 59, 43, 80),
    }
    for mode, expected in want.items():
        res = run(systems, programs, "fib", mode, "fib(5)")
        assert res.root.label == 5
        assert counters_of(res) == expected, mode


SHARING_SYSTEM = """
data Nat = Z | S(Nat);
op both(Nat, Nat) -> Nat:
    both(Z, y) = y
    both(S(a), Z) = Z
    both(S(a), S(b)) = S(S(both(a, b)));
op twice(Nat) -> Nat:
    twice(x) = both(x, x);
op double(Int) -> Int:
    double(n) = add(n, n);
"""
SHARING_VALUES = {"double(3)": "6", "double(sub(5, 2))": "6",
                  "twice(S(S(Z)))": "S(S(S(S(Z))))"}


def test_node_matches_count_a_shared_node_once():
    # Each right side passes one node twice, so two left-side positions of
    # the next rule resolve to the same node; it is fetched once.
    system = parse_system(SHARING_SYSTEM, "sharing")
    want = {
        "double(3)": {
            "cr": (2, 0, 0, 2, 5, 2, 6),
            "tr": (1, 1, 0, 2, 3, 1, 4),
            "or": (1, 1, 0, 2, 3, 1, 4),
        },
        "double(sub(5, 2))": {
            "cr": (4, 0, 2, 2, 17, 4, 14),
            "tr": (3, 1, 2, 2, 11, 3, 10),
            "or": (3, 1, 2, 2, 11, 3, 10),
        },
        "twice(S(S(Z)))": {
            "cr": (4, 0, 0, 8, 15, 7, 26),
            "tr": (3, 1, 0, 8, 11, 6, 22),
            "or": (3, 1, 0, 8, 11, 6, 22),
        },
    }
    for text, per_mode in want.items():
        for mode, expected in per_mode.items():
            expr, _ = parse_expr(system, text)
            res = evaluate(build_program(system, mode), expr)
            assert format_node(res.root) == SHARING_VALUES[text], (text, mode)
            assert counters_of(res) == expected, (text, mode)


def test_proper_steps_are_conserved_across_modes(systems, programs):
    results = {mode: run(systems, programs, "fib", mode, "fib(5)")
               for mode in ("cr", "tr", "or")}
    assert results["cr"].counters.shortcut_steps == 0
    proper = {mode: res.proper_steps for mode, res in results.items()}
    assert proper["cr"] == proper["tr"] == proper["or"] == 36


# ---- graph behaviour ----------------------------------------------------------


def test_result_shares_input_subgraphs(systems, programs):
    system = systems["append"]
    expr, _ = parse_expr(system, APPEND_EXPR)
    lit2 = expr.children[1].children[0]
    res = evaluate(programs("append", "cr"), expr)
    # the second list is passed through by reference, so the literal node
    # in the value is the very node that was parsed
    tail = resolve(res.root.children[1])
    assert resolve(tail.children[0]) is lit2


def peak_of(call):
    """`call()`'s result and the tracemalloc peak it reached, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluation_cost_follows_the_steps_not_the_input(systems, programs):
    # head of a long list fires three rules; nothing else in the list may
    # be visited, so memory must not grow with the list.
    system = systems["head"]
    for mode in ("cr", "tr", "or"):
        # a first evaluation compiles the rule groups outside the measurement
        run(systems, programs, "head", mode, "head(Cons(7, Nil))")
        expr = app(system, "head", int_list(system, range(200_000)))
        res, peak = peak_of(lambda: evaluate(programs("head", mode), expr))
        assert format_node(res.root) == "0", mode
        assert res.steps == 3, mode
        assert peak < 1_000_000, (mode, peak)


def test_divergent_runs_take_constant_memory(systems, programs):
    # each step of `loop` forwards the node its parent holds straight to the
    # newest contractum, so the superseded one is freed: the peak is that of
    # the live graph, whatever the budget.  Keeping the forward chains cost
    # about 160 B a step in cr and 56 B in tr, or and source mode.
    system = systems["loop"]
    trees = programs("loop", "cr").trees
    for mode in ("cr", "tr", "or", "source"):
        if mode != "source":
            run(systems, programs, "loop", mode, "loop", max_steps=1)
        peaks = []
        for budget in (10_000, 100_000):
            expr, _ = parse_expr(system, "loop")
            if mode == "source":
                res, peak = peak_of(lambda: oracle_eval(
                    system, expr, max_steps=budget, trees=trees))
            else:
                res, peak = peak_of(lambda: evaluate(
                    programs("loop", mode), expr, max_steps=budget))
            assert (res.outcome, res.steps) == ("steplimit", budget), mode
            peaks.append(peak)
        assert peaks[1] < peaks[0] + 4096, (mode, peaks)


# Untraced peak per list element of length(append(xs, ys)) at |xs| = |ys| =
# 2000, in bytes.  Measured (CPython 3.11.7): 545 / 285 / 285 B, against
# 950-973 / 665 / 449 B while superseded contracta stayed alive.
APPEND_PEAK_PER_ELEMENT = {"cr": 700, "tr": 450, "or": 380}


def test_untraced_peak_follows_the_live_graph(systems, programs):
    system = systems["length"]
    n = 2000
    for mode, bound in APPEND_PEAK_PER_ELEMENT.items():
        run(systems, programs, "length", mode, "length(append(Nil, Nil))")
        expr = app(system, "length",
                   app(system, "append", int_list(system, range(n)),
                       int_list(system, range(n))))
        res, peak = peak_of(lambda: evaluate(programs("length", mode), expr))
        assert format_node(res.root) == str(2 * n), mode
        assert peak / (2 * n) < bound, (mode, peak / (2 * n))


def test_trace_logs_one_contraction_per_step(systems, programs):
    res = run(systems, programs, "append", "cr", APPEND_EXPR, trace=True)
    assert len(res.trace) == res.steps == 9
    assert res.start.label.name == "N" and len(res.start.children) == 1
    first = res.trace[0]
    assert first.redex is res.start
    # an empty replay shows the contractum as the step built it
    assert format_node(first.contractum, Replay().resolve) \
        == f"N(H({APPEND_EXPR}))"
    # each contractum is what its redex forwards to
    assert all(resolve(s.redex) is resolve(s.contractum) for s in res.trace)


def test_no_trace_by_default(systems, programs):
    res = run(systems, programs, "append", "cr", APPEND_EXPR)
    assert res.trace is None and res.start is None


# ---- failure modes -----------------------------------------------------------


def test_arithmetic_overflow_raises(systems, programs):
    expr, _ = parse_expr(systems["fib"],
                         "add(9223372036854775807, 1)")
    with pytest.raises(EvaluationError, match="integer overflow"):
        evaluate(programs("fib", "cr"), expr)


@pytest.mark.skipif(not __debug__, reason="the check is an assert")
def test_an_evaluable_node_under_a_variable_breaks_innermost(systems, programs):
    system = systems["length"]
    inputs = [
        lambda: app(system, "length", Node(H, (app(system, "Nil"),))),
        lambda: app(system, "length",
                    app(system, "Cons", Node(H, (Node(1),)),
                        app(system, "Nil"))),
    ]
    for mode in ("cr", "tr", "or"):
        for build in inputs:
            with pytest.raises(AssertionError,
                               match="innermost discipline violated"):
                evaluate(programs("length", mode), build())


def test_node_children_are_immutable():
    node = Node(H, (Node(1),))
    with pytest.raises(TypeError):
        node.children[0] = Node(2)


def test_incomplete_programs_raise_no_rule_error(systems):
    # the text names the node's label and its children's labels
    system = systems["append"]
    program = build_program(system, "cr")
    program.rules = [r for r in program.rules if r.origin != "literal-norm"]
    with pytest.raises(NoRuleError) as err:
        evaluate(program, parse_expr(system, "7")[0])
    assert str(err.value) == "no rule matches N node over 7"
    program = build_program(system, "tr")
    program.rules = [r for r in program.rules if r.head.name != "append^H"]
    with pytest.raises(NoRuleError) as err:
        evaluate(program, parse_expr(system, "append(Nil, Cons(1, Nil))")[0])
    assert str(err.value) == "no rule matches append^H node over Nil, Cons"


def test_a_leaf_node_takes_at_most_64_bytes():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        leaves = [Node(1) for _ in range(100_000)]
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    per_node = (used - sys.getsizeof(leaves)) / len(leaves)
    assert per_node <= 64, per_node


def test_compiled_rule_caches_fill_on_first_use(systems):
    program = build_program(systems["append"], "cr")
    assert program.rule_groups is None
    expr, _ = parse_expr(systems["append"], APPEND_EXPR)
    first = evaluate(program, expr)
    groups = program.rule_groups
    assert groups
    expr, _ = parse_expr(systems["append"], APPEND_EXPR)
    again = evaluate(program, expr)
    assert program.rule_groups is groups
    assert counters_of(first) == counters_of(again)


def test_running_a_program_keeps_its_equality_and_repr(systems):
    fib = systems["fib"]
    program, twin = build_program(fib, "cr"), build_program(fib, "cr")
    text = repr(program)
    evaluate(program, parse_expr(fib, "fib(3)")[0])
    assert program.rule_groups is not None
    assert program == twin
    assert repr(program) == text


# ---- selection order ----------------------------------------------------------


def lhs_matches(pattern, node, resolve, read):
    """Whether `node`, read through `resolve`, is an instance of the left
    side `pattern`: a plain first-to-last walk, apart from the runtime's slot
    code.  Below the root it tests the positions in pre-order, left to right,
    stops at the first failing test, and adds each node whose label it reads
    to `read`; the root's label is known, and a variable's node is not read."""
    node = resolve(node)
    if node.label is not pattern.label:
        return False
    stack = list(zip(pattern.args, node.children))[::-1]
    while stack:
        pattern, node = stack.pop()
        cls = pattern.__class__
        if cls is Var:
            continue
        node = resolve(node)
        read.add(node)
        label = node.label
        if cls is App:
            if label is not pattern.label:
                return False
            stack += list(zip(pattern.args, node.children))[::-1]
        elif label.__class__ is not int \
                or (cls is Lit and label != pattern.value):  # Lit or AnyLit
            return False
    return True


def plain_selection(program, res):
    """The traced steps that did not fire the first of the program's rules
    that matches their redex, and the nodes a first-to-last matcher reads
    over the run: at each step, the distinct nodes whose labels it reads
    while it tries the rules in order, summed over the steps."""
    replay, misfired, reads = Replay(), [], 0
    for i, step in enumerate(res.trace):
        read = set()
        first = next((rule for rule in program.rules
                      if lhs_matches(rule.lhs, step.redex, replay.resolve,
                                     read)),
                     None)
        if step.rule is not first:
            misfired.append(i)
        reads += len(read)
        replay.apply(step)
    return misfired, reads


@pytest.fixture(scope="module")
def traced_runs(systems, programs):
    """What the selection tests check, for a traced run of every corpus
    input, of 3 ground terms of each of 80 `gen.SystemGen` seeds and of the
    sharing inputs, in cr, tr and or: (where, outcome, node matches, the
    steps that misfired and the plain matcher's reads, as `plain_selection`
    gives them, and the steps whose redex does not forward one hop to a
    live node).  Each run is dropped once checked, so that the live heap
    stays small for the tests after these."""
    def check(where, program, res):
        long_hops = [i for i, step in enumerate(res.trace)
                     if step.redex.forward is None
                     or step.redex.forward.forward is not None]
        return (where, res.outcome, res.counters.node_matches,
                *plain_selection(program, res), long_hops)

    checked = []
    for name, text in CORPUS_INPUTS:
        for mode in MODES:
            checked.append(check(
                (name, mode, text), programs(name, mode),
                run(systems, programs, name, mode, text, trace=True)))

    def check_system(system, terms):
        for mode in MODES:
            program = build_program(system, mode)
            for term in terms():
                res = evaluate(program, parse_expr(system, term)[0],
                               max_steps=3000, trace=True)
                checked.append(check((system.name, mode, term), program, res))
    for seed in range(80):
        generated = gen.SystemGen(random.Random(seed), 1 + seed % 44)
        check_system(parse_system(generated.text(), f"gen{seed}"),
                     lambda: generated.ground_terms(3))
    check_system(parse_system(SHARING_SYSTEM, "sharing"),
                 lambda: SHARING_VALUES)
    return checked


def test_each_step_fires_the_first_matching_rule(traced_runs):
    for where, _, _, misfired, _, _ in traced_runs:
        assert not misfired, (where, misfired)


def test_node_matches_count_the_nodes_a_plain_matcher_reads(traced_runs):
    # A run that ends in a value counted every selection it made, and each
    # made a step, so its node matches are the plain matcher's reads.
    values = 0
    for where, outcome, matches, _, reads, _ in traced_runs:
        if outcome == "value":
            assert matches == reads, where
            values += 1
    assert values > len(traced_runs) // 2


def test_a_redex_forwards_one_hop_to_a_live_node(traced_runs):
    # `Replay.resolve` and the runtime's memory bound rely on this: the node
    # a parent holds forwards straight to the newest contractum, whatever
    # the run's outcome.
    for where, _, _, _, _, long_hops in traced_runs:
        assert not long_hops, (where, long_hops)


# ---- memory management --------------------------------------------------------

# One input per corpus system, plus an abort and a step-limited divergence.
GC_CASES = [
    ("append", APPEND_EXPR, None),
    ("length", "length(append(Cons(4, Nil), Cons(5, Cons(6, Nil))))", None),
    ("fib", "fib(8)", None),
    ("head", "head(Cons(7, Nil))", None),
    ("head", "head(Nil)", None),
    ("loop", "snd(MkPair(loop, 0))", None),
    ("loop", "fst(MkPair(loop, 0))", 50),
    ("tree", "size(mirror(Fork(Tip(1), Fork(Tip(2), Leaf))))", None),
]


def _rewrite_every_case(systems, compiled):
    outcomes = set()
    for name, text, budget in GC_CASES:
        system = systems[name]
        expr, _ = parse_expr(system, text)
        outcomes.add(oracle_eval(system, expr, max_steps=budget).outcome)
        for mode in ("cr", "tr", "or"):
            expr, _ = parse_expr(system, text)
            evaluate(compiled[name, mode], expr, max_steps=budget)
            expr, _ = parse_expr(system, text)
            res = evaluate(compiled[name, mode], expr, max_steps=budget,
                           trace=True)
            format_trace(res)
            assert validate_trace(system, res).ok, (name, text, mode)
            outcomes.add(res.outcome)
    return outcomes


def test_rewriting_creates_no_cyclic_garbage(systems):
    # Term graphs are acyclic, so reference counting alone must free every
    # node, trace and result that evaluation and validation leave behind;
    # this is what lets them run with the cyclic collector paused.
    compiled = {(name, mode): build_program(systems[name], mode)
                for name, _, _ in GC_CASES for mode in ("cr", "tr", "or")}
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        outcomes = _rewrite_every_case(systems, compiled)
        assert outcomes == {"value", "aborted", "steplimit"}
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def _gc_state_after(call, enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            call()
        except EvaluationError:
            pass
        return gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_rewriting_leaves_the_collector_as_it_found_it(systems, programs):
    fib = systems["fib"]

    def run_fib(text, trace=False):
        expr, _ = parse_expr(fib, text)
        return evaluate(programs("fib", "cr"), expr, trace=trace)

    def run_oracle(text):
        expr, _ = parse_expr(fib, text)
        return oracle_eval(fib, expr)

    overflow = "add(9223372036854775807, 1)"
    calls = [
        lambda: run_fib("fib(5)"),
        lambda: run_oracle("fib(5)"),
        lambda: validate_trace(fib, run_fib("fib(5)", trace=True)),
        lambda: run_fib(overflow),
        lambda: run_oracle(overflow),
    ]
    with pytest.raises(EvaluationError):
        run_fib(overflow)
    with pytest.raises(EvaluationError):
        run_oracle(overflow)
    for call in calls:
        assert _gc_state_after(call, enabled=True) is True
        assert _gc_state_after(call, enabled=False) is False
