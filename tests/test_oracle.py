"""Source-strategy baseline and machine-trace validation."""

from __future__ import annotations

import dataclasses

from needle import (Node, build_all_deftrees, build_program, evaluate,
                    oracle_eval, parse_expr, parse_system, validate_trace)
from needle.oracle import _plan, source_strategy
from needle.render import format_node

from conftest import int_list, load_system

APPEND_EXPR = "append(Cons(1, Nil), Cons(2, Nil))"

SMALL_INPUTS = [
    ("append", APPEND_EXPR),
    ("length", "length(append(Cons(4, Nil), Cons(5, Cons(6, Nil))))"),
    ("fib", "fib(5)"),
    ("head", "head(Cons(7, Nil))"),
    ("loop", "snd(MkPair(loop, 0))"),
    ("tree", "size(mirror(Fork(Tip(1), Fork(Tip(2), Leaf))))"),
]


def oracle(systems, name, text, **kw):
    expr, _ = parse_expr(systems[name], text)
    return oracle_eval(systems[name], expr, **kw)


# ---- the strategy itself -----------------------------------------------------


def test_oracle_values_and_step_counts(systems):
    res = oracle(systems, "append", APPEND_EXPR)
    assert res.outcome == "value"
    assert format_node(res.root) == "Cons(1, Cons(2, Nil))"
    assert res.steps == 2

    res = oracle(systems, "fib", "fib(5)")
    assert (res.outcome, res.root.label, res.steps) == ("value", 5, 36)

    res = oracle(systems, "loop", "snd(MkPair(loop, 0))")
    assert (res.outcome, res.root.label, res.steps) == ("value", 0, 1)

    res = oracle(systems, "head", "head(Cons(7, Nil))")
    assert (res.outcome, res.root.label, res.steps) == ("value", 7, 1)


def test_oracle_aborts_without_spending_steps(systems):
    res = oracle(systems, "head", "head(Nil)")
    assert (res.outcome, res.steps) == ("aborted", 0)


def test_oracle_respects_step_budget(systems):
    res = oracle(systems, "loop", "fst(MkPair(loop, 0))", max_steps=50)
    assert (res.outcome, res.steps) == ("steplimit", 50)


def test_oracle_matches_compiled_proper_steps(systems, programs):
    for name, text in SMALL_INPUTS:
        base = oracle(systems, name, text)
        for mode in ("cr", "tr", "or"):
            expr, _ = parse_expr(systems[name], text)
            res = evaluate(programs(name, mode), expr)
            assert res.proper_steps == base.steps, (name, mode)


# ---- contraction -------------------------------------------------------------


def test_a_repeated_variable_shares_its_node():
    system = parse_system("data P = Q(Int, Int); op dup(Int) -> P: "
                          "dup(x) = Q(x, x);")
    expr, _ = parse_expr(system, "dup(add(1, 2))")
    res = oracle_eval(system, expr)
    assert (res.outcome, res.steps) == ("value", 2)
    first, second = res.root.children
    assert first is second
    assert format_node(res.root) == "Q(3, 3)"


def test_each_fired_rule_plans_its_right_side_once(monkeypatch):
    system = load_system("fib")
    built = []

    def counted(rhs):
        built.append(rhs)
        return _plan(rhs)

    monkeypatch.setattr("needle.oracle._plan", counted)
    for _ in range(2):
        assert oracle_eval(system, parse_expr(system, "fib(5)")[0]).steps == 36
    expr, _ = parse_expr(system, "fib(5)")
    res = evaluate(build_program(system, "cr"), expr, trace=True)
    assert validate_trace(system, res).ok
    rules = system.rules[system.symbols["fib"]]
    assert all(rule.plan is not None for rule in rules)
    assert sorted(map(id, built)) == sorted(id(rule.rhs) for rule in rules)


def test_a_planned_rule_compares_and_prints_as_before(systems):
    """The plan a contraction caches takes no part in equality or `repr`.
    Symbols compare by identity, so the counterpart that must compare equal
    is a copy without a plan; the fresh parse's rule must print the same."""
    system, fresh = systems["fib"], load_system("fib")
    oracle_eval(system, parse_expr(system, "fib(5)")[0])
    for rule, other in zip(*(s.rules[s.symbols["fib"]]
                             for s in (system, fresh))):
        assert rule.plan is not None and other.plan is None
        assert rule == dataclasses.replace(rule, plan=None)
        assert repr(rule) == repr(other) == f"SourceRule(fib#{rule.index})"


# ---- needed descent ----------------------------------------------------------


def first_redex(system, text):
    """The parsed expression and the first redex the strategy yields on it."""
    expr, _ = parse_expr(system, text)
    return expr, next(source_strategy(build_all_deftrees(system), expr))


def test_descent_stops_at_the_outermost_matching_redex(systems):
    expr, (node, source) = first_redex(systems["loop"], "snd(MkPair(loop, 0))")
    assert node is expr
    assert source.op.name == "snd"


def test_descent_moves_into_a_demanded_operation_argument(systems):
    expr, (node, source) = first_redex(systems["length"],
                                       "length(append(Nil, Nil))")
    assert node is expr.children[0]
    assert source.op.name == "append"


def test_descent_reports_exempt_positions(systems):
    expr, found = first_redex(systems["head"], "head(Nil)")
    assert found == (expr, None)


def test_descent_through_builtin_arguments(systems):
    add = systems["fib"].symbols["add"]
    expr, found = first_redex(systems["fib"], "add(add(1, 2), 3)")
    assert found == (expr.children[0], add)  # builtin reduction
    flat, found = first_redex(systems["fib"], "add(1, 2)")
    assert found == (flat, add)


def test_descent_picks_literal_branch_or_default(systems):
    _, (_, source) = first_redex(systems["fib"], "fib(1)")
    assert source.index == 1
    _, (_, source) = first_redex(systems["fib"], "fib(7)")
    assert source.index == 2
    nested, found = first_redex(systems["fib"], "fib(add(3, 4))")
    assert found == (nested.children[0], systems["fib"].symbols["add"])


# ---- trace validation --------------------------------------------------------


def test_validation_accepts_honest_traces(systems, programs):
    for name, text in SMALL_INPUTS:
        for mode in ("cr", "tr", "or"):
            expr, _ = parse_expr(systems[name], text)
            res = evaluate(programs(name, mode), expr, trace=True)
            # no step's redex is a contractum: the log names held nodes
            contracta = {step.contractum for step in res.trace}
            assert not any(step.redex in contracta for step in res.trace), \
                (name, mode)
            report = validate_trace(systems[name], res)
            assert report.ok, (name, mode, report.violations[:3])
            assert report.proper_steps == res.proper_steps


def test_validation_accepts_truncated_traces(systems, programs):
    expr, _ = parse_expr(systems["loop"], "fst(MkPair(loop, 0))")
    res = evaluate(programs("loop", "cr"), expr, max_steps=20, trace=True)
    assert res.outcome == "steplimit"
    report = validate_trace(systems["loop"], res)
    assert report.ok


def test_validation_of_a_short_run_over_a_deep_list(systems, programs):
    # comparing whole states as nested tuples once crashed the interpreter
    system = systems["append"]
    expr = Node(system.symbols["append"],
                [int_list(system, [1]), int_list(system, [2] * 100000)])
    res = evaluate(programs("append", "cr"), expr, max_steps=4, trace=True)
    assert res.outcome == "steplimit"
    assert validate_trace(system, res).ok


def test_validation_catches_a_dropped_step(systems, programs):
    expr, _ = parse_expr(systems["append"], APPEND_EXPR)
    res = evaluate(programs("append", "cr"), expr, trace=True)
    cut = next(i for i, s in enumerate(res.trace)
               if s.rule.step_class == "rewrite")
    del res.trace[cut]
    report = validate_trace(systems["append"], res)
    assert not report.ok
    assert report.violations


def test_validation_catches_a_swapped_rule(systems, programs):
    expr, _ = parse_expr(systems["append"], APPEND_EXPR)
    res = evaluate(programs("append", "cr"), expr, trace=True)
    rewrites = [i for i, s in enumerate(res.trace)
                if s.rule.step_class == "rewrite"]
    a, b = rewrites[0], rewrites[1]
    res.trace[a].rule, res.trace[b].rule = res.trace[b].rule, res.trace[a].rule
    report = validate_trace(systems["append"], res)
    assert not report.ok
    first = report.violations[0]
    assert first.step == a
    assert first.detail
    # the violation names the object rule that fired and its source rule
    assert first.rule is res.trace[a].rule
    assert first.source is res.trace[a].rule.source
    assert first.source is not None


def test_validation_catches_a_wrong_contractum(systems, programs):
    for mode in ("cr", "tr", "or"):
        expr, _ = parse_expr(systems["append"], APPEND_EXPR)
        res = evaluate(programs("append", mode), expr, trace=True)
        step = res.trace[1]
        assert step.rule.origin == "ctor-rooted"
        cons = step.contractum  # Cons(1, ...) becomes Cons(7, ...)
        step.contractum = Node(cons.label, (Node(7), cons.children[1]))
        report = validate_trace(systems["append"], res)
        assert str(report.violations[0]) == (
            "step 1: wrong-result: erased post-state is not the "
            "source-step result"), mode


def test_validation_reports_rather_than_raises_on_moved_rules(systems,
                                                              programs):
    # moving a dispatch rule onto a redex it does not fit once raised
    # IndexError; a proper rule must not pass for a bookkeeping one
    text = "length(append(Cons(4, Nil), Cons(5, Cons(6, Nil))))"
    for mode in ("cr", "tr", "or"):
        expr, _ = parse_expr(systems["length"], text)
        rules = [s.rule for s in
                 evaluate(programs("length", mode), expr, trace=True).trace]
        proper = [r.step_class in ("rewrite", "shortcut") for r in rules]
        for a, b in [(a, b) for a in range(len(rules))
                     for b in range(len(rules)) if proper[a] != proper[b]]:
            expr, _ = parse_expr(systems["length"], text)
            res = evaluate(programs("length", mode), expr, trace=True)
            res.trace[a].rule = rules[b]
            report = validate_trace(systems["length"], res)
            assert not report.ok, (mode, a, b)


def test_a_step_out_of_order_is_named_by_its_path(systems, programs):
    # the second mirror call's steps moved ahead of the first one's
    expected = {"cr": "mirror @2.1.1", "tr": "mirror^H @2.1",
                "or": "mirror^H @2.1"}
    for mode, where in expected.items():
        expr, _ = parse_expr(systems["tree"],
                             "Fork(mirror(Leaf), mirror(Leaf))")
        res = evaluate(programs("tree", mode), expr, trace=True)
        assert [s.rule.origin for s in res.trace[:6]] == [
            "norm-ctor", "norm-op", "ctor-rooted",
            "norm-ctor", "norm-op", "ctor-rooted"]
        res.trace[1:1] = [res.trace.pop(4), res.trace.pop(4)]
        report = validate_trace(systems["tree"], res)
        assert [str(v) for v in report.violations] == [
            f"step 2: not-needed: step fired at {where}, strategy demands "
            f"another mirror call"], mode


def test_a_dispatch_onto_a_constructor_is_named_by_its_path(systems,
                                                            programs):
    expected = {"cr": "Cons @1.1.1", "tr": "Cons @1.1", "or": "Cons @1.1"}
    for mode, where in expected.items():
        program = programs("length", mode)
        expr, _ = parse_expr(systems["length"], "length(Cons(4, Nil))")
        res = evaluate(program, expr, trace=True)
        assert res.trace[1].rule.origin == "op-rooted"
        # H(length(x)) in cr, length^H(append(u, v)) in tr and or
        (dispatch,) = [r for r in program.rules if r.origin == "dispatch"
                       and "length" in (r.head.name.removesuffix("^H"),
                                        r.lhs.args[0].label.name)]
        res.trace[1].rule = dispatch
        report = validate_trace(systems["length"], res)
        first = report.violations[0]
        assert str(first) == (f"step 1: dispatch-target: dispatch forced a "
                              f"non-operation node {where}"), mode


def test_a_wrapper_left_in_the_value_is_named_by_its_path(systems, programs):
    for mode in ("cr", "tr", "or"):
        expr, _ = parse_expr(systems["length"], "Cons(length(Nil), Nil)")
        res = evaluate(programs("length", mode), expr, trace=True)
        assert res.trace[3].rule.origin == "literal-norm"
        del res.trace[3]
        report = validate_trace(systems["length"], res)
        assert [str(v) for v in report.violations] == [
            "step 4: wrapper-in-value: final state contains N @1"], mode
