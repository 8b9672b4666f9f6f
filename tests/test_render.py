"""Text output: terms, trees, programs, traces, counter tables."""

from __future__ import annotations

from needle import evaluate, parse_expr
from needle.deftree import build_all_deftrees
from needle.render import (
    erased_states,
    format_counter_table,
    format_node,
    format_trace,
    format_trees,
    trace_states,
)

APPEND_EXPR = "append(Cons(1, Nil), Cons(2, Nil))"


def test_node_rendering_round_trips_canonical_text(systems):
    for name, text in [
        ("append", APPEND_EXPR),
        ("fib", "add(fib(-3), 4)"),
        ("tree", "size(Fork(Tip(1), Leaf))"),
        ("loop", "snd(MkPair(loop, 0))"),
    ]:
        expr, _ = parse_expr(systems[name], text)
        assert format_node(expr) == text


def test_shared_nodes_print_as_their_unfolding(systems):
    expr, _ = parse_expr(systems["fib"], "add(1, 2)")
    expr.children[1] = expr.children[0]
    assert format_node(expr) == "add(1, 1)"


def test_tree_listing(systems):
    text = format_trees(systems["fib"], build_all_deftrees(systems["fib"]))
    assert text == (
        "op fib\n"
        "  branch @1 (Int)\n"
        "    0:\n"
        "      rule fib(0) = 0\n"
        "    1:\n"
        "      rule fib(1) = 1\n"
        "    default:\n"
        "      rule fib(n) = add(fib(sub(n, 1)), fib(sub(n, 2)))\n"
    )
    text = format_trees(systems["head"], build_all_deftrees(systems["head"]))
    assert "    Nil:\n      exempt\n" in text


def test_tree_listing_can_be_restricted(systems):
    system = systems["tree"]
    trees = build_all_deftrees(system)
    assert format_trees(system, trees, only="mirror").startswith("op mirror\n")
    assert "op size" not in format_trees(system, trees, only="mirror")


def test_counter_table_layout(systems, programs):
    results = []
    for mode in ("cr", "tr", "or"):
        expr, _ = parse_expr(systems["fib"], "fib(5)")
        results.append((mode, evaluate(programs("fib", mode), expr)))
    table = format_counter_table(results)
    lines = table.splitlines()
    assert lines[0].split() == ["cr", "tr", "or"]
    assert lines[1].split() == ["rewrite", "steps", "36", "29", "29"]
    assert "per 10 rewrite steps of cr:" in lines
    assert any(line.split() == ["rewrite", "steps", "10.00", "8.06", "8.06"]
               for line in lines)


def test_trace_states_include_initial_and_final(systems, programs):
    for name, text, value, hidden in [
        ("append", APPEND_EXPR, "Cons(1, Cons(2, Nil))", 2),
        ("fib", "fib(1)", "1", 0),  # the run ends with a literal norm
    ]:
        expr, _ = parse_expr(systems[name], text)
        res = evaluate(programs(name, "cr"), expr, trace=True)
        states = trace_states(res)
        assert states[0] == f"N({text})"
        assert states[-1] == value
        # literal normalization steps do not change the printed term
        assert len(states) == len(res.trace) + 1 - hidden

        numbered = format_trace(res).splitlines()
        assert len(numbered) == len(states)
        assert numbered[0].endswith(states[0])


def test_erased_states_collapse_to_source_steps(systems, programs):
    expr, _ = parse_expr(systems["append"], APPEND_EXPR)
    res = evaluate(programs("append", "cr"), expr, trace=True)
    erased = erased_states(res)
    assert erased[0] == APPEND_EXPR
    assert erased[-1] == "Cons(1, Cons(2, Nil))"
    assert len(erased) == res.proper_steps + 1
