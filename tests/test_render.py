"""Text output: terms, trees, programs, traces, counter tables."""

from __future__ import annotations

from needle import evaluate, parse_expr
from needle.core import Node
from needle.deftree import build_all_deftrees
from needle.render import (
    erased_states,
    format_counter_table,
    format_node,
    format_trace,
    format_trees,
    trace_states,
)
from needle.runtime import Replay, source_label

from conftest import MODES, int_list

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
    one = Node(1)
    expr = Node(systems["fib"].symbols["add"], (one, one))
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


# ---- differential rendering ----------------------------------------------------

# One or two inputs per corpus system: fib(6)'s right sides share `n`, so a
# shared node is printed twice, and snd(MkPair(loop, 0)) keeps a call that is
# never evaluated; head(Nil) aborts.
RENDER_INPUTS = [
    ("append", "append(append(Cons(1, Nil), Nil), Cons(2, Cons(3, Nil)))"),
    ("length", "length(append(Cons(4, Nil), Cons(5, Cons(6, Nil))))"),
    ("fib", "fib(6)"),
    ("head", "head(Cons(add(40, 2), Cons(0, Nil)))"),
    ("head", "head(Nil)"),
    ("loop", "snd(MkPair(loop, 0))"),
    ("tree", "size(mirror(Fork(Tip(1), Fork(Tip(2), Leaf))))"),
]


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


def test_trace_rendering_matches_a_reference_renderer(systems, programs):
    for name, text in RENDER_INPUTS:
        for mode in MODES:
            expr, _ = parse_expr(systems[name], text)
            res = evaluate(programs(name, mode), expr, trace=True)
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
            assert trace_states(res) == states, (name, mode)
            assert erased_states(res) == erased, (name, mode)


def test_long_list_value_renders_as_text_built_without_needle(systems,
                                                              programs):
    system = systems["append"]
    xs, ys = list(range(5000)), list(range(-5000, 0))
    want = "".join(f"Cons({v}, " for v in xs + ys) + "Nil" + ")" * 10000
    for mode in MODES:
        expr = Node(system.symbols["append"],
                    [int_list(system, xs), int_list(system, ys)])
        res = evaluate(programs("append", mode), expr)
        assert format_node(res.root) == want, mode
