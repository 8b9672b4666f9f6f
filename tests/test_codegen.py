"""Object-code generation: sections, origins, phases, step classes, counts."""

from __future__ import annotations

import pytest

from needle import (build_all_deftrees, build_program, evaluate, parse_expr,
                    parse_system)
from needle.codegen import phase1, phase2
from needle.core import CONTROL, SPECIALIZED, AnyLit, H
from needle.render import (format_program, format_rule, format_trees,
                           rule_section)

from conftest import golden


def rules_in(program, section):
    return [r for r in program.rules if rule_section(r) == section]


def by_origin(program, origin):
    return [r for r in program.rules if r.origin == origin]


# ---- rule inventory ----------------------------------------------------------


def test_append_rule_inventory(programs):
    program = programs("append", "cr")
    assert [r.origin for r in rules_in(program, "h")] == [
        "collapse-instance",
        "collapse-instance",
        "collapse-default",
        "ctor-rooted",
        "dispatch",
    ]
    assert [r.origin for r in rules_in(program, "n")] == [
        "norm-ctor",  # Nil
        "norm-ctor",  # Cons
        "norm-op",    # append
    ]
    assert [r.origin for r in rules_in(program, "builtin")] == (
        ["builtin-leaf", "builtin-dispatch", "builtin-dispatch"] * 2
        + ["norm-op", "norm-op", "literal-norm"]
    )


def test_head_has_an_exempt_rule(programs):
    program = programs("head", "cr")
    (exempt,) = by_origin(program, "exempt")
    assert exempt.rhs is None
    assert exempt.step_class == "none"
    assert format_rule(exempt) == "H(head(Nil)) = abort  ; exempt"


def test_int_branch_compiles_guarded_rules(programs):
    program = programs("fib", "cr")
    listed = [format_rule(r) for r in rules_in(program, "h")]
    assert listed == [
        "H(fib(0)) = 0  ; ctor-rooted",
        "H(fib(1)) = 1  ; ctor-rooted",
        "H(fib(#n)) = H(add(fib(sub(#n, 1)), fib(sub(#n, 2))))  ; op-rooted",
        "H(fib(x)) = H(fib(H(x)))  ; dispatch",
    ]


def test_literal_guards_follow_every_int_default_above_the_rule():
    """A rule reached through two integer branches' defaults matches only
    literals at both positions; one reached through a literal child keeps
    its variable there."""
    system = parse_system("op f(Int, Int) -> Int: "
                          "f(0, y) = 1  f(x, 0) = 2  f(x, y) = sub(x, y);")
    listed = format_program(build_program(system, "cr")).splitlines()
    assert "H(f(#x, 0)) = 2  ; ctor-rooted" in listed
    assert "H(f(#x, #y)) = H(sub(#x, #y))  ; op-rooted" in listed


def test_dispatch_paths_locate_the_forced_argument(programs):
    (dispatch,) = by_origin(programs("append", "cr"), "dispatch")
    assert dispatch.dispatch_path == (0, 0)
    (dispatch,) = by_origin(programs("append", "tr"), "dispatch")
    assert dispatch.dispatch_path == (0,)
    for rule in by_origin(programs("append", "cr"), "builtin-dispatch"):
        assert rule.dispatch_path in ((0, 0), (0, 1))


# ---- transformation phases ---------------------------------------------------


def test_phase1_instantiates_wrapped_variables(programs, systems):
    system = systems["append"]
    staged = phase1(system, programs("append", "cr").rules)
    defaults = [format_rule(r) for r in staged if r.origin == "collapse-default"]
    # the one producer of List is append itself
    assert defaults == [
        "H(append(Nil, append(u, v))) = H(append(u, v))  ; collapse-default"
    ]


def test_phase1_drops_rules_with_no_producing_operation(programs):
    # nothing in head.rw returns List, so the H(x)-forcing rule vanishes
    assert by_origin(programs("head", "tr"), "dispatch") == []
    assert len(by_origin(programs("head", "cr"), "dispatch")) == 1


def test_phase2_fills_each_copy_of_a_shared_right_side(programs, systems):
    # H(add(#a, y)) = H(add(#a, H(y))) gets one copy per operation that
    # returns Int; the copies share one right side, and phase 2 specializes
    # each against its own left side
    staged = phase1(systems["length"], programs("length", "cr").rules)
    copies = [r for r in staged if r.origin == "builtin-dispatch"
              and r.lhs.args[0].label.name == "add"
              and isinstance(r.lhs.args[0].args[0], AnyLit)]
    assert len(copies) == 3
    assert len({id(r.rhs) for r in copies}) == 1
    special = {r.head.base: r.head for r in programs("length", "tr").rules
               if r.head.kind == SPECIALIZED}
    specialized = phase2(copies, special)
    assert [format_rule(r) for r in specialized] == [
        "add^H(#a, length(u)) = add^H(#a, length^H(u))  ; builtin-dispatch",
        "add^H(#a, add(u, v)) = add^H(#a, add^H(u, v))  ; builtin-dispatch",
        "add^H(#a, sub(u, v)) = add^H(#a, sub^H(u, v))  ; builtin-dispatch",
    ]


def test_phase2_specializes_every_wrapper(programs):
    for name in ("append", "length", "fib", "head", "loop", "tree"):
        for mode in ("tr", "or"):
            program = programs(name, mode)
            for rule in program.rules:
                assert rule.head is not H, format_rule(rule)
                assert rule.head.kind in (CONTROL, SPECIALIZED)
            # sections keep their meaning after specialization
            assert all(r.head.kind == SPECIALIZED for r in rules_in(program, "h"))


def test_specialized_symbols_remember_their_base(programs, systems):
    program = programs("append", "tr")
    append = systems["append"].symbols["append"]
    # every rule of append^H has the same interned head
    (special,) = {r.head for r in program.rules if r.head.name == "append^H"}
    assert special.base is append
    assert special.kind == SPECIALIZED


def test_needed_argument_wrapping_distinguishes_or_from_tr(programs):
    def op_rooted_rhs(program, headname):
        (rule,) = [r for r in program.rules
                   if r.origin == "op-rooted" and r.head.name == headname]
        return format_rule(rule)

    assert op_rooted_rhs(programs("fib", "tr"), "fib^H") == (
        "fib^H(#n) = add^H(fib(sub(#n, 1)), fib(sub(#n, 2)))  ; op-rooted")
    assert op_rooted_rhs(programs("fib", "or"), "fib^H") == (
        "fib^H(#n) = add^H(fib^H(sub^H(#n, 1)), fib^H(sub^H(#n, 2)))"
        "  ; op-rooted")
    assert op_rooted_rhs(programs("length", "or"), "length^H") == (
        "length^H(Cons(_, xs)) = add^H(1, length^H(xs))  ; op-rooted")


# ---- step classes and allocation counts ---------------------------------------


def test_step_classes_cr(programs):
    classes = {r.origin: r.step_class for r in programs("append", "cr").rules}
    assert classes == {
        "collapse-instance": "rewrite",
        "collapse-default": "rewrite",
        "ctor-rooted": "rewrite",
        "dispatch": "dispatch",
        "builtin-leaf": "rewrite",
        "builtin-dispatch": "dispatch",
        "norm-ctor": "norm",
        "norm-op": "norm",
        "literal-norm": "norm",
    }


def test_specialized_right_sides_upgrade_to_shortcut(programs):
    # collapse-default instances hand off to another specialized symbol
    # without a wrapper round trip: that is the shortcut step
    (inst,) = by_origin(programs("append", "tr"), "collapse-default")
    assert inst.step_class == "shortcut"
    # ... but argument-forcing rules stay dispatch steps
    (dispatch,) = by_origin(programs("append", "tr"), "dispatch")
    assert dispatch.step_class == "dispatch"
    # a right side rooted by the op's own specialization also shortcuts
    (loop_rule,) = [r for r in programs("loop", "tr").rules
                    if r.head.name == "loop^H"]
    assert format_rule(loop_rule) == "loop^H = loop^H  ; op-rooted"
    assert loop_rule.step_class == "shortcut"


def test_countable_allocations(programs, systems):
    # a step's allocations are the growth of the counter over that step,
    # read per fired rule off runs cut after k and k + 1 steps
    def allocs(name, mode, text):
        program, system = programs(name, mode), systems[name]
        trace = evaluate(program, parse_expr(system, text)[0],
                         trace=True).trace
        counts = [evaluate(program, parse_expr(system, text)[0], max_steps=k)
                  .counters.node_allocations for k in range(len(trace) + 1)]
        out = {}
        for step, before, after in zip(trace, counts, counts[1:]):
            out.setdefault(step.rule.origin, set()).add(after - before)
        return out

    cr = allocs("append", "cr",
                "append(append(Cons(1, Nil), Nil), Cons(2, Nil))")
    assert cr == {
        "collapse-instance": {0},  # reuse matched nodes
        "ctor-rooted": {2},        # Cons + append
        "dispatch": {0},
        "norm-op": {0},
        "norm-ctor": {0},
        "literal-norm": {0},
    }
    fib_cr = allocs("fib", "cr", "fib(3)")
    assert fib_cr["builtin-leaf"] == {1}  # the result literal
    assert fib_cr["builtin-dispatch"] == {0}
    # add, fib, sub, fib, sub and two literals
    assert fib_cr["op-rooted"] == {7}
    # specialized symbols are bookkeeping: only the two literals count
    assert allocs("fib", "or", "fib(3)")["op-rooted"] == {2}


def test_builtin_leaf_rules_know_their_operands(systems, programs):
    builtins = [systems["fib"].symbols[name] for name in ("add", "sub")]
    for mode in ("cr", "tr", "or"):
        leaves = by_origin(programs("fib", mode), "builtin-leaf")
        assert [r.source for r in leaves] == builtins, mode
        for rule in leaves:  # H(add(#a, #b)) in cr, add^H(#a, #b) else
            call = rule.lhs.args[0] if mode == "cr" else rule.lhs
            assert all(isinstance(p, AnyLit) for p in call.args), mode


def test_build_program_rejects_unknown_modes(systems):
    with pytest.raises(AssertionError):
        build_program(systems["append"], "xx")


# ---- variable names ------------------------------------------------------------

# Corpus operations have arity 2 or less.  This one has arity 6, branches on
# a constructor below the root, and has an Int branch with a default and
# one without.
WIDE = """
data T = A | B(T, T);

op g(T, Int) -> T:
    g(x, 0) = B(x, A)
    g(x, 1) = x;

op f(T, Int, T, Int, Int, T) -> Int:
    f(A, n, t, k, 0, s) = n
    f(A, n, t, k, 1, s) = k
    f(A, n, t, k, m, s) = add(m, 1)
    f(B(A, r), n, t, k, m, s) = n
    f(B(B(p, q), r), n, t, k, m, B(a, b)) = k
    f(B(B(p, q), r), n, t, k, m, A) = m;
"""


def test_variable_names_of_a_wide_operation():
    """Root variables are x, y, z, w, x5, x6; refinements take fresh names
    from u, v, w, z, then u1, v1, w1, z1, ..."""
    system = parse_system(WIDE, "wide")
    trees = build_all_deftrees(system)
    assert format_trees(system, trees) == golden("wide_tree.txt")
    for mode in ("cr", "tr"):
        assert format_program(build_program(system, mode)) == \
            golden(f"wide_{mode}.txt")
