"""Definitional trees: construction and demanded arguments."""

from __future__ import annotations

import pytest

from needle import (
    DuplicateRule,
    NotInductivelySequential,
    build_all_deftrees,
    build_deftree,
    build_program,
    evaluate,
    oracle_eval,
    parse_expr,
    parse_system,
    validate_trace,
)
from needle import deftree
from needle.core import SourceRule
from needle.deftree import (
    DTBranch,
    DTIntBranch,
    demanded_args,
)

from conftest import MODES, load_system


def tree_for(system, opname):
    return build_deftree(system, system.symbols[opname])


# ---- shapes ------------------------------------------------------------------


def test_append_tree_branches_on_first_argument(systems):
    system = systems["append"]
    tree = tree_for(system, "append")
    assert isinstance(tree, DTBranch)
    assert tree.path == (0,) and tree.sort == "List"
    (nil, sub_nil), (cons, sub_cons) = tree.children
    assert (nil.name, cons.name) == ("Nil", "Cons")
    rules = system.rules[system.symbols["append"]]
    assert sub_nil is rules[0]
    assert sub_cons is rules[1]


def test_fib_tree_is_a_literal_branch_with_default(systems):
    system = systems["fib"]
    tree = tree_for(system, "fib")
    assert isinstance(tree, DTIntBranch)
    assert tree.path == (0,)
    rules = system.rules[system.symbols["fib"]]
    assert [(v, sub.index) for v, sub in tree.children] == [(0, 0), (1, 1)]
    # the variable rule becomes the default (codegen guards its variable)
    assert tree.default is rules[2]


def test_head_tree_marks_the_missing_constructor_exempt(systems):
    system = systems["head"]
    tree = tree_for(system, "head")
    children = dict((c.name, sub) for c, sub in tree.children)
    assert children["Nil"] is None
    assert isinstance(children["Cons"], SourceRule)


def test_nullary_operation_tree_is_a_plain_rule(systems):
    system = systems["loop"]
    tree = tree_for(system, "loop")
    assert isinstance(tree, SourceRule)
    assert tree.op.name == "loop"


def test_nested_branching_descends_into_subpatterns():
    system = parse_system("""
        data Pair = MkPair(Int, Int);
        data List = Nil | Cons(Pair, List);
        op firsts(List) -> List:
          firsts(Nil) = Nil
          firsts(Cons(MkPair(x, _), r)) = Cons(MkPair(x, 0), firsts(r))
        ;
    """)
    tree = tree_for(system, "firsts")
    assert isinstance(tree, DTBranch) and tree.path == (0,)
    sub_cons = dict((c.name, sub) for c, sub in tree.children)["Cons"]
    assert isinstance(sub_cons, DTBranch)
    assert sub_cons.path == (0, 0) and sub_cons.sort == "Pair"
    (_, leaf), = sub_cons.children
    assert isinstance(leaf, SourceRule)


def test_trees_branch_on_literals_without_default():
    system = parse_system("op sign(Int) -> Int: sign(0) = 0 sign(1) = 1;")
    tree = tree_for(system, "sign")
    assert isinstance(tree, DTIntBranch)
    assert [v for v, _ in tree.children] == [0, 1]
    assert tree.default is None


def test_build_all_deftrees_covers_user_operations(systems):
    system = systems["tree"]
    trees = build_all_deftrees(system)
    assert sorted(op.name for op in trees) == ["mirror", "size"]


# ---- one build per system ----------------------------------------------------


def test_a_system_builds_its_trees_once(monkeypatch):
    built = []
    build = deftree.build_deftree
    monkeypatch.setattr(deftree, "build_deftree",
                        lambda system, op: built.append(op) or build(system, op))
    system = load_system("fib")
    assert system.trees is None
    trees = build_all_deftrees(system)
    assert build_all_deftrees(system) is trees is system.trees
    assert len(built) == len(system.operations)
    for mode in MODES:
        assert build_program(system, mode).trees is system.trees
    result = evaluate(build_program(system, "or"),
                      parse_expr(system, "fib(6)")[0], trace=True)
    assert validate_trace(system, result).ok
    assert len(built) == len(system.operations)
    assert oracle_eval(system, parse_expr(system, "fib(6)")[0]).steps \
        == result.proper_steps
    assert len(built) == len(system.operations)


# ---- rejection ---------------------------------------------------------------


def test_duplicate_rules_rejected():
    src = "data A = MkA; op f(A) -> A: f(x) = x f(y) = MkA;"
    with pytest.raises(DuplicateRule, match="rules 1 and 2 have the same left"):
        build_all_deftrees(parse_system(src))


def test_overlapping_variable_rule_rejected():
    src = ("data Nat = Z | S(Nat);\n"
           "op f(Nat) -> Nat: f(Z) = Z f(x) = x f(S(n)) = n;")
    with pytest.raises(NotInductivelySequential,
                       match="rule 2 overlaps rule 1 and can never apply"):
        build_all_deftrees(parse_system(src))


def test_parallel_patterns_rejected():
    src = ("data S = A | B;\n"
           "op f(S, S) -> Int: f(A, y) = 0 f(x, B) = 1;")
    with pytest.raises(NotInductivelySequential,
                       match="no argument position is demanded"):
        build_all_deftrees(parse_system(src))


def test_a_rejected_system_keeps_no_trees():
    system = parse_system("data S = A | B;\n"
                          "op f(S, S) -> Int: f(A, y) = 0 f(x, B) = 1;")
    messages = []
    for _ in range(2):
        with pytest.raises(NotInductivelySequential) as caught:
            build_all_deftrees(system)
        messages.append(str(caught.value))
        assert system.trees is None
    assert messages[0] == messages[1]


# ---- demanded arguments ------------------------------------------------------


def test_demanded_args(systems):
    for name, opname, want in [
        ("append", "append", {0}),
        ("length", "length", {0}),
        ("fib", "fib", {0}),
        ("head", "head", {0}),
        ("loop", "snd", {0}),
        ("loop", "loop", set()),
        ("tree", "size", {0}),
        ("tree", "mirror", {0}),
    ]:
        system = systems[name]
        op = system.symbols[opname]
        assert demanded_args(op, build_deftree(system, op)) == want, opname


def test_builtins_demand_every_argument(systems):
    add = systems["fib"].symbols["add"]
    assert demanded_args(add, None) == {0, 1}
