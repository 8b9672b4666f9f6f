"""Parser and checker tests: tokens, declarations, rules, ground expressions."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needle import (SourceError, build_program, evaluate, oracle_eval,
                    parse_expr, parse_system)
from needle.cli import main
from needle.core import H, N, App, Lit, Node, Var
from needle.frontend import scan
from needle.render import format_node

NAT = """
data Nat = Z | S(Nat);
op double(Nat) -> Nat:
  double(Z) = Z
  double(S(n)) = S(S(double(n)))
;
"""


# ---- scanning ----------------------------------------------------------------


def test_scan_comments_positions_and_negative_literals():
    toks = scan("double(-3) -- rest is ignored\nZ")
    kinds = [(t.kind, t.text) for t in toks]
    assert kinds == [
        ("name", "double"),
        ("punct", "("),
        ("int", "-3"),
        ("punct", ")"),
        ("name", "Z"),
        ("eof", ""),
    ]
    assert toks[4].line == 2 and toks[4].col == 1


def test_end_of_input_after_a_comment_points_past_it():
    with pytest.raises(SourceError, match=r"^line 1:42: expected a term$"):
        parse_system("op f() -> Int: f = 1 -- missing semicolon")


def test_scan_character_classes():
    """Names start with a letter or `_` and go on with letters, digits of
    any script, `_` and `'`; an int is decimal digits of any script after
    an optional `-`; `--` starts a comment even before `>`."""
    for text in ("é٣", "ǅx", "_1", "x'"):
        assert [(t.kind, t.text) for t in scan(text)][0] == ("name", text)
    for text in ("٣", "-3"):
        assert [(t.kind, t.text) for t in scan(text)][0] == ("int", text)
    assert [(t.kind, t.text) for t in scan("->")][0] == ("punct", "->")
    assert [t.kind for t in scan("-->x")] == ["eof"]


@pytest.mark.parametrize("char", ["²", "½", "Ⅻ"])
def test_scan_rejects_digits_that_are_not_decimal(char):
    with pytest.raises(SourceError,
                       match=f"^line 2:3: unexpected character '{char}'$"):
        scan(f"f\n  {char}x")


# pieces that scan without error however they are joined
_PIECES = ["ab", "x'", "_1", "12", "-3", "->", "(", ")", ",", ";", "|", "=",
           ":", " ", "\t", "\r", "\n", "--", "-- c", "-- x\n", "é", "٣",
           "ǅ"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_PIECES)).map("".join))
def test_every_token_sits_at_its_position(text):
    """Each token's line and column lead to its text, in order, with only
    blanks and comments between, and end-of-input lies past the last
    character."""
    starts = [0] + [m.end() for m in re.finditer("\n", text)]
    end = 0
    for tok in scan(text):
        at = starts[tok.line - 1] + tok.col - 1
        assert re.fullmatch(r"(?:[ \t\r\n]|--[^\n]*)*", text[end:at]), tok
        assert text.startswith(tok.text, at), tok
        end = at + len(tok.text)
    assert tok.kind == "eof" and at == len(text)


def test_scan_rejects_stray_characters():
    with pytest.raises(SourceError, match="unexpected character"):
        scan("double(?)")


# ---- declarations ------------------------------------------------------------


def test_parse_minimal_system():
    system = parse_system(NAT, "nat")
    assert system.name == "nat"
    assert sorted(system.sorts) == ["Int", "Nat"]
    assert [c.name for c in system.sorts["Nat"]] == ["Z", "S"]
    s = system.symbols["S"]
    assert s.arity == 1 and s.arg_sorts == ("Nat",) and s.result_sort == "Nat"
    double = system.symbols["double"]
    assert [op.name for op in system.operations] == ["double"]
    assert len(system.rules[double]) == 2
    # add/sub are implicitly declared
    assert [b.name for b in system.builtins] == ["add", "sub"]
    assert system.symbols["add"].arg_sorts == ("Int", "Int")


def test_symbol_flags_follow_the_kind():
    """`is_data` marks symbols that may sit in source terms and values, and
    `is_op` those that are called rather than built."""
    system = parse_system(NAT, "nat")
    sym = system.symbols
    tr_heads = {rule.lhs.label for rule in build_program(system, "tr").rules}
    double_h = next(f for f in tr_heads if f.name == "double^H")
    flags = {f.name: (f.is_data, f.is_op) for f in (
        sym["Z"], sym["S"], sym["double"], sym["add"], sym["sub"], H, N,
        double_h)}
    assert flags == {"Z": (True, False), "S": (True, False),
                     "double": (True, True), "add": (True, True),
                     "sub": (True, True), "H": (False, False),
                     "N": (False, False), "double^H": (False, False)}


def test_ops_returning_lists_user_ops_before_builtins():
    system = parse_system(NAT + "op toInt(Nat) -> Int: toInt(Z) = 0 "
                          "toInt(S(n)) = add(1, toInt(n));")
    assert [f.name for f in system.ops_returning("Int")] == ["toInt", "add", "sub"]
    assert [f.name for f in system.ops_returning("Nat")] == ["double"]


def test_empty_signature_parentheses():
    system = parse_system("op one() -> Int: one = 1;")
    one = system.symbols["one"]
    assert one.arity == 0 and one.arg_sorts == ()


def test_duplicate_declarations_rejected():
    with pytest.raises(SourceError, match="duplicate declaration of 'Nat'"):
        parse_system("data Nat = Z; data Nat = W;")
    with pytest.raises(SourceError, match="duplicate declaration of 'Z'"):
        parse_system("data A = Z; data B = Z;")
    with pytest.raises(SourceError, match="duplicate declaration of 'add'"):
        parse_system("op add(Int) -> Int: add(x) = x;")


def test_name_case_conventions():
    with pytest.raises(SourceError, match="must be capitalized"):
        parse_system("data Nat = zero;")
    with pytest.raises(SourceError, match="must be lowercase"):
        parse_system("data Nat = Z; op Dbl(Nat) -> Nat: Dbl(x) = x;")


def test_unknown_sort_in_signature():
    with pytest.raises(SourceError, match="unknown sort 'List'"):
        parse_system("op f(List) -> Int: f(x) = 0;")


# Declarations may refer to later ones: operations and sorts may be mutually
# recursive.
EVEN_ODD = """data Nat = Z | S(Nat);
data B = T | F;
op even(Nat) -> B:
  even(Z) = T
  even(S(n)) = odd(n);
op odd(Nat) -> B:
  odd(Z) = F
  odd(S(n)) = even(n);
"""

ROSE = """data Tree = Node(Forest);
data Forest = FNil | FCons(Tree, Forest);
op size(Tree) -> Int:
  size(Node(f)) = add(1, sizes(f));
op sizes(Forest) -> Int:
  sizes(FNil) = 0
  sizes(FCons(t, f)) = add(size(t), sizes(f));
"""


def test_mutually_recursive_operations_evaluate_in_every_mode(tmp_path,
                                                              capsys):
    path = tmp_path / "even_odd.rw"
    path.write_text(EVEN_ODD)
    for expr, value in (("even(S(S(S(Z))))", "F"), ("odd(S(S(S(Z))))", "T")):
        for mode in ("source", "cr", "tr", "or"):
            assert main(["eval", str(path), expr, "--mode", mode]) == 0
            assert capsys.readouterr().out == f"{value}\n", (expr, mode)
        for mode in ("cr", "tr", "or"):
            assert main(["validate", str(path), expr, "--mode", mode]) == 0
            capsys.readouterr()


def test_a_sort_may_be_named_before_its_declaration():
    system = parse_system(ROSE)
    assert system.symbols["Node"].arg_sorts == ("Forest",)
    expr = "size(Node(FCons(Node(FNil), FCons(Node(FNil), FNil))))"
    source = oracle_eval(system, parse_expr(system, expr)[0])
    assert format_node(source.root) == "3"
    for mode in ("cr", "tr", "or"):
        result = evaluate(build_program(system, mode),
                          parse_expr(system, expr)[0])
        assert format_node(result.root) == "3", mode


@pytest.mark.parametrize("text, message, line, col", [
    ("data Tree = Node(Forest);\ndata Forst = FNil;",
     "unknown sort 'Forest'", 1, 18),
    ("data Nat = Z;\nop f(Nat) -> Nat:\n  f(n) = g(n);\n"
     "op h(Nat) -> Nat:\n  h(n) = n;", "unknown symbol 'g'", 3, 10),
])
def test_an_undeclared_later_name_fails_at_its_position(text, message, line,
                                                        col):
    with pytest.raises(SourceError, match=message) as err:
        parse_system(text)
    assert (err.value.line, err.value.col) == (line, col)


# ---- rule checking -----------------------------------------------------------


def test_rule_left_side_must_match_signature():
    with pytest.raises(SourceError, match="left side must be rooted by 'double'"):
        parse_system("data Nat = Z; op double(Nat) -> Nat: other(x) = x;")
    with pytest.raises(SourceError, match="'double' takes 1 argument"):
        parse_system("data Nat = Z; op double(Nat) -> Nat: double(x, y) = x;")


def test_operations_not_allowed_inside_patterns():
    bad = NAT + "op f(Nat) -> Nat: f(double(n)) = n;"
    with pytest.raises(SourceError, match="'double' not allowed inside a pattern"):
        parse_system(bad)


def test_patterns_must_be_left_linear():
    bad = ("data Pair = MkPair(Int, Int);\n"
           "op diag(Pair) -> Int: diag(MkPair(x, x)) = x;")
    with pytest.raises(SourceError, match="left-linear"):
        parse_system(bad)


def test_pattern_sort_and_arity_checks():
    with pytest.raises(SourceError, match="unknown constructor 'W'"):
        parse_system("data Nat = Z; op f(Nat) -> Nat: f(W(x)) = Z;")
    with pytest.raises(SourceError, match="'S' takes 1 argument"):
        parse_system("data Nat = Z | S(Nat); op f(Nat) -> Nat: f(S(x, y)) = Z;")
    bad = ("data A = MkA; data B = MkB;\n"
           "op f(A) -> A: f(MkB) = MkA;")
    with pytest.raises(SourceError, match="constructor 'MkB' has sort 'B'"):
        parse_system(bad)
    with pytest.raises(SourceError, match="literal where 'Nat' expected"):
        parse_system("data Nat = Z; op f(Nat) -> Nat: f(3) = Z;")


def test_wildcards_become_distinct_variables():
    system = parse_system("data Pair = MkPair(Int, Int);\n"
                          "op zero(Pair) -> Int: zero(MkPair(_, _)) = 0;")
    rule = system.rules[system.symbols["zero"]][0]
    pats = rule.lhs.args[0].args
    assert [p.name for p in pats] == ["_", "_2"]
    assert [p.sort for p in pats] == ["Int", "Int"]


# Left sides where a variable has a name a wildcard would be given: the
# wildcards must take other names, and every mode must return the value the
# source rules give.
SHADOWING = {
    "f(_2, _, _) = _2": ("f(_2, _, _3)", 1),
    "f(_, _, _2) = _2": ("f(_, _3, _2)", 3),
}


def test_wildcards_never_take_a_variable_name(tmp_path, capsys):
    for rule, (lhs, value) in SHADOWING.items():
        path = tmp_path / "shadow.rw"
        path.write_text(f"op f(Int, Int, Int) -> Int:\n    {rule};\n")
        assert main(["tree", str(path)]) == 0
        assert capsys.readouterr().out == f"op f\n  rule {lhs} = _2\n"
        for mode in ("source", "cr", "tr", "or"):
            assert main(["eval", str(path), "f(1, 2, 3)",
                         "--mode", mode]) == 0
            assert capsys.readouterr().out == f"{value}\n", (rule, mode)
        for mode in ("cr", "tr", "or"):
            assert main(["validate", str(path), "f(1, 2, 3)",
                         "--mode", mode]) == 0, (rule, mode)
            capsys.readouterr()


def test_right_side_checks():
    with pytest.raises(SourceError, match="unbound variable 'm'"):
        parse_system("data Nat = Z; op f(Nat) -> Nat: f(n) = m;")
    with pytest.raises(SourceError, match="wildcard not allowed on a rule right"):
        parse_system("data Nat = Z; op f(Nat) -> Nat: f(n) = _;")
    bad = NAT + "op g(Nat) -> Int: g(n) = n;"
    with pytest.raises(SourceError, match="variable 'n' has sort 'Nat'"):
        parse_system(bad)
    bad = NAT + "op h(Nat) -> Int: h(n) = double(n);"
    with pytest.raises(SourceError, match="'double' has sort 'Nat'"):
        parse_system(bad)
    with pytest.raises(SourceError, match="literal where 'Nat' expected"):
        parse_system("data Nat = Z; op f(Nat) -> Nat: f(n) = 3;")


def test_parsed_rule_structure():
    system = parse_system(NAT)
    double = system.symbols["double"]
    s = system.symbols["S"]
    base, step = system.rules[double]
    assert base.lhs == App(double, (App(system.symbols["Z"], ()),))
    assert base.rhs == App(system.symbols["Z"], ())
    assert step.lhs == App(double, (App(s, (Var("n", "Nat"),)),))
    assert step.rhs == App(s, (App(s, (App(double, (Var("n"),)),)),))
    assert (base.index, step.index) == (0, 1)


def test_literal_patterns_parse():
    system = parse_system("op isZero(Int) -> Int: isZero(0) = 1 isZero(n) = 0;")
    rules = system.rules[system.symbols["isZero"]]
    assert rules[0].lhs.args == (Lit(0),)
    assert rules[1].rhs == Lit(0)


def test_literals_must_fit_in_64_bits():
    text = "op f(Int) -> Int: f({}) = {};"
    system = parse_system(text.format(-2**63, 2**63 - 1))
    assert system.rules[system.symbols["f"]][0].rhs == Lit(2**63 - 1)
    with pytest.raises(SourceError, match=r"line 1:26: integer literal "
                                          r"9223372036854775808 is outside"):
        parse_system(text.format(0, 2**63))
    with pytest.raises(SourceError, match=r"line 1:21: integer literal "
                                          r"-9223372036854775809 is outside"):
        parse_system(text.format(-2**63 - 1, 0))
    with pytest.raises(SourceError, match=r"line 1:10: integer literal "
                                          r"99999999999999999999 is outside"):
        parse_expr(system, "f(add(1, 99999999999999999999))")


# ---- ground expressions ------------------------------------------------------


def test_parse_expr_builds_sorted_graphs():
    system = parse_system(NAT)
    node, sort = parse_expr(system, "double(S(S(Z)))")
    assert sort == "Nat"
    assert node.label is system.symbols["double"]
    inner = node.children[0]
    assert inner.label is system.symbols["S"]
    lit, sort = parse_expr(system, "-7")
    assert sort == "Int" and lit.label == -7 and lit.children == ()


def test_parse_expr_rejects_bad_input():
    system = parse_system(NAT)
    with pytest.raises(SourceError, match="must be ground"):
        parse_expr(system, "double(_)")
    with pytest.raises(SourceError, match="unknown symbol 'q'"):
        parse_expr(system, "double(q)")
    with pytest.raises(SourceError, match="'S' takes 1 argument"):
        parse_expr(system, "S(Z, Z)")
    with pytest.raises(SourceError, match="has sort 'Int', expected 'Nat'"):
        parse_expr(system, "double(3)")
    with pytest.raises(SourceError, match="trailing input"):
        parse_expr(system, "Z Z")


def test_error_positions_point_at_the_offence():
    try:
        parse_system("data Nat = Z;\nop f(Nat) -> Bad: f(n) = n;")
    except SourceError as err:
        assert err.line == 2
        assert err.col == 14
    else:
        pytest.fail("expected a SourceError")


def test_rule_sides_nest_at_most_1000_deep():
    # checking once recursed per nesting level, and 20,000 levels crashed
    # the interpreter; the limit counts the argument lists around a term
    def rule(lhs_depth, rhs_depth):
        lhs = "S(" * lhs_depth + "x" + ")" * lhs_depth
        rhs = "S(" * rhs_depth + "x" + ")" * rhs_depth
        return f"op f(Nat) -> Nat: f({lhs}) = {rhs};"

    parse_system("data Nat = Z | S(Nat);\n" + rule(999, 1000))
    # the error points at the first term inside 1,001 argument lists
    lhs_start, rhs_start = len("op f(Nat) -> Nat: f("), len(rule(0, 0)) - 2
    for line, col in ((rule(1000, 0), lhs_start + 2 * 1000 + 1),
                      (rule(0, 1001), rhs_start + 2 * 1001 + 1),
                      (rule(0, 20000), rhs_start + 2 * 1001 + 1)):
        with pytest.raises(SourceError,
                           match="nested more than 1000 levels deep") as err:
            parse_system("data Nat = Z | S(Nat);\n" + line)
        assert (err.value.line, err.value.col) == (2, col)


def test_deep_expressions_parse_evaluate_and_print(systems):
    # parsing once recursed per nesting level and failed near 100,000
    system = systems["length"]
    depth = 200000
    text = "length(" + "Cons(1, " * depth + "Nil" + ")" * (depth + 1)
    expr, _ = parse_expr(system, text)
    assert format_node(expr) == text
    items = expr.children[0]
    res = evaluate(build_program(system, "or"), expr)
    assert (res.outcome, res.root.label) == ("value", depth)
    # evaluation rewrites calls only, so the parsed list is still intact
    res = oracle_eval(system, Node(system.symbols["length"], [items]))
    assert (res.outcome, res.root.label) == ("value", depth)
