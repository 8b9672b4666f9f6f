"""Parser and checker for `.rw` rewrite-system definitions.

The surface language is deliberately small:

    data List = Nil | Cons(Int, List);
    op append(List, List) -> List:
        append(Nil, y) = y
        append(Cons(x, xs), y) = Cons(x, append(xs, y));

`data` declares a sort with its constructors (declaration order matters for
compilation).  `op` declares an operation with its signature and rules.  Rules
are first-order, left-linear, and monomorphically typed.  The sort `Int` with
integer literals and the builtin operations `add` and `sub` are predeclared.
`--` starts a line comment.  `_` is a wildcard pattern.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import partial

from .core import (
    BUILTIN,
    CONSTRUCTOR,
    INT_MAX,
    INT_MIN,
    INT_SORT,
    OPERATION,
    NeedleError,
    Node,
    PApp,
    PLit,
    PVar,
    RApp,
    RLit,
    RVar,
    SourceRule,
    Symbol,
)


class SourceError(NeedleError):
    """Syntax or well-formedness error in a `.rw` file or expression."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"line {line}:{col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


# The deepest nesting of argument lists in a rule side: definitional trees and
# compilation recurse through rule sides.  Ground expressions are unlimited.
MAX_RULE_DEPTH = 1000


# ---- scanner ----------------------------------------------------------------

PUNCT = {"(", ")", ",", ";", "|", "=", ":", "->"}


@dataclass
class Token:
    kind: str  # "name", "int", "punct", "eof"
    text: str
    line: int
    col: int


def scan(text):
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if text.startswith("->", i):
            tokens.append(Token("punct", "->", start_line, start_col))
            i += 2
            col += 2
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(Token("name", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c in "(),;|=:":
            tokens.append(Token("punct", c, start_line, start_col))
            i += 1
            col += 1
            continue
        raise SourceError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---- system -----------------------------------------------------------------


@dataclass
class System:
    """A parsed and checked rewrite system."""

    name: str
    sorts: dict = field(default_factory=dict)  # sort name -> [constructor symbols]
    operations: list = field(default_factory=list)  # user ops, declaration order
    builtins: list = field(default_factory=list)
    symbols: dict = field(default_factory=dict)  # symbol name -> Symbol
    rules: dict = field(default_factory=dict)  # op Symbol -> [SourceRule]

    def ops_returning(self, sort):
        """All operations (user then builtin) whose result is `sort`."""
        out = [f for f in self.operations if f.result_sort == sort]
        out.extend(f for f in self.builtins if f.result_sort == sort)
        return out

    @property
    def all_operations(self):
        return list(self.operations) + list(self.builtins)


def _fresh_system(name):
    system = System(name=name)
    system.sorts[INT_SORT] = []  # literals stand in for Int constructors
    for bname in ("add", "sub"):
        sym = Symbol(bname, BUILTIN, 2, (INT_SORT, INT_SORT), INT_SORT)
        system.builtins.append(sym)
        system.symbols[bname] = sym
    return system


# ---- parser -----------------------------------------------------------------


class _Parser:
    def __init__(self, tokens, system):
        self.tokens = tokens
        self.pos = 0
        self.system = system

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise SourceError(message, tok.line, tok.col)

    def expect(self, kind, text=None):
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            self.fail(f"expected {want!r}, found {tok.text!r}", tok)
        return tok

    # declarations -------------------------------------------------------

    def parse_system(self):
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind == "name" and tok.text == "data":
                self.parse_data()
            elif tok.kind == "name" and tok.text == "op":
                self.parse_op()
            else:
                self.fail("expected 'data' or 'op' declaration", tok)
        return self.system

    def parse_sort_name(self):
        tok = self.expect("name")
        if tok.text not in self.system.sorts:
            self.fail(f"unknown sort {tok.text!r}", tok)
        return tok.text

    def parse_data(self):
        self.expect("name", "data")
        name_tok = self.expect("name")
        sort = name_tok.text
        if sort in self.system.sorts or sort in self.system.symbols:
            self.fail(f"duplicate declaration of {sort!r}", name_tok)
        self.system.sorts[sort] = []
        self.expect("punct", "=")
        while True:
            ctor_tok = self.expect("name")
            cname = ctor_tok.text
            if cname in self.system.symbols or cname in self.system.sorts:
                self.fail(f"duplicate declaration of {cname!r}", ctor_tok)
            if not cname[0].isupper():
                self.fail("constructor names must be capitalized", ctor_tok)
            arg_sorts = self.parse_sig_args()
            sym = Symbol(cname, CONSTRUCTOR, len(arg_sorts), arg_sorts, sort)
            self.system.sorts[sort].append(sym)
            self.system.symbols[cname] = sym
            tok = self.peek()
            if tok.kind == "punct" and tok.text == "|":
                self.next()
                continue
            break
        self.expect("punct", ";")

    def parse_sig_args(self):
        tok = self.peek()
        if tok.kind == "punct" and tok.text == "(":
            self.next()
            sorts = []
            if not (self.peek().kind == "punct" and self.peek().text == ")"):
                sorts.append(self.parse_sort_name())
                while self.peek().text == ",":
                    self.next()
                    sorts.append(self.parse_sort_name())
            self.expect("punct", ")")
            return tuple(sorts)
        return ()

    def parse_op(self):
        self.expect("name", "op")
        name_tok = self.expect("name")
        fname = name_tok.text
        if fname in self.system.symbols or fname in self.system.sorts:
            self.fail(f"duplicate declaration of {fname!r}", name_tok)
        if not fname[0].islower():
            self.fail("operation names must be lowercase", name_tok)
        arg_sorts = self.parse_sig_args()
        self.expect("punct", "->")
        result = self.parse_sort_name()
        sym = Symbol(fname, OPERATION, len(arg_sorts), arg_sorts, result)
        self.system.operations.append(sym)
        self.system.symbols[fname] = sym
        self.system.rules[sym] = []
        self.expect("punct", ":")
        while not (self.peek().kind == "punct" and self.peek().text == ";"):
            self.parse_rule(sym)
        self.expect("punct", ";")

    # rules --------------------------------------------------------------

    def parse_rule(self, op):
        lhs_raw = self.parse_term()
        self.expect("punct", "=")
        rhs_raw = self.parse_term()
        var_sorts = {}
        lhs = self.check_side(lhs_raw, op, PApp, partial(
            self.check_pattern, op=op, var_sorts=var_sorts, wilds=[0]))
        rhs = self.check_side(rhs_raw, op.result_sort, RApp,
                              partial(self.check_rhs, var_sorts=var_sorts))
        rule = SourceRule(op, lhs, rhs, len(self.system.rules[op]), var_sorts)
        self.system.rules[op].append(rule)

    def parse_term(self):
        """A raw term: ("lit", value, tok), ("wild", None, tok) or
        ("app", (name, [raw args]), tok).  Iterative, so any depth parses."""
        open_apps = []  # (tok, args so far) of applications still open
        while True:
            tok = self.next()
            if tok.kind == "int":
                value = int(tok.text)
                if not INT_MIN <= value <= INT_MAX:
                    self.fail(f"integer literal {tok.text} is outside the "
                              f"64-bit range", tok)
                term = ("lit", value, tok)
            elif tok.kind != "name":
                self.fail("expected a term", tok)
            elif tok.text == "_":
                term = ("wild", None, tok)
            else:
                if self.peek().kind == "punct" and self.peek().text == "(":
                    self.next()
                    if not (self.peek().kind == "punct"
                            and self.peek().text == ")"):
                        open_apps.append((tok, []))
                        continue
                    self.expect("punct", ")")
                term = ("app", (tok.text, []), tok)
            while open_apps:
                open_apps[-1][1].append(term)
                if self.peek().text == ",":
                    self.next()
                    break
                self.expect("punct", ")")
                tok, args = open_apps.pop()
                term = ("app", (tok.text, args), tok)
            else:
                return term

    # checking -----------------------------------------------------------

    def check_side(self, raw, sort, build, check_term):
        """Check a rule side without recursion.  `check_term(raw, sort)`
        returns a checked leaf, or the symbol of an application whose
        arguments are checked next; `build(symbol, args)` then makes it.
        No term may sit inside more than MAX_RULE_DEPTH argument lists."""
        open_apps = []  # (symbol, raw args, checked args) of open applications
        while True:
            if len(open_apps) > MAX_RULE_DEPTH:
                self.fail(f"rule side nested more than {MAX_RULE_DEPTH} "
                          f"levels deep", raw[2])
            term = check_term(raw, sort)
            if term.__class__ is Symbol:
                if raw[1][1]:
                    open_apps.append((term, raw[1][1], []))
                    raw, sort = raw[1][1][0], term.arg_sorts[0]
                    continue
                term = build(term, ())
            while open_apps:
                sym, args, done = open_apps[-1]
                done.append(term)
                if len(done) < len(args):
                    raw, sort = args[len(done)], sym.arg_sorts[len(done)]
                    break
                open_apps.pop()
                term = build(sym, tuple(done))
            else:
                return term

    def check_pattern(self, raw, sort, op, var_sorts, wilds):
        """One left-side term: a checked leaf, or a symbol to apply.  The
        root, whose `sort` is `op`, must be a call of `op`."""
        kind, payload, tok = raw
        if sort is op:
            if kind != "app" or payload[0] != op.name:
                self.fail(f"rule left side must be rooted by {op.name!r}", tok)
            if len(payload[1]) != op.arity:
                self.fail(f"{op.name!r} takes {op.arity} argument(s)", tok)
            return op
        if kind == "lit":
            if sort != INT_SORT:
                self.fail(f"integer literal where {sort!r} expected", tok)
            return PLit(payload)
        if kind == "wild":
            wilds[0] += 1
            name = "_" if wilds[0] == 1 else f"_{wilds[0]}"
            var_sorts[name] = sort
            return PVar(name, sort)
        name, args = payload
        sym = self.system.symbols.get(name)
        if sym is not None and sym.kind == CONSTRUCTOR:
            if sym.result_sort != sort:
                self.fail(f"constructor {name!r} has sort {sym.result_sort!r}, "
                          f"expected {sort!r}", tok)
            if len(args) != sym.arity:
                self.fail(f"{name!r} takes {sym.arity} argument(s)", tok)
            return sym
        if sym is not None:
            self.fail(f"operation {name!r} not allowed inside a pattern", tok)
        if args:
            self.fail(f"unknown constructor {name!r}", tok)
        if name in var_sorts:
            self.fail(f"pattern variable {name!r} repeated (rules must be "
                      f"left-linear)", tok)
        var_sorts[name] = sort
        return PVar(name, sort)

    def check_rhs(self, raw, sort, var_sorts):
        """One right-side term: a checked leaf, or a symbol to apply."""
        kind, payload, tok = raw
        if kind == "lit":
            if sort != INT_SORT:
                self.fail(f"integer literal where {sort!r} expected", tok)
            return RLit(payload)
        if kind == "wild":
            self.fail("wildcard not allowed on a rule right side", tok)
        name, args = payload
        sym = self.system.symbols.get(name)
        if sym is None:
            if args:
                self.fail(f"unknown symbol {name!r}", tok)
            if name not in var_sorts:
                self.fail(f"unbound variable {name!r} on rule right side", tok)
            if var_sorts[name] != sort:
                self.fail(f"variable {name!r} has sort {var_sorts[name]!r}, "
                          f"expected {sort!r}", tok)
            return RVar(name)
        if sym.result_sort != sort:
            self.fail(f"{name!r} has sort {sym.result_sort!r}, expected "
                      f"{sort!r}", tok)
        if len(args) != sym.arity:
            self.fail(f"{name!r} takes {sym.arity} argument(s)", tok)
        return sym


def parse_system(text, name="system"):
    """Parse and check a `.rw` definition, returning a `System`."""
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 100000))
    return _Parser(scan(text), _fresh_system(name)).parse_system()


# ---- ground expressions -----------------------------------------------------


def parse_expr(system, text):
    """Parse a ground expression over `system`, returning (root Node, sort)."""
    parser = _Parser(scan(text), system)
    raw = parser.parse_term()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail(f"trailing input after expression: {tok.text!r}", tok)
    return _build_expr(system, raw)


def _build_expr(system, raw):
    """The graph of a raw term and its sort, built bottom-up without
    recursion; each argument's sort is checked as soon as it is built."""
    open_apps = []  # (symbol, raw args, built children) of open applications
    while True:
        kind, payload, tok = raw
        if kind == "lit":
            node, sort = Node(payload), INT_SORT
        else:
            if kind == "wild":
                raise SourceError("expressions must be ground ('_' not "
                                  "allowed)", tok.line, tok.col)
            name, args = payload
            sym = system.symbols.get(name)
            if sym is None:
                raise SourceError(f"unknown symbol {name!r} (expressions "
                                  f"must be ground)", tok.line, tok.col)
            if len(args) != sym.arity:
                raise SourceError(f"{name!r} takes {sym.arity} argument(s)",
                                  tok.line, tok.col)
            if args:
                open_apps.append((sym, args, []))
                raw = args[0]
                continue
            node, sort = Node(sym), sym.result_sort
        while open_apps:
            sym, args, kids = open_apps[-1]
            want, a = sym.arg_sorts[len(kids)], args[len(kids)]
            if sort != want:
                raise SourceError(f"argument of {sym.name!r} has sort "
                                  f"{sort!r}, expected {want!r}",
                                  a[2].line, a[2].col)
            kids.append(node)
            if len(kids) < len(args):
                raw = args[len(kids)]
                break
            open_apps.pop()
            node, sort = Node(sym, kids), sym.result_sort
        else:
            return node, sort
