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

import re
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, count

from .core import (
    BUILTIN,
    CONSTRUCTOR,
    INT_MAX,
    INT_MIN,
    INT_SORT,
    OPERATION,
    App,
    Lit,
    NeedleError,
    Node,
    SourceRule,
    Symbol,
    Var,
    acyclic,
)


class SourceError(NeedleError):
    """Syntax or well-formedness error in a `.rw` file or expression."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"line {line}:{col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


# The deepest nesting of argument lists in a rule side.  No walk recurses over
# rule sides, so the bound is not about the stack; it caps compile cost.  A
# left side n deep compiles to about 2n object rules of up to n nodes each: at
# n = 999, `needle compile` prints 2,000 rules (4.5 MB) in about 5 s in cr and
# 10 s in tr (2-core x86-64 VM shared with other tenants, CPython 3.11), about
# four times what n = 500 takes.
# Ground expressions are unlimited.
MAX_RULE_DEPTH = 1000


# ---- scanner ----------------------------------------------------------------

# One group per token kind, tried in order.  `[^\W\d]` also admits digits
# that are not decimal, such as `²`: `scan` rejects a name starting so.
_TOKEN = re.compile(r"""
    (?P<newline>\n)
  | (?P<blank>[ \t\r]+|--[^\n]*)
  | (?P<punct>->|[(),;|=:])
  | (?P<int>-?\d+)
  | (?P<name>[^\W\d][\w']*)
""", re.VERBOSE)


@dataclass(slots=True)
class Token:
    kind: str  # "name", "int", "punct", "eof"
    text: str
    line: int
    col: int


def scan(text):
    tokens, i, line, col = [], 0, 1, 1
    while i < len(text):
        match = _TOKEN.match(text, i)
        kind = match and match.lastgroup
        if kind is None or kind == "name" and not (
                text[i].isalpha() or text[i] == "_"):
            raise SourceError(f"unexpected character {text[i]!r}", line, col)
        if kind == "newline":
            line, col = line + 1, 1
        else:
            if kind != "blank":
                tokens.append(Token(kind, match.group(), line, col))
            col += match.end() - i
        i = match.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---- system -----------------------------------------------------------------


@dataclass(slots=True)
class System:
    """A parsed and checked rewrite system."""

    name: str
    sorts: dict = field(default_factory=dict)  # sort name -> [constructor symbols]
    operations: list = field(default_factory=list)  # user ops, declaration order
    builtins: list = field(default_factory=list)
    symbols: dict = field(default_factory=dict)  # symbol name -> Symbol
    rules: dict = field(default_factory=dict)  # op Symbol -> [SourceRule]
    # op Symbol -> definitional tree, filled by `build_all_deftrees`
    trees: dict = field(default=None, repr=False, compare=False)

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
        self.sort_toks = []  # sort names, checked once every sort is declared

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
        """Read every declaration, then check the sort names and the rules
        in file order, so a declaration may refer to a later one."""
        rules = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind == "name" and tok.text == "data":
                self.parse_data()
            elif tok.kind == "name" and tok.text == "op":
                rules += self.parse_op()
            else:
                self.fail("expected 'data' or 'op' declaration", tok)
        for tok in self.sort_toks:
            if tok.text not in self.system.sorts:
                self.fail(f"unknown sort {tok.text!r}", tok)
        for rule in rules:
            self.check_rule(*rule)
        return self.system

    def parse_sort_name(self):
        tok = self.expect("name")
        self.sort_toks.append(tok)
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
        rules = []
        while not (self.peek().kind == "punct" and self.peek().text == ";"):
            rules.append(self.parse_rule(sym))
        self.expect("punct", ";")
        return rules

    # rules --------------------------------------------------------------

    def parse_rule(self, op):
        """A rule's raw sides, with the names its wildcards take."""
        start = self.pos
        lhs_raw = self.parse_term()
        # Wildcards take the first names of `_`, `_2`, `_3`, ... that no
        # variable of the left side has.
        taken = {tok.text for tok in self.tokens[start:self.pos]} - {"_"}
        wilds = (name for name in chain(["_"], map("_{}".format, count(2)))
                 if name not in taken)
        self.expect("punct", "=")
        return op, lhs_raw, self.parse_term(), wilds

    def check_rule(self, op, lhs_raw, rhs_raw, wilds):
        var_sorts = {}
        app = lambda sym, args, *_: App(sym, args)
        lhs = self.check_side(
            lhs_raw, op, app, partial(self.check_pattern, op=op,
                                      var_sorts=var_sorts, wilds=wilds))
        rhs = self.check_side(rhs_raw, op.result_sort, app,
                              partial(self.check_rhs, var_sorts=var_sorts))
        rule = SourceRule(op, lhs, rhs, len(self.system.rules[op]))
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

    def check_side(self, raw, sort, build, check_term,
                   max_depth=MAX_RULE_DEPTH):
        """Check a term without recursion.  `check_term(raw, sort, parent)`
        returns a checked leaf, or the symbol of an application whose
        arguments are checked next; `build(symbol, args, sort, parent, tok)`
        then makes it, given the sort expected of it and the symbol above it.
        No term may sit inside more than `max_depth` argument lists."""
        open_apps = []  # (symbol, raw term, sort, parent, checked args)
        while True:
            if max_depth is not None and len(open_apps) > max_depth:
                self.fail(f"rule side nested more than {max_depth} "
                          f"levels deep", raw[2])
            parent = open_apps[-1][0] if open_apps else None
            term = check_term(raw, sort, parent)
            if term.__class__ is Symbol:
                if raw[1][1]:
                    open_apps.append((term, raw, sort, parent, []))
                    raw, sort = raw[1][1][0], term.arg_sorts[0]
                    continue
                term = build(term, (), sort, parent, raw[2])
            while open_apps:
                sym, raw, sort, parent, done = open_apps[-1]
                done.append(term)
                if len(done) < len(raw[1][1]):
                    raw, sort = raw[1][1][len(done)], sym.arg_sorts[len(done)]
                    break
                open_apps.pop()
                term = build(sym, tuple(done), sort, parent, raw[2])
            else:
                return term

    def check_pattern(self, raw, sort, parent, op, var_sorts, wilds):
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
            return Lit(payload)
        if kind == "wild":
            name = next(wilds)
            var_sorts[name] = sort
            return Var(name, sort)
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
        return Var(name, sort)

    def check_rhs(self, raw, sort, parent, var_sorts):
        """One right-side term: a checked leaf, or a symbol to apply."""
        kind, payload, tok = raw
        if kind == "lit":
            if sort != INT_SORT:
                self.fail(f"integer literal where {sort!r} expected", tok)
            return Lit(payload)
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
            return Var(name)
        if sym.result_sort != sort:
            self.fail(f"{name!r} has sort {sym.result_sort!r}, expected "
                      f"{sort!r}", tok)
        if len(args) != sym.arity:
            self.fail(f"{name!r} takes {sym.arity} argument(s)", tok)
        return sym

    def check_ground(self, raw, sort, parent):
        """One ground-expression term: a literal node, or a symbol to apply.
        A symbol's sort is checked in `build_ground`, once its arguments are
        checked, so the first defect met in post-order is reported."""
        kind, payload, tok = raw
        if kind == "wild":
            self.fail("expressions must be ground ('_' not allowed)", tok)
        if kind == "lit":
            self.check_sort(INT_SORT, sort, parent, tok)
            return Node(payload)
        name, args = payload
        sym = self.system.symbols.get(name)
        if sym is None:
            self.fail(f"unknown symbol {name!r} (expressions must be ground)",
                      tok)
        if len(args) != sym.arity:
            self.fail(f"{name!r} takes {sym.arity} argument(s)", tok)
        return sym

    def build_ground(self, sym, args, sort, parent, tok):
        self.check_sort(sym.result_sort, sort, parent, tok)
        return Node(sym, args)

    def check_sort(self, found, sort, parent, tok):
        if parent is not None and found != sort:
            self.fail(f"argument of {parent.name!r} has sort {found!r}, "
                      f"expected {sort!r}", tok)


@acyclic
def parse_system(text, name="system"):
    """Parse and check a `.rw` definition, returning a `System`."""
    return _Parser(scan(text), _fresh_system(name)).parse_system()


# ---- ground expressions -----------------------------------------------------


def parse_expr(system, text):
    """Parse a ground expression over `system`, returning (root Node, sort)."""
    parser = _Parser(scan(text), system)
    raw = parser.parse_term()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail(f"trailing input after expression: {tok.text!r}", tok)
    root = parser.check_side(raw, None, parser.build_ground,
                             parser.check_ground, None)
    label = root.label
    return root, INT_SORT if label.__class__ is int else label.result_sort
