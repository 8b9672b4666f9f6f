"""Shared term-graph machinery: symbols, nodes, patterns, templates, rules.

Terms are mutable graphs of `Node` objects.  A rewrite never edits a node in
place; it sets the node's `forward` pointer to the replacement, and every
reader goes through `resolve`.  That keeps sharing exact: all parents of a
rewritten node observe the result.

Labels are either `Symbol` instances (interned per system, compared by
identity) or plain Python ints for integer literals.
"""

from __future__ import annotations

import functools
import gc
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

# ---- symbols ----------------------------------------------------------------

CONSTRUCTOR = "constructor"
OPERATION = "operation"
BUILTIN = "builtin"
CONTROL = "control"
SPECIALIZED = "specialized"

INT_SORT = "Int"


class Symbol:
    """An interned signature symbol; equality is object identity."""

    __slots__ = ("name", "kind", "arity", "arg_sorts", "result_sort", "base")

    def __init__(self, name, kind, arity, arg_sorts=(), result_sort=None, base=None):
        self.name = name
        self.kind = kind
        self.arity = arity
        self.arg_sorts = tuple(arg_sorts)
        self.result_sort = result_sort
        # For specialized evaluation symbols: the operation they stand for.
        self.base = base

    def __repr__(self):
        return f"Symbol({self.name!r}, {self.kind})"

    @property
    def is_data(self):
        """True for symbols that may appear in source terms and values."""
        return self.kind in (CONSTRUCTOR, OPERATION, BUILTIN)

    @property
    def is_op(self):
        return self.kind in (OPERATION, BUILTIN)


# The two evaluation wrappers: head-normalize and normalize.
H = Symbol("H", CONTROL, 1)
N = Symbol("N", CONTROL, 1)

Label = Union[Symbol, int]


# ---- graph nodes ------------------------------------------------------------

_node_ids = itertools.count(1)


class Node:
    """A mutable term-graph node.

    `forward` is None for a live node; a rewritten node points at its
    replacement (possibly transitively).
    """

    __slots__ = ("nid", "label", "children", "forward")

    def __init__(self, label, children=()):
        self.nid = next(_node_ids)
        self.label = label
        self.children = list(children)
        self.forward = None

    def __repr__(self):
        name = self.label.name if isinstance(self.label, Symbol) else self.label
        return f"<node {self.nid} {name}>"


def resolve(node):
    """Follow forwarding pointers; compresses the path as it goes."""
    target = node
    while target.forward is not None:
        target = target.forward
    while node.forward is not None and node.forward is not target:
        nxt = node.forward
        node.forward = target
        node = nxt
    return target


def acyclic(fn):
    """`fn` run with CPython's cyclic garbage collector paused, and its state
    restored on return.  Term graphs are acyclic (children point at older
    nodes, `forward` at newer ones), so reference counting alone frees them."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


def child_at(node, path):
    """Resolved node at `path` (a tuple of child indices) below `node`."""
    cur = resolve(node)
    for i in path:
        cur = resolve(cur.children[i])
    return cur


# ---- patterns ---------------------------------------------------------------


@dataclass(frozen=True)
class PVar:
    """Pattern variable.  Matches anything; binds the matched node."""

    name: str
    sort: Optional[str] = None


@dataclass(frozen=True)
class PLit:
    """Matches one specific integer literal."""

    value: int


@dataclass(frozen=True)
class PAnyLit:
    """Matches any integer literal; binds the matched literal node."""

    name: str


@dataclass(frozen=True)
class PApp:
    """Matches a node labeled `label`, then the children in order."""

    label: Symbol
    args: tuple = ()


Pattern = Union[PVar, PLit, PAnyLit, PApp]


def pattern_vars(p) -> Iterator[Union[PVar, PAnyLit]]:
    """The variable leaves (PVar and PAnyLit) of a pattern, left to right."""
    stack = [p]
    while stack:
        q = stack.pop()
        if isinstance(q, PApp):
            stack.extend(q.args[::-1])
        elif not isinstance(q, PLit):
            yield q


def pattern_at(p, path):
    for i in path:
        p = p.args[i]
    return p


def pattern_subst(p, path, repl):
    """Return `p` with the subpattern at `path` replaced by `repl`."""
    if not path:
        return repl
    i = path[0]
    args = list(p.args)
    args[i] = pattern_subst(args[i], path[1:], repl)
    return PApp(p.label, tuple(args))


def var_path(p, name):
    """Path of the (unique, by left-linearity) occurrence of variable `name`."""
    stack = [(p, ())]
    while stack:
        q, path = stack.pop()
        if isinstance(q, PVar) and q.name == name:
            return path
        if isinstance(q, PApp):
            for i, a in enumerate(q.args):
                stack.append((a, path + (i,)))
    raise KeyError(name)


def patterns_variant(p, q):
    """True if two patterns are equal up to a bijective renaming of variables."""
    fwd, bwd = {}, {}
    stack = [(p, q)]
    while stack:
        a, b = stack.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, PApp):
            if a.label is not b.label or len(a.args) != len(b.args):
                return False
            stack.extend(zip(a.args, b.args))
        elif isinstance(a, PLit):
            if a.value != b.value:
                return False
        elif (fwd.setdefault(a.name, b.name) != b.name
              or bwd.setdefault(b.name, a.name) != a.name):
            return False  # a PVar or PAnyLit renamed inconsistently
    return True


# ---- right-hand-side templates ----------------------------------------------


@dataclass(frozen=True)
class RVar:
    """Reuse the node bound to a pattern variable (shares the subgraph)."""

    name: str


@dataclass(frozen=True)
class RLit:
    """Allocate a fresh integer literal node."""

    value: int


@dataclass(frozen=True)
class RApp:
    """Allocate a fresh node labeled `label` over instantiated children."""

    label: Symbol
    children: tuple = ()


@dataclass(frozen=True)
class RShare:
    """Reuse the node matched at `path` in the rule's left-hand side."""

    path: tuple


Template = Union[RVar, RLit, RApp, RShare]


# ---- source rules -----------------------------------------------------------


@dataclass
class SourceRule:
    """A user-level rewrite rule `op(patterns) = template`."""

    op: Symbol
    lhs: PApp
    rhs: Template
    index: int
    var_sorts: dict = field(default_factory=dict)

    def __repr__(self):
        return f"SourceRule({self.op.name}#{self.index})"


class NeedleError(Exception):
    """Base class for user-facing errors."""


class EvaluationError(NeedleError):
    """Raised for runtime evaluation failures (e.g. arithmetic overflow)."""


INT_MIN = -(2**63)
INT_MAX = 2**63 - 1


def int_op(name, a, b):
    """The builtin `add` or `sub` on two Int values, checked against 64 bits."""
    value = a + b if name == "add" else a - b
    if value < INT_MIN or value > INT_MAX:
        raise EvaluationError(f"integer overflow: {value} exceeds 64-bit range")
    return value
