"""Shared term-graph machinery: symbols, nodes, rule sides, rules.

Terms are graphs of `Node` objects.  A rewrite never edits a node in place
(its children are a tuple); it sets the node's `forward` pointer to the
replacement, and every reader goes through `resolve`.  That keeps sharing
exact: all parents of a rewritten node observe the result.

Labels are either `Symbol` instances (interned per system, compared by
identity) or plain Python ints for integer literals.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass, field
from typing import Optional

# ---- symbols ----------------------------------------------------------------

CONSTRUCTOR = "constructor"
OPERATION = "operation"
BUILTIN = "builtin"
CONTROL = "control"
SPECIALIZED = "specialized"

INT_SORT = "Int"


class Symbol:
    """An interned signature symbol; equality is object identity."""

    __slots__ = ("name", "kind", "arity", "arg_sorts", "result_sort", "base",
                 "is_data", "is_op")

    def __init__(self, name, kind, arity, arg_sorts=(), result_sort=None, base=None):
        self.name = name
        self.kind = kind
        self.arity = arity
        self.arg_sorts = tuple(arg_sorts)
        self.result_sort = result_sort
        # For specialized evaluation symbols: the operation they stand for.
        self.base = base
        # Whether the symbol may appear in source terms and values.
        self.is_data = kind in (CONSTRUCTOR, OPERATION, BUILTIN)
        # Whether a node it labels is a call: a user or builtin operation.
        self.is_op = kind in (OPERATION, BUILTIN)

    def __repr__(self):
        return f"Symbol({self.name!r}, {self.kind})"


# The two evaluation wrappers: head-normalize and normalize.
H = Symbol("H", CONTROL, 1)
N = Symbol("N", CONTROL, 1)

# ---- graph nodes ------------------------------------------------------------


class Node:
    """A term-graph node over a tuple of children.

    `forward` is None for a live node; a rewritten node points at its
    replacement (possibly transitively).  It is the only field that changes.
    The evaluators forward a node they still hold straight to its newest
    replacement, so a superseded contractum loses its last reference and
    is freed: an untraced run holds the live graph, not the derivation.
    A node has no id: it hashes and compares by identity, so maps and sets
    that need a key per node use the node itself.
    """

    __slots__ = ("label", "children", "forward")

    def __init__(self, label, children=()):
        self.label = label
        self.children = tuple(children)
        self.forward = None

    def __repr__(self):
        name = self.label.name if isinstance(self.label, Symbol) else self.label
        return f"<node {id(self):#x} {name}>"


def resolve(node):
    """Follow forwarding pointers; compresses the path as it goes.

    Compressing is what frees the nodes in between: once nothing else
    holds them, reference counting reclaims them.
    """
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


# ---- rule sides -------------------------------------------------------------
#
# Both sides of a rule are terms over one signature with variables.  On a
# left side a `Var` matches anything, a `Lit` one literal and an `App` a node
# of its label over matching children; on a right side a `Var` reuses the
# node its name is bound to, while a `Lit` or an `App` allocates a fresh node.
# Terms are slotted, not frozen, so they are cheap to build; no code changes
# one once it is built.


@dataclass(slots=True)
class Var:
    """A variable: binds the matched node, or reuses the bound one."""

    name: str
    sort: Optional[str] = None


@dataclass(slots=True)
class Lit:
    """One specific integer literal."""

    value: int


@dataclass(slots=True)
class App:
    """A node labeled `label` over the terms `args`."""

    label: Symbol
    args: tuple = ()


@dataclass(slots=True)
class AnyLit:
    """Left sides only: matches any integer literal and binds it."""

    name: str


@dataclass(slots=True)
class Share:
    """Right sides only: reuse the node matched at `path` in the left side."""

    path: tuple


def pattern_at(p, path):
    for i in path:
        p = p.args[i]
    return p


def pattern_subst(p, path, repl):
    """Term `p` with the subterm at `path` set to `repl`."""
    spine = []
    for i in path:
        spine.append((p, i))
        p = p.args[i]
    for q, i in reversed(spine):
        repl = App(q.label, q.args[:i] + (repl,) + q.args[i + 1:])
    return repl


def var_paths(p):
    """Path of each variable leaf (`Var` or `AnyLit`) in a pattern, by name,
    in pre-order (leftmost-outermost first).  One path list is kept, so deep
    patterns cost no quadratic copying."""
    paths, path = {}, []  # `path` leads to the subpattern just popped
    stack = [(a, 0, i) for i, a in enumerate(p.args)][::-1]
    while stack:
        q, depth, i = stack.pop()
        del path[depth:]
        path.append(i)
        if isinstance(q, App):
            stack += [(a, depth + 1, j) for j, a in enumerate(q.args)][::-1]
        elif not isinstance(q, Lit):
            paths[q.name] = tuple(path)
    return paths


# ---- source rules -----------------------------------------------------------


@dataclass(slots=True)
class SourceRule:
    """A user-level rewrite rule `op(patterns) = template`.

    `plan` is the oracle's post-order instantiation plan of `rhs`, made the
    first time the rule is contracted (`oracle.apply_source_rule`)."""

    op: Symbol
    lhs: App
    rhs: object
    index: int
    plan: Optional[tuple] = field(default=None, compare=False, repr=False)

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
