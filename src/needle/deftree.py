"""Definitional trees: the case-analysis structure behind each operation.

A tree node either selects a rule (the leaf is the `SourceRule` itself),
is `None` where no rule can ever apply, or branches on the constructor (or
integer literal) found at one argument position.  Construction picks the
leftmost-outermost position at which every remaining rule demands a pattern;
systems for which no such position exists are rejected.  Branching on
integers supports a `default` child for rules with a variable at the branch
position.

A tree is built over argument positions, not patterns: each node knows only
the paths and sorts of the positions its branches above left open.  It names
no variable and marks no literal guard; `codegen` builds and names the
pattern each node stands for, and turns the variable a rule has at an
integer branch it reaches through the default into a literal guard.

`demanded_args` reads off the argument positions every path inspects; the
compiler uses them, and the source strategy in `oracle.py` walks the trees
themselves to find needed redexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (BUILTIN, INT_SORT, App, Lit, NeedleError, SourceRule, Var,
                   pattern_at)


class DefTreeError(NeedleError):
    pass


class NotInductivelySequential(DefTreeError):
    pass


class DuplicateRule(DefTreeError):
    pass


# ---- tree node types --------------------------------------------------------


@dataclass(slots=True)
class DTBranch:
    path: tuple
    sort: str
    children: list  # [(constructor Symbol, subtree)] in declaration order


@dataclass(slots=True)
class DTIntBranch:
    path: tuple
    children: list  # [(int literal, subtree)] in first-occurrence order
    default: Optional[object] = None  # subtree for rules with a variable here


# ---- construction -----------------------------------------------------------


def build_deftree(system, op):
    """Build the definitional tree for `op`, or raise a DefTreeError.

    Subtrees are built depth first, left to right, so the first defect found
    is the one a recursive descent would meet.  Each entry on the stack names
    the node and the child index (None: the default) its subtree fills."""
    rules = system.rules.get(op, [])
    if not rules:
        return None
    positions = tuple(((i,), sort) for i, sort in enumerate(op.arg_sorts))
    root, subtasks = _split(system, op, positions, list(rules))
    todo = [(root, *task) for task in reversed(subtasks)]
    while todo:
        parent, index, positions, rules = todo.pop()
        tree, subtasks = _split(system, op, positions, rules)
        if index is None:
            parent.default = tree
        else:
            parent.children[index] = (parent.children[index][0], tree)
        todo.extend((tree, *task) for task in reversed(subtasks))
    return root


def _split(system, op, positions, rules):
    """The tree node for `rules` over the open argument `positions`, and its
    subtrees to build as (child index, positions, rules).

    `positions` holds the (path, sort) of each argument position no branch
    above has fixed, leftmost-outermost first."""
    # Every rule agrees with the branches above, so a rule that has a
    # variable at each open position is a variant of every other such rule.
    columns = [[pattern_at(r.lhs, path) for r in rules]
               for path, _ in positions]
    variants = [r for j, r in enumerate(rules)
                if all(isinstance(subs[j], Var) for subs in columns)]
    if len(variants) > 1:
        raise DuplicateRule(
            f"operation {op.name!r}: rules {variants[0].index + 1} and "
            f"{variants[1].index + 1} have the same left side")
    if len(variants) == 1 and len(rules) == 1:
        return variants[0], ()

    # Strict inductive position: every rule has a constructor or literal.
    for k, subs in enumerate(columns):
        if all(isinstance(s, App) for s in subs):
            return _ctor_branch(system, op, positions, k, rules, subs)
        if all(isinstance(s, Lit) for s in subs):
            return _int_branch(positions, k, rules, subs, False)
    # Relaxed integer position: literals plus at least one variable rule.
    # A rule with a variable at every open position is legal here: it
    # becomes the branch default, applicable only when no literal matches.
    for k, subs in enumerate(columns):
        if (any(isinstance(s, Lit) for s in subs)
                and all(isinstance(s, (Lit, Var)) for s in subs)):
            return _int_branch(positions, k, rules, subs, True)
    if variants:
        others = [r for r in rules if r is not variants[0]]
        first, second = sorted([variants[0].index, others[0].index])
        raise NotInductivelySequential(
            f"operation {op.name!r}: rule {second + 1} overlaps rule "
            f"{first + 1} and can never apply")
    raise NotInductivelySequential(
        f"operation {op.name!r}: no argument position is demanded by all of "
        f"rules {sorted(r.index + 1 for r in rules)}")


def _ctor_branch(system, op, positions, k, rules, subs):
    """Each child opens its constructor's argument positions in place of
    position `k`."""
    path, sort = positions[k]
    if sort == INT_SORT:
        raise NotInductivelySequential(
            f"operation {op.name!r}: constructor pattern at an Int position")
    children, subtasks = [], []
    for ctor in system.sorts[sort]:
        sub_rules = [r for r, sub in zip(rules, subs) if sub.label is ctor]
        if sub_rules:
            args = tuple((path + (i,), arg_sort)
                         for i, arg_sort in enumerate(ctor.arg_sorts))
            subtasks.append((len(children),
                             positions[:k] + args + positions[k + 1:],
                             sub_rules))
        children.append((ctor, None))
    return DTBranch(path, sort, children), subtasks


def _int_branch(positions, k, rules, subs, with_default):
    """Each literal child closes position `k`; the default keeps it open."""
    path = positions[k][0]
    rest = positions[:k] + positions[k + 1:]
    lits = []
    for sub in subs:
        if isinstance(sub, Lit) and sub.value not in lits:
            lits.append(sub.value)
    subtasks = []
    for i, value in enumerate(lits):
        sub_rules = [r for r, sub in zip(rules, subs)
                     if isinstance(sub, Lit) and sub.value == value]
        subtasks.append((i, rest, sub_rules))
    if with_default:
        var_rules = [r for r, sub in zip(rules, subs) if isinstance(sub, Var)]
        if var_rules:
            subtasks.append((None, positions, var_rules))
    return DTIntBranch(path, [(value, None) for value in lits]), subtasks


def build_all_deftrees(system):
    """Each operation's tree, built on the first call and kept on the
    system: nothing changes a system once it is parsed.  A rejected system
    keeps no trees, so every call raises its error."""
    if system.trees is None:
        system.trees = {op: build_deftree(system, op)
                         for op in system.operations}
    return system.trees


# ---- demanded argument positions ---------------------------------------------


def demanded_args(op, tree):
    """Top-level argument indices inspected on every path through the tree."""
    if op.kind == BUILTIN:
        return set(range(op.arity))
    common = None  # inspected on every path so far
    stack = [(tree, frozenset())]
    while stack:
        t, inspected = stack.pop()
        if t is None or isinstance(t, SourceRule):
            common = inspected if common is None else common & inspected
            continue
        inspected = inspected | {t.path[0]}
        stack += [(c, inspected) for _, c in t.children]
        if isinstance(t, DTIntBranch) and t.default is not None:
            stack.append((t.default, inspected))
    return set(common)
