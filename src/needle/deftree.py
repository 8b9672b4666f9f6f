"""Definitional trees: the case-analysis structure behind each operation.

A tree node either selects a rule, aborts (no rule can ever apply), or
branches on the constructor (or integer literal) found at one argument
position.  Construction picks the leftmost-outermost position at which every
remaining rule demands a pattern; systems for which no such position exists
are rejected.  Branching on integers supports a `default` child for rules
with a variable at the branch position.

`demanded_args` reads off the argument positions every path inspects; the
compiler uses them, and the source strategy in `oracle.py` walks the trees
themselves to find needed redexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    BUILTIN,
    INT_SORT,
    NeedleError,
    PApp,
    PLit,
    PVar,
    pattern_at,
    pattern_subst,
    pattern_vars,
    patterns_variant,
)


class DefTreeError(NeedleError):
    pass


class NotInductivelySequential(DefTreeError):
    pass


class DuplicateRule(DefTreeError):
    pass


# ---- tree node types --------------------------------------------------------


@dataclass
class DTRule:
    rule: object  # SourceRule
    guards: tuple = ()  # lhs paths whose variable is literal-guarded


@dataclass
class DTExempt:
    pass


@dataclass
class DTBranch:
    path: tuple
    sort: str
    children: list  # [(constructor Symbol, subtree)] in declaration order


@dataclass
class DTIntBranch:
    path: tuple
    children: list  # [(int literal, subtree)] in first-occurrence order
    default: Optional[object] = None  # subtree for rules with a variable here


# ---- construction -----------------------------------------------------------


def _fresh_vars(prefix, count, sort_list, taken):
    names = []
    i = 0
    while len(names) < count:
        i += 1
        cand = f"{prefix}{i}"
        if cand not in taken:
            taken.add(cand)
            names.append(cand)
    return [PVar(n, s) for n, s in zip(names, sort_list)]


def _var_positions(pattern):
    """Pre-order (leftmost-outermost) variable positions of a pattern."""
    out = []
    stack = [(pattern, ())]
    while stack:
        p, path = stack.pop()
        if isinstance(p, PVar):
            out.append(path)
        elif isinstance(p, PApp):
            for i in reversed(range(len(p.args))):
                stack.append((p.args[i], path + (i,)))
    # stack discipline above yields pre-order already
    return out


def build_deftree(system, op):
    """Build the definitional tree for `op`, or raise a DefTreeError."""
    rules = system.rules.get(op, [])
    taken = {v.name for r in rules for v in pattern_vars(r.lhs)}
    root_vars = _fresh_vars("x", op.arity, op.arg_sorts, set(taken))
    pattern = PApp(op, tuple(root_vars))
    if not rules:
        return DTExempt()
    return _build(system, op, pattern, list(rules), guards=())


def _build(system, op, pattern, rules, guards):
    variants = [r for r in rules if patterns_variant(r.lhs, pattern)]
    if len(variants) > 1:
        raise DuplicateRule(
            f"operation {op.name!r}: rules {variants[0].index + 1} and "
            f"{variants[1].index + 1} have the same left side")
    if len(variants) == 1 and len(rules) == 1:
        return DTRule(variants[0], guards)

    positions = _var_positions(pattern)

    def at(rule, path):
        return pattern_at(rule.lhs, path)

    # Strict inductive position: every rule has a constructor or literal.
    for path in positions:
        subs = [at(r, path) for r in rules]
        if all(isinstance(s, PApp) for s in subs):
            return _ctor_branch(system, op, pattern, rules, path, guards)
        if all(isinstance(s, PLit) for s in subs):
            return _int_branch(system, op, pattern, rules, path, guards,
                               with_default=False)
    # Relaxed integer position: literals plus at least one variable rule.
    # A rule whose left side is a variant of the pattern is legal here: it
    # becomes the branch default, applicable only when no literal matches.
    for path in positions:
        subs = [at(r, path) for r in rules]
        if (any(isinstance(s, PLit) for s in subs)
                and all(isinstance(s, (PLit, PVar)) for s in subs)):
            return _int_branch(system, op, pattern, rules, path, guards,
                               with_default=True)
    if variants:
        others = [r for r in rules if r is not variants[0]]
        first, second = sorted([variants[0].index, others[0].index])
        raise NotInductivelySequential(
            f"operation {op.name!r}: rule {second + 1} overlaps rule "
            f"{first + 1} and can never apply")
    raise NotInductivelySequential(
        f"operation {op.name!r}: no argument position is demanded by all of "
        f"rules {sorted(r.index + 1 for r in rules)}")


def _ctor_branch(system, op, pattern, rules, path, guards):
    sort = pattern_at(pattern, path).sort
    if sort == INT_SORT:
        raise NotInductivelySequential(
            f"operation {op.name!r}: constructor pattern at an Int position")
    children = []
    taken = {v.name for v in pattern_vars(pattern)}
    for r in rules:
        taken.update(v.name for v in pattern_vars(r.lhs))
    for ctor in system.sorts[sort]:
        sub_rules = [r for r in rules
                     if isinstance(pattern_at(r.lhs, path), PApp)
                     and pattern_at(r.lhs, path).label is ctor]
        if not sub_rules:
            children.append((ctor, DTExempt()))
            continue
        fresh = _fresh_vars("v", ctor.arity, ctor.arg_sorts, set(taken))
        refined = pattern_subst(pattern, path, PApp(ctor, tuple(fresh)))
        children.append((ctor, _build(system, op, refined, sub_rules, guards)))
    return DTBranch(path, sort, children)


def _int_branch(system, op, pattern, rules, path, guards, with_default):
    lits = []
    for r in rules:
        sub = pattern_at(r.lhs, path)
        if isinstance(sub, PLit) and sub.value not in lits:
            lits.append(sub.value)
    children = []
    for value in lits:
        sub_rules = [r for r in rules
                     if isinstance(pattern_at(r.lhs, path), PLit)
                     and pattern_at(r.lhs, path).value == value]
        refined = pattern_subst(pattern, path, PLit(value))
        children.append((value, _build(system, op, refined, sub_rules, guards)))
    default = None
    if with_default:
        var_rules = [r for r in rules
                     if isinstance(pattern_at(r.lhs, path), PVar)]
        if var_rules:
            default = _build(system, op, pattern, var_rules,
                             guards + (path,))
    return DTIntBranch(path, children, default)


def build_all_deftrees(system):
    return {op: build_deftree(system, op) for op in system.operations}


# ---- demanded argument positions ---------------------------------------------


def demanded_args(op, tree):
    """Top-level argument indices inspected on every path through the tree."""
    if op.kind == BUILTIN:
        return set(range(op.arity))

    def walk(t):
        if isinstance(t, (DTRule, DTExempt)):
            return set()
        subtrees = [c for _, c in t.children]
        if isinstance(t, DTIntBranch) and t.default is not None:
            subtrees.append(t.default)
        common = None
        for s in subtrees:
            d = walk(s)
            common = d if common is None else (common & d)
        common = common or set()
        return {t.path[0]} | common

    return walk(tree)
