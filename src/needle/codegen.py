"""Compilation of a source system into runnable object rules.

Three object programs can be produced from the same system:

* mode "cr": every operation `f` gets head-normalization rules `H(f(...)) =
  ...` driven by its definitional tree, plus normalization rules `N(...)`
  that walk constructor results.
* mode "tr": the "cr" rules after two transformations: head-normalization of
  a bare variable is instantiated away (every operation that could produce
  the variable's sort gets its own rule), and every `H(f(...))` collapses
  into a specialized symbol `f^H`.  Rules whose right side is rooted by a
  specialized symbol skip an evaluation-wrapper round trip; their
  applications are counted as shortcut steps.
* mode "or": like "tr", but operation-rooted right sides are first rewritten
  to evaluate their demanded (needed) argument positions in place, which
  removes most dispatch steps.

Each operation's H-rules come from its definitional tree, which holds
argument positions only: codegen builds the pattern each tree node stands
for, and a rule reached through an integer branch's default matches only a
literal at that branch's position (a literal guard).

Rule priority is list order: selection picks the first matching rule in list
order, and skips only rules whose first test rejects a switch label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import (
    CONSTRUCTOR,
    INT_SORT,
    SPECIALIZED,
    AnyLit,
    App,
    H,
    Lit,
    N,
    NeedleError,
    Share,
    SourceRule,
    Symbol,
    Var,
    acyclic,
    pattern_at,
    pattern_subst,
    var_paths,
)
from .deftree import DTBranch, build_all_deftrees, demanded_args

# Step classes, derived from rule origins.  "rewrite" and "shortcut" rules
# correspond one-to-one to source rewrite steps; "dispatch" and "norm" rules
# are bookkeeping introduced by compilation.
_ORIGIN_CLASS = {
    "collapse-instance": "rewrite",
    "collapse-default": "rewrite",
    "ctor-rooted": "rewrite",
    "op-rooted": "rewrite",
    "builtin-leaf": "rewrite",
    "dispatch": "dispatch",
    "builtin-dispatch": "dispatch",
    "norm-ctor": "norm",
    "norm-op": "norm",
    "literal-norm": "norm",
    "exempt": "none",
}


@dataclass(slots=True)
class ObjectRule:
    """One object-level rule.  `lhs` is rooted by H, N, or a specialized
    symbol; `rhs` is a template (None for exempt and builtin-leaf rules)."""

    lhs: App
    rhs: Optional[object]
    origin: str
    # The source step this rule performs: a SourceRule, or the builtin Symbol
    # of a builtin-leaf rule.
    source: Optional[object] = None
    dispatch_path: Optional[tuple] = None  # lhs path that must hold an operation

    @property
    def head(self):
        return self.lhs.label

    @property
    def step_class(self):
        """The origin's class; a rewrite whose right side is rooted by a
        specialized symbol is a shortcut."""
        cls = _ORIGIN_CLASS[self.origin]
        if cls == "rewrite" and isinstance(self.rhs, App) \
                and self.rhs.label.kind == SPECIALIZED:
            return "shortcut"
        return cls


@dataclass(slots=True)
class ObjectProgram:
    system: object
    mode: str
    rules: list
    trees: dict
    # filled lazily by the evaluator
    rule_groups: Optional[dict] = field(default=None, compare=False, repr=False)


# ---- helpers ----------------------------------------------------------------


def _h(term):
    return App(H, (term,))


_FRESH_POOL = ("u", "v", "w", "z")


def _fresh_names(count, taken):
    """`count` variable names not in `taken`, which they are added to."""
    names = []
    suffix = 0
    while len(names) < count:
        for base in _FRESH_POOL:
            cand = base if suffix == 0 else f"{base}{suffix}"
            if cand not in taken:
                taken.add(cand)
                names.append(cand)
                if len(names) == count:
                    break
        suffix += 1
    return names


def _fresh_app(label, taken=()):
    """`label` over fresh variables of its argument sorts, named apart from
    the names in `taken`."""
    names = _fresh_names(label.arity, set(taken))
    return App(label, tuple(map(Var, names, label.arg_sorts)))


# ---- head-normalization rules for one operation ------------------------------


def compile_operation(system, op, tree, demanded):
    """Object H-rules for `op`, in priority order: a branch's subtrees' rules
    come first, then its fallback (default or guard) and its dispatch rule.
    A subtree's stack entry carries the pattern it stands for and `guards`:
    the paths of the Int branches whose default it follows."""
    root_names = ["x", "y", "z", "w"][: op.arity]
    if op.arity > 4:
        root_names += [f"x{i}" for i in range(5, op.arity + 1)]
    out = []
    stack = [(tree, App(op, tuple(map(Var, root_names, op.arg_sorts))), ())]
    while stack:
        item = stack.pop()
        if item.__class__ is ObjectRule:
            out.append(item)
            continue
        tree, pattern, guards = item
        if tree is None:
            out.append(ObjectRule(App(H, (pattern,)), None, "exempt"))
        elif isinstance(tree, SourceRule):
            out.extend(_rule_leaf(system, tree, guards, demanded))
        else:
            stack.append(_dispatch_rule(pattern, tree.path))
            taken = set(var_paths(pattern))
            if isinstance(tree, DTBranch):
                subs = [(sub, pattern_subst(pattern, tree.path,
                                            _fresh_app(ctor, taken)), guards)
                        for ctor, sub in tree.children]
            else:
                if tree.default is not None:
                    stack.append((tree.default, pattern,
                                  guards + (tree.path,)))
                else:
                    guarded = pattern_subst(pattern, tree.path, AnyLit(
                        _fresh_names(1, taken)[0]))
                    stack.append(ObjectRule(App(H, (guarded,)), None,
                                            "exempt"))
                subs = [(sub, pattern_subst(pattern, tree.path, Lit(value)),
                         guards) for value, sub in tree.children]
            stack.extend(reversed(subs))
    return out


def _dispatch_rule(pattern, path):
    """H(pi) = H(pi[H(x)/p]): head-normalize the demanded argument first."""
    wrapped = pattern_subst(pattern, path, _h(pattern_at(pattern, path)))
    return ObjectRule(App(H, (pattern,)), _h(wrapped), "dispatch",
                      dispatch_path=(0,) + tuple(path))


def _rule_leaf(system, rule, guards, demanded):
    """The object rules for source rule `rule`, whose variables at the paths
    `guards` match only literals.  In mode "or", `demanded` (else None) maps
    each operation to its demanded argument indices."""
    lhs_inner = rule.lhs
    for path in guards:
        var = pattern_at(lhs_inner, path)
        lhs_inner = pattern_subst(lhs_inner, path, AnyLit(var.name))
    lhs = App(H, (lhs_inner,))
    rhs = rule.rhs

    if isinstance(rhs, Var):
        return _collapse_rules(system, rule, lhs_inner, guards, rhs.name)
    if isinstance(rhs, Lit) or (isinstance(rhs, App)
                                and rhs.label.kind == CONSTRUCTOR):
        return [ObjectRule(lhs, rhs, "ctor-rooted", rule)]
    # operation- or builtin-rooted right side
    body = rhs if demanded is None else _wrap_needed(rhs, demanded)
    return [ObjectRule(lhs, _h(body), "op-rooted", rule)]


def _collapse_rules(system, rule, lhs_inner, guards, var_name):
    """Expand a collapsing rule (rhs is a variable) per possible root;
    `lhs_inner` holds literal guards at the paths `guards`."""
    paths = var_paths(lhs_inner)
    pos = paths[var_name]
    if pos in guards:
        raise NeedleError(
            f"operation {rule.op.name!r}: rule {rule.index + 1} returns "
            f"{var_name!r}, which an integer branch guards; collapsing onto "
            f"a guarded literal is not supported yet")
    lhs = App(H, (lhs_inner,))
    share = Share((0,) + pos)
    sort = pattern_at(lhs_inner, pos).sort
    if sort == INT_SORT:
        roots = [AnyLit(var_name)]
    else:
        roots = [_fresh_app(ctor, paths) for ctor in system.sorts[sort]]
    out = [ObjectRule(App(H, (pattern_subst(lhs_inner, pos, root),)), share,
                      "collapse-instance", rule)
           for root in roots]
    out.append(ObjectRule(lhs, _h(Var(var_name)), "collapse-default", rule))
    return out


def _wrap_needed(template, demanded):
    """Head-normalize operation-rooted subterms at demanded positions."""
    calls, stack = [], [template]  # the calls to rebuild, parents first
    while stack:
        t = stack.pop()
        if isinstance(t, App) and t.label.is_op:
            calls.append(t)
            stack.extend(t.args[i] for i in demanded[t.label])
    rebuilt = {}  # id of a call -> the call with its demanded calls wrapped
    for t in reversed(calls):
        kids = list(t.args)
        for i in demanded[t.label]:
            if id(kids[i]) in rebuilt:
                kids[i] = _h(rebuilt[id(kids[i])])
        rebuilt[id(t)] = App(t.label, tuple(kids))
    return rebuilt.get(id(template), template)


# ---- builtin and normalization rules -----------------------------------------


def builtin_h_rules(system):
    out = []
    for b in system.builtins:
        lit2 = App(H, (App(b, (AnyLit("a"), AnyLit("b"))),))
        out.append(ObjectRule(lit2, None, "builtin-leaf", b))
        snd = App(H, (App(b, (AnyLit("a"), Var("y", INT_SORT))),))
        out.append(ObjectRule(
            snd, _h(App(b, (Var("a"), _h(Var("y"))))),
            "builtin-dispatch", dispatch_path=(0, 1)))
        fst = App(H, (App(b, (Var("x", INT_SORT), Var("y", INT_SORT))),))
        out.append(ObjectRule(
            fst, _h(App(b, (_h(Var("x")), Var("y")))),
            "builtin-dispatch", dispatch_path=(0, 0)))
    return out


def norm_rules(system):
    """N(...) rules: walk constructors, kick off H for operations."""
    out = []
    for sort, ctors in system.sorts.items():
        for ctor in ctors:
            pattern = _fresh_app(ctor)
            rhs = App(ctor, tuple(App(N, (v,)) for v in pattern.args))
            out.append(ObjectRule(App(N, (pattern,)), rhs, "norm-ctor"))
    for f in system.all_operations:
        pattern = _fresh_app(f)
        out.append(ObjectRule(App(N, (pattern,)), App(N, (_h(pattern),)),
                              "norm-op"))
    out.append(ObjectRule(App(N, (AnyLit("a"),)), Share((0,)),
                          "literal-norm"))
    return out


# ---- the two transformation phases -------------------------------------------


def phase1(system, rules):
    """Instantiate away every H(variable) on a right side.

    A dispatch rule holds its H(x) at its dispatch path, and a
    collapse-default rule at the root; no other rule holds one.  The rule is
    replaced by one copy per operation that can produce the variable's sort.
    The value cases (literal or constructor at that position) need no
    copies: the rules emitted ahead of this one already cover them, and rule
    order keeps them first.  Rules whose sort has no producing operations
    disappear: no runtime term can ever match their dropped case.  All
    copies of a rule share one right side, in which the variable is shared
    from the left side: H(x) becomes H(Share(path)).
    """
    out = []
    for rule in rules:
        hpath = () if rule.origin == "collapse-default" else rule.dispatch_path
        if hpath is None:
            out.append(rule)
            continue
        hx = pattern_at(rule.rhs, hpath)
        assert hx.__class__ is App and hx.label is H \
            and hx.args[0].__class__ is Var, rule.origin
        paths = var_paths(rule.lhs)
        xpath = paths[hx.args[0].name]
        shared_rhs = pattern_subst(rule.rhs, hpath + (0,), Share(xpath))
        for g in system.ops_returning(pattern_at(rule.lhs, xpath).sort):
            inst_lhs = pattern_subst(rule.lhs, xpath, _fresh_app(g, paths))
            out.append(ObjectRule(inst_lhs, shared_rhs, rule.origin,
                                  rule.source, rule.dispatch_path))
    return out


def _specialize_map(system):
    mapping = {}
    for f in system.all_operations:
        mapping[f] = Symbol(f"{f.name}^H", SPECIALIZED, f.arity, f.arg_sorts,
                            f.result_sort, base=f)
    return mapping


def _specialize_template(template, lhs, specialized):
    """Collapse H(f(...)) into f^H(...) throughout the right side of the
    rule with left side `lhs`, and drop the leading 0 of every Share path if
    `lhs` is H-rooted (it loses its wrapper).  An H(Share(p)), left by phase
    1, becomes g^H over the arguments of the call g that `lhs` holds at p."""
    out, stack = [], [template]
    while stack:
        t = stack.pop()
        cls = t.__class__
        if cls is App:
            if t.label is H:
                inner = t.args[0]
                if inner.__class__ is Share:
                    inner = pattern_at(lhs, inner.path)
                if not (isinstance(inner, App) and inner.label.is_op):
                    raise AssertionError(f"phase 2 found H over {inner!r}")
                t = App(specialized[inner.label], inner.args)
            stack.append(t.label)
            stack += t.args[::-1]
        elif cls is Symbol:  # an application whose children are done
            start = len(out) - t.arity
            kids = tuple(out[start:])
            del out[start:]
            out.append(App(t, kids))
        elif cls is Share and lhs.label is H:
            assert t.path and t.path[0] == 0
            out.append(Share(t.path[1:]))
        else:
            out.append(t)
    return out[0]


def phase2(rules, specialized):
    """Turn H(f(args)) = rhs into f^H(args) = rhs', collapsing every
    wrapped call on the right side into its specialized symbol.  Each
    phase-1 copy of a shared right side is specialized on its own."""
    out = []
    for rule in rules:
        lhs, rhs, path = rule.lhs, rule.rhs, rule.dispatch_path
        if rhs is not None:
            rhs = _specialize_template(rhs, lhs, specialized)
        if lhs.label is H:
            inner = lhs.args[0]
            assert isinstance(inner, App) and inner.label.is_op
            lhs = App(specialized[inner.label], inner.args)
            if path is not None:
                assert path[0] == 0
                path = path[1:]
        out.append(ObjectRule(lhs, rhs, rule.origin, rule.source, path))
    return out


# ---- program assembly ---------------------------------------------------------


@acyclic
def build_program(system, mode):
    assert mode in ("cr", "tr", "or"), mode
    trees = build_all_deftrees(system)
    demanded = {op: demanded_args(op, trees.get(op))
                for op in system.all_operations} if mode == "or" else None
    rules = []
    for op in system.operations:
        rules.extend(compile_operation(system, op, trees[op], demanded))
    rules.extend(builtin_h_rules(system))
    rules.extend(norm_rules(system))
    if mode != "cr":
        rules = phase2(phase1(system, rules), _specialize_map(system))
    return ObjectProgram(system, mode, rules, trees)
