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

Rule priority is list order; the matcher tries rules first to last.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .core import (
    BUILTIN,
    CONSTRUCTOR,
    CONTROL,
    INT_SORT,
    OPERATION,
    SPECIALIZED,
    H,
    N,
    PAnyLit,
    PApp,
    PLit,
    PVar,
    RApp,
    RLit,
    RShare,
    RVar,
    Symbol,
    pattern_at,
    pattern_subst,
    pattern_vars,
    var_path,
)
from .deftree import (
    DTBranch,
    DTExempt,
    DTIntBranch,
    DTRule,
    build_all_deftrees,
    demanded_args,
)

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


@dataclass
class ObjectRule:
    """One object-level rule.  `lhs` is rooted by H, N, or a specialized
    symbol; `rhs` is a template (None for exempt and builtin-leaf rules)."""

    lhs: PApp
    rhs: Optional[object]
    origin: str
    section: str  # "h", "n", or "builtin" (for listing layout)
    source: Optional[object] = None  # SourceRule this rule implements
    builtin_op: Optional[str] = None
    var_sorts: dict = field(default_factory=dict)
    dispatch_path: Optional[tuple] = None  # lhs path that must hold an operation
    # Filled in by _finalize:
    step_class: str = "rewrite"
    countable_allocs: int = 0
    is_literal_norm: bool = False
    builtin_operands: tuple = ()

    @property
    def head(self):
        return self.lhs.label

    @property
    def exempt(self):
        return self.origin == "exempt"


@dataclass
class ObjectProgram:
    system: object
    mode: str
    rules: list
    trees: dict
    demanded: dict
    specialized: dict  # operation Symbol -> its f^H Symbol (tr/or only)
    rule_groups: Optional[dict] = None  # filled lazily by the evaluator


# ---- helpers ----------------------------------------------------------------

_FRESH_POOL = ("u", "v", "w", "z")


def _fresh_names(count, taken):
    names = []
    pool = list(_FRESH_POOL)
    suffix = 0
    while len(names) < count:
        for base in pool:
            cand = base if suffix == 0 else f"{base}{suffix}"
            if cand not in taken:
                taken.add(cand)
                names.append(cand)
                if len(names) == count:
                    break
        suffix += 1
    return names


def _template_of_pattern(p):
    if isinstance(p, PVar):
        return RVar(p.name)
    if isinstance(p, PAnyLit):
        return RVar(p.name)
    if isinstance(p, PLit):
        return RLit(p.value)
    return RApp(p.label, tuple(_template_of_pattern(a) for a in p.args))


def _h(template):
    return RApp(H, (template,))


# ---- head-normalization rules for one operation ------------------------------


def compile_operation(system, op, tree, demanded, wrap):
    """Object H-rules for `op`, in priority order."""
    root_names = ["x", "y", "z", "w"][: op.arity]
    if op.arity > 4:
        root_names += [f"x{i}" for i in range(5, op.arity + 1)]
    pattern = PApp(op, tuple(
        PVar(n, s) for n, s in zip(root_names, op.arg_sorts)))
    out = []
    _walk_tree(system, op, tree, pattern, out, demanded, wrap)
    return out


def _walk_tree(system, op, tree, pattern, out, demanded, wrap):
    if isinstance(tree, DTExempt):
        out.append(ObjectRule(PApp(H, (pattern,)), None, "exempt", "h"))
        return
    if isinstance(tree, DTRule):
        out.extend(_rule_leaf(system, tree, wrap, demanded))
        return
    if isinstance(tree, DTBranch):
        taken = {v.name for v in pattern_vars(pattern)}
        for ctor, sub in tree.children:
            fresh = _fresh_names(ctor.arity, set(taken))
            refined = pattern_subst(
                pattern, tree.path,
                PApp(ctor, tuple(PVar(n, s) for n, s in
                                 zip(fresh, ctor.arg_sorts))))
            _walk_tree(system, op, sub, refined, out, demanded, wrap)
        out.append(_dispatch_rule(pattern, tree.path))
        return
    if isinstance(tree, DTIntBranch):
        for value, sub in tree.children:
            refined = pattern_subst(pattern, tree.path, PLit(value))
            _walk_tree(system, op, sub, refined, out, demanded, wrap)
        if tree.default is not None:
            _walk_tree(system, op, tree.default, pattern, out, demanded, wrap)
        else:
            taken = {v.name for v in pattern_vars(pattern)}
            guard_name = _fresh_names(1, taken)[0]
            guarded = pattern_subst(pattern, tree.path, PAnyLit(guard_name))
            out.append(ObjectRule(PApp(H, (guarded,)), None, "exempt", "h"))
        out.append(_dispatch_rule(pattern, tree.path))
        return
    raise AssertionError(f"unknown tree node {tree!r}")


def _dispatch_rule(pattern, path):
    """H(pi) = H(pi[H(x)/p]): head-normalize the demanded argument first."""
    branch_var = pattern_at(pattern, path)
    template = _template_of_pattern(pattern)
    wrapped = _tsubst(template, path, _h(RVar(branch_var.name)))
    var_sorts = {v.name: v.sort for v in pattern_vars(pattern)}
    return ObjectRule(PApp(H, (pattern,)), _h(wrapped), "dispatch", "h",
                      var_sorts=var_sorts, dispatch_path=(0,) + tuple(path))


def _tsubst(template, path, repl):
    if not path:
        return repl
    kids = list(template.children)
    kids[path[0]] = _tsubst(kids[path[0]], path[1:], repl)
    return RApp(template.label, tuple(kids))


def _rule_leaf(system, leaf, wrap, demanded):
    rule = leaf.rule
    lhs_inner = rule.lhs
    for path in leaf.guards:
        var = pattern_at(lhs_inner, path)
        lhs_inner = pattern_subst(lhs_inner, path, PAnyLit(var.name))
    lhs = PApp(H, (lhs_inner,))
    rhs = rule.rhs

    if isinstance(rhs, RVar):
        return _collapse_rules(system, rule, leaf, lhs_inner, rhs.name)
    if isinstance(rhs, RLit) or (isinstance(rhs, RApp)
                                 and rhs.label.kind == CONSTRUCTOR):
        return [ObjectRule(lhs, rhs, "ctor-rooted", "h", source=rule,
                           var_sorts=dict(rule.var_sorts))]
    # operation- or builtin-rooted right side
    body = _wrap_needed(rhs, demanded) if wrap else rhs
    return [ObjectRule(lhs, _h(body), "op-rooted", "h", source=rule,
                       var_sorts=dict(rule.var_sorts))]


def _collapse_rules(system, rule, leaf, lhs_inner, var_name):
    """Expand a collapsing rule (rhs is a variable) per possible root."""
    pos = var_path(lhs_inner, var_name)
    lhs = PApp(H, (lhs_inner,))
    share = RShare((0,) + tuple(pos))
    sort = rule.var_sorts[var_name]
    out = []
    if isinstance(pattern_at(lhs_inner, pos), PAnyLit):
        # The variable is already literal-guarded: the matched node is a
        # literal, and the single guard rule is complete.
        return [ObjectRule(lhs, share, "collapse-instance", "h", source=rule,
                           var_sorts=dict(rule.var_sorts))]
    if sort == INT_SORT:
        guarded = pattern_subst(lhs_inner, pos, PAnyLit(var_name))
        out.append(ObjectRule(PApp(H, (guarded,)), share, "collapse-instance",
                              "h", source=rule,
                              var_sorts=dict(rule.var_sorts)))
    else:
        taken = {v.name for v in pattern_vars(lhs_inner)}
        for ctor in system.sorts[sort]:
            fresh = _fresh_names(ctor.arity, set(taken))
            inst = pattern_subst(
                lhs_inner, pos,
                PApp(ctor, tuple(PVar(n, s) for n, s in
                                 zip(fresh, ctor.arg_sorts))))
            sorts = dict(rule.var_sorts)
            sorts.update(zip(fresh, ctor.arg_sorts))
            out.append(ObjectRule(PApp(H, (inst,)), share, "collapse-instance",
                                  "h", source=rule, var_sorts=sorts))
    out.append(ObjectRule(lhs, _h(RVar(var_name)), "collapse-default", "h",
                          source=rule, var_sorts=dict(rule.var_sorts)))
    return out


def _wrap_needed(template, demanded):
    """Head-normalize operation-rooted subterms at demanded positions."""
    if not isinstance(template, RApp) or not template.label.is_op:
        return template
    kids = list(template.children)
    for i in sorted(demanded[template.label]):
        child = kids[i]
        if isinstance(child, RApp) and child.label.is_op:
            kids[i] = _h(_wrap_needed(child, demanded))
    return RApp(template.label, tuple(kids))


# ---- builtin and normalization rules -----------------------------------------


def builtin_h_rules(system):
    out = []
    for b in system.builtins:
        lit2 = PApp(H, (PApp(b, (PAnyLit("a"), PAnyLit("b"))),))
        out.append(ObjectRule(lit2, None, "builtin-leaf", "builtin",
                              builtin_op=b.name))
        snd = PApp(H, (PApp(b, (PAnyLit("a"), PVar("y", INT_SORT))),))
        out.append(ObjectRule(
            snd, _h(RApp(b, (RVar("a"), _h(RVar("y"))))),
            "builtin-dispatch", "builtin",
            var_sorts={"y": INT_SORT}, dispatch_path=(0, 1)))
        fst = PApp(H, (PApp(b, (PVar("x", INT_SORT), PVar("y", INT_SORT))),))
        out.append(ObjectRule(
            fst, _h(RApp(b, (_h(RVar("x")), RVar("y")))),
            "builtin-dispatch", "builtin",
            var_sorts={"x": INT_SORT, "y": INT_SORT}, dispatch_path=(0, 0)))
    return out


def norm_rules(system):
    """N(...) rules: walk constructors, kick off H for operations."""
    out = []
    for sort, ctors in system.sorts.items():
        for ctor in ctors:
            fresh = _fresh_names(ctor.arity, set())
            pvars = tuple(PVar(n, s) for n, s in zip(fresh, ctor.arg_sorts))
            rhs = RApp(ctor, tuple(RApp(N, (RVar(n),)) for n in fresh))
            out.append(ObjectRule(PApp(N, (PApp(ctor, pvars),)), rhs,
                                  "norm-ctor", "n",
                                  var_sorts=dict(zip(fresh, ctor.arg_sorts))))
    for f in system.all_operations:
        section = "builtin" if f.kind == BUILTIN else "n"
        fresh = _fresh_names(f.arity, set())
        pvars = tuple(PVar(n, s) for n, s in zip(fresh, f.arg_sorts))
        rhs = RApp(N, (_h(RApp(f, tuple(RVar(n) for n in fresh))),))
        out.append(ObjectRule(PApp(N, (PApp(f, pvars),)), rhs, "norm-op",
                              section,
                              var_sorts=dict(zip(fresh, f.arg_sorts))))
    lit = ObjectRule(PApp(N, (PAnyLit("a"),)), RShare((0,)), "literal-norm",
                     "builtin")
    out.append(lit)
    return out


# ---- the two transformation phases -------------------------------------------


def _h_var_name(template):
    """Name of the variable under an H(x) application, if any."""
    stack = [template]
    found = []
    while stack:
        t = stack.pop()
        if isinstance(t, RApp):
            if t.label is H and len(t.children) == 1 \
                    and isinstance(t.children[0], RVar):
                found.append(t.children[0].name)
            else:
                stack.extend(t.children)
    if not found:
        return None
    assert len(found) == 1, "at most one H(var) per compiled rule"
    return found[0]


def _replace_h_var(template, name, share):
    if isinstance(template, RApp):
        if (template.label is H and len(template.children) == 1
                and isinstance(template.children[0], RVar)
                and template.children[0].name == name):
            return RApp(H, (share,))
        return RApp(template.label,
                    tuple(_replace_h_var(c, name, share)
                          for c in template.children))
    return template


def phase1(system, rules):
    """Instantiate away every H(variable) on a right side.

    The rule is replaced by one copy per operation that can produce the
    variable's sort.  The value cases (literal or constructor at that
    position) need no copies: the rules emitted ahead of this one already
    cover them, and rule order keeps them first.  Rules whose sort has no
    producing operations disappear: no runtime term can ever match their
    dropped case.
    """
    out = []
    for rule in rules:
        if rule.rhs is None:
            out.append(rule)
            continue
        name = _h_var_name(rule.rhs)
        if name is None:
            out.append(rule)
            continue
        xpath = var_path(rule.lhs, name)
        sort = rule.var_sorts[name]
        shared_rhs = _replace_h_var(rule.rhs, name, RShare(xpath))
        for g in system.ops_returning(sort):
            taken = {v.name for v in pattern_vars(rule.lhs)}
            fresh = _fresh_names(g.arity, taken)
            inst_lhs = pattern_subst(
                rule.lhs, xpath,
                PApp(g, tuple(PVar(n, s) for n, s in
                              zip(fresh, g.arg_sorts))))
            sorts = {k: v for k, v in rule.var_sorts.items() if k != name}
            sorts.update(zip(fresh, g.arg_sorts))
            out.append(replace(rule, lhs=inst_lhs, rhs=shared_rhs,
                               var_sorts=sorts))
    return out


def _specialize_map(system):
    mapping = {}
    for f in system.all_operations:
        mapping[f] = Symbol(f"{f.name}^H", SPECIALIZED, f.arity, f.arg_sorts,
                            f.result_sort, base=f)
    return mapping


def _specialize_template(template, lhs, specialized):
    """Collapse H(f(...)) into f^H(...) throughout a template."""
    if not isinstance(template, RApp):
        return template
    if template.label is H:
        inner = template.children[0]
        if isinstance(inner, RApp) and inner.label.is_op:
            return RApp(specialized[inner.label],
                        tuple(_specialize_template(c, lhs, specialized)
                              for c in inner.children))
        if isinstance(inner, RShare):
            target = pattern_at(lhs, inner.path)
            assert isinstance(target, PApp) and target.label.is_op
            kids = tuple(RShare(inner.path + (i,))
                         for i in range(len(target.args)))
            return RApp(specialized[target.label], kids)
        raise AssertionError(f"phase 2 found H over {inner!r}")
    return RApp(template.label,
                tuple(_specialize_template(c, lhs, specialized)
                      for c in template.children))


def _shift_shares(template):
    """Adjust RShare paths after the lhs loses its H wrapper."""
    if isinstance(template, RShare):
        assert template.path and template.path[0] == 0
        return RShare(template.path[1:])
    if isinstance(template, RApp):
        return RApp(template.label,
                    tuple(_shift_shares(c) for c in template.children))
    return template


def phase2(rules, specialized):
    """Turn H(f(args)) = rhs into f^H(args) = rhs', collapsing every
    wrapped call on the right side into its specialized symbol."""
    out = []
    for rule in rules:
        rhs = rule.rhs
        if rhs is not None:
            rhs = _specialize_template(rhs, rule.lhs, specialized)
        if rule.head is H:
            inner = rule.lhs.args[0]
            assert isinstance(inner, PApp) and inner.label.is_op
            lhs = PApp(specialized[inner.label], inner.args)
            if rhs is not None:
                rhs = _shift_shares(rhs)
            path = rule.dispatch_path
            if path is not None:
                assert path[0] == 0
                path = path[1:]
            out.append(replace(rule, lhs=lhs, rhs=rhs, dispatch_path=path))
        else:
            out.append(replace(rule, rhs=rhs))
    return out


# ---- program assembly ---------------------------------------------------------


def _finalize(rule):
    rule.step_class = _ORIGIN_CLASS[rule.origin]
    rule.is_literal_norm = rule.origin == "literal-norm"
    if (rule.step_class == "rewrite" and isinstance(rule.rhs, RApp)
            and rule.rhs.label.kind == SPECIALIZED):
        rule.step_class = "shortcut"
    if rule.builtin_op:
        rule.builtin_operands = tuple(
            v.name for v in pattern_vars(rule.lhs) if isinstance(v, PAnyLit))
        rule.countable_allocs = 1
    elif rule.exempt or rule.step_class in ("dispatch", "norm"):
        rule.countable_allocs = 0
    else:
        rule.countable_allocs = _count_allocs(rule.rhs)
    return rule


def _count_allocs(template):
    """Fresh data nodes (signature symbols and literals) a rule allocates.
    Evaluation wrappers and specialized symbols are control bookkeeping and
    are not counted; shared (reused) nodes allocate nothing."""
    if template is None or isinstance(template, (RVar, RShare)):
        return 0
    if isinstance(template, RLit):
        return 1
    total = sum(_count_allocs(c) for c in template.children)
    if template.label.is_data:
        total += 1
    return total


def _assert_no_h(rules):
    for rule in rules:
        assert rule.head is not H, f"H survived phase 2 in {rule.origin} lhs"
        stack = [rule.rhs] if rule.rhs is not None else []
        while stack:
            t = stack.pop()
            if isinstance(t, RApp):
                assert t.label is not H, \
                    f"H survived phase 2 in {rule.origin} rhs"
                stack.extend(t.children)


def build_program(system, mode):
    assert mode in ("cr", "tr", "or"), mode
    trees = build_all_deftrees(system)
    demanded = {op: demanded_args(op, trees.get(op))
                for op in system.operations}
    for b in system.builtins:
        demanded[b] = set(range(b.arity))
    rules = []
    wrap = mode == "or"
    for op in system.operations:
        rules.extend(compile_operation(system, op, trees[op], demanded, wrap))
    rules.extend(builtin_h_rules(system))
    rules.extend(norm_rules(system))
    specialized = {}
    if mode != "cr":
        rules = phase1(system, rules)
        specialized = _specialize_map(system)
        rules = phase2(rules, specialized)
        _assert_no_h(rules)
    rules = [_finalize(r) for r in rules]
    return ObjectProgram(system, mode, rules, trees, demanded, specialized)
