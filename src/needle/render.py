"""Plain-text rendering of terms, rules, trees, traces, and counter tables."""

from __future__ import annotations

from .core import (
    BUILTIN,
    AnyLit,
    Lit,
    Share,
    SourceRule,
    Var,
    pattern_at,
    resolve,
    var_paths,
)
from .deftree import DTBranch
from .runtime import Replay

# ---- terms -------------------------------------------------------------------


def format_node(node, resolve=resolve, erase=False):
    """Prefix rendering of a graph (shared nodes print repeatedly).

    `resolve` gives the node each node stands for: `core.resolve` in the live
    graph (the default), `Replay.resolve` or `Replay.erased` in a traced run's
    state or its erased state.  With `erase`, `f^H` prints as `f`.
    """
    parts = []
    emit = parts.append
    stack = [node]
    pop = stack.pop
    push = stack.append
    while stack:
        item = pop()
        if item.__class__ is str:
            emit(item)
            continue
        item = resolve(item)
        label = item.label
        if label.__class__ is int:
            emit(str(label))
            continue
        if erase and label.base is not None:
            label = label.base
        kids = item.children
        if not kids:
            emit(label.name)
            continue
        emit(label.name + "(")
        push(")")
        i = len(kids) - 1
        while i:
            push(kids[i])
            push(", ")
            i -= 1
        push(kids[0])
    return "".join(parts)


# ---- patterns, templates, rules ------------------------------------------------


def format_template(t, lhs=None, literals=()):
    """Text of a pattern, or of a template over the left side `lhs`, and the
    set of names of the literal variables (`AnyLit`) it prints.  A shared
    position prints as the pattern there, and a variable named in
    `literals` (those of `lhs`) as `#name`."""
    found = set()
    parts = []
    emit = parts.append
    stack = [t]
    pop = stack.pop
    push = stack.append
    while stack:
        t = pop()
        cls = t.__class__
        if cls is str:
            emit(t)
        elif cls is Lit:
            emit(str(t.value))
        elif cls is Share:
            push(pattern_at(lhs, t.path))
        elif cls is AnyLit:
            found.add(t.name)
            emit("#" + t.name)
        elif cls is Var:
            emit("#" + t.name if t.name in literals else t.name)
        else:
            kids = t.args
            if not kids:
                emit(t.label.name)
                continue
            emit(t.label.name + "(")
            push(")")
            i = len(kids) - 1
            while i:
                push(kids[i])
                push(", ")
                i -= 1
            push(kids[0])
    return "".join(parts), found


def format_rule(rule):
    lhs, literals = format_template(rule.lhs)
    if rule.origin == "exempt":
        rhs = "abort"
    elif rule.origin == "builtin-leaf":
        op = "+" if rule.source.name == "add" else "-"
        a, b = var_paths(rule.lhs)
        rhs = f"<{a} {op} {b}>"
    else:
        rhs = format_template(rule.rhs, rule.lhs, literals)[0]
    return f"{lhs} = {rhs}  ; {rule.origin}"


def rule_section(rule):
    """The listing section of an object rule: "h" for head rules, "n" for
    normalization rules, "builtin" for the rules of builtins and literals."""
    origin = rule.origin
    if origin in ("builtin-leaf", "builtin-dispatch", "literal-norm") or (
            origin == "norm-op" and rule.lhs.args[0].label.kind == BUILTIN):
        return "builtin"
    return "n" if origin in ("norm-ctor", "norm-op") else "h"


def format_program(program):
    lines = [f"-- object program: {program.system.name} (mode {program.mode})"]
    titles = {"h": "H rules" if program.mode == "cr" else "specialized rules",
              "n": "N rules", "builtin": "builtin rules"}
    for section, title in titles.items():
        rules = [r for r in program.rules if rule_section(r) == section]
        if not rules:
            continue
        lines.append("")
        lines.append("-- " + title)
        lines.extend(format_rule(r) for r in rules)
    return "\n".join(lines) + "\n"


# ---- definitional trees ---------------------------------------------------------


def path_str(path):
    return ".".join(str(i + 1) for i in path)


def format_tree(tree, indent=0):
    lines, stack = [], [(tree, indent)]
    while stack:
        tree, indent = stack.pop()
        pad = "  " * indent
        if tree.__class__ is str:
            lines.append(pad + tree)
        elif isinstance(tree, SourceRule):
            lhs, literals = format_template(tree.lhs)
            rhs = format_template(tree.rhs, tree.lhs, literals)[0]
            lines.append(f"{pad}rule {lhs} = {rhs}")
        elif tree is None:
            lines.append(f"{pad}exempt")
        else:
            if isinstance(tree, DTBranch):
                sort, cases = tree.sort, [(c.name, sub)
                                          for c, sub in tree.children]
            else:
                sort, cases = "Int", list(tree.children)
                if tree.default is not None:
                    cases.append(("default", tree.default))
            lines.append(f"{pad}branch @{path_str(tree.path)} ({sort})")
            for key, sub in reversed(cases):
                stack += [(sub, indent + 2), (f"{key}:", indent + 1)]
    return lines


def format_trees(system, trees, only=None):
    lines = []
    for op in system.operations:
        if only is not None and op.name != only:
            continue
        lines.append(f"op {op.name}")
        lines.extend(format_tree(trees[op], indent=1))
        lines.append("")
    return "\n".join(lines)


# ---- traces ----------------------------------------------------------------------


def trace_states(result):
    """Printable machine states of a traced run.

    Every state is shown except the output of literal-normalization steps
    (`N(k) -> k`), which change nothing visible; the final state is always
    shown.  Each state is rendered in one pass over the nodes it shows, with
    one `Replay.resolve` per node: a logged redex is the node its parent
    holds, so that follows at most one replacement.
    """
    assert result.trace is not None
    replay = Replay()
    states = [format_node(result.start, replay.resolve)]
    for i, step in enumerate(result.trace, 1):
        replay.apply(step)
        if step.rule.origin != "literal-norm" or i == len(result.trace):
            states.append(format_node(result.start, replay.resolve))
    return states


def erased_states(result):
    """Erased machine states with consecutive duplicates removed.

    Erasing splices out the evaluation wrappers, so stretches of machine
    states project to one source expression; the survivors are exactly the
    source-level derivation the run performs.
    """
    assert result.trace is not None
    replay = Replay()
    out = [format_node(result.start, replay.erased, erase=True)]
    for step in result.trace:
        replay.apply(step)
        text = format_node(result.start, replay.erased, erase=True)
        if out[-1] != text:
            out.append(text)
    return out


def format_trace(result):
    states = trace_states(result)
    width = len(str(len(states)))
    return "\n".join(f"{i + 1:>{width}}  {s}" for i, s in enumerate(states))


# ---- counter tables ----------------------------------------------------------------

_RATIO_ROWS = ("rewrite steps", "shortcut steps",
               "node allocations", "node matches")


def format_counter_table(results):
    """`results`: list of (mode, EvalResult) pairs; cr first for the ratio block."""
    modes = [mode for mode, _ in results]
    rows = list(results[0][1].counters.as_dict().keys())
    table = {mode: res.counters.as_dict() for mode, res in results}
    name_w = max(len(r) for r in rows) + 2
    col_w = max(10, *(len(str(v)) + 2 for t in table.values()
                      for v in t.values()))
    lines = [" " * name_w + "".join(f"{m:>{col_w}}" for m in modes)]
    for row in rows:
        cells = "".join(f"{table[m][row]:>{col_w}}" for m in modes)
        lines.append(f"{row:<{name_w}}" + cells)
    base = None
    for mode, res in results:
        if mode == "cr":
            base = res.counters.rewrite_steps
    if base:
        lines.append("")
        lines.append("per 10 rewrite steps of cr:")
        for row in _RATIO_ROWS:
            cells = "".join(
                f"{table[m][row] * 10 / base:>{col_w}.2f}" for m in modes)
            lines.append(f"{row:<{name_w}}" + cells)
    return "\n".join(lines)
