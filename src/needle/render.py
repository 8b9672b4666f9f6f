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
    _tokens(node, resolve, parts, erase)
    return "".join(parts)


_SEP = (", ", None)  # ", " and its owner, pushed when owners are kept


def _tokens(node, resolve, parts, erase=False, owners=None, old=None):
    """Append the tokens of `node`'s prefix rendering to `parts`.

    With a list `owners`, also append beside each token the pointer whose
    rendering it opens or closes, and None beside ", ": a leaf owns its one
    token, an application its name token, which ends in "(", and its ")",
    the next token it owns.  `old` is then None or the (parts, owners,
    start, end) range of an earlier rendering of `node`.  Any other pointer
    shown there renders as it did as long as it cannot reach `node`, and its
    tokens are copied from there instead of visited.  Without `owners`, the
    loop pays one test per node.
    """
    emit = parts.append
    own = owners.append if owners is not None else None
    sep = _SEP if own else ", "
    olds = ()
    if old is not None:
        old_parts, old_owners, start, end = old
        olds = set(old_owners[start + 1:end - 1])  # not `node`'s own tokens
    stack = [node]
    pop = stack.pop
    push = stack.append
    while stack:
        ptr = pop()
        if ptr.__class__ is str:
            emit(ptr)
            continue
        if own:
            if ptr.__class__ is tuple:  # a token and its owner
                emit(ptr[0])
                own(ptr[1])
                continue
            if ptr in olds:
                s = old_owners.index(ptr, start, end)
                e = old_owners.index(ptr, s + 1, end) + 1 \
                    if old_parts[s][-1] == "(" else s + 1
                parts += old_parts[s:e]
                owners += old_owners[s:e]
                continue
            own(ptr)
        item = resolve(ptr)
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
        push((")", ptr) if own else ")")
        i = len(kids) - 1
        while i:
            push(kids[i])
            push(sep)
            i -= 1
        push(kids[0])


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
    shown.  The start is rendered once and each step edits it (`_states`).
    """
    return list(_states(result))


def _states(result):
    """Yield `trace_states` one state at a time, editing one token list.

    The start state is rendered once, with the owner of each token
    (`_tokens`).  A step changes only what its redex, the pointer a parent
    holds, stands for, so every occurrence of the redex is replaced by its
    new rendering and the rest of the list is kept.  That rendering visits
    the nodes the step created and copies every older node's tokens out of
    the old occurrence: the graph is acyclic, so none of them reaches the
    redex.  Per step, the Python work follows the nodes created; the
    scans, copies and the state's `"".join` run in C.
    """
    assert result.trace is not None
    replay = Replay()
    resolve = replay.resolve
    parts, owners = [], []
    _tokens(result.start, resolve, parts, owners=owners)
    yield "".join(parts)
    last = len(result.trace)
    for i, step in enumerate(result.trace, 1):
        replay.apply(step)
        redex = step.redex
        count = owners.count(redex)  # 0 when the start cannot reach it
        if count:
            start = owners.index(redex)
            end = start + 1
            if parts[start][-1] == "(":  # an application owns two tokens
                count //= 2
                end = owners.index(redex, end) + 1
            new, new_owners = [], []
            _tokens(redex, resolve, new, False, new_owners,
                    (parts, owners, start, end))
            span = end - start
            parts[start:end] = new
            owners[start:end] = new_owners
            for _ in range(count - 1):  # a shared redex prints more than once
                start = owners.index(redex, start + len(new))
                parts[start:start + span] = new
                owners[start:start + span] = new_owners
        if step.rule.origin != "literal-norm" or i == last:
            yield "".join(parts)


def erased_states(result):
    """Erased machine states with consecutive duplicates removed.

    Erasing splices out the evaluation wrappers, so stretches of machine
    states project to one source expression; the survivors are exactly the
    source-level derivation the run performs.  Every state is rendered in
    full: erasing walks through wrappers within one lookup, so a redex need
    not own the tokens its step changes.
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


def trace_lines(result):
    """Yield the numbered lines of `format_trace` as the states are made."""
    trace = result.trace
    # the start, each step but a literal normalization, and the last step
    shown = 1 + sum(step.rule.origin != "literal-norm"
                    for step in trace[:-1]) + bool(trace)
    width = len(str(shown))
    for i, state in enumerate(_states(result), 1):
        yield f"{i:>{width}}  {state}"


def format_trace(result):
    """`trace_states` numbered from 1, one state a line."""
    return "\n".join(trace_lines(result))


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
