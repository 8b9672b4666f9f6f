"""Instrumented evaluator for object programs.

Evaluation drives a worklist of evaluable nodes (`H`, `N` and `f^H`), which
starts as the root `N` alone: the input is a source term, so nothing below
the root is evaluable.  A rule fires only on a node whose whole subgraph is
settled, so every node its right side reuses is settled too, and the only
nodes that can still need a rule are the evaluable nodes the right side
creates.  Each step pushes exactly those, in reverse post-order, so rules
fire innermost first, left to right, and no node is visited unless a rule
fires on it.  The loop is iterative (inputs of any depth evaluate without
recursion) and runs with CPython's cyclic garbage collector paused
(`core.acyclic`).

When a contractum's root is itself evaluable, the step pushes the node it
popped back in its place.  Popped again, that node forwards one hop to the
live node; the rule fires there, and both nodes are forwarded to the new
contractum.  So the node a parent holds always forwards straight to the
newest contractum, each superseded one loses its last reference and is
freed, and an untraced run holds only the live graph and its pending
wrappers: a divergent run takes constant memory.  The rewrite log names
the popped node, the one a parent holds, as each step's redex.

The first evaluation of a program compiles its rules into slot code, one
group per head symbol, that later evaluations reuse.  Rule selection runs
inside the loop, not in a call of its own, and fills one list of slots, one
per left-side position in the group.  It keeps priority order, but switches
on the position the first rule tests first: it fetches the node there once
and keeps only the rules whose first test accepts that node's label or lies
elsewhere, then switches once more among those, and tries the rest in
order.  Under H or N the switches are the wrapped call and the first
position tested below it: the rules for one call come from one definitional
tree, so most of them test that position first.  Only the chosen rule's
variables are bound, in one loop, and its right-side builder closure reads
the nodes from their slots.  A builder calls its subtrees' builders, one
frame per level, but an application at a depth that is a multiple of
`MAX_NESTING` is built first, into a slot of its own, so right sides of any
depth build within the default recursion limit.

Counters
--------
* rewrite/shortcut steps: rule applications that correspond one-to-one to
  source rewrite steps (shortcut = the applied rule's right side is rooted by
  a specialized symbol, skipping a wrapper round trip).
* dispatch steps: argument-forcing rules introduced by compilation.
* norm steps: constructor walks of the normalization wrapper.
* node matches: the number of distinct nodes whose labels one selection
  reads, kept as one set per selection: a node reached at two positions
  counts once, and the redex root itself is never read.
* node allocations: fresh data nodes (signature symbols and literals)
  allocated by rewrite and shortcut steps.  Wrapper nodes and the contracta
  of dispatch/norm steps are control bookkeeping and are not counted.
* nodes created: every fresh node, with no exclusions (for transparency).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import itemgetter
from typing import Optional

from .core import (
    CONTROL,
    SPECIALIZED,
    App,
    EvaluationError,
    H,
    Lit,
    N,
    NeedleError,
    Node,
    Share,
    Symbol,
    Var,
    acyclic,
    int_op,
    resolve,
)

DEFAULT_MAX_STEPS = 10**8

# Object right sides of the corpus and of generated systems nest at most 5
# deep, so only far deeper ones pay for building ahead (see above).
MAX_NESTING = 50

_EVALUABLE_KINDS = (CONTROL, SPECIALIZED)

# Test opcodes.
_APP, _LIT, _ANYLIT = 0, 1, 2
_NO_RULES = (1, None, ())  # the group of a head no rule fires on

# Index of a step class among the counters; exempt rules never step.
_STEP_CLASS = {"rewrite": 0, "shortcut": 1, "dispatch": 2, "norm": 3,
               "none": -1}


def step_budget(max_steps=None, default=DEFAULT_MAX_STEPS):
    """The step budget: `max_steps`, else `default`.

    Raises NeedleError if the budget is negative.
    """
    if max_steps is None:
        return default
    if max_steps < 0:
        raise NeedleError(f"the step budget must not be negative "
                          f"(got {max_steps})")
    return max_steps


@dataclass(slots=True)
class Counters:
    rewrite_steps: int = 0
    shortcut_steps: int = 0
    dispatch_steps: int = 0
    norm_steps: int = 0
    node_matches: int = 0
    node_allocations: int = 0
    nodes_created: int = 0

    def as_dict(self):
        """The counters by name: "rewrite steps", "node matches", ..."""
        return {f.name.replace("_", " "): getattr(self, f.name)
                for f in fields(self)}


@dataclass(slots=True)
class EvalResult:
    outcome: str  # "value", "aborted", "steplimit"
    root: Node
    counters: Counters
    steps: int
    trace: Optional[list] = None  # TraceSteps, when traced
    start: Optional[Node] = None  # the root before the first step, when traced
    abort_rule: Optional[object] = None

    @property
    def proper_steps(self):
        return self.counters.rewrite_steps + self.counters.shortcut_steps


class NoRuleError(EvaluationError):
    """No object rule matched an evaluable node: a compiler invariant broke."""


# ---- traces -------------------------------------------------------------------


@dataclass(slots=True)
class TraceStep:
    """One contraction: `rule` replaced `redex`, the node its parent holds
    (resolved before the step, the node the rule matched), by `contractum`."""

    rule: object
    redex: Node
    contractum: Node


class Replay:
    """The graph of a traced run as of any step, rebuilt from its log.

    A traced run keeps its start root and every (redex, contractum) pair;
    a redex is the node a parent holds, and resolved in the state before its
    step it gives the node the rule matched.  Feed the steps in order to
    `apply`; `resolve` then follows the replacements made so far.  The
    nodes' own `forward` pointers cannot serve, because `core.resolve`
    compresses them to the final result.
    """

    def __init__(self):
        self.forward = {}  # redex node -> contractum

    def apply(self, step):
        self.forward[step.redex] = step.contractum

    def resolve(self, node):
        """The node `node` stands for after the replacements applied so far:
        one at most, as a redex the log names is never a contractum."""
        forward = self.forward
        while node in forward:
            node = forward[node]
        return node

    def erased(self, node):
        """The node `node` stands for once evaluation wrappers are spliced out."""
        forward = self.forward
        while True:
            while node in forward:
                node = forward[node]
            label = node.label
            if label is not H and label is not N:
                return node
            node = node.children[0]


def source_label(label):
    """The source label behind a machine label (`f^H` stands for `f`)."""
    if label.__class__ is Symbol and label.kind == SPECIALIZED:
        return label.base
    return label


# ---- rule compilation ---------------------------------------------------------


def _compile_groups(rules):
    """Group a program's rules by head symbol and compile them to slot code.

    A group is (slot count, switch, table), see `_switches`; slot 0 is the
    redex.  An entry is (tests, binds, step class index, node allocations,
    nodes created, builder, fresh evaluable paths, rule), one per rule.
    Tests are the App, Lit and AnyLit positions as (opcode, slot, parent
    slot, child index, payload) in pre-order, so a slot's parent is filled
    first; binds are the Var positions as (slot, parent slot, child index).
    A rewrite or shortcut rule allocates the nodes it creates that are not
    evaluable, and any other rule allocates none.
    """
    groups = {}
    for rule in rules:
        slot_of, entries = groups.setdefault(rule.head, ({}, []))
        tests, binds, var_slot = [], [], {}
        stack = [(arg, 0, i) for i, arg in enumerate(rule.lhs.args)][::-1]
        while stack:
            pattern, parent, idx = stack.pop()
            slot = slot_of.setdefault((parent, idx), len(slot_of) + 1)
            cls = pattern.__class__
            if cls is App:
                tests.append((_APP, slot, parent, idx, pattern.label))
                args = enumerate(pattern.args)
                stack += [(arg, slot, i) for i, arg in args][::-1]
            elif cls is Lit:
                tests.append((_LIT, slot, parent, idx, pattern.value))
            else:
                var_slot[pattern.name] = slot
                if cls is Var:
                    binds.append((slot, parent, idx))
                else:
                    tests.append((_ANYLIT, slot, parent, idx, None))
        build, created, fresh = _builder(rule, var_slot, slot_of)
        step = _STEP_CLASS[rule.step_class]
        allocs = created - len(fresh) if step in (0, 1) else 0
        entries.append((tuple(tests), tuple(binds), step, allocs, created,
                        build, fresh, rule))
    return {head: (len(slot_of) + 1, *_switches(entries))
            for head, (slot_of, entries) in groups.items()}


def _switches(entries):
    """Entries in priority order as [switch, table], two switches deep.  A
    switch is the position of the first entry's first test, as (slot,
    parent slot, child index).  Its table maps each label a first test there
    names (a symbol, or a Lit's Int), and `Symbol` and `int` for any other,
    to the [switch, table] of the entries that accept it.  An entry tested
    elsewhere or not at all is in every list; one tested at the switch is
    listed without that test.  Where the first entry tests nothing, or below
    the second switch, the switch is None and the table the entries."""
    top = [None, entries]
    work = [(top, 2)]
    while work:
        branch, levels = work.pop()
        entries = branch[1]
        if not (levels and entries and entries[0][0]):
            continue
        at = entries[0][0][0][1:4]
        table = {Symbol: [], int: []}
        every, ints = list(table.values()), [table[int]]
        for tests, *rest in entries:
            into, entry = every, (tests, *rest)
            if tests and tests[0][1] == at[0]:
                op, label, entry = tests[0][0], tests[0][4], (tests[1:], *rest)
                into = ints
                if op != _ANYLIT:
                    if label not in table:
                        table[label] = table[label.__class__][:]
                        every.append(table[label])
                        if op == _LIT:
                            ints.append(table[label])
                    into = (table[label],)
            for listed in into:
                listed.append(entry)
        for label, listed in table.items():
            table[label] = [None, listed]
            work.append((table[label], levels - 1))
        branch[:] = at, table
    return top


def _builder(rule, var_slot, slot_of):
    """The rule's contraction as a closure over the match slots, the number
    of nodes it creates, and the paths from the contractum's root to the
    evaluable nodes among them, in reverse post-order."""
    if rule.origin == "builtin-leaf":
        name = rule.source.name
        a, b = var_slot.values()
        return (lambda s: Node(int_op(name, s[a].label, s[b].label))), 1, ()
    if rule.rhs is None:
        return None, 0, ()
    # Post-order: an application's symbol is pushed below its children, each
    # with the path that leads to it.
    out, stages, fresh, created = [], [], [], 0
    stack = [(rule.rhs, ())]
    while stack:
        t, path = stack.pop()
        cls = t.__class__
        if cls is App:
            created += 1
            stack.append((t.label, path))
            stack += [(arg, path + (i,))
                      for i, arg in enumerate(t.args)][::-1]
        elif cls is Var:
            out.append(var_slot[t.name])
        elif cls is Share:
            slot = 0
            for i in t.path:
                slot = slot_of[(slot, i)]
            out.append(slot)
        elif cls is Lit:
            created += 1
            out.append(lambda s, value=t.value: Node(value))
        else:
            if t.kind in _EVALUABLE_KINDS:
                fresh.append(path)
            kids = out[len(out) - t.arity:]
            del out[len(out) - t.arity:]
            build = _application(t, kids)
            if path and len(path) % MAX_NESTING == 0:  # built ahead, in a slot
                stages.append((-1 - len(stages), build))
                build = stages[-1][0]
            out.append(build)
    top, fresh = out[0], tuple(reversed(fresh))
    top = itemgetter(top) if top.__class__ is int else top  # a reused node
    if not stages:
        return top, created, fresh

    def staged(s):
        s = s + [None] * len(stages)  # the tail slots
        for slot, stage in stages:
            s[slot] = stage(s)
        return top(s)
    return staged, created, fresh


def _application(label, kids):
    """A builder of `label` over `kids`: builders, or slots read as `s[i]`."""
    if len(kids) == 2:
        f, g = kids
        if f.__class__ is int:
            if g.__class__ is int:
                return lambda s: Node(label, (s[f], s[g]))
            return lambda s: Node(label, (s[f], g(s)))
        if g.__class__ is int:
            return lambda s: Node(label, (f(s), s[g]))
        return lambda s: Node(label, (f(s), g(s)))
    if len(kids) == 1:
        f, = kids
        if f.__class__ is int:
            return lambda s: Node(label, (s[f],))
        return lambda s: Node(label, (f(s),))
    kids = [itemgetter(f) if f.__class__ is int else f for f in kids]
    return lambda s: Node(label, tuple([f(s) for f in kids]))


# ---- the evaluator ------------------------------------------------------------


def _shape(node):
    """`node`'s label over its children's labels, as `N node over 7`: the
    text of a NoRuleError, which has no root path to name."""
    text = f"{node.label.name} node"
    kids = [resolve(kid).label for kid in node.children]
    if not kids:
        return text
    return text + " over " + ", ".join(
        str(k) if k.__class__ is int else k.name for k in kids)


@acyclic
def evaluate(program, expr, max_steps=None, trace=False):
    """Normalize `expr` (a source-term graph) under an object program.

    `expr` must hold no `H`, `N` or `f^H` node (`parse_expr` output never
    does): only the root `N` and the nodes rules create are scheduled.

    The run rewrites until the worklist is empty, an exempt rule aborts, or
    the budget runs out.  Each step selects the first matching rule of the
    node's group.  Each node whose label a selection reads counts once (the
    redex root label is already known from scheduling and is free).  The
    counters are kept in locals and become a `Counters` once, after the
    loop.  An exception raised inside the loop (integer overflow, memory)
    skips that: the run is lost, and allocating on that path can fail again.
    """
    max_steps = step_budget(max_steps)
    trace = [] if trace else None
    if program.rule_groups is None:
        program.rule_groups = _compile_groups(program.rules)
    root = Node(N, (expr,))
    stack = [root]
    pop = stack.pop
    push = stack.append
    get_group = program.rule_groups.get
    fetched = set()  # the nodes whose labels this selection reads
    fetch = fetched.add
    by_class = [0, 0, 0, 0]  # rewrite, shortcut, dispatch and norm steps
    steps = matches = allocs = created = 0
    outcome, abort_rule = "value", None
    while stack:
        held = pop()
        node = held.forward or held  # one hop: `held` forwards to a live node
        fetched.clear()
        nslots, switch, table = get_group(node.label, _NO_RULES)
        slots = [None] * nslots
        slots[0] = node
        while switch is not None:  # fetch each switch position once
            slot, parent, idx = switch
            target = slots[parent].children[idx]
            if target.forward is not None:
                target = resolve(target)
            slots[slot] = target
            fetch(target)
            label = target.label
            switch, table = table.get(label) or table[label.__class__]
        for entry in table:
            for op, slot, parent, idx, payload in entry[0]:
                target = slots[slot]
                if target is None:
                    target = slots[parent].children[idx]
                    if target.forward is not None:
                        target = resolve(target)
                    slots[slot] = target
                    fetch(target)
                if op == _APP:
                    if target.label is not payload:
                        break
                else:  # _LIT or _ANYLIT
                    tlabel = target.label
                    if tlabel.__class__ is not int \
                            or (op == _LIT and tlabel != payload):
                        break
            else:
                break
        else:  # no rule matches: a compiler invariant broke
            outcome = None
            break
        matches += len(fetched)
        _, binds, cls, rule_allocs, rule_created, build, fresh, rule = entry
        if cls < 0:  # exempt: no rule can ever apply here
            outcome, abort_rule = "aborted", rule
            break
        if steps >= max_steps:
            outcome = "steplimit"
            break
        steps += 1
        by_class[cls] += 1
        allocs += rule_allocs
        for slot, parent, idx in binds:
            target = slots[parent].children[idx]
            if target.forward is not None:
                target = resolve(target)
            slots[slot] = target
            assert not (target.label.__class__ is Symbol
                        and target.label.kind in _EVALUABLE_KINDS), \
                "innermost discipline violated"
        created += rule_created
        replacement = build(slots)
        held.forward = node.forward = replacement
        if trace is not None:
            trace.append(TraceStep(rule, held, replacement))
        for path in fresh:
            if not path:  # an evaluable contractum root: `held` stands for it
                push(held)
                continue
            target = replacement
            for i in path:
                target = target.children[i]
            push(target)
    if outcome is None:
        raise NoRuleError(f"no rule matches {_shape(node)}")
    return EvalResult(outcome, resolve(root),
                      Counters(*by_class, matches, allocs, created), steps,
                      trace, root if trace is not None else None, abort_rule)
