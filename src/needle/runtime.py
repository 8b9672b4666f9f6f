"""Instrumented evaluator for object programs.

Evaluation drives a worklist of (node, phase) pairs: phase 0 schedules a
node's children, phase 1 fires rules at the node once everything below it is
settled.  Rules never fire under an unevaluated wrapper, so reductions follow
the innermost evaluable position, left to right.  The loop is fully
iterative: list-shaped inputs of any length evaluate without recursion.

Rule left sides are compiled once per program into flat instruction tuples,
and right sides into nested builder closures; both are cached on the rule
objects so repeated evaluations pay nothing.

Counters
--------
* rewrite/shortcut steps: rule applications that correspond one-to-one to
  source rewrite steps (shortcut = the applied rule's right side is rooted by
  a specialized symbol, skipping a wrapper round trip).
* dispatch steps: argument-forcing rules introduced by compilation.
* norm steps: constructor walks of the normalization wrapper.
* node matches: node-label fetches performed while selecting a rule.  Fetches
  are memoized per selection, and the redex root itself is never fetched.
* node allocations: fresh data nodes (signature symbols and literals)
  allocated by rewrite and shortcut steps.  Wrapper nodes and the contracta
  of dispatch/norm steps are control bookkeeping and are not counted.
* nodes created: every fresh node, with no exclusions (for transparency).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from .core import (
    CONTROL,
    SPECIALIZED,
    EvaluationError,
    H,
    N,
    NeedleError,
    Node,
    PAnyLit,
    PApp,
    PLit,
    PVar,
    RLit,
    RShare,
    RVar,
    Symbol,
    int_op,
    resolve,
)

DEFAULT_MAX_STEPS = 10**8

_INT_KEY = "int"
_EVALUABLE_KINDS = (CONTROL, SPECIALIZED)

# Match instruction opcodes.
_APP, _VAR, _LIT, _ANYLIT = 0, 1, 2, 3


def step_budget(max_steps=None):
    """The step budget: `max_steps`, else $NEEDLE_MAX_STEPS, else the default.

    Raises NeedleError unless the budget is a non-negative integer.
    """
    if max_steps is None:
        text = os.environ.get("NEEDLE_MAX_STEPS")
        if not text:
            return DEFAULT_MAX_STEPS
        try:
            max_steps = int(text)
        except ValueError:
            raise NeedleError(f"NEEDLE_MAX_STEPS must be an integer, "
                              f"not {text!r}") from None
    if max_steps < 0:
        raise NeedleError(f"the step budget must not be negative "
                          f"(got {max_steps})")
    return max_steps


@dataclass
class Counters:
    rewrite_steps: int = 0
    shortcut_steps: int = 0
    dispatch_steps: int = 0
    norm_steps: int = 0
    node_matches: int = 0
    node_allocations: int = 0
    nodes_created: int = 0

    def as_dict(self):
        return {
            "rewrite steps": self.rewrite_steps,
            "shortcut steps": self.shortcut_steps,
            "dispatch steps": self.dispatch_steps,
            "norm steps": self.norm_steps,
            "node matches": self.node_matches,
            "node allocations": self.node_allocations,
            "nodes created": self.nodes_created,
        }


@dataclass
class EvalResult:
    outcome: str  # "value", "aborted", "steplimit"
    root: Node
    counters: Counters
    steps: int
    program: object
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
    """One contraction: `rule` replaced `redex` by `contractum`."""

    rule: object
    redex: Node
    contractum: Node


class Replay:
    """The graph of a traced run as of any step, rebuilt from its log.

    A traced run keeps its start root and every (redex, contractum) pair.
    Feed the steps in order to `apply`; `resolve` then follows the
    replacements made so far.  The nodes' own `forward` pointers cannot
    serve, because `core.resolve` compresses them to the final result.
    """

    def __init__(self):
        self.forward = {}  # redex nid -> contractum

    def apply(self, step):
        self.forward[step.redex.nid] = step.contractum

    def resolve(self, node):
        """Follow the replacements applied so far, compressing the path.

        Entries are only ever added, so a compressed path still leads to
        the node of every later step.
        """
        forward = self.forward
        target = node
        while target.nid in forward:
            target = forward[target.nid]
        while node is not target:
            nxt = forward[node.nid]
            forward[node.nid] = target
            node = nxt
        return target

    def erased(self, node):
        """The node `node` stands for once evaluation wrappers are spliced out."""
        node = self.resolve(node)
        while node.label.__class__ is Symbol and node.label.kind == CONTROL:
            node = self.resolve(node.children[0])
        return node

    def view(self, node):
        node = self.resolve(node)
        return node.label, node.children

    def erased_view(self, node):
        node = self.erased(node)
        return source_label(node.label), node.children


def source_label(label):
    """The source label behind a machine label (`f^H` stands for `f`)."""
    if label.__class__ is Symbol and label.kind == SPECIALIZED:
        return label.base
    return label


# ---- rule compilation ---------------------------------------------------------


def _compile_match(rule):
    """Flatten a rule's argument patterns into match instructions.

    Each instruction is (opcode, path, parent_path, child_index, payload);
    instructions appear in pre-order, so a node's instruction always runs
    after its parent's.  Paths are relative to the redex root.
    """
    code = []

    def walk(pattern, path):
        ppath, idx = path[:-1], path[-1]
        cls = pattern.__class__
        if cls is PVar:
            code.append((_VAR, path, ppath, idx, pattern.name))
        elif cls is PAnyLit:
            code.append((_ANYLIT, path, ppath, idx, pattern.name))
        elif cls is PLit:
            code.append((_LIT, path, ppath, idx, pattern.value))
        else:
            code.append((_APP, path, ppath, idx, pattern.label))
            for i, arg in enumerate(pattern.args):
                walk(arg, path + (i,))

    for i, arg in enumerate(rule.lhs.args):
        walk(arg, (i,))
    return tuple(code)


def _compile_template(template):
    """Turn a right-side template into a builder closure.

    The closure takes (evaluator, redex, bindings) and returns the
    replacement node, counting every allocation it performs.
    """
    cls = template.__class__
    if cls is RVar:
        name = template.name
        return lambda ev, redex, bindings: bindings[name]
    if cls is RShare:
        path = template.path

        def build_share(ev, redex, bindings):
            node = redex
            for i in path:
                child = node.children[i]
                node = child if child.forward is None else resolve(child)
            return node

        return build_share
    if cls is RLit:
        value = template.value

        def build_lit(ev, redex, bindings):
            ev.counters.nodes_created += 1
            return Node(value)

        return build_lit
    label = template.label
    kid_fns = tuple(_compile_template(c) for c in template.children)

    def build_app(ev, redex, bindings):
        kids = [fn(ev, redex, bindings) for fn in kid_fns]
        ev.counters.nodes_created += 1
        return Node(label, kids)

    return build_app


# ---- the evaluator ------------------------------------------------------------


class Evaluator:
    def __init__(self, program, max_steps=None, trace=False):
        self.program = program
        self.max_steps = step_budget(max_steps)
        self.tracing = trace
        self.counters = Counters()
        self.steps = 0
        self.trace = [] if trace else None
        self.done = set()
        groups = program.rule_groups
        if groups is None:
            groups = {}
            for rule in program.rules:
                if rule.match_code is None:
                    rule.match_code = _compile_match(rule)
                    if rule.rhs is not None:
                        rule.rhs_fn = _compile_template(rule.rhs)
                head = rule.head
                if head is H or head is N:
                    key = (head.name, self._child_key(rule.lhs.args[0]))
                else:
                    key = head
                groups.setdefault(key, []).append(rule)
            program.rule_groups = groups
        self.groups = groups

    @staticmethod
    def _child_key(pattern):
        if isinstance(pattern, PApp):
            return pattern.label
        return _INT_KEY

    # ---- matching ------------------------------------------------------

    def select(self, node):
        """Pick the first matching rule at an evaluable node.

        Returns (rule, bindings) or (None, None).  Every node-label fetch is
        counted once per selection (the redex root label is already known
        from scheduling and is free).
        """
        counters = self.counters
        label = node.label
        if label is H or label is N:
            child = node.children[0]
            if child.forward is not None:
                child = resolve(child)
            clabel = child.label
            ckey = clabel if clabel.__class__ is Symbol else _INT_KEY
            group = self.groups.get((label.name, ckey))
            cache = {(): node, (0,): child}
            fetched = {child.nid}
            counters.node_matches += 1
        else:
            group = self.groups.get(label)
            cache = {(): node}
            fetched = set()
        if not group:
            return None, None
        matches = 0
        cache_get = cache.get
        for rule in group:
            bindings = {}
            ok = True
            for op, path, ppath, idx, payload in rule.match_code:
                target = cache_get(path)
                if target is None:
                    child = cache[ppath].children[idx]
                    target = child if child.forward is None \
                        else resolve(child)
                    cache[path] = target
                if op == _APP:
                    nid = target.nid
                    if nid not in fetched:
                        fetched.add(nid)
                        matches += 1
                    if target.label is not payload:
                        ok = False
                        break
                elif op == _VAR:
                    bindings[payload] = target
                else:  # _LIT or _ANYLIT
                    nid = target.nid
                    if nid not in fetched:
                        fetched.add(nid)
                        matches += 1
                    tlabel = target.label
                    if tlabel.__class__ is not int \
                            or (op == _LIT and tlabel != payload):
                        ok = False
                        break
                    if op == _ANYLIT:
                        bindings[payload] = target
            if ok:
                counters.node_matches += matches
                return rule, bindings
        counters.node_matches += matches
        return None, None

    # ---- contraction ---------------------------------------------------

    def contract(self, rule, redex, bindings):
        if rule.builtin_op is not None:
            a = bindings[rule.builtin_operands[0]].label
            b = bindings[rule.builtin_operands[1]].label
            self.counters.nodes_created += 1
            return Node(int_op(rule.builtin_op, a, b))
        return rule.rhs_fn(self, redex, bindings)

    # ---- main loop -----------------------------------------------------

    def run(self, root):
        self.root = root
        done = self.done
        done_add = done.add
        stack = [(root, 0)]
        pop = stack.pop
        push = stack.append
        counters = self.counters
        tracing = self.tracing
        max_steps = self.max_steps
        steps = self.steps
        while stack:
            node, phase = pop()
            if node.forward is not None:
                node = resolve(node)
            nid = node.nid
            if nid in done:
                continue
            label = node.label
            if label.__class__ is int:
                done_add(nid)
                continue
            if phase == 0:
                kids = node.children
                if kids:
                    push((node, 1))
                    for i in range(len(kids) - 1, -1, -1):
                        push((kids[i], 0))
                    continue
                # Childless nodes settle (or fire) without a second visit.
            if label.kind not in _EVALUABLE_KINDS:
                done_add(nid)
                continue
            # An evaluable node with settled children: fire a rule.
            rule, bindings = self.select(node)
            if rule is None:
                self.steps = steps
                raise NoRuleError(
                    f"no rule matches {label.name} node {node.nid}")
            cls = rule.step_class
            if cls == "none":  # exempt: no rule can ever apply here
                self.steps = steps
                return self._result("aborted", abort_rule=rule)
            if steps >= max_steps:
                self.steps = steps
                return self._result("steplimit")
            steps += 1
            if cls == "rewrite":
                counters.rewrite_steps += 1
            elif cls == "shortcut":
                counters.shortcut_steps += 1
            elif cls == "dispatch":
                counters.dispatch_steps += 1
            else:
                counters.norm_steps += 1
            counters.node_allocations += rule.countable_allocs
            if __debug__:
                for bound in bindings.values():
                    blabel = bound.label
                    assert not (isinstance(blabel, Symbol)
                                and blabel.kind in _EVALUABLE_KINDS), \
                        "innermost discipline violated"
            replacement = self.contract(rule, node, bindings)
            node.forward = replacement
            if tracing:
                self.trace.append(TraceStep(rule, node, replacement))
            push((replacement, 0))
        self.steps = steps
        return self._result("value")

    def _result(self, outcome, abort_rule=None):
        start = self.root if self.tracing else None
        return EvalResult(outcome, resolve(self.root), self.counters,
                          self.steps, self.program, self.trace, start,
                          abort_rule)


def evaluate(program, expr, max_steps=None, trace=False):
    """Normalize `expr` (a source-term graph) under an object program."""
    root = Node(N, (expr,))
    return Evaluator(program, max_steps=max_steps, trace=trace).run(root)
