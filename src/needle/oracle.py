"""Source-level reference strategy and trace validation.

`source_strategy` is the source strategy, the one place that finds needed
redexes: it locates the leftmost-outermost operation-rooted node and descends
through the argument positions its definitional tree demands.  It keeps its
walk from one step to the next, so a whole run costs time linear in its
steps.

`oracle_eval` normalizes a source expression directly, with no compiled
rules, by contracting each redex the strategy yields.  Rewrites forward graph
nodes, so shared subterms are evaluated once, exactly like the compiled
evaluators.  `apply_source_rule` binds the rule's left-side variables with a
walk over its pattern, then instantiates its right side from the rule's
plan: the right side in post-order, one instruction per subterm that makes
a leaf, reuses a bound node or applies a symbol to the nodes just built.
The plan is made the first time the rule is contracted and kept in
`SourceRule.plan`, so parsing pays nothing for rules that never fire and a
rule that fires again reads its plan rather than walking its right side.
This copy of matching and instantiation is kept apart from the runtime's
slot code on purpose: it is the reference the compiled runs are checked
against.

`validate_trace` replays a traced compiled run's rewrite log beside a live
source graph.  Erasing the evaluation wrappers, each dispatch or norm step
must leave the state unchanged, and each rewrite or shortcut step must be one
source-rule step at the erased image of the machine redex, which must also be
the redex the source strategy yields next.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (BUILTIN, App, Lit, Node, SourceRule, Symbol, Var, acyclic,
                   int_op, resolve)
from .deftree import DTBranch, build_all_deftrees
from .render import path_str
from .runtime import Replay, source_label, step_budget


@dataclass(slots=True)
class OracleResult:
    outcome: str  # "value", "aborted", "steplimit"
    root: Node
    steps: int


def source_strategy(trees, root):
    """Yield the needed redexes of the graph at `root`, one per step.

    Each item is a pair (node, source): the source step that contracts the
    call `node`, a `SourceRule` or the builtin `Symbol` of a builtin call,
    or None where no rule can ever apply.  The generator ends when no
    operation is left.  The caller must contract each yielded redex before
    asking for the next one, and stops after a None.

    The walk visits the graph leftmost-outermost for its first operation,
    then descends through the argument positions its definitional tree
    demands.  Both keep their stacks across steps: a contraction leaves every
    constructor still to be visited and every call waiting on a demanded
    argument as it was.  So after one, the waiting call re-reads its argument,
    or, if the redex was the visited node itself, that position is visited
    again.  The walk keeps the entry it popped, not the node that entry
    resolved to, so each visit shortens the entry's forward chain and the
    superseded contracta are freed.
    """
    visit = [root]
    seen = set()  # constructor nodes already visited: their graphs are done
    while visit:
        held = visit.pop()
        node = held if held.forward is None else resolve(held)
        label = node.label
        if label.__class__ is int or node in seen:
            continue
        if not label.is_op:
            seen.add(node)
            visit.extend(reversed(node.children))
            continue
        calls = [node]
        while calls:
            # The call on top either demands an operation-rooted argument,
            # which is pushed, or is the redex, which is yielded.
            call = calls[-1]
            label = call.label
            demanded = None
            if label.kind == BUILTIN:
                source = label
                for arg in call.children:
                    if arg.forward is not None:
                        arg = resolve(arg)
                    if arg.label.__class__ is not int:
                        if not arg.label.is_op:
                            raise AssertionError(
                                "builtin applied to a non-Int argument")
                        demanded = arg
                        break
            else:
                source = trees[label]
                while source is not None \
                        and source.__class__ is not SourceRule:
                    arg = call  # live: a step forwards only its redex
                    for i in source.path:
                        arg = arg.children[i]
                        if arg.forward is not None:
                            arg = resolve(arg)
                    arg_label = arg.label
                    if arg_label.__class__ is not int and arg_label.is_op:
                        demanded = arg
                        break
                    if source.__class__ is DTBranch:
                        for ctor, subtree in source.children:
                            if ctor is arg_label:
                                break
                        else:
                            raise AssertionError(
                                "branch met an unknown constructor")
                    else:  # DTIntBranch
                        if arg_label.__class__ is not int:
                            raise AssertionError(
                                "integer branch met a constructor")
                        for value, subtree in source.children:
                            if value == arg_label:
                                break
                        else:
                            subtree = source.default
                    source = subtree
            if demanded is not None:
                calls.append(demanded)
                continue
            yield call, source
            calls.pop()
        visit.append(held)  # its next `resolve` shortens its chain


def _plan(rhs):
    """The post-order instantiation plan of right side `rhs`: per subterm,
    (label, arity) to apply `label` to the last `arity` nodes built (arity 0
    for a leaf or a literal), or (None, name) to reuse the node bound to
    `name`."""
    plan, stack = [], [rhs]
    while stack:
        t = stack.pop()
        cls = t.__class__
        if cls is App:
            if t.args:
                stack.append(t.label)
                stack += t.args[::-1]
            else:
                plan.append((t.label, 0))
        elif cls is Var:
            plan.append((None, t.name))
        elif cls is Lit:
            plan.append((t.value, 0))
        else:  # the symbol of an application whose arguments are planned
            plan.append((t, t.arity))
    return tuple(plan)


def apply_source_rule(rule, node):
    """The contractum of source rule `rule` at `node`, which it matches.

    The left side binds each variable to the live node it matches; the
    rule's plan (made at its first contraction) then builds the right side
    bottom-up on one stack."""
    assert node.label is rule.op, "descent selected a rule that does not match"
    bindings = {}
    stack = [(rule.lhs, node)]
    while stack:
        p, n = stack.pop()
        for q, c in zip(p.args, n.children):
            if c.forward is not None:
                c = resolve(c)
            cls = q.__class__
            if cls is Var:
                bindings[q.name] = c
                continue
            assert c.label is q.label if cls is App else c.label == q.value, \
                "descent selected a rule that does not match"
            if cls is App and q.args:
                stack.append((q, c))
    plan = rule.plan
    if plan is None:
        plan = rule.plan = _plan(rule.rhs)
    out = []
    push = out.append
    for label, arg in plan:
        if label is None:
            push(bindings[arg])
        elif arg:
            kids = out[-arg:]
            del out[-arg:]
            push(Node(label, kids))
        else:
            push(Node(label))
    return out[0]


def _contract(node, source):
    """The contractum of the needed redex `node` under `source`."""
    if source.__class__ is Symbol:
        a, b = node.children
        if a.forward is not None:
            a = resolve(a)
        if b.forward is not None:
            b = resolve(b)
        return Node(int_op(source.name, a.label, b.label))
    return apply_source_rule(source, node)


@acyclic
def oracle_eval(system, root, max_steps=None, trees=None):
    """Drive `root` to constructor normal form with the source strategy."""
    if trees is None:
        trees = build_all_deftrees(system)
    max_steps = step_budget(max_steps)
    steps = 0
    for node, source in source_strategy(trees, root):
        if source is None:
            return OracleResult("aborted", resolve(root), steps)
        if steps >= max_steps:
            return OracleResult("steplimit", resolve(root), steps)
        steps += 1
        node.forward = _contract(node, source)
    return OracleResult("value", resolve(root), steps)


# ---- trace validation ---------------------------------------------------------


@dataclass(slots=True)
class Violation:
    step: int
    kind: str
    detail: str
    rule: object = None  # the step's object rule; None for wrapper-in-value
    source: object = None  # the rule's source step; None for dispatch/norm

    def __str__(self):
        return f"step {self.step}: {self.kind}: {self.detail}"


@dataclass(slots=True)
class ValidationReport:
    violations: list
    proper_steps: int

    @property
    def ok(self):
        return not self.violations


def _source_copy(replay, root):
    """Copy the erased state below `root` into a fresh source graph.

    Returns the source root and the image map: erased machine node -> the
    source node standing for it.
    """
    image = {}
    top = replay.erased(root)
    stack = [top]
    while stack:
        node = stack[-1]
        if node in image:
            stack.pop()
            continue
        kids = [replay.erased(c) for c in node.children]
        todo = [k for k in kids if k not in image]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        image[node] = Node(source_label(node.label), [image[k] for k in kids])
    return image[top], image


def _same_graph(replay, machine, source, image):
    """Whether the erased machine graph at `machine` is the source graph at
    `source`.

    The walk stops at machine nodes whose image is known, which must be the
    very source node met there.  Every other machine node must carry the
    label of its source counterpart, and becomes its image.  The stack holds
    machine and source nodes in turn.
    """
    stack = [machine, source]
    pop = stack.pop
    push = stack.append
    erased = replay.erased
    while stack:
        s = pop()
        m = erased(pop())
        if s.forward is not None:
            s = resolve(s)
        known = image.get(m)
        if known is not None:
            if known is not s:
                return False
            continue
        label = m.label
        if label.__class__ is Symbol and label.base is not None:
            label = label.base
        kids = m.children
        if label != s.label or len(kids) != len(s.children):
            return False
        image[m] = s
        for kid, source_kid in zip(kids, s.children):
            push(kid)
            push(source_kid)
    return True


@acyclic
def validate_trace(system, result, trees=None):
    """Check a traced compiled run step by step against the source system.

    The rewrite log is replayed beside a source graph copied from the erased
    start state.  Per step: dispatch/norm steps leave the erased state
    unchanged, and the argument a dispatch rule forces is operation-rooted;
    rewrite and shortcut steps perform exactly one source-rule step, at the
    node the source strategy itself demands.  After a violation the source
    graph is copied afresh and the strategy restarted on it, so each step is
    judged on its own.  For completed runs the final state must be
    wrapper-free.  Returns a ValidationReport.
    """
    assert result.trace is not None, "run the evaluator with trace=True"
    if trees is None:
        trees = build_all_deftrees(system)
    replay = Replay()
    violations = []
    proper = 0
    image = None
    for i, step in enumerate(result.trace):
        if image is None:
            root, image = _source_copy(replay, result.start)
            strategy = source_strategy(trees, root)
        rule = step.rule
        redex = replay.erased(step.redex)
        faults = []
        src = None
        if rule.step_class in ("dispatch", "norm"):
            if rule.dispatch_path is not None:
                sub = replay.resolve(step.redex)
                for j in rule.dispatch_path:
                    if j >= len(sub.children):
                        faults.append(("dispatch-target", "dispatch rule "
                                       "does not fit the redex"))
                        break
                    sub = replay.resolve(sub.children[j])
                else:
                    if not (sub.label.__class__ is Symbol and sub.label.is_op):
                        faults.append(("dispatch-target", f"dispatch forced "
                                       f"a non-operation node "
                                       f"{_where(replay, result.start, sub)}"))
            target = image.get(redex)
            replay.apply(step)
            if target is None or not _same_graph(
                    replay, step.contractum, target, image):
                faults.append(("state-changed", f"{rule.origin} step "
                               f"altered the erased state"))
        else:
            # rewrite / shortcut: one source step at the erased redex image
            proper += 1
            target, want = next(strategy, (None, None))
            src = rule.source
            if target is None:
                faults.append(("no-redex",
                               "proper step in an operation-free state"))
            elif want is None or image.get(redex) is not target:
                other = "an irreducible" if want is None else "another"
                faults.append(("not-needed", f"step fired at "
                               f"{_where(replay, result.start, redex)}, "
                               f"strategy demands {other} "
                               f"{target.label.name} call"))
                target = None
            elif src is not want:
                faults.append(("wrong-rule", f"step used rule {src}, "
                               f"strategy demands {want}"))
                target = None
            else:
                target.forward = _contract(target, want)
            replay.apply(step)
            if target is not None and not _same_graph(
                    replay, step.contractum, target.forward, image):
                faults.append(("wrong-result", "erased post-state is not "
                               "the source-step result"))
        if faults:
            violations.extend(Violation(i, kind, detail, rule, src)
                              for kind, detail in faults)
            image = None
    if result.outcome == "value":
        seen = set()
        stack = [result.start]
        while stack:
            node = replay.resolve(stack.pop())
            if node in seen:
                continue
            seen.add(node)
            label = node.label
            if label.__class__ is Symbol and not label.is_data:
                violations.append(Violation(
                    len(result.trace), "wrapper-in-value",
                    f"final state contains "
                    f"{_where(replay, result.start, node)}"))
                break
            stack.extend(node.children)
    return ValidationReport(violations, proper)


def _where(replay, root, node):
    """`node`'s label and its leftmost-outermost path below `root` in the
    replayed machine state, as `needle eval --trace` prints that state:
    `append^H @1.2`, `N at the root`.  Made only for a violation's text."""
    via = {}  # node -> (parent, child index) on its leftmost path
    stack = [(replay.resolve(root), None, 0)]
    while stack:
        cur, up, i = stack.pop()
        if cur in via:
            continue
        via[cur] = (up, i)
        if cur is node:
            break
        kids = cur.children
        stack += [(replay.resolve(kids[j]), cur, j)
                  for j in range(len(kids) - 1, -1, -1)]
    label = node.label
    name = label.name if label.__class__ is Symbol else str(label)
    if node not in via:
        return f"{name} (not in the state)"
    path = []
    up, i = via[node]
    while up is not None:
        path.append(i)
        up, i = via[up]
    if not path:
        return f"{name} at the root"
    return f"{name} @{path_str(reversed(path))}"
