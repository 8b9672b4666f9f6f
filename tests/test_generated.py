"""Generated systems: every compiled mode against the source strategy.

The systems come from the seeded generator of the benchmark's `compile`
workload (`perfbench/gen.py`, which never calls needle), so this covers the
shapes that workload measures: operations of arity up to 3, constructor
branches nested below the root, and Int branches with defaults.  Every
source and object rule of these systems and of the corpus is also checked
for well-formed sides: both sides share one term language, so only these
checks keep a left-side-only or right-side-only term on its own side.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from needle import (build_program, evaluate, oracle_eval, parse_expr,
                    parse_system, validate_trace)
from needle.core import H, AnyLit, App, Lit, Share, Var
from needle.render import erased_states, format_node, trace_states

from conftest import CORPUS_NAMES, MODES, reference_states

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

# Systems of 1 to 28 operations (28 is the compile workload's second-largest
# size; its largest, 44, would double the run time), 3 ground terms each.
SEEDS = range(60)
MAX_OPS = 28
TERMS = 3


def _subterms(term):
    """Each subterm of `term` with its path."""
    stack = [((), term)]
    while stack:
        path, t = stack.pop()
        yield path, t
        if t.__class__ is App:
            stack.extend((path + (i,), a) for i, a in enumerate(t.args))


def _has_path(term, path):
    for i in path:
        if term.__class__ is not App or i >= len(term.args):
            return False
        term = term.args[i]
    return True


def side_problems(rules, h_free=False):
    """Each rule whose sides break a side invariant, and how: a left side
    holds no `Share`, and a right side no `AnyLit`; each right-side `Var` is
    bound on the left side, and each `Share` path leads into it.  Phase 1
    looks for H over a variable in one place only: a cr head rule holds one
    at its dispatch path, or at the root if it is a collapse-default rule,
    and no rule holds one anywhere else.  If `h_free` (a tr or or program),
    phase 2 has rewritten every H, so neither side holds one."""
    problems = []
    for rule in rules:
        left = [t for _, t in _subterms(rule.lhs)]
        right = list(_subterms(rule.rhs)) if rule.rhs is not None else []
        bound = {t.name for t in left if t.__class__ in (Var, AnyLit)}
        problems += [(rule, t) for t in left if t.__class__ is Share]
        if h_free:
            problems += [(rule, t) for t in left + [t for _, t in right]
                         if t.__class__ is App and t.label is H]
        h_vars, want = [], None
        if rule.lhs.label is H:
            want = () if rule.origin == "collapse-default" \
                else rule.dispatch_path
        for path, t in right:
            if t.__class__ is AnyLit or (
                    t.__class__ is Var and t.name not in bound) or (
                    t.__class__ is Share and not _has_path(rule.lhs, t.path)):
                problems.append((rule, t))
            elif t.__class__ is App and t.label is H \
                    and t.args[0].__class__ is Var:
                h_vars.append(path)
        if h_vars != ([] if want is None else [want]):
            problems.append((rule, h_vars))
    return problems


def reference_charge(rule):
    """The data nodes a step of `rule` allocates under the cost model: the
    result literal of a builtin-leaf rule, the literals and data-labelled
    applications of any other rewrite or shortcut rule's right side, and
    none for dispatch and norm rules."""
    if rule.origin == "builtin-leaf":
        return 1
    if rule.step_class not in ("rewrite", "shortcut"):
        return 0
    return sum(t.__class__ is Lit or (t.__class__ is App and t.label.is_data)
               for _, t in _subterms(rule.rhs))


def assert_sides_are_well_formed(system, programs):
    for rules in system.rules.values():
        assert side_problems(rules) == [], system.name
    for program in programs:
        assert side_problems(program.rules, program.mode != "cr") == [], \
            (system.name, program.mode)


def test_corpus_rule_sides_are_well_formed(systems, programs):
    for name in CORPUS_NAMES:
        assert_sides_are_well_formed(
            systems[name], [programs(name, mode) for mode in MODES])


def test_generated_systems_agree_with_the_source_strategy():
    for seed in SEEDS:
        generated = gen.SystemGen(random.Random(seed), 1 + seed % MAX_OPS)
        system = parse_system(generated.text(), f"gen{seed}")
        programs = [build_program(system, mode) for mode in MODES]
        assert_sides_are_well_formed(system, programs)
        for term in generated.ground_terms(TERMS):
            source = oracle_eval(system, parse_expr(system, term)[0])
            for program in programs:
                where = (seed, program.mode, term)
                result = evaluate(program, parse_expr(system, term)[0],
                                  trace=True)
                assert result.outcome == source.outcome, where
                if source.outcome == "value":
                    assert format_node(result.root) == \
                        format_node(source.root), where
                # The log names the node a parent holds, never a contractum,
                # so replaying it follows one forward per lookup.
                contracta = {step.contractum for step in result.trace}
                assert not any(step.redex in contracta
                               for step in result.trace), where
                assert result.counters.node_allocations == sum(
                    reference_charge(step.rule) for step in result.trace), \
                    where
                # Spliced states read as every state rendered in full.
                assert (trace_states(result), erased_states(result)) == \
                    reference_states(result), where
                report = validate_trace(system, result, trees=program.trees)
                assert report.ok, (where, [str(v) for v in report.violations])
                assert report.proper_steps == source.steps, where
