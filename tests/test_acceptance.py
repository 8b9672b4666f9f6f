"""End-to-end acceptance checks.

Frozen golden files pin the compiled listings and the worked trace; the
benchmark assertions pin exact counter values plus the documented ratio
bands; randomized sweeps cross-check all three compiled modes against the
source-level strategy.  Wall-clock limits are scaled by NEEDLE_TIME_FACTOR
(default 8) because shared CI hardware is noisy; see README.md.
"""

from __future__ import annotations

import random
import time
import zlib

import pytest

from needle import build_program, evaluate, oracle_eval, parse_expr, validate_trace
from needle.codegen import phase1
from needle.core import Node
from needle.render import (
    erased_states,
    format_node,
    format_program,
    format_rule,
    rule_section,
    trace_states,
)
from needle.runtime import NoRuleError

from conftest import (
    CORPUS_INPUTS,
    CORPUS_NAMES,
    MODES,
    assert_modes_agree,
    golden,
    int_list,
    make_gen,
    materialize,
    time_budget,
)

APPEND_EXPR = "append(Cons(1, Nil), Cons(2, Nil))"

# Per-system step budgets for the randomized sweep: the source-strategy
# budget bounds the baseline, the machine budget leaves room for dispatch
# and normalization overhead on top of the same proper steps.
SWEEP_BUDGETS = {"loop": (300, 2500), "fib": (1000, 6000)}
DEFAULT_BUDGETS = (2000, 13000)


def rng_for(name, salt=0):
    return random.Random(zlib.crc32(name.encode()) + salt)


def split(res):
    c = res.counters
    return (c.rewrite_steps, c.shortcut_steps)


# ---- golden object code --------------------------------------------------------


def test_compiled_append_listings_match_golden(systems):
    t0 = time.monotonic()
    cr = build_program(systems["append"], "cr")
    tr = build_program(systems["append"], "tr")
    cr_text = format_program(cr)
    tr_text = format_program(tr)
    elapsed = time.monotonic() - t0
    assert cr_text == golden("append_cr.txt")
    assert tr_text == golden("append_tr.txt")
    # the wrapper rules for append itself: five head rules, three walk rules
    assert len([r for r in cr.rules if rule_section(r) == "h"]) == 5
    assert len([r for r in cr.rules if rule_section(r) == "n"]) == 3
    assert elapsed < time_budget(1)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_every_corpus_listing_matches_golden(programs, name, mode):
    assert format_program(programs(name, mode)) == golden(f"{name}_{mode}.txt")


def test_transformation_phases_on_the_forcing_rule(systems, programs):
    staged = phase1(systems["append"], programs("append", "cr").rules)
    instantiated = [format_rule(r) for r in staged
                    if r.origin == "collapse-default"]
    specialized = [format_rule(r) for r in programs("append", "tr").rules
                   if r.origin == "collapse-default"]
    assert instantiated + specialized == golden("append_phases.txt").splitlines()


# ---- golden trace ---------------------------------------------------------------


def test_normalization_trace_matches_golden(systems, programs):
    t0 = time.monotonic()
    expr, _ = parse_expr(systems["append"], APPEND_EXPR)
    res = evaluate(programs("append", "cr"), expr, trace=True)
    states = trace_states(res)
    erased = erased_states(res)
    elapsed = time.monotonic() - t0
    assert res.outcome == "value"
    assert states == golden("append_trace.txt").splitlines()
    assert len(states) == 8
    assert erased == golden("append_trace_erased.txt").splitlines()
    assert len(erased) == 3
    assert elapsed < time_budget(1)


# ---- benchmarks -----------------------------------------------------------------


def per10(value, base):
    return 10.0 * value / base


def close(measured, target, tol=0.1):
    return abs(measured - target) <= tol


def within_band(measured, target, frac=0.25):
    return abs(measured - target) <= frac * target


def bench(systems, programs, name, expr_node, mode):
    res = evaluate(programs(name, mode), expr_node)
    assert res.outcome == "value", (name, mode)
    return res


def test_benchmark_counters_and_ratios(systems, programs):
    t0 = time.monotonic()

    # a thousand-element list through append and length
    system = systems["length"]
    results = {}
    for mode in MODES:
        expr = Node(system.symbols["length"],
                    [Node(system.symbols["append"],
                          [int_list(system, [1] * 1000),
                           int_list(system, [1] * 1000)])])
        results[mode] = bench(systems, programs, "length", expr, mode)
    assert results["cr"].root.label == 2000
    want = {
        "cr": (5002, 0, 3001, 2, 20009, 10001, 21007),
        "tr": (3002, 2000, 3001, 2, 12006, 8001, 16005),
        "or": (3002, 2000, 1001, 2, 8006, 6001, 12005),
    }
    for mode, expected in want.items():
        assert tuple(results[mode].counters.as_dict().values()) == expected, mode
    base = results["cr"].counters.rewrite_steps
    for mode in ("tr", "or"):
        c = results[mode].counters
        assert close(per10(c.rewrite_steps, base), 6.0)
        assert close(per10(c.shortcut_steps, base), 4.0)
    # the needed-argument variant performs the same rewrite/shortcut split
    assert split(results["or"]) == split(results["tr"])
    length_alloc = [per10(results[m].counters.node_allocations, base)
                    for m in MODES]
    length_match = [per10(results[m].counters.node_matches, base)
                    for m in MODES]

    # the doubly recursive fibonacci at 20
    results = {}
    for mode in MODES:
        expr, _ = parse_expr(systems["fib"], "fib(20)")
        results[mode] = bench(systems, programs, "fib", expr, mode)
    assert results["cr"].root.label == 6765
    want = {
        "cr": (54726, 0, 43780, 2, 240794, 120396, 262684),
        "tr": (43781, 10945, 43780, 2, 142288, 109451, 207958),
        "or": (43781, 10945, 0, 2, 87563, 65671, 120398),
    }
    for mode, expected in want.items():
        assert tuple(results[mode].counters.as_dict().values()) == expected, mode
    base = results["cr"].counters.rewrite_steps
    for mode in ("tr", "or"):
        c = results[mode].counters
        assert close(per10(c.rewrite_steps, base), 8.0)
        assert close(per10(c.shortcut_steps, base), 2.0)
    assert split(results["or"]) == split(results["tr"])
    fib_alloc = [per10(results[m].counters.node_allocations, base)
                 for m in MODES]
    fib_match = [per10(results[m].counters.node_matches, base) for m in MODES]

    elapsed = time.monotonic() - t0

    # allocation and match work per ten baseline rewrites, against fixed
    # reference rows (measured values in docs/benchmarks.md); the reference
    # hand count charges dispatch slightly differently, hence the band
    for measured, targets in [
        (length_alloc, (20, 16, 12)),
        (length_match, (40, 26, 18)),
        (fib_alloc, (24, 22, 10)),
        (fib_match, (44, 26, 16)),
    ]:
        for got, want_v in zip(measured, targets):
            assert within_band(got, want_v), (measured, targets)
    # orderings are strict requirements, not banded
    for alloc in (length_alloc, fib_alloc):
        assert alloc[0] > alloc[1] >= alloc[2], alloc
    for match in (length_match, fib_match):
        assert match[0] > match[1] > match[2], match

    assert elapsed < time_budget(10)


# ---- conservation ---------------------------------------------------------------


def test_proper_steps_conserved_on_corpus_inputs(systems, programs):
    for name, text in CORPUS_INPUTS:
        outcomes = {}
        proper = {}
        for mode in MODES:
            expr, _ = parse_expr(systems[name], text)
            res = evaluate(programs(name, mode), expr)
            outcomes[mode] = res.outcome
            proper[mode] = split(res)
        assert outcomes["cr"] in ("value", "aborted"), (name, text)
        assert len(set(outcomes.values())) == 1, (name, text)
        assert proper["cr"][1] == 0  # nothing to shortcut before specializing
        total = {mode: r + s for mode, (r, s) in proper.items()}
        assert total["cr"] == total["tr"] == total["or"], (name, text, proper)


# ---- randomized agreement -------------------------------------------------------


def test_evaluators_agree_on_random_inputs(systems, programs):
    t0 = time.monotonic()
    for name in CORPUS_NAMES:
        system = systems[name]
        rng = rng_for(name)
        gen = make_gen(name, system, rng)
        src_budget, mach_budget = SWEEP_BUDGETS.get(name, DEFAULT_BUDGETS)
        for _ in range(500):
            term = gen.expr(rng.randint(0, 6))
            assert_modes_agree(system, programs, name, term,
                               src_budget, mach_budget)
    assert time.monotonic() - t0 < time_budget(60)


# ---- trace validation -----------------------------------------------------------


def test_traced_corpus_runs_validate_cleanly(systems, programs):
    t0 = time.monotonic()
    for name, text in CORPUS_INPUTS:
        base_expr, _ = parse_expr(systems[name], text)
        base = oracle_eval(systems[name], base_expr)
        assert base.outcome in ("value", "aborted"), (name, text)
        for mode in MODES:
            expr, _ = parse_expr(systems[name], text)
            res = evaluate(programs(name, mode), expr, trace=True)
            report = validate_trace(systems[name], res)
            assert report.ok, (name, mode, text, report.violations[:3])
            assert report.proper_steps == base.steps, (name, mode, text)
    assert time.monotonic() - t0 < time_budget(60)


# ---- dispatch totality ----------------------------------------------------------


def test_every_operation_rooted_draw_dispatches(systems, programs):
    t0 = time.monotonic()
    for name in CORPUS_NAMES:
        rng = rng_for(name, salt=7)
        gen = make_gen(name, systems[name], rng)
        draws = [gen.op_rooted(rng.randint(1, 3)) for _ in range(10000)]
        for mode in MODES:
            program = programs(name, mode)
            for term in draws:
                try:
                    evaluate(program, materialize(term), max_steps=40)
                except NoRuleError:
                    pytest.fail(f"{name}/{mode}: no rule for "
                                f"{format_node(materialize(term))}")
    assert time.monotonic() - t0 < time_budget(30)


# ---- partial operations ---------------------------------------------------------


def test_head_of_empty_list_aborts_everywhere(systems, programs):
    system = systems["head"]
    expr, _ = parse_expr(system, "head(Nil)")
    assert oracle_eval(system, expr).outcome == "aborted"
    for mode in MODES:
        expr, _ = parse_expr(system, "head(Nil)")
        res = evaluate(programs("head", mode), expr)
        assert res.outcome == "aborted"
        assert res.abort_rule.origin == "exempt"


# ---- full scale (opt-in) --------------------------------------------------------


@pytest.mark.slow
def test_full_scale_conservation_and_agreement(systems, programs):
    t0 = time.monotonic()

    # a million-element list: value and conservation across the modes
    system = systems["length"]
    totals = {}
    for mode in MODES:
        expr = Node(system.symbols["length"],
                    [Node(system.symbols["append"],
                          [int_list(system, [1] * 500000),
                           int_list(system, [1] * 500000)])])
        res = evaluate(programs("length", mode), expr)
        assert res.outcome == "value"
        assert res.root.label == 1000000
        totals[mode] = sum(split(res))
    assert totals["cr"] == totals["tr"] == totals["or"] == 2500002

    # fib(32): seventeen and a half million proper steps in the needed
    # -argument mode, still conserved against the closed form
    expr, _ = parse_expr(systems["fib"], "fib(32)")
    res = evaluate(programs("fib", "or"), expr)
    assert res.outcome == "value"
    assert res.root.label == 2178309
    assert res.proper_steps == 17622886

    # three-way conservation at a size where all modes stay affordable
    totals = set()
    for mode in MODES:
        expr, _ = parse_expr(systems["fib"], "fib(24)")
        res = evaluate(programs("fib", mode), expr)
        assert res.root.label == 46368
        totals.add(sum(split(res)))
    assert len(totals) == 1

    # validation of a traced or run (the full-scale traces of all three
    # modes are validated in the test below)
    expr, _ = parse_expr(systems["fib"], "fib(16)")
    res = evaluate(programs("fib", "or"), expr, trace=True)
    report = validate_trace(systems["fib"], res)
    assert report.ok
    base_expr, _ = parse_expr(systems["fib"], "fib(16)")
    assert report.proper_steps == oracle_eval(systems["fib"], base_expr).steps

    assert time.monotonic() - t0 < time_budget(300)


@pytest.mark.slow
def test_full_scale_traces_validate(systems, programs):
    # a trace is a rewrite log and validation replays it, so both grow with
    # the steps taken, not with graph size times steps
    t0 = time.monotonic()
    base_expr, _ = parse_expr(systems["fib"], "fib(24)")
    want = oracle_eval(systems["fib"], base_expr).steps
    for mode in MODES:
        expr, _ = parse_expr(systems["fib"], "fib(24)")
        res = evaluate(programs("fib", mode), expr, trace=True)
        assert res.root.label == 46368
        report = validate_trace(systems["fib"], res)
        assert report.ok, (mode, report.violations[:3])
        assert report.proper_steps == want, mode
        del res, report  # free this trace before tracing the next mode
    assert time.monotonic() - t0 < time_budget(120)


@pytest.mark.slow
def test_source_strategy_is_linear_in_steps(systems, programs):
    # the strategy resumes its walk after each contraction instead of
    # restarting at the root, where length's add(1, add(1, ...)) chain
    # once made every step cost the depth of the chain
    t0 = time.monotonic()
    system = systems["length"]

    def expr():
        return Node(system.symbols["length"],
                    [Node(system.symbols["append"],
                          [int_list(system, [1] * 50000),
                           int_list(system, [1] * 50000)])])

    base = oracle_eval(system, expr())
    assert (base.outcome, base.root.label) == ("value", 100000)
    assert base.steps == 250002
    res = evaluate(programs("length", "cr"), expr(), trace=True)
    assert res.root.label == 100000
    report = validate_trace(system, res)
    assert report.ok, report.violations[:3]
    assert report.proper_steps == 250002
    assert time.monotonic() - t0 < time_budget(30)
