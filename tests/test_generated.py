"""Generated systems: every compiled mode against the source strategy.

The systems come from the seeded generator of the benchmark's `compile`
workload (`perfbench/gen.py`, which never calls needle), so this covers the
shapes that workload measures: operations of arity up to 3, constructor
branches nested below the root, and Int branches with defaults.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from needle import (build_program, evaluate, oracle_eval, parse_expr,
                    parse_system, validate_trace)
from needle.render import format_node

from conftest import MODES

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

# Systems of 1 to 28 operations (28 is the compile workload's second-largest
# size; its largest, 44, would double the run time), 3 ground terms each.
SEEDS = range(60)
MAX_OPS = 28
TERMS = 3


def test_generated_systems_agree_with_the_source_strategy():
    for seed in SEEDS:
        generated = gen.SystemGen(random.Random(seed), 1 + seed % MAX_OPS)
        system = parse_system(generated.text(), f"gen{seed}")
        programs = [build_program(system, mode) for mode in MODES]
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
                report = validate_trace(system, result, trees=program.trees)
                assert report.ok, (where, [str(v) for v in report.violations])
                assert report.proper_steps == source.steps, where
