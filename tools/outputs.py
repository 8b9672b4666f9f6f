"""Print a digest of every pinned output of needle, one line per section.

    python tools/outputs.py [--seeds A:B]

Each line reads `<section> <items> <sha256>`:

* trees: `format_trees` of each system;
* listings: `format_program` of each system in cr, tr and or;
* runs: outcome, steps, the seven counters and the value text of each
  untraced run;
* traces: `format_trace` and `erased_states` of each traced run;
* verdicts: the `validate_trace` violation texts and proper steps;
* oracle: outcome, steps and value text of `oracle_eval`;
* cli: stdout, stderr and exit code of `check`, `tree`, `compile`, `eval`
  in every mode (with and without `--trace`), `validate` and `bench` on the
  corpus inputs.

The inputs are the six corpus systems with fixed expressions, and the
generated systems `gen.SystemGen(random.Random(seed), 1 + seed % 44)` for
the seeds A to B - 1 (default 0:300), with three ground terms each.  Every
run has the step budget `BUDGET`.  The script imports needle from the `src/`
beside it and reads `perfbench/gen.py`, and it uses only the public API, so
a copy of it runs unchanged in an older checkout.  It prints no timings:
two checkouts produce the same outputs exactly when they print the same
lines.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
from needle import (build_all_deftrees, build_program, evaluate,  # noqa: E402
                    oracle_eval, parse_expr, parse_system, validate_trace)
from needle.cli import main as needle_main  # noqa: E402
from needle.render import (erased_states, format_node,  # noqa: E402
                           format_program, format_trace, format_trees)

MODES = ("cr", "tr", "or")
BUDGET = 3000  # cuts the corpus's divergent `fst(MkPair(loop, 0))`
SECTIONS = ("trees", "listings", "runs", "traces", "verdicts", "oracle",
            "cli")

# Per corpus system, expressions that reach a value, an abort and the budget.
CORPUS = {
    "append": ["append(Cons(1, Cons(2, Nil)), Cons(3, Nil))",
               "append(append(Nil, Cons(1, Nil)), Nil)"],
    "length": ["length(append(Cons(4, Nil), Cons(5, Cons(6, Nil))))",
               "Cons(length(Nil), Nil)"],
    "fib": ["fib(7)", "add(fib(3), sub(fib(4), 2))"],
    "head": ["head(Cons(7, Nil))", "head(Nil)"],
    "loop": ["snd(MkPair(loop, 0))", "fst(MkPair(loop, 0))"],
    "tree": ["size(mirror(Fork(Tip(1), Fork(Leaf, Tip(2)))))",
             "Fork(mirror(Leaf), mirror(Leaf))"],
}


def inputs(seeds):
    """(name, system text, expressions) of the corpus, then per seed."""
    for name, exprs in CORPUS.items():
        yield name, (ROOT / "tests" / "corpus" / f"{name}.rw").read_text(), \
            exprs
    for seed in seeds:
        system = gen.SystemGen(random.Random(seed), 1 + seed % 44)
        yield f"gen{seed}", system.text(), system.ground_terms(3)


def run_cli(command, path, *args):
    """`needle COMMAND PATH ARGS...` run in this process: the arguments
    after the path, stdout, stderr and the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = needle_main([command, path, *args])
    return [command, args, out.getvalue(), err.getvalue(), code]


def cli_items(name, exprs):
    path = str(ROOT / "tests" / "corpus" / f"{name}.rw")
    budget = ("--max-steps", str(BUDGET))
    yield run_cli("check", path)
    yield run_cli("tree", path)
    for mode in MODES:
        yield run_cli("compile", path, "--mode", mode)
    for expr in exprs:
        for mode in ("source",) + MODES:
            yield run_cli("eval", path, expr, "--mode", mode, *budget)
            yield run_cli("eval", path, expr, "--mode", mode, "--trace",
                          *budget)
        for mode in MODES:
            yield run_cli("validate", path, expr, "--mode", mode, *budget)
        yield run_cli("bench", path, expr, *budget)


def collect(seeds):
    """Each section's items, in a fixed order."""
    items = {section: [] for section in SECTIONS}
    for name, text, exprs in inputs(seeds):
        system = parse_system(text, name)
        trees = build_all_deftrees(system)
        items["trees"].append(format_trees(system, trees))
        programs = [build_program(system, mode) for mode in MODES]
        items["listings"] += [format_program(p) for p in programs]
        for expr in exprs:
            for program in programs:
                result = evaluate(program, parse_expr(system, expr)[0],
                                  max_steps=BUDGET)
                items["runs"].append(
                    [result.outcome, result.steps,
                     list(result.counters.as_dict().values()),
                     format_node(result.root)])
                traced = evaluate(program, parse_expr(system, expr)[0],
                                  max_steps=BUDGET, trace=True)
                items["traces"].append([format_trace(traced),
                                        erased_states(traced)])
                report = validate_trace(system, traced)
                items["verdicts"].append(
                    [[str(v) for v in report.violations],
                     report.proper_steps])
            source = oracle_eval(system, parse_expr(system, expr)[0],
                                 max_steps=BUDGET)
            items["oracle"].append([source.outcome, source.steps,
                                    format_node(source.root)])
        if name in CORPUS:
            items["cli"] += cli_items(name, exprs)
    return items


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0:300",
                        help="generated systems A:B, seeds A to B - 1")
    args = parser.parse_args(argv)
    first, last = (int(part) for part in args.seeds.split(":"))
    for section, found in collect(range(first, last)).items():
        digest = hashlib.sha256()
        for item in found:
            digest.update(json.dumps(item).encode() + b"\n")
        print(f"{section} {len(found)} {digest.hexdigest()}")


if __name__ == "__main__":
    main()
