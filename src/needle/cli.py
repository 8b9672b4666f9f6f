"""Command-line interface.

Exit codes: 0 success; 1 usage, I/O, syntax, evaluation or out-of-memory
errors; 2 system rejected (not compilable) or validation failure; 3
evaluation aborted (irreducible operation application); 4 step limit reached.
"""

from __future__ import annotations

import argparse
import sys

from .codegen import build_program
from .core import NeedleError, acyclic
from .deftree import DefTreeError, build_all_deftrees
from .frontend import parse_expr, parse_system
from .oracle import oracle_eval, validate_trace
from .render import (
    format_counter_table,
    format_node,
    format_program,
    format_trees,
    trace_lines,
)
from .runtime import evaluate, step_budget

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECTED = 2
EXIT_ABORTED = 3
EXIT_STEP_LIMIT = 4

# The default budget of a traced run (`eval --trace`, `validate`), which keeps
# every step: `needle validate` of a divergent input then stops in about 3 s
# and 110 MB on a 2-core x86-64 VM, where 10^8 steps would fill memory.
TRACED_MAX_STEPS = 250_000


def _load_system(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError:
        raise NeedleError(f"{path}: not UTF-8 text") from None
    name = path.rsplit("/", 1)[-1]
    if name.endswith(".rw"):
        name = name[:-3]
    return parse_system(text, name=name)


def cmd_check(args):
    system = _load_system(args.file)
    build_all_deftrees(system)  # raises DefTreeError for a rejected system
    rule_count = sum(len(rs) for rs in system.rules.values())
    print(f"ok: {len(system.operations)} operation(s), {rule_count} rule(s)")
    return EXIT_OK


def cmd_tree(args):
    system = _load_system(args.file)
    trees = build_all_deftrees(system)
    if args.op is not None and args.op not in {f.name for f in
                                               system.operations}:
        print(f"error: unknown operation {args.op!r}", file=sys.stderr)
        return EXIT_ERROR
    print(format_trees(system, trees, only=args.op), end="")
    return EXIT_OK


def cmd_compile(args):
    system = _load_system(args.file)
    program = build_program(system, args.mode)
    print(format_program(program), end="")
    return EXIT_OK


def _finish_eval(outcome, steps, value_text):
    if outcome == "value":
        print(value_text)
        return EXIT_OK
    if outcome == "aborted":
        print(f"aborted after {steps} step(s): no rule applies",
              file=sys.stderr)
        return EXIT_ABORTED
    print(f"step limit reached after {steps} step(s)", file=sys.stderr)
    return EXIT_STEP_LIMIT


def cmd_eval(args):
    system = _load_system(args.file)
    expr, _ = parse_expr(system, args.expr)
    if args.mode == "source":
        if args.trace:
            print("error: --trace requires a compiled mode (cr, tr, or)",
                  file=sys.stderr)
            return EXIT_ERROR
        result = oracle_eval(system, expr, max_steps=args.max_steps)
        return _finish_eval(result.outcome, result.steps,
                            format_node(result.root))
    program = build_program(system, args.mode)
    budget = step_budget(args.max_steps, TRACED_MAX_STEPS) if args.trace \
        else args.max_steps
    result = evaluate(program, expr, max_steps=budget, trace=args.trace)
    if args.trace:
        for line in trace_lines(result):
            print(line)
    return _finish_eval(result.outcome, result.steps,
                        format_node(result.root))


def cmd_bench(args):
    system = _load_system(args.file)
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes:
        raise NeedleError("no modes given")
    for mode in modes:
        if mode not in ("cr", "tr", "or"):
            print(f"error: unknown mode {mode!r}", file=sys.stderr)
            return EXIT_ERROR
    results = []
    for mode in modes:
        expr, _ = parse_expr(system, args.expr)
        program = build_program(system, mode)
        result = evaluate(program, expr, max_steps=args.max_steps)
        if result.outcome != "value":
            print(f"error: {mode} evaluation ended with {result.outcome}",
                  file=sys.stderr)
            return EXIT_ERROR
        results.append((mode, result))
    print(f"expr: {args.expr}")
    print(format_counter_table(results))
    return EXIT_OK


def cmd_validate(args):
    system = _load_system(args.file)
    expr, _ = parse_expr(system, args.expr)
    program = build_program(system, args.mode)
    budget = step_budget(args.max_steps, TRACED_MAX_STEPS)
    result = evaluate(program, expr, max_steps=budget, trace=True)
    report = validate_trace(system, result)
    oracle_expr, _ = parse_expr(system, args.expr)
    oracle = oracle_eval(system, oracle_expr, max_steps=budget)
    problems = list(report.violations)
    # A compiled run takes more steps than the source strategy (dispatch and
    # norm steps), so the same budget may cut only the compiled run: its
    # outcome and step count then carry no signal.
    cut = result.outcome == "steplimit"
    if not cut and oracle.outcome != result.outcome:
        problems.append(f"outcome mismatch: {args.mode}={result.outcome} "
                        f"source={oracle.outcome}")
    elif not cut and report.proper_steps != oracle.steps:
        problems.append(f"step mismatch: {args.mode} performed "
                        f"{report.proper_steps} proper step(s), "
                        f"source strategy {oracle.steps}")
    if problems:
        for p in problems:
            print(f"violation: {p}", file=sys.stderr)
        return EXIT_REJECTED
    if cut and oracle.outcome != "steplimit":
        return _finish_eval(result.outcome, result.steps, None)
    print(f"ok: {len(result.trace)} machine step(s), "
          f"{report.proper_steps} proper step(s), source strategy agrees")
    return EXIT_OK


def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="needle",
        description="Compile and run constructor-based rewrite systems "
                    "with instrumented evaluation strategies.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and compile-check a system")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("tree", help="print definitional trees")
    p.add_argument("file")
    p.add_argument("--op", help="restrict to one operation")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("compile", help="print an object program")
    p.add_argument("file")
    p.add_argument("--mode", choices=("cr", "tr", "or"), default="cr")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("eval", help="evaluate an expression")
    p.add_argument("file")
    p.add_argument("expr")
    p.add_argument("--mode", choices=("source", "cr", "tr", "or"),
                   default="cr")
    p.add_argument("--trace", action="store_true",
                   help="print machine states (compiled modes only)")
    p.add_argument("--max-steps", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="evaluate under several modes and "
                                     "print counters")
    p.add_argument("file")
    p.add_argument("expr")
    p.add_argument("--modes", default="cr,tr,or")
    p.add_argument("--max-steps", type=int, default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("validate", help="trace a compiled run and check "
                                        "it against the source strategy")
    p.add_argument("file")
    p.add_argument("expr")
    p.add_argument("--mode", choices=("cr", "tr", "or"), default="cr")
    p.add_argument("--max-steps", type=int, default=None)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        # Scanning, parsing and rendering allocate, and with the collector on
        # each allocation burst scans every object of a large program.
        return acyclic(args.func)(args)
    except DefTreeError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except (NeedleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        pass  # leaving the handler frees what the failed command held
    hint = "; --max-steps bounds the run" if "max_steps" in args else ""
    print(f"error: out of memory{hint}", file=sys.stderr)
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
