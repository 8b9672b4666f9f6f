"""Command-line interface: subcommands, output, exit codes."""

from __future__ import annotations

import gc
import io
import os
import subprocess
import sys
import tracemalloc

import pytest

from needle import cli
from needle.cli import main
from needle.oracle import OracleResult

CORPUS = "tests/corpus"
APPEND = f"{CORPUS}/append.rw"
HEAD = f"{CORPUS}/head.rw"
LOOP = f"{CORPUS}/loop.rw"
FIB = f"{CORPUS}/fib.rw"


def test_check_reports_rule_counts(capsys):
    assert main(["check", APPEND]) == 0
    assert capsys.readouterr().out == "ok: 1 operation(s), 2 rule(s)\n"


def test_check_rejects_overlapping_rules(tmp_path, capsys):
    bad = tmp_path / "bad.rw"
    bad.write_text("data Nat = Z | S(Nat);\n"
                   "op f(Nat) -> Nat: f(Z) = Z f(x) = x f(S(n)) = n;\n")
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("rejected: operation 'f'")


def test_syntax_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.rw"
    bad.write_text("data Nat = Z |;\n")
    assert main(["check", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 1" in err


def test_missing_file_exits_1(capsys):
    assert main(["check", "no/such/file.rw"]) == 1
    assert "error:" in capsys.readouterr().err


def test_non_utf8_system_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.rw"
    bad.write_bytes(b"op f() -> Int:\n f() = 1;\n\xff\xfe")
    for argv in (["check", str(bad)], ["eval", str(bad), "f", "--mode", "or"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad}: not UTF-8 text\n"
        assert captured.out == ""


def test_collapse_onto_a_literal_guarded_variable_exits_1(tmp_path, capsys):
    guarded = tmp_path / "guarded.rw"
    guarded.write_text("op g(Int) -> Int:\n g(0) = 1\n g(n) = n;\n")
    path = str(guarded)
    commands = [["validate", path, "g(2)"], ["bench", path, "g(2)"]]
    for mode in ("cr", "tr", "or"):
        commands += [["compile", path, "--mode", mode],
                     ["eval", path, "g(2)", "--mode", mode]]
    for argv in commands:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == (
            "error: operation 'g': rule 2 returns 'n', which an integer "
            "branch guards; collapsing onto a guarded literal is not "
            "supported yet\n"), argv


def test_tree_prints_definitional_trees(capsys):
    assert main(["tree", FIB, "--op", "fib"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("op fib\n")
    assert "branch @1 (Int)" in out
    assert main(["tree", FIB, "--op", "nope"]) == 1
    assert "unknown operation" in capsys.readouterr().err


def test_compile_prints_the_listing(capsys):
    assert main(["compile", APPEND, "--mode", "tr"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("-- object program: append (mode tr)\n")
    assert "append^H(Nil, append(u, v)) = append^H(u, v)" in out


def test_eval_prints_the_value(capsys):
    args = ["eval", APPEND, "append(Cons(1, Nil), Cons(2, Nil))"]
    assert main(args) == 0
    assert capsys.readouterr().out == "Cons(1, Cons(2, Nil))\n"
    assert main(args + ["--mode", "source"]) == 0
    assert capsys.readouterr().out == "Cons(1, Cons(2, Nil))\n"


def test_eval_trace_prints_numbered_states(capsys):
    args = ["eval", APPEND, "append(Cons(1, Nil), Cons(2, Nil))", "--trace"]
    assert main(args) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].strip().startswith("1  N(append(")
    assert out[-1] == "Cons(1, Cons(2, Nil))"  # the value, after the trace
    assert main(["eval", APPEND, "Nil", "--trace", "--mode", "source"]) == 1


def test_eval_trace_prints_each_state_as_it_is_rendered(monkeypatch):
    # The cr trace of length(append) at 300 + 300 elements is 13.7 MB of
    # text; printed a state at a time, it never has to be held whole.
    xs = "Nil"
    for v in range(300):
        xs = f"Cons({v}, {xs})"

    class Discard(io.TextIOBase):
        chars = 0

        def write(self, text):
            Discard.chars += len(text)
            return len(text)

    monkeypatch.setattr(sys, "stdout", Discard())
    tracemalloc.start()
    try:
        assert main(["eval", f"{CORPUS}/length.rw",
                     f"length(append({xs}, {xs}))", "--trace"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Discard.chars > 13_000_000
    assert peak < Discard.chars / 4, (peak, Discard.chars)


def test_eval_exit_codes(capsys):
    assert main(["eval", HEAD, "head(Nil)"]) == 3
    assert "aborted after" in capsys.readouterr().err
    assert main(["eval", LOOP, "fst(MkPair(loop, 0))",
                 "--max-steps", "25"]) == 4
    assert "step limit reached after 25" in capsys.readouterr().err
    assert main(["eval", APPEND, "append(Nil)"]) == 1
    assert "argument" in capsys.readouterr().err


def test_bad_step_budgets_exit_1(capsys):
    args = ["eval", LOOP, "fst(MkPair(loop, 0))"]
    for mode in ("cr", "source"):
        assert main(args + ["--mode", mode, "--max-steps", "-5"]) == 1
        assert "must not be negative" in capsys.readouterr().err


def test_non_decimal_digits_exit_1(tmp_path, capsys):
    # `str.isdigit` accepts '²', which `int` then refused with a traceback
    ok = tmp_path / "ok.rw"
    ok.write_text("op f(Int) -> Int: f(x) = x;\n")
    assert main(["eval", str(ok), "f(²)"]) == 1
    assert capsys.readouterr().err == \
        "error: line 1:3: unexpected character '²'\n"
    bad = tmp_path / "bad.rw"
    bad.write_text("op f(Int) -> Int: f(x) = add(x, ²);\n")
    assert main(["check", str(bad)]) == 1
    assert capsys.readouterr().err == \
        "error: line 1:33: unexpected character '²'\n"


@pytest.mark.parametrize("enabled", [True, False])
def test_commands_leave_the_collector_as_they_found_it(enabled, monkeypatch,
                                                       capsys):
    seen = []

    def load(path, real=cli._load_system):
        seen.append(gc.isenabled())
        if path == HEAD:
            raise MemoryError
        return real(path)

    monkeypatch.setattr(cli, "_load_system", load)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        codes = [main(["compile", APPEND]), main(["check", "no/such.rw"]),
                 main(["check", HEAD])]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert codes == [0, 1, 1]
    assert seen == [False] * 3  # the commands ran with the collector paused
    assert capsys.readouterr().err.endswith("error: out of memory\n")


def test_rule_side_depth_limit(tmp_path, capsys):
    def system(depth):
        path = tmp_path / f"deep{depth}.rw"
        path.write_text("data Nat = Z | S(Nat);\nop f(Nat) -> Nat:\n"
                        f"    f(x) = {'S(' * depth}x{')' * depth};\n")
        return str(path)

    assert main(["eval", system(1000), "f(Z)", "--mode", "or"]) == 0
    assert capsys.readouterr().out == "S(" * 1000 + "Z" + ")" * 1000 + "\n"
    for depth in (1001, 20000):
        assert main(["check", system(depth)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: line 3:2014: rule side nested more than 1000 levels deep")


def run_limited(megabytes, *args):
    """`needle *args` in a child interpreter with an address-space limit."""
    code = ("import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({megabytes} << 20, "
            f"{megabytes} << 20))\n"
            "from needle.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.slow
def test_traced_runs_out_of_memory_exit_1():
    # a divergent traced run under a budget of 10^8 steps grows its log
    # until memory runs out; the child interpreter alone gets a 400 MB
    # address-space limit
    for args in (["validate", LOOP, "fst(MkPair(loop, 0))"],
                 ["eval", LOOP, "fst(MkPair(loop, 0))", "--trace"]):
        done = run_limited(400, *args, "--max-steps", "100000000")
        assert done.returncode == 1, done.stderr[-2000:]
        assert done.stdout == ""
        assert done.stderr == \
            "error: out of memory; --max-steps bounds the run\n"


@pytest.mark.slow
def test_untraced_divergent_runs_fit_in_constant_memory():
    # an untraced run keeps only the live graph, so two million steps of
    # `loop` fit in a 200 MB address space (at about 170 B a step, keeping
    # every contractum ran out of memory there)
    done = run_limited(200, "eval", LOOP, "loop", "--max-steps", "2000000")
    assert done.returncode == 4, done.stderr[-2000:]
    assert done.stderr == "step limit reached after 2000000 step(s)\n"


def test_traced_runs_have_their_own_default_budget(monkeypatch, capsys):
    # --max-steps, else cli.TRACED_MAX_STEPS; validate gives its oracle run
    # the same budget
    monkeypatch.setattr(cli, "TRACED_MAX_STEPS", 40)
    expr = "fst(MkPair(loop, 0))"

    def expect(budget, *args):
        assert main(["eval", LOOP, expr, "--trace", *args]) == 4
        assert capsys.readouterr().err == \
            f"step limit reached after {budget} step(s)\n"
        assert main(["validate", LOOP, expr, *args]) == 0
        assert capsys.readouterr().out == \
            f"ok: {budget} machine step(s), {budget - 1} proper step(s), " \
            f"source strategy agrees\n"

    expect(40)
    expect(20, "--max-steps", "20")


def test_validate_reports_a_budget_that_cuts_only_the_compiled_run(
        monkeypatch, capsys):
    # fib(5) takes 36 source steps, and 66 machine steps in cr, 38 in or
    for mode, budget in (("cr", 50), ("or", 37)):
        monkeypatch.setattr(cli, "TRACED_MAX_STEPS", budget)
        for args in ([], ["--max-steps", str(budget)]):
            assert main(["validate", FIB, "fib(5)", "--mode", mode,
                         *args]) == 4
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == \
                f"step limit reached after {budget} step(s)\n"


def test_validate_prints_each_disagreement_and_exits_2(monkeypatch, capsys):
    # the source run, made to take one step more, then to end otherwise
    args = ["validate", APPEND, "append(Cons(1, Nil), Cons(2, Nil))"]
    real = cli.oracle_eval
    for change, line in (
            (lambda r: OracleResult(r.outcome, r.root, r.steps + 1),
             "step mismatch: cr performed 2 proper step(s), "
             "source strategy 3"),
            (lambda r: OracleResult("aborted", r.root, r.steps),
             "outcome mismatch: cr=value source=aborted")):
        monkeypatch.setattr(cli, "oracle_eval", lambda *a, change=change,
                            **kw: change(real(*a, **kw)))
        assert main(args) == 2
        assert capsys.readouterr() == ("", f"violation: {line}\n")


def _validate(tmp_path, text, expr, mode):
    path = tmp_path / "system.rw"
    path.write_text(text)
    return main(["validate", str(path), expr, "--mode", mode])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1b: lost sharing; the norm-op step "
                          "rebuilds add(1, 2), which is then evaluated twice")
@pytest.mark.parametrize("mode", ["cr", "tr", "or"])
def test_validate_accepts_a_repeated_variable(tmp_path, capsys, mode):
    text = "data P = Q(Int, Int);\nop dup(Int) -> P: dup(x) = Q(x, x);\n"
    assert _validate(tmp_path, text, "dup(add(1, 2))", mode) == 0, \
        capsys.readouterr().err


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1a: the rules of an Int branch's "
                          "default match an unevaluated argument and abort")
@pytest.mark.parametrize("mode", ["cr", "tr", "or"])
def test_validate_accepts_a_call_below_an_int_default(tmp_path, capsys,
                                                      mode):
    text = "op f(Int, Int) -> Int: f(0, v) = 1 f(u, 0) = 2;\n"
    assert _validate(tmp_path, text, "f(sub(1, 1), 5)", mode) == 0, \
        capsys.readouterr().err


def test_an_operation_without_rules_is_exempt(tmp_path, capsys):
    path = tmp_path / "none.rw"
    path.write_text("op f(Int) -> Int: ;\n")
    assert main(["tree", str(path)]) == 0
    assert capsys.readouterr().out == "op f\n  exempt\n"
    for mode in ("source", "cr", "tr", "or"):
        assert main(["eval", str(path), "f(1)", "--mode", mode]) == 3
        steps = 0 if mode == "source" else 1  # the root's norm-op step
        assert capsys.readouterr().err == \
            f"aborted after {steps} step(s): no rule applies\n"
    for mode in ("cr", "tr", "or"):
        assert main(["validate", str(path), "f(add(1, 2))",
                     "--mode", mode]) == 0
        assert capsys.readouterr().out == \
            "ok: 1 machine step(s), 0 proper step(s), source strategy agrees\n"


def test_bench_prints_the_counter_table(capsys):
    assert main(["bench", FIB, "fib(5)"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("expr: fib(5)\n")
    assert "per 10 rewrite steps of cr:" in out
    assert main(["bench", FIB, "fib(5)", "--modes", "cr,zz"]) == 1
    assert "unknown mode 'zz'" in capsys.readouterr().err
    assert main(["bench", LOOP, "loop", "--max-steps", "10"]) == 1
    assert "ended with steplimit" in capsys.readouterr().err


def test_bench_rejects_an_empty_mode_list(capsys):
    for modes in (",", "", " , "):
        assert main(["bench", FIB, "fib(3)", "--modes", modes]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: no modes given\n"
        assert captured.out == ""


def test_validate_compares_against_the_source_strategy(capsys):
    assert main(["validate", FIB, "fib(5)"]) == 0
    out = capsys.readouterr().out
    assert out == "ok: 66 machine step(s), 36 proper step(s), " \
                  "source strategy agrees\n"
    # divergence is not a validation failure when both sides agree on it
    assert main(["validate", LOOP, "loop", "--max-steps", "30"]) == 0
    assert "source strategy agrees" in capsys.readouterr().out


def test_validate_checks_tr_and_or(capsys):
    inputs = [(FIB, "fib(5)"), (APPEND, "append(Cons(1, Nil), Cons(2, Nil))"),
              (f"{CORPUS}/length.rw", "length(append(Cons(4, Nil), Nil))"),
              (f"{CORPUS}/tree.rw", "size(mirror(Fork(Tip(1), Leaf)))"),
              (HEAD, "head(Cons(7, Nil))"), (HEAD, "head(Nil)"),
              (LOOP, "snd(MkPair(loop, 0))")]
    for mode in ("tr", "or"):
        for path, expr in inputs:
            assert main(["validate", path, expr, "--mode", mode]) == 0, \
                (mode, expr)
            assert "source strategy agrees" in capsys.readouterr().out
    assert main(["validate", FIB, "fib(5)", "--mode", "or"]) == 0
    assert capsys.readouterr().out == "ok: 38 machine step(s), " \
        "36 proper step(s), source strategy agrees\n"


def test_usage_error_for_missing_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
