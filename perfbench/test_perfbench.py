"""The benchmark's own tests.  Run them with `python -m pytest perfbench`."""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import layers  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from needle import (build_program, evaluate, oracle_eval,  # noqa: E402
                    parse_expr, parse_system)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"),
                                            ("1", "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(trace, section):
    result = run_bench("--workload", "all", "--trace", trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    wanted = {f"{w['name']}.{m['name']}": m["unit"]
              for w in BENCHMARK["workloads"] for m in BENCHMARK[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_the_run_length_is_fixed():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", "5"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60)
    assert proc.returncode == 2
    assert "--seconds must be 20" in proc.stderr


def test_benchmark_json_lists_what_the_code_reports():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == \
        list(worker.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == \
        list(layers.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)


def one_round(name):
    lay = layers.Layers()
    workload = workloads.WORKLOADS[name](lay, seed=3, smoke=True)
    workload.setup()
    lay.start_round(0)
    workload.run_round(0)
    return worker.end_to_end(name, 0.1, [lay.tally])


def test_the_compile_gate_is_not_timed():
    lay = layers.Layers()
    workload = workloads.WORKLOADS["compile"](lay, seed=3, smoke=True)
    workload.setup()
    lay.start_round(0)
    workload.run_round(0)
    assert lay.tally.steps > 0 and lay.tally.src_rates
    assert lay.tally.wall_s == pytest.approx(sum(lay.tally.op_s))


def test_a_wrong_expected_value_fails_the_gate(monkeypatch):
    assert one_round("fib")[2] == 0
    monkeypatch.setattr(gen, "fib_value", lambda k: -1)
    metrics, attempted, failed = one_round("fib")
    assert failed == attempted > 0
    assert metrics["ok_frac"] == 0


def test_a_wrong_expected_counter_fails_the_gate(monkeypatch):
    assert one_round("lists")[2] == 0
    right = workloads.length_counters
    monkeypatch.setattr(workloads, "length_counters",
                        lambda mode, n: dict(right(mode, n), node_matches=0))
    metrics, attempted, failed = one_round("lists")
    assert 0 < failed < attempted
    assert metrics["ok_frac"] < 1


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        {"start": 0.0, "end": 10.0, "parent": None},
        {"start": 1.0, "end": 3.0, "parent": 0},
        {"start": 2.0, "end": 5.0, "parent": 0},
        {"start": 8.0, "end": 12.0, "parent": 0},
        {"start": 8.5, "end": 9.0, "parent": 3},
    ]
    assert layers.self_times(spans) == [4.0, 2.0, 3.0, 3.5, 0.5]


def test_generated_systems_agree_with_the_source_strategy():
    for seed in range(20):
        generated = gen.SystemGen(random.Random(seed), 1 + seed % 12)
        system = parse_system(generated.text(), "generated")
        programs = [build_program(system, m) for m in layers.MODES]
        for term in generated.ground_terms(3):
            source = oracle_eval(system, parse_expr(system, term)[0])
            for program in programs:
                result = evaluate(program, parse_expr(system, term)[0])
                assert result.outcome == source.outcome
                assert result.proper_steps == source.steps


# Program defects the generator of the `compile` workload steers around.
# Each test states the correct behaviour; when one starts to pass, the
# generator can drop the matching restriction in gen.py.

@pytest.mark.xfail(strict=True, reason="guarded Int collapse rule: KeyError")
def test_known_defect_collapse_to_a_literal_guarded_variable():
    system = parse_system("op g(Int) -> Int:\n g(0) = 1\n g(n) = n;")
    build_program(system, "cr")


@pytest.mark.xfail(strict=True, reason="cr: unguarded dispatch after an "
                                       "Int default")
def test_known_defect_branch_below_an_int_default():
    system = parse_system("data T = A | B(T);\n"
                          "op f(Int, Int) -> T:\n"
                          " f(2, v) = A\n f(u, 2) = A\n f(u, v) = B(A);")
    result = evaluate(build_program(system, "cr"),
                      parse_expr(system, "f(add(3, 3), sub(0, 2))")[0])
    assert result.outcome == "value"


@pytest.mark.xfail(strict=True, reason="compiled code loses the sharing of "
                                       "a repeated right-side variable")
def test_known_defect_repeated_variable_bound_to_a_call():
    system = parse_system("data P = Z | Q(Int, Int);\n"
                          "op dup(Int) -> P:\n dup(x) = Q(x, x);")
    source = oracle_eval(system, parse_expr(system, "dup(add(1, 2))")[0])
    result = evaluate(build_program(system, "cr"),
                      parse_expr(system, "dup(add(1, 2))")[0])
    assert result.proper_steps == source.steps
