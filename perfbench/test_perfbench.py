"""Tests of the benchmark itself: its checkers reject wrong answers.

    python3 -m pytest perfbench -q

Each workload runs a few of its jobs through a real worker process, so the
answers are the program's own; the checkers must accept them and reject a
copy with one value changed.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def small_round(workload: str, pick):
    jobs, shared = run.build_jobs(workload, 7)
    chosen = [i for i, job in enumerate(jobs) if pick(job)][:6]
    jobs = [jobs[i] for i in chosen]
    shared = dict(shared, jobs=[shared["jobs"][i] for i in chosen])
    result = run.run_round(workload, shared, list(range(len(jobs))), False, time.monotonic() + 60)
    return jobs, result


def wrong_kinds(jobs, answers, check):
    return [v[0] if v else None for v in run.score(jobs, answers, check)]


def test_ladder_checker_rejects_a_changed_multiplicity():
    jobs, result = small_round("product-ladder", lambda job: job["m"] <= 4)
    check = run.checker("product-ladder")
    assert wrong_kinds(jobs, result["answers"], check) == [None] * len(jobs)
    answers = copy.deepcopy(result["answers"])
    answers[0][0][1] += 1
    assert wrong_kinds(jobs, answers, check)[0] == "wrong"
    answers = copy.deepcopy(result["answers"])
    answers[1].pop()
    assert wrong_kinds(jobs, answers, check)[1] == "wrong"


def test_deep_checker_rejects_a_changed_count_and_a_nonzero_outside():
    jobs, result = small_round("deep-count", lambda job: True)
    check = run.checker("deep-count")
    assert wrong_kinds(jobs, result["answers"], check) == [None] * len(jobs)
    answers = list(result["answers"])
    answers[0] += 1
    assert wrong_kinds(jobs, answers, check)[0] == "wrong"
    outside = {"dataset": 0, "beta": -(10**6), "expected": 0}
    assert check(outside, 0) is None
    assert check(outside, 1) is not None


@pytest.mark.parametrize("kind", ["m1", "m2", "sphere"])
def test_cut_checker_rejects_changed_outputs(kind):
    jobs, result = small_round("cut-roundtrip", lambda job: job["kind"] == kind)
    check = run.checker("cut-roundtrip")
    assert wrong_kinds(jobs, result["answers"], check) == [None] * len(jobs)
    codes, plus, minus, report = result["answers"][0]
    char = workloads.parse_character(plus)
    weight = min(char, default=0)
    char[weight] = char.get(weight, 0) + 1
    bumped = "\n".join(f"{w}: {m}" for w, m in sorted(char.items()) if m) or "(zero representation)"
    for answer in (
        [[0, 0, 0, 1], plus, minus, report],
        [codes, bumped, minus, report],
        [codes, plus, minus, report.replace("ADDITIVITY HOLDS", "ADDITIVITY FAILS")],
        [codes, plus, minus, report.replace(" = ", " = 1 + ", 1) if " = " in report else "x"],
    ):
        assert check(jobs[0], answer) is not None


def test_an_exception_counts_as_failed_but_not_as_wrong():
    jobs = workloads.product_ladder(0)[:1]
    verdicts = run.score(jobs, [{"error": "ValueError: boom"}], workloads.check_ladder)
    assert verdicts == [("error", "ValueError: boom")]


def test_expected_answers_depend_only_on_the_seed():
    for build in (workloads.product_ladder, workloads.cut_roundtrip):
        assert build(3) == build(3)
        assert build(3) != build(4)
    assert workloads.deep_count(3) == workloads.deep_count(3)


def test_percentile_has_ten_samples_beyond_it_on_every_workload():
    for workload in workloads.WORKLOADS:
        jobs, _ = run.build_jobs(workload, 1)
        assert len(jobs) >= 100
        values = list(range(len(jobs)))
        rank = values.index(run.percentile(values, 0.9))
        assert len(jobs) - 1 - rank >= 10


def test_traced_rounds_report_every_layer_and_repeat_their_counts():
    jobs, shared = run.build_jobs("cut-roundtrip", 5)
    shared = dict(shared, jobs=shared["jobs"][:4])
    order = [0, 1, 2, 3]
    deadline = time.monotonic() + 60
    plain = [run.run_round("cut-roundtrip", shared, order, False, deadline)]
    traced = [run.run_round("cut-roundtrip", shared, order, True, deadline) for _ in range(2)]
    figures = run.per_layer(plain, traced)
    assert set(figures) == set(run.PER_LAYER_UNITS)
    assert figures["cli.calls"][0] == 16
    for name in ("documents.bytes", "fixed_points.validate_calls", "laurent.mul_term_products"):
        assert figures[name][0] > 0
    assert figures["kostant.partition_count_calls"][0] == 0
    spans = traced[0]["spans"][0]
    assert spans[0][0] == "cli" and spans[0][1] == -1
    assert any(name == "laurent.divide" for name, *_ in spans)


def test_tracer_times_a_recursive_name_once():
    tracer = tracing.Tracer()

    def inner(depth):
        return depth if depth == 0 else wrapped(depth - 1)

    wrapped = tracer.wrap("laurent.combine", inner, None)
    tracer.begin()
    wrapped(3)
    figures, spans = tracer.end()
    assert len(spans) == 4
    outer = spans[0][3] - spans[0][2]
    assert figures["laurent.combine_s"] == pytest.approx(outer / 1e9)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep-count", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["per_layer"]} == set(run.PER_LAYER_UNITS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
