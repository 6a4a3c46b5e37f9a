"""Tests of the benchmark itself, on tiny workloads.

Each run goes through ``run.main``, the function the command calls, with
``workloads.FULL`` swapped for ``workloads.TINY``, so the printed result
and exit code are what the command would give on a smaller workload.
"""

import json
import shutil
import subprocess
import sys

import pytest

import pace
import run
import workloads
from demoplan import planner

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(capsys, monkeypatch, workload: str, trace: int = 0) -> tuple[int, dict, str]:
    monkeypatch.setattr(workloads, "FULL", workloads.TINY)
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0.01"]
    code = run.main(argv + ["--trace", str(trace)])
    out, err = capsys.readouterr()
    return code, json.loads(out.strip().splitlines()[-1]), err


def declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_passes_and_prints_the_declared_end_to_end_metrics(capsys, monkeypatch, workload):
    code, result, err = bench(capsys, monkeypatch, workload)
    assert code == 0, err
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")
    # A 4-demo library may plan greedily at optimal cost, so the gap can be 0.
    assert all(v["value"] > 0 for k, v in result["metrics"].items() if k != "greedy_gap_pct")


def test_traced_run_prints_the_declared_per_layer_metrics(capsys, monkeypatch):
    code, result, err = bench(capsys, monkeypatch, "learn_corpus", trace=1)
    assert code == 0, err
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("per_layer")
    assert result["metrics"]["grounding.ground_trace_ms"]["value"] > 0


def test_metric_tables_match_benchmark_json():
    assert run.END_TO_END == declared("end_to_end")
    assert run.PER_LAYER == declared("per_layer")


def test_pacer_scales_by_the_mean_of_the_loops_before_and_after(monkeypatch):
    loops = iter([1.0, 3.0, 5.0])
    monkeypatch.setattr(pace, "loop_seconds", lambda: next(loops))
    pacer = pace.Pacer()
    assert pacer.pace(4.0) == 4.0 * pace.REFERENCE_S / 2.0
    # The loop after one operation is the loop before the next.
    assert pacer.pace(4.0) == 4.0 * pace.REFERENCE_S / 4.0


def test_wrong_reference_cost_fails_the_run(capsys, monkeypatch, tmp_path):
    reference = json.loads(run.REFERENCE.read_text())
    reference["optimal"]["repaired/exec4/goal2"]["min_cost"] += 1
    wrong = tmp_path / "reference.json"
    wrong.write_text(json.dumps(reference))
    monkeypatch.setattr(run, "REFERENCE", wrong)

    code, result, err = bench(capsys, monkeypatch, "plan_deep")
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
    assert "!= reference" in err


def test_corrupted_plan_step_fails_the_run(capsys, monkeypatch):
    solve = planner.solve

    def drop_first_step(*args, **kwargs):
        plan = solve(*args, **kwargs)
        steps = plan.steps[1:]
        return planner.Plan(steps, sum(s.cost for s in steps), len(steps))

    monkeypatch.setattr(planner, "solve", drop_first_step)
    code, result, err = bench(capsys, monkeypatch, "plan_many")
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert "does not replay" in err


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "plan_many", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
