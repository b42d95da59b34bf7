"""Self-tests for the benchmark code.

Not collected by the repository's own test run (the file name does not
match ``test_*.py``); run them from the checkout root with::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench_run  # noqa: E402
from contract import (MAX_END_TO_END, MAX_PER_LAYER,  # noqa: E402
                      result_line, valid_name, validate_benchmark)
from tracer import SpanRecorder, TracedGenerator  # noqa: E402
from workloads import WORKLOADS, run_seeds  # noqa: E402


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py")]
                          + args, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


# -- the contract ------------------------------------------------------------
def test_benchmark_json_is_valid_and_matches_the_code():
    doc = _benchmark()
    assert validate_benchmark(doc) == []
    with open(os.path.join(HERE, "reasoning.json")) as fh:
        reasoning = json.load(fh)
    gated = [name for name, w in reasoning["workloads"].items()
             if w["gated"]]
    assert [w["name"] for w in doc["workloads"]] == gated
    assert set(reasoning["workloads"]) == set(WORKLOADS)


@pytest.mark.parametrize("name", ["wall_s", "engine.self_s", "a-b_c.d",
                                  "9lives", "x" * 64])
def test_name_rule_accepts(name):
    assert valid_name(name)


@pytest.mark.parametrize("name", ["", "_lead", ".lead", "has space",
                                  "slash/no", "x" * 65, "é", 7, None])
def test_name_rule_rejects(name):
    assert not valid_name(name)


def test_metric_count_limits():
    doc = _benchmark()
    e2e = doc["end_to_end"][0]
    too_many = copy.deepcopy(doc)
    too_many["end_to_end"] += [dict(e2e, name=f"extra{i}")
                               for i in range(MAX_END_TO_END)]
    assert any("end_to_end" in p for p in validate_benchmark(too_many))

    layer = doc["per_layer"][0]
    too_many = copy.deepcopy(doc)
    too_many["per_layer"] = [dict(layer, name=f"m{i}")
                             for i in range(MAX_PER_LAYER + 1)]
    assert any("per_layer" in p for p in validate_benchmark(too_many))

    at_limit = copy.deepcopy(doc)
    at_limit["per_layer"] = [dict(layer, name=f"m{i}")
                             for i in range(MAX_PER_LAYER)]
    assert validate_benchmark(at_limit) == []


@pytest.mark.parametrize("mutate", [
    lambda d: d["end_to_end"][0].update(bound=0.3),
    lambda d: d["end_to_end"].pop(1),            # setup_s
    lambda d: d["per_layer"].append(dict(d["per_layer"][0])),  # duplicate
    lambda d: d["workloads"][0].update(why="two\nlines"),
    lambda d: d.update(extra=1),
    lambda d: d["command"].append("/abs/path"),
    lambda d: d["paths"].append("../out"),
    lambda d: d.update(run_seconds=61),
])
def test_contract_violations_are_reported(mutate):
    doc = _benchmark()
    mutate(doc)
    assert validate_benchmark(doc) != []


def test_result_line_rejects_non_numbers():
    ok = result_line(True, 1, 0, {"wall_s": {"value": 1.5, "unit": "s"}})
    assert set(ok) == {"correct", "attempted", "failed", "metrics"}
    with pytest.raises(ValueError):
        result_line(True, 1, 0, {"wall_s": {"value": float("nan"),
                                            "unit": "s"}})


# -- statistics helpers ------------------------------------------------------
def test_tail_percentile_needs_ten_samples_beyond():
    assert bench_run.tail_percentile(list(range(19))) is None
    p, v = bench_run.tail_percentile(list(range(1, 21)))
    assert (p, v) == (50.0, 10)
    p, _ = bench_run.tail_percentile(list(range(100)))
    assert p == 90.0
    p, _ = bench_run.tail_percentile(list(range(1000)))
    assert p == 99.0


def test_pass_stats_from_histogram():
    # one pass of 1 demand, two of 2-3, one of 4-7
    passes, mean = bench_run.pass_stats([0, 1, 2, 1])
    assert passes == 4
    assert mean == pytest.approx((1 + 2 * 2.5 + 5.5) / 4)
    assert bench_run.pass_stats([]) == (0, 0.0)


def test_run_seeds_are_deterministic_and_distinct():
    for w in WORKLOADS.values():
        seeds = run_seeds(w, 3)
        assert seeds == run_seeds(w, 3)
        assert len(set(seeds)) == w.seeds_per_run
        assert not set(seeds) & set(run_seeds(w, 4))


# -- correctness gate --------------------------------------------------------
def _record(**over):
    rec = {"mode": "full", "failed_jobs": 0, "jobs_completed": 24,
           "jobs_scheduled": 24, "digest": "abc", "events": 10,
           "channel": {"x": 1}, "control": {}, "hdfs": {}, "grid": {},
           "faults": None, "invariants": None}
    rec.update(over)
    return rec


def _gate(workload="baseline_1k"):
    return bench_run.Run(ROOT, workload, 0, False, deadline=0.0)


def test_gate_passes_a_clean_run():
    run = _gate()
    run.check(1000, _record())
    run.check(1000, _record())
    assert run.correct and (run.attempted, run.failed) == (48, 0)


@pytest.mark.parametrize("bad, failed", [
    (dict(failed_jobs=2, jobs_completed=22), 3),
    (dict(jobs_completed=23), 1),
    (dict(digest="other"), 1),
    (dict(channel={"x": 2}), 1),
])
def test_gate_counts_failed_checks(bad, failed):
    run = _gate()
    run.check(1000, _record())
    run.check(1000, _record(**bad))
    assert not run.correct
    assert run.failed == failed


def test_gate_fault_workload_requires_convergence_and_no_violations():
    conv = {k: 0 for k in bench_run.CONVERGENCE_FINALS}
    clean = dict(faults={"convergence": conv},
                 invariants={"violations": 0})
    run = _gate("blackout_200")
    run.check(0, _record(**clean))
    assert run.correct
    run.check(1, _record(faults={"convergence": dict(
        conv, lost_blocks_final=3)}, invariants={"violations": 0}))
    run.check(2, _record(faults={"convergence": conv},
                         invariants={"violations": 1}))
    assert len(run.problems) == 2 and run.failed == 2


# -- tracer ------------------------------------------------------------------
class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_is_duration_minus_children():
    clock = _Clock()
    rec = SpanRecorder(clock=clock)
    outer = rec.enter(("mapreduce", "outer"))
    clock.t = 1.0
    inner = rec.enter(("channel", "inner"))
    clock.t = 3.5
    rec.leave(inner)
    clock.t = 4.0
    rec.leave(outer)
    layers = rec.self_by_layer()
    assert layers["mapreduce"] == pytest.approx(1.5)
    assert layers["channel"] == pytest.approx(2.5)
    assert rec.root_s == pytest.approx(4.0)
    spans = rec.export()["spans"]
    assert [s[4] for s in spans] == [0, -1]  # inner's parent is outer


def test_traced_generator_is_transparent():
    def gen():
        got = yield 1
        try:
            yield got * 2
        except KeyError:
            yield "caught"
        return "done"

    rec = SpanRecorder()
    g = TracedGenerator(rec, ("engine", "g"), gen())
    assert next(g) == 1
    assert g.send(5) == 10
    assert g.throw(KeyError("k")) == "caught"
    with pytest.raises(StopIteration) as stop:
        g.send(None)
    assert stop.value.value == "done"
    assert rec.stats[("engine", "g")][0] == 4


# -- end to end --------------------------------------------------------------
def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "baseline_1k", "--seed", "0", "--seconds",
                 "1", "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_smoke_every_workload(workload):
    proc = _run(["--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", "0", "--tiny"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in _benchmark()["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_smoke_traced_run():
    proc = _run(["--workload", "blackout_200", "--seed", "1", "--trace",
                 "1", "--tiny"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in _benchmark()["per_layer"]]
    shares = sum(v["value"] for k, v in metrics.items()
                 if k.endswith(".share"))
    assert shares == pytest.approx(1.0)
    assert metrics["faults.invariant_checks"]["value"] > 0
    assert metrics["faults.self_s"]["value"] > 0
