"""Fast-tier coverage for the scale-sweep benchmark harness.

Runs ``bench_scale_sweep.py --smoke`` (one tiny point per scenario) so the
benchmark script itself — argument parsing, both workload scenarios, the
channel-core stats it records, and the JSON report shape — cannot rot
between the real (slow) sweeps.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_bench_module():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import bench_scale_sweep
        return bench_scale_sweep
    finally:
        sys.path.remove(str(BENCH_DIR))


class TestSmokeMode:
    def test_smoke_sweep_runs_both_scenarios(self, tmp_path):
        bench = _load_bench_module()
        out = tmp_path / "report.json"
        assert bench.main(["--smoke", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["benchmark"] == "bench_scale_sweep"
        assert report["host_ref_s"] > 0
        assert len(report["points"]) == 1
        assert len(report["contended_points"]) == 1

        base = report["points"][0]
        cont = report["contended_points"][0]
        assert base["scenario"] == "baseline"
        assert cont["scenario"] == "contended"
        for record in (base, cont):
            assert record["failed_jobs"] == 0
            assert record["events"] > 0
            assert record["fabric_rebalances"] > 0
            assert record["workload_response_seconds"] > 0
            # Periodic datanode block reports must actually carry replicas
            # (the counter sat at zero while reports only fired at
            # registration, when nodes are still empty).
            assert record["control"]["nn_block_reports"] > 0
            assert record["control"]["nn_block_report_blocks"] > 0
            # Channel-core fast paths: arrivals rated without a filling
            # pass, and the pass-size histogram carries every pass taken.
            assert record["arrival_fast_paths"] > 0
            assert record["completion_fast_paths"] > 0
            assert sum(record["pass_size_hist"]) > 0
            # Region-pass counters ride along at top level.
            for key in ("region_expansions", "uniform_pins"):
                assert record[key] >= 0
        # The contended scenario doubles the shuffled bytes on half-speed
        # disks: it must produce strictly more concurrent demand pressure.
        assert cont["peak_demands"] >= base["peak_demands"]

        # The per-scenario coverage section: every registry scenario that
        # the sweep itself does not already exercise gets a full
        # ScenarioResult record.
        section = report["scenarios"]
        assert set(section) >= {"wan_staging", "hetero_tiers",
                                "rebalance_under_load", "churn_heavy",
                                "blackout", "flaky_wan"}
        for name, record in section.items():
            assert record["scenario"] == name
            assert record["events"] > 0
            assert record["makespan_seconds"] > 0
            assert [p["name"] for p in record["phases"]][:2] == \
                ["ramp", "preload"]
        # rebalance_under_load must really have balanced under load.
        assert section["rebalance_under_load"]["balancer"]["moved_blocks"] > 0

        # The fault scenarios ran their plans and recovered to steady
        # state: every surviving block back at target, repair machinery
        # drained, zero invariant violations.
        for name in ("blackout", "flaky_wan"):
            record = section[name]
            assert record["faults"]["injected"]["events_fired"] > 0
            conv = record["faults"]["convergence"]
            assert conv["under_replicated_final"] == 0
            assert conv["deferred_final"] == 0
            assert conv["invalidation_backlog_final"] == 0
            assert record["invariants"]["violations"] == 0

        # Each sweep point carries the obs sections the diff/inspect
        # tooling reads: the full registry snapshot and sampled per-phase
        # gauge timelines.
        assert base["registry"]["channel"]["rebalances"] == \
            base["fabric_rebalances"]
        assert base["registry"]["control"] == base["control"]
        assert base["timelines"]
        # ... and the obs-only memory section, phase by phase.
        assert [p["name"] for p in base["memory"]["phases"]][:2] == \
            ["ramp", "preload"]
        workload = base["timelines"].get("workload", {})
        assert "running_nodes" in workload and "active_flows" in workload
        for record in section.values():
            assert record["schema_version"] == 3

        # --check-against: a self-diff gates clean ...
        import argparse
        ns = argparse.Namespace(check_against=out, check_wall_tolerance=None,
                                check_eps_floor=None,
                                check_fastpath_drop=None)
        assert bench._check_against(ns, report) == 0
        # ... while an injected throughput regression (baseline claims 10x
        # the fresh events/s) trips the floor and exits non-zero.
        tampered = json.loads(out.read_text())
        tampered["points"][0]["events_per_second"] *= 10
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(tampered))
        ns.check_against = baseline
        assert bench._check_against(ns, report) == 1

    def test_contended_scenario_is_disk_throttled(self):
        bench = _load_bench_module()
        node = bench.contended_node()
        default_read = 90e6
        assert node.disk_read_rate < default_read
        loadgen = bench.contended_loadgen()
        base = bench.calibration.default_loadgen()
        assert loadgen.map_output_ratio > base.map_output_ratio


class TestParkingGate:
    def test_parking_tie_fails_the_sweep(self):
        bench = _load_bench_module()
        clean = {"scenario": "baseline", "nodes": 30,
                 "control": {"park_ties": 0}}
        assert bench._check_parking({"points": [clean]}) == 0
        tied = {"scenario": "blackout", "nodes": 40,
                "control": {"park_ties": 2}}
        assert bench._check_parking(
            {"points": [clean], "scenarios": {"blackout": tied}}) == 1


class TestScenarioSectionTiming:
    """The coverage section times each scenario as the fastest of its
    runs, and the runs must agree on the simulation payload."""

    @staticmethod
    def _record(name, wall, makespan=100.0):
        return {"scenario": name, "nodes": 40, "wall_seconds": wall,
                "events_per_second": round(1000 / wall), "events": 1000,
                "makespan_seconds": makespan, "failed_jobs": 0,
                "control": {"park_ties": 0}, "timelines": None,
                "engine": None, "trace": None, "invariants": None,
                "phases": [{"name": "ramp", "sim_seconds": 5.0,
                            "wall_seconds": wall}]}

    def _fake_runs(self, monkeypatch, bench, walls, makespans=None):
        calls = []

        def fake(specs, workers):
            calls.append(len(specs))
            out = []
            for k, spec in enumerate(specs):
                i = k % len(walls)
                out.append(self._record(
                    spec.name, walls[i],
                    makespans[i] if makespans else 100.0))
            return out
        monkeypatch.setattr(bench, "run_specs_parallel", fake)
        return calls

    def test_fastest_of_three_runs_is_kept(self, monkeypatch):
        bench = _load_bench_module()
        calls = self._fake_runs(monkeypatch, bench, [2.4, 1.5, 1.9])
        section = bench.run_scenario_section(40, 0.05, 0)
        names = bench.registry.names()
        assert calls == [3 * len(names)]
        assert list(section) == list(names)
        for name, rec in section.items():
            assert rec["scenario"] == name
            assert rec["wall_seconds"] == 1.5

    def test_one_run_when_asked(self, monkeypatch):
        bench = _load_bench_module()
        calls = self._fake_runs(monkeypatch, bench, [2.4])
        section = bench.run_scenario_section(40, 0.05, 0, runs=1)
        assert calls == [len(bench.registry.names())]
        assert all(r["wall_seconds"] == 2.4 for r in section.values())

    def test_runs_that_disagree_fail(self, monkeypatch):
        bench = _load_bench_module()
        self._fake_runs(monkeypatch, bench, [2.4, 1.5, 1.9],
                        makespans=[100.0, 100.0, 101.0])
        with pytest.raises(RuntimeError, match="different payloads"):
            bench.run_scenario_section(40, 0.05, 0)


class TestSweepPointTiming:
    """Sweep, contended and frontier points are timed like the scenario
    section: the fastest of three runs of one spec, which must agree on
    everything but their wall clocks; ``--smoke`` makes one run."""

    @staticmethod
    def _fake_runs(monkeypatch, bench, walls, events=None):
        calls = []

        def fake(n_nodes, scale, seed, scenario, ramp_fraction):
            i = sum(1 for c in calls if c == (scenario, n_nodes)) % len(walls)
            calls.append((scenario, n_nodes))
            return {"nodes": n_nodes, "scenario": scenario,
                    "wall_seconds": walls[i],
                    "events_per_second": round(1000 / walls[i]),
                    "events": events[i] if events else 1000,
                    "peak_flows": 1, "workload_response_seconds": 10.0,
                    "control": {"park_ties": 0}}
        monkeypatch.setattr(bench, "_run_once", fake)
        return calls

    def test_every_point_keeps_the_fastest_of_three(self, monkeypatch,
                                                    tmp_path):
        bench = _load_bench_module()
        calls = self._fake_runs(monkeypatch, bench, [2.4, 1.5, 1.9])
        out = tmp_path / "report.json"
        assert bench.main(["--nodes", "100", "--no-scenario-section",
                           "--output", str(out)]) == 0
        assert calls == [("baseline", 100)] * 3 + [("contended", 100)] * 3 \
            + [("baseline", bench.FRONTIER_NODES)] * 3
        report = json.loads(out.read_text())
        for section in ("points", "contended_points", "frontier_points"):
            (record,) = report[section]
            assert record["wall_seconds"] == 1.5
            assert record["events_per_second"] == round(1000 / 1.5)

    def test_smoke_points_run_once(self, monkeypatch, tmp_path):
        bench = _load_bench_module()
        calls = self._fake_runs(monkeypatch, bench, [2.4, 1.5, 1.9])
        assert bench.main(["--smoke", "--no-scenario-section", "--output",
                           str(tmp_path / "report.json")]) == 0
        assert calls == [("baseline", 30), ("contended", 30)]

    def test_point_runs_that_disagree_fail(self, monkeypatch):
        bench = _load_bench_module()
        self._fake_runs(monkeypatch, bench, [2.4, 1.5, 1.9],
                        events=[1000, 1000, 1001])
        with pytest.raises(RuntimeError, match="different payloads"):
            bench.run_point(100, 0.25, 0, runs=3)


class TestHostScaling:
    """``--check-against`` judges wall-derived values at this host's
    speed: the baseline's walls are scaled by the ratio of the two
    reports' host reference times."""

    @staticmethod
    def _report(host_ref, wall):
        return {"benchmark": "bench_scale_sweep", "host_ref_s": host_ref,
                "points": [{"scenario": "baseline", "nodes": 100,
                            "wall_seconds": wall, "events": 100_000,
                            "events_per_second": round(100_000 / wall),
                            "workload_response_seconds": 10.0,
                            "failed_jobs": 0, "control": {}}],
                "scenarios": {"blackout": {
                    "scenario": "blackout", "nodes": 40,
                    "wall_seconds": wall, "events": 50_000,
                    "events_per_second": round(50_000 / wall),
                    "makespan_seconds": 100.0, "failed_jobs": 0}}}

    @staticmethod
    def _check(bench, tmp_path, baseline, report):
        import argparse
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline))
        ns = argparse.Namespace(check_against=path,
                                check_wall_tolerance=None,
                                check_eps_floor=None,
                                check_fastpath_drop=None)
        return bench._check_against(ns, report)

    @pytest.mark.parametrize("old_ref,new_ref,old_wall,new_wall", [
        # Checked on a host twice as slow as the baseline's: walls double.
        (0.1, 0.2, 2.0, 4.0),
        # Baseline recorded on a host twice as slow as this one.
        (0.2, 0.1, 4.0, 2.0),
    ])
    def test_other_host_speed_is_not_a_regression(
            self, tmp_path, capsys, old_ref, new_ref, old_wall, new_wall):
        bench = _load_bench_module()
        assert self._check(bench, tmp_path,
                           self._report(old_ref, old_wall),
                           self._report(new_ref, new_wall)) == 0
        assert "scaled x" in capsys.readouterr().out

    def test_real_slowdown_on_an_equal_host_is_flagged(self, tmp_path,
                                                       capsys):
        bench = _load_bench_module()
        assert self._check(bench, tmp_path, self._report(0.1, 2.0),
                           self._report(0.1, 4.0)) == 1
        out = capsys.readouterr().out
        assert "events/s below" in out and "wall regression" in out

    def test_baseline_without_reference_is_compared_unscaled(
            self, tmp_path, capsys):
        bench = _load_bench_module()
        baseline = self._report(0.1, 2.0)
        del baseline["host_ref_s"]
        assert self._check(bench, tmp_path, baseline,
                           self._report(0.2, 4.0)) == 1
        assert "compared unscaled" in capsys.readouterr().out

    def test_scaling_leaves_the_baseline_unchanged(self):
        bench = _load_bench_module()
        baseline = self._report(0.1, 2.0)
        scaled = bench.scale_to_host(baseline, 2.0)
        assert baseline["points"][0]["wall_seconds"] == 2.0
        assert scaled["points"][0]["wall_seconds"] == 4.0
        assert scaled["scenarios"]["blackout"]["events_per_second"] == \
            baseline["scenarios"]["blackout"]["events_per_second"] / 2.0
