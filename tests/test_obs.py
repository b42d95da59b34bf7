"""Tests for the unified telemetry subsystem (``repro.obs``).

The load-bearing assertion is the **zero-impact contract**: enabling any
combination of registry probes, causal tracing, and engine profiling —
at any sampling cadence — must leave the determinism-guard payload
byte-identical to an instrumentation-free run, including the reported
event count.  The rest covers the registry/probe/tracer primitives, the
Chrome trace export's validity, and the run-diff engine behind
``python -m repro.obs.inspect --diff`` and the bench regression gate.
"""

import dataclasses
import json

import pytest

from repro.obs.diff import (Thresholds, diff_records, diff_reports,
                            fast_path_rate, flatten_numeric)
from repro.obs.inspect import main as inspect_main
from repro.obs.registry import Registry, trim_hist
from repro.obs.probes import ProbeSet
from repro.obs.trace import CATEGORIES, Tracer
from repro.scenarios import ScenarioRunner, registry
from repro.sim.engine import Simulator
from repro.sim.events import EngineProfile

SMOKE = dict(n_nodes=24, scale=0.04)

#: (label, obs overrides) — the instrumentation configurations the
#: zero-impact contract is asserted across.
OBS_CONFIGS = [
    ("off", {}),
    ("full", {"sample_interval": 7.0, "trace": True,
              "profile_engine": True}),
    ("cadence2", {"sample_interval": 25.0}),
]


def _run(name: str, overrides: dict):
    spec = registry.build(name, seed=42, **SMOKE)
    for key, value in overrides.items():
        setattr(spec.obs, key, value)
    runner = ScenarioRunner(spec)
    result = runner.run()
    return runner, result


@pytest.fixture(scope="module")
def obs_matrix():
    """Each scenario run once per obs configuration (module-cached)."""
    out = {}
    for scenario in ("wan_staging", "churn_heavy"):
        out[scenario] = {label: _run(scenario, overrides)
                         for label, overrides in OBS_CONFIGS}
    return out


class TestZeroImpactContract:
    @pytest.mark.parametrize("scenario", ["wan_staging", "churn_heavy"])
    def test_payloads_byte_identical_across_obs_configs(self, obs_matrix,
                                                        scenario):
        runs = obs_matrix[scenario]
        baseline = json.dumps(runs["off"][1].payload(), sort_keys=True)
        for label, (_, result) in runs.items():
            got = json.dumps(result.payload(), sort_keys=True)
            assert got == baseline, f"payload drift with obs={label}"

    @pytest.mark.parametrize("scenario", ["wan_staging", "churn_heavy"])
    def test_event_counts_identical(self, obs_matrix, scenario):
        runs = obs_matrix[scenario]
        events = {label: result.events
                  for label, (_, result) in runs.items()}
        assert len(set(events.values())) == 1, events

    def test_obs_sections_present_only_when_enabled(self, obs_matrix):
        _, off = obs_matrix["churn_heavy"]["off"]
        _, full = obs_matrix["churn_heavy"]["full"]
        assert off.timelines is None and off.engine is None \
            and off.trace is None
        assert full.timelines and full.engine and full.trace
        assert full.engine["dispatched"] > 0
        assert full.trace["recorded"] > 0

    def test_timelines_sliced_per_phase(self, obs_matrix):
        _, full = obs_matrix["churn_heavy"]["full"]
        # Phases long enough to catch a 7 s cadence tick carry every
        # registered gauge, with sample times inside the phase.
        assert "workload" in full.timelines
        gauges = full.timelines["workload"]
        for name in ("running_nodes", "active_flows", "pending_maps",
                     "event_heap_depth"):
            assert name in gauges
            series = gauges[name]
            assert len(series["t"]) == len(series["v"]) > 0
            assert series["t"] == sorted(series["t"])


class TestMemorySection:
    def test_memory_phases_follow_the_runner_phases(self, obs_matrix):
        _, off = obs_matrix["churn_heavy"]["off"]
        phases = off.memory["phases"]
        assert [p["name"] for p in phases] == [p.name for p in off.phases]
        for p in phases:
            assert len(p["gc_collections"]) == 3
            assert min(p["gc_collections"]) >= 0
            assert p["maxrss_mb"] > 0
        rss = [p["maxrss_mb"] for p in phases]
        assert rss == sorted(rss)  # a running peak

    @pytest.mark.parametrize("scenario", ["wan_staging", "churn_heavy"])
    def test_payload_byte_identical_with_memory_section(self, obs_matrix,
                                                        scenario):
        """The section is in the record, never in the payload: dropping
        it (or a record that predates it) leaves the payload unchanged."""
        _, result = obs_matrix[scenario]["off"]
        record = result.to_dict()
        assert record["memory"] == result.memory
        assert "memory" not in result.payload()
        with_memory = json.dumps(result.payload(), sort_keys=True)
        without = dict(record)
        del without["memory"]
        assert json.dumps(type(result).payload_of(without),
                          sort_keys=True) == with_memory
        result_none = json.dumps(
            dataclasses.replace(result, memory=None).payload(),
            sort_keys=True)
        assert result_none == with_memory


class TestChromeExport:
    def test_export_is_valid_and_causal(self, obs_matrix):
        tracer = obs_matrix["churn_heavy"]["full"][0].tracer
        doc = tracer.to_chrome()
        events = doc["traceEvents"]
        assert events, "trace export is empty"
        meta = [e for e in events if e["ph"] == "M"]
        body = [e for e in events if e["ph"] != "M"]
        # Schema: every record fully formed, durations non-negative.
        tids = set()
        for e in body:
            assert e["ph"] in ("X", "i")
            assert isinstance(e["name"], str) and e["cat"] in CATEGORIES
            assert e["pid"] == 1
            assert e["ts"] >= 0
            if e["ph"] == "X":
                assert e["dur"] >= 0
            tids.add(e["tid"])
        # Monotone timestamps (the exporter sorts by (ts, tid)).
        ts = [e["ts"] for e in body]
        assert ts == sorted(ts)
        # Every tid is named by a thread_name metadata record.
        named = {e["tid"] for e in meta
                 if e["args"].get("name")}
        assert tids <= named
        # Causal edges resolve: every parent ref names an exported span.
        ids = {e["args"]["id"] for e in body
               if "args" in e and "id" in e["args"]}
        parents = {e["args"]["parent"] for e in body
                   if "args" in e and "parent" in e["args"]}
        assert parents and parents <= ids
        # The whole document round-trips through JSON.
        json.loads(json.dumps(doc))

    def test_ring_buffer_bounds_and_category_filter(self):
        tracer = Tracer(capacity=10, categories=["task"])
        for i in range(25):
            tracer.span("task", f"t{i}", float(i), float(i + 1), track="h")
            tracer.instant("channel", "pass", float(i), track="ch")
        assert len(tracer) == 10
        assert tracer.recorded == 25
        assert tracer.dropped == 15
        assert tracer.stats()["by_category"] == {"task": 25}
        assert not tracer.wants("channel")
        # Oldest records were evicted; the newest 10 survive.
        assert [r[3] for r in tracer.records()] == \
            [f"t{i}" for i in range(15, 25)]


class TestRegistryPrimitives:
    def test_bind_attrs_and_snapshot(self):
        class Obj:
            hits = 7
            hist = [1, 2, 0, 0]

        reg = Registry()
        reg.bind_attrs("ns", Obj(), ("hits", "hist"),
                       rename={"hits": "fast_hits"})
        reg.bind_snapshot("ns", lambda: {"extra": 3})
        snap = reg.snapshot()
        assert snap == {"ns": {"fast_hits": 7, "hist": [1, 2], "extra": 3}}
        assert reg.namespaces() == ("ns",)

    def test_gauges_and_probes_sample_on_cadence(self):
        sim = Simulator()
        reg = Registry()
        reg.gauge("depth", lambda: len(sim._heap))
        probes = ProbeSet(sim, reg.gauges(), interval=5.0)
        probes.start()
        sim.run(until=22.0)
        probes.stop()
        # Immediate sample at t=0 plus ticks at 5/10/15/20.
        assert probes.samples == 5
        assert probes.events_injected == 4
        series = probes.series["depth"]
        assert list(series.times) == [0.0, 5.0, 10.0, 15.0, 20.0]
        timelines = probes.timelines(max_points=3)
        assert timelines["depth"]["t"] == [0.0, 10.0, 20.0]

    def test_histogram_power_of_two_buckets(self):
        # Power-of-two bucket lists (the channel's ``pass_size_hist``)
        # reach records with trailing empty buckets trimmed and interior
        # ones kept, so bucket k still means sizes of bit length k.
        assert trim_hist([1, 0, 2, 0, 0]) == [1, 0, 2]
        assert trim_hist([0, 0]) == []

    def test_engine_profile_counts_dispatches(self):
        sim = Simulator()
        sim.profile = EngineProfile()

        def proc():
            yield sim.timeout(1.0)
            yield sim.timeout(1.0)

        done = sim.process(proc())
        sim.timeout(50.0)  # a second pending event, so the heap has depth
        sim.run_until(done, 100.0)
        d = sim.profile.as_dict()
        assert d["dispatched"] >= 3
        assert d["dispatch_by_kind"].get("Timeout", 0) >= 2
        assert d["process_resumes"] >= 2
        assert d["heap_high_water"] >= 1


class TestDiffEngine:
    def _record(self, **over):
        base = {
            "scenario": "baseline", "wall_seconds": 10.0,
            "events_per_second": 100_000, "makespan_seconds": 4000.0,
            "failed_jobs": 0,
            "channel": {"rebalances": 100, "arrival_fast_paths": 700,
                        "departure_fast_paths": 100,
                        "completion_fast_paths": 100},
        }
        base.update(over)
        return base

    def test_clean_pair_not_flagged(self):
        old, new = self._record(), self._record(wall_seconds=11.0)
        entries = diff_records(old, new)
        assert all(e.flag is None for e in entries)

    def test_wall_regression_flagged_only_past_tolerance(self):
        old = self._record()
        entries = diff_records(old, self._record(wall_seconds=16.0))
        flagged = {e.key: e.flag for e in entries if e.flag}
        assert "wall_seconds" in flagged
        entries = diff_records(old, self._record(wall_seconds=14.0))
        assert not [e for e in entries if e.flag]

    def test_eps_floor_and_behaviour_shift(self):
        old = self._record()
        new = self._record(events_per_second=50_000,
                           makespan_seconds=4500.0, failed_jobs=2)
        flags = {e.key: e.flag for e in diff_records(old, new) if e.flag}
        assert "events_per_second" in flags
        assert "makespan_seconds" in flags
        assert "failed_jobs" in flags

    def test_eps_floor_skipped_when_event_counts_differ(self):
        """Fewer events in less wall time is less work, not a slowdown:
        events/s falls but only the wall rule judges the pair."""
        old = self._record(events=1_000_000, wall_seconds=10.0,
                           events_per_second=100_000)
        new = self._record(events=660_000, wall_seconds=9.1,
                           events_per_second=72_527)
        assert not [e for e in diff_records(old, new) if e.flag]

    def test_eps_floor_applies_to_equal_event_counts(self):
        old = self._record(events=1_000_000, wall_seconds=10.0,
                           events_per_second=100_000)
        new = self._record(events=1_000_000, wall_seconds=13.3,
                           events_per_second=75_000)
        flags = {e.key: e.flag for e in diff_records(old, new) if e.flag}
        assert flags == {"events_per_second": "events/s below 80% floor"}

    def test_fast_path_rate_derived_and_gated(self):
        flat = flatten_numeric(self._record())
        assert fast_path_rate(flat) == pytest.approx(0.9)
        # Drop the rate by 10 absolute points: flagged.
        worse = self._record(channel={
            "rebalances": 200, "arrival_fast_paths": 700,
            "departure_fast_paths": 100, "completion_fast_paths": 100})
        entries = diff_records(self._record(), worse)
        rate = [e for e in entries if e.key == "fast_path_rate"]
        assert rate and rate[0].flag

    def test_fault_metric_any_increase_flagged(self):
        """Recovery-health leaves get zero tolerance: any increase flags,
        regardless of the ±5% behaviour band."""
        old = self._record(hdfs={"blocks_all_replicas_lost": 0,
                                 "replications_completed": 40})
        new = self._record(hdfs={"blocks_all_replicas_lost": 1,
                                 "replications_completed": 90})
        flags = {e.key: e.flag for e in diff_records(old, new) if e.flag}
        assert flags.get("hdfs.blocks_all_replicas_lost") == \
            "fault metric increased (recovery regression)"
        # More repair traffic is activity, not a regression.
        assert "hdfs.replications_completed" not in flags

    def test_fault_metric_appearing_from_absent_flagged(self):
        """A no-fault scenario suddenly reporting lost blocks must flag
        even one-sided (the old record predates the counter)."""
        old = self._record()
        new = self._record(hdfs={"blocks_all_replicas_lost": 1})
        entries = [e for e in diff_records(old, new)
                   if e.key == "hdfs.blocks_all_replicas_lost"]
        assert entries and entries[0].flag

    def test_counter_only_in_old_record_is_informational(self):
        """A channel counter a later commit deleted (the old record still
        carries it) shows up as one-sided drift, never as a regression."""
        old = self._record()
        old["channel"]["uniform_fast_accepts"] = 4515
        entries = [e for e in diff_records(old, self._record())
                   if e.key == "channel.uniform_fast_accepts"]
        assert len(entries) == 1
        assert (entries[0].old, entries[0].new) == (4515, None)
        assert entries[0].flag is None

    def test_fault_metric_decrease_not_flagged(self):
        old = self._record(
            faults={"convergence": {"under_replicated_final": 3}})
        new = self._record(
            faults={"convergence": {"under_replicated_final": 0}})
        assert not [e for e in diff_records(old, new) if e.flag]

    def test_bench_report_shape_and_notes(self):
        old = {"benchmark": "bench_scale_sweep",
               "points": [self._record(nodes=100)],
               "scenarios": {"wan_staging": self._record()}}
        new = {"benchmark": "bench_scale_sweep",
               "points": [self._record(nodes=100, wall_seconds=25.0)],
               "scenarios": {}}
        entries, notes = diff_reports(old, new)
        assert any(e.flag for e in entries
                   if e.key.startswith("points[baseline@100]"))
        assert notes == ["only in old: scenarios[wan_staging]"]


class TestInspectCli:
    def _write(self, tmp_path, name, record):
        p = tmp_path / name
        p.write_text(json.dumps(record))
        return str(p)

    def _result_record(self, **over):
        rec = {
            "schema_version": 2, "scenario": "baseline", "nodes": 24,
            "seed": 0, "scale": 0.04, "makespan_seconds": 4000.0,
            "sim_seconds": 5000.0, "wall_seconds": 2.0, "events": 100000,
            "events_per_second": 50000,
            "phases": [{"name": "ramp", "wall_seconds": 0.5,
                        "sim_seconds": 700.0}],
            "channel": {"rebalances": 10, "arrival_fast_paths": 90,
                        "departure_fast_paths": 0,
                        "completion_fast_paths": 0},
            "control": {"heartbeat_rounds": 42},
            "locality": {}, "preemptions": {}, "failed_jobs": 0,
            "jobs_completed": 7, "node_area": None, "balancer": None,
            "timelines": {"ramp": {"running_nodes":
                                   {"t": [0.0, 50.0, 100.0],
                                    "v": [0.0, 12.0, 24.0]}}},
            "engine": None, "trace": None,
        }
        rec.update(over)
        return rec

    def test_render_single_result(self, tmp_path, capsys):
        path = self._write(tmp_path, "r.json", self._result_record())
        assert inspect_main([path]) == 0
        out = capsys.readouterr().out
        assert "scenario 'baseline'" in out
        assert "[channel]" in out and "heartbeat_rounds" in out
        assert "running_nodes" in out  # the timeline plot rendered

    def test_render_memory_section(self, tmp_path, capsys):
        memory = {"phases": [
            {"name": "ramp", "gc_collections": [40, 3, 1],
             "maxrss_mb": 50.5},
            {"name": "workload", "gc_collections": [110, 9, 0],
             "maxrss_mb": 57.0}]}
        path = self._write(tmp_path, "r.json",
                           self._result_record(memory=memory))
        assert inspect_main([path, "--no-plots"]) == 0
        out = capsys.readouterr().out
        assert "[memory]" in out
        assert "gc0=  110" in out and "maxrss=57.0MiB" in out
        assert "gc=[150, 12, 1] maxrss=57.0MiB" in out

    def test_diff_flags_injected_regression(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", self._result_record())
        new = self._write(tmp_path, "new.json", self._result_record(
            makespan_seconds=5000.0, events_per_second=20000))
        assert inspect_main([new, "--diff", old]) == 1
        out = capsys.readouterr().out
        assert "behaviour shift" in out
        assert "events/s below" in out

    def test_diff_clean_pair_exits_zero(self, tmp_path):
        old = self._write(tmp_path, "old.json", self._result_record())
        new = self._write(tmp_path, "new.json",
                          self._result_record(wall_seconds=2.2))
        assert inspect_main([new, "--diff", old]) == 0

    def test_diff_threshold_knobs_apply(self, tmp_path):
        old = self._write(tmp_path, "old.json", self._result_record())
        # +10% wall: clean at the default ±50%, flagged at ±5%.
        new = self._write(tmp_path, "new.json",
                          self._result_record(wall_seconds=2.2))
        assert inspect_main([new, "--diff", old,
                             "--wall-tolerance", "0.05"]) == 1
