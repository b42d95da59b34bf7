"""Tests for the declarative scenario subsystem (spec / registry / runner /
CLI) plus the determinism guard."""

import json

import numpy as np
import pytest

from repro.core.hog import PARK_KEYS
from repro.faults import FaultEvent, FaultPlan
from repro.grid.site import PAPER_SITE_DOMAINS, PAPER_SITE_NAMES, SitePolicy
from repro.mapreduce.job import JobSpec
from repro.scenarios import (
    ClusterSpec,
    FaultSpec,
    ScenarioRunner,
    ScenarioSpec,
    WorkloadSpec,
    registry,
    run_specs_parallel,
)
from repro.scenarios.run import main as cli_main
from repro.workload.schedule import ScheduledJob, SubmissionSchedule

ALL_SCENARIOS = ("baseline", "contended", "wan_staging", "hetero_tiers",
                 "rebalance_under_load", "churn_heavy")

#: Tiny sizing shared by every end-to-end test in this file.
SMOKE = dict(n_nodes=24, scale=0.04)


class TestRegistry:
    def test_all_builtins_registered(self):
        assert set(ALL_SCENARIOS) <= set(registry.names())

    def test_descriptions_are_one_liners(self):
        for name, desc in registry.describe().items():
            assert desc and "\n" not in desc, name

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            registry.build("nonsense")

    def test_builders_honour_overrides(self):
        spec = registry.build("baseline", n_nodes=17, scale=0.5, seed=9)
        assert spec.cluster.n_nodes == 17
        assert spec.workload.scale == 0.5
        assert spec.seed == 9

    def test_contended_is_disk_throttled_and_shuffle_heavy(self):
        from repro.scenarios import calibration
        spec = registry.build("contended")
        base = calibration.default_loadgen()
        assert spec.cluster.node.disk_read_rate < 90e6
        assert spec.workload.loadgen.map_output_ratio > base.map_output_ratio

    def test_wan_staging_caps_every_site_uplink(self):
        spec = registry.build("wan_staging")
        for domain in PAPER_SITE_DOMAINS:
            assert spec.cluster.uplink_caps[domain] < 1250e6

    def test_hetero_tiers_mixes_disk_speeds(self):
        spec = registry.build("hetero_tiers")
        rates = {n.disk_read_rate for n in spec.cluster.site_tiers.values()}
        assert len(rates) >= 2  # at least two distinct tiers

    def test_rebalance_scenario_grows_and_balances(self):
        spec = registry.build("rebalance_under_load", n_nodes=20)
        assert spec.grow_to > 20
        assert spec.balance_during_run

    def test_churn_heavy_trace_is_sorted_and_sited(self):
        spec = registry.build("churn_heavy")
        plan = spec.faults.plan
        assert len(plan) > 0
        times = [e.time for e in plan.events]
        assert times == sorted(times)
        assert all(e.site in PAPER_SITE_NAMES for e in plan.events)
        # Plain waves: the wrapper's zombie fix decides each eviction.
        assert {(e.kind, e.mode) for e in plan.events} == {("node_wave", "")}


class TestSpecRoundTrip:
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_registry_specs_round_trip(self, name):
        spec = registry.build(name, n_nodes=30, scale=0.1, seed=3)
        d = spec.to_dict()
        clone = ScenarioSpec.from_dict(d)
        assert clone.to_dict() == d
        # And through actual JSON text.
        assert ScenarioSpec.from_json(spec.to_json()).to_dict() == d

    def test_explicit_schedule_round_trips(self):
        sched = SubmissionSchedule(
            [ScheduledJob(0.0, JobSpec("j0", 2, 1, "/in/a"), 1),
             ScheduledJob(5.0, JobSpec("j1", 4, 2, "/in/b"), 2)],
            {"/in/a": 2, "/in/b": 4})
        spec = ScenarioSpec(name="pinned",
                            workload=WorkloadSpec(schedule=sched))
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert len(clone.workload.schedule) == 2
        assert clone.workload.schedule.inputs == sched.inputs
        assert clone.workload.schedule.jobs[1].spec.num_maps == 4

    def test_stale_fault_keys_rejected(self):
        """A spec saved with the retired preemption ``trace`` field (or
        any other unknown fault key) fails loudly instead of silently
        running without its pinned preemptions."""
        d = registry.build("baseline", seed=1, **SMOKE).to_dict()
        d["faults"]["trace"] = [{"time": 10.0, "site": "UCSDT2",
                                 "count": 2, "zombie": True}]
        with pytest.raises(ValueError, match="node_wave"):
            ScenarioSpec.from_dict(d)
        del d["faults"]["trace"]
        d["faults"]["plna"] = []
        with pytest.raises(ValueError, match="plna"):
            ScenarioSpec.from_dict(d)

    def test_validation_rejects_nonsense(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", scheduler="cosmic").validate()
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", cluster=ClusterSpec(n_nodes=10),
                         grow_to=5).validate()
        with pytest.raises(ValueError):
            ScenarioSpec(name="x",
                         workload=WorkloadSpec(scale=1.5)).validate()
        with pytest.raises(ValueError):
            ScenarioSpec(name="").validate()

    @pytest.mark.parametrize("section,field,value", [
        ("hdfs", "heartbeat_recheck_period", 0.0),
        ("hdfs", "replication_monitor_period", 0.0),
        ("mr", "expiry_check_period", 0.0),
    ])
    def test_validation_rejects_bad_daemon_configs(self, section, field,
                                                   value):
        """A spec JSON can carry whole HDFS/MapReduce configs; one that
        would hang a monitor is rejected before anything is built."""
        d = registry.build("baseline", seed=1, **SMOKE).to_dict()
        d["cluster"][section] = {field: value}
        spec = ScenarioSpec.from_json(json.dumps(d))
        with pytest.raises(ValueError):
            spec.validate()


class TestRunnerConfig:
    """build_config resolves specs without running anything."""

    def test_wan_caps_reach_the_fabric(self):
        cfg = ScenarioRunner(registry.build("wan_staging")).build_config()
        assert cfg.fabric.site_uplink_overrides["fnal.gov"] == 150e6

    def test_site_tiers_reach_the_hog_config(self):
        cfg = ScenarioRunner(registry.build("hetero_tiers")).build_config()
        assert set(cfg.site_nodes) == set(
            registry.build("hetero_tiers").cluster.site_tiers)

    def test_scheduler_choice_overrides_mr_config(self):
        spec = registry.build("baseline")
        spec.scheduler = "delay"
        cfg = ScenarioRunner(spec).build_config()
        assert cfg.mr.scheduler == "delay"

    def test_trace_without_policy_means_churn_free_sites(self):
        spec = ScenarioSpec(
            name="t", faults=FaultSpec(plan=FaultPlan(
                [FaultEvent(10.0, "node_wave", PAPER_SITE_NAMES[0],
                            count=1)])))
        cfg = ScenarioRunner(spec).build_config()
        for site in cfg.sites:
            assert site.policy.preempt_rate == 0.0
            assert site.policy.burst_rate == 0.0

    def test_grow_to_sizes_the_grid(self):
        spec = registry.build("rebalance_under_load", n_nodes=20)
        cfg = ScenarioRunner(spec).build_config()
        assert sum(s.capacity for s in cfg.sites) >= spec.grow_to

    def test_uplink_caps_apply_to_wan_links(self):
        """The override must reach the actual Link capacity."""
        from repro.net.fabric import FabricConfig, NetworkFabric
        from repro.net.topology import DnsSiteResolver, NetworkTopology
        from repro.sim.engine import Simulator
        fab = NetworkFabric(
            Simulator(), NetworkTopology(DnsSiteResolver()),
            FabricConfig(site_uplink_overrides={"slow.edu": 10e6}))
        assert fab._wan("slow.edu", "tx").capacity == 10e6
        assert fab._wan("fast.edu", "tx").capacity == 1250e6


class TestRunnerEndToEnd:
    def test_rebalance_under_load_runs_all_phases(self):
        spec = registry.build("rebalance_under_load", seed=5, **SMOKE)
        runner = ScenarioRunner(spec)
        result = runner.run()
        phase_names = [p.name for p in result.phases]
        assert phase_names[:3] == ["ramp", "preload", "grow"]
        assert "workload" in phase_names
        assert result.failed_jobs == 0
        assert result.jobs_completed > 0
        # The concurrent balancer genuinely moved data off the preloaded
        # nodes while jobs ran.
        assert result.balancer is not None
        assert result.balancer["moved_blocks"] > 0
        # Growth happened: more workers started than the initial target.
        assert result.preemptions["glideins_started"] >= spec.grow_to

    def test_result_json_is_self_describing(self):
        spec = registry.build("hetero_tiers", seed=2, **SMOKE)
        result = ScenarioRunner(spec).run()
        record = json.loads(result.to_json())
        for key in ("schema_version", "scenario", "makespan_seconds",
                    "sim_seconds", "events", "phases", "channel",
                    "locality", "preemptions", "failed_jobs",
                    "timelines", "engine", "trace"):
            assert key in record
        assert record["schema_version"] == 3
        assert record["scenario"] == "hetero_tiers"
        assert record["channel"]["rebalances"] > 0
        assert record["events"] > 0


class TestDeterminismGuard:
    """Same spec + same seed ⇒ identical event counts and payloads."""

    @pytest.mark.parametrize("name", ["wan_staging", "churn_heavy"])
    def test_same_seed_same_payload(self, name):
        results = []
        for _ in range(2):
            runner = ScenarioRunner(registry.build(name, seed=42, **SMOKE))
            result = runner.run()
            results.append((result.events, result.payload()))
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]

    def test_serial_and_parallel_payloads_byte_identical(self):
        """A multiprocessing sweep must be simulation-identical to the
        serial loop: same spec, same seed, byte-identical payload JSON
        (only wall-clock fields may differ across the two paths)."""
        spec = registry.build("baseline", seed=42, **SMOKE)

        serial = ScenarioRunner(spec).run()
        # Two copies through a real two-worker pool (a single spec would
        # degrade to the in-process fallback and test nothing).
        parallel_recs = run_specs_parallel([spec, spec], workers=2)

        def payload_bytes(record: dict) -> bytes:
            d = dict(record)
            d.pop("wall_seconds")
            d.pop("events_per_second")
            # Telemetry sections vary with obs settings, not the sim.
            d.pop("timelines")
            d.pop("engine")
            d.pop("trace")
            d.pop("invariants")
            # Collector runs and peak RSS vary with the process.
            d.pop("memory")
            d["control"] = {k: v for k, v in d["control"].items()
                            if k not in PARK_KEYS}
            d["phases"] = [{"name": p["name"],
                            "sim_seconds": p["sim_seconds"]}
                           for p in d["phases"]]
            return json.dumps(d, sort_keys=True).encode()

        for rec in parallel_recs:
            assert payload_bytes(rec) == payload_bytes(serial.to_dict())
        # And the reduced dict agrees with ScenarioResult.payload().
        assert json.loads(payload_bytes(parallel_recs[0])) == \
            json.loads(json.dumps(serial.payload(), sort_keys=True))


class TestCli:
    def test_list_prints_catalogue(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_SCENARIOS:
            assert name in out

    def test_show_spec_emits_valid_json(self, capsys):
        assert cli_main(["churn_heavy", "--show-spec"]) == 0
        spec = ScenarioSpec.from_json(capsys.readouterr().out)
        assert spec.name == "churn_heavy"

    def test_unknown_name_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["not-a-scenario"])

    def test_smoke_run_writes_result_json(self, tmp_path):
        out = tmp_path / "result.json"
        assert cli_main(["baseline", "--smoke", "--output", str(out)]) == 0
        record = json.loads(out.read_text())
        assert record["scenario"] == "baseline"
        assert record["failed_jobs"] == 0
        assert record["events"] > 0
        assert [p["name"] for p in record["phases"]] == \
            ["ramp", "preload", "workload"]
