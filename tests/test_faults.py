"""Fault-engine tests: plan round-trips/validation, injector execution
per fault kind against a live HOG system, and byte-identical fault
streams under identical seeds."""

import json

import numpy as np
import pytest

from repro.core import HOGConfig, HOGSystem
from repro.faults import FaultEvent, FaultPlan, Injector
from repro.grid import GridSiteConfig, SitePolicy
from repro.hdfs import hog_config
from repro.sim import Simulator


def make_hog(target=6, replication=3, seed=2, slots=10, disk_check=None):
    """A small churn-free 3-site HOG cluster, ramped to ``target``."""
    policy = SitePolicy(scheduling_delay_mean=5.0)
    cfg = HOGConfig(
        sites=[GridSiteConfig(f"S{i}", f"site{i}.edu", slots, policy)
               for i in range(3)],
        hdfs=hog_config(replication=replication,
                        disk_check_interval=disk_check),
        negotiation_interval=10.0,
        seed=seed,
    )
    sim = Simulator()
    hog = HOGSystem(sim, cfg)
    hog.start(target)
    hog.run_until_nodes(target)
    return sim, hog


def run_plan(sim, hog, plan, horizon):
    """Arm an injector on ``plan`` and advance ``horizon`` sim-seconds."""
    inj = Injector(sim, hog, plan)
    inj.start()
    sim.run(until=sim.now + horizon)
    return inj


def site_named(hog, name):
    return next(s for s in hog.sites if s.name == name)


def hosts_at(hog, domain):
    return sorted(h for h in hog.nodes if h.endswith(domain))


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan([
            FaultEvent(300.0, "site_blackout", "S0", duration=450.0,
                       mode="outage"),
            FaultEvent(120.0, "wan_degrade", "S1", duration=600.0,
                       value=0.15),
            FaultEvent(50.0, "node_wave", "S2", count=3, mode="zombie"),
            FaultEvent(80.0, "disk_fail", "S0", count=1),
            FaultEvent(10.0, "straggler", "S1", duration=90.0, count=2,
                       value=4.0),
        ])
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert FaultPlan.from_list(plan.to_list()) == plan
        # The serialized form is plain JSON data, not repr soup.
        assert json.loads(plan.to_json())[0]["kind"] == "straggler"

    def test_events_sorted_by_time(self):
        plan = FaultPlan([
            FaultEvent(200.0, "disk_fail", "S0", count=1),
            FaultEvent(10.0, "node_wave", "S1", count=1),
        ])
        assert [ev.time for ev in plan.events] == [10.0, 200.0]

    @pytest.mark.parametrize("event", [
        FaultEvent(0.0, "meteor_strike", "S0"),
        FaultEvent(-1.0, "disk_fail", "S0", count=1),
        FaultEvent(0.0, "disk_fail", ""),
        FaultEvent(0.0, "site_blackout", "S0", duration=0.0),
        FaultEvent(0.0, "site_blackout", "S0", duration=60.0, mode="melt"),
        FaultEvent(0.0, "wan_degrade", "S0", duration=60.0, value=1.5),
        FaultEvent(0.0, "node_wave", "S0", count=0),
        FaultEvent(0.0, "straggler", "S0", duration=60.0, count=1,
                   value=1.0),
    ])
    def test_malformed_events_rejected(self, event):
        with pytest.raises(ValueError):
            FaultPlan([event])

    def test_fuzz_is_rng_deterministic(self):
        sites = ["S0", "S1", "S2"]
        a = FaultPlan.fuzz(np.random.default_rng(5), sites, 1000.0)
        b = FaultPlan.fuzz(np.random.default_rng(5), sites, 1000.0)
        assert a == b
        assert a.to_json() == b.to_json()
        # A different seed genuinely moves the plan.
        c = FaultPlan.fuzz(np.random.default_rng(6), sites, 1000.0)
        assert a != c


class TestBlackout:
    def test_outage_pauses_and_heal_resumes(self):
        sim, hog = make_hog()
        s0_hosts = hosts_at(hog, "site0.edu")
        assert s0_hosts
        plan = FaultPlan([FaultEvent(5.0, "site_blackout", "S0",
                                     duration=300.0, mode="outage")])
        inj = Injector(sim, hog, plan)
        inj.start()
        # Mid-window: the site is closed and its daemons are down long
        # enough for the heartbeat monitor to declare them dead.
        sim.run(until=sim.now + 200.0)
        assert site_named(hog, "S0").in_downtime
        live = hog.namenode.live_datanode_hosts()
        assert not any(h in live for h in s0_hosts)
        # After heal: daemons restart, re-register, and the calendar
        # reopens; no pilot is lost to a pause/resume round-trip.
        sim.run(until=sim.now + 400.0)
        assert not site_named(hog, "S0").in_downtime
        live = hog.namenode.live_datanode_hosts()
        assert all(h in live for h in s0_hosts)
        summary = inj.summary()
        assert summary["blackout_pauses"] == len(s0_hosts)
        assert summary["blackout_resumes"] == len(s0_hosts)
        assert summary["blackout_losses"] == 0

    def test_evict_mode_preempts_and_reopens(self):
        sim, hog = make_hog(target=6)
        n_victims = len(hosts_at(hog, "site0.edu"))
        before = hog.factory.counters.get("glideins_preempted")
        plan = FaultPlan([FaultEvent(5.0, "site_blackout", "S0",
                                     duration=120.0, mode="evict")])
        inj = run_plan(sim, hog, plan, 30.0)
        assert inj.summary()["blackout_evictions"] == n_victims
        assert hog.factory.counters.get("glideins_preempted") == \
            before + n_victims
        assert not site_named(hog, "S0").running_glideins()
        # The factory replaces capacity once the window lifts.
        sim.run(until=sim.now + 120.0)
        hog.run_until_nodes(6, timeout=2000.0)

    def test_overlapping_windows_compose(self):
        sim, hog = make_hog()
        plan = FaultPlan([
            FaultEvent(5.0, "site_blackout", "S0", duration=200.0),
            FaultEvent(50.0, "site_blackout", "S0", duration=300.0),
        ])
        inj = Injector(sim, hog, plan)
        inj.start()
        # After the first window's end but inside the second: still dark.
        sim.run(until=sim.now + 250.0)
        assert site_named(hog, "S0").in_downtime
        sim.run(until=sim.now + 150.0)
        assert not site_named(hog, "S0").in_downtime


class TestWanFaults:
    def test_degrade_scales_uplink_and_restores(self):
        sim, hog = make_hog()
        base = hog.fabric.config.site_uplink_bandwidth
        plan = FaultPlan([FaultEvent(5.0, "wan_degrade", "S0",
                                     duration=100.0, value=0.25)])
        inj = Injector(sim, hog, plan)
        inj.start()
        sim.run(until=sim.now + 50.0)
        assert hog.fabric._uplink_overrides["site0.edu"] == \
            pytest.approx(0.25 * base)
        sim.run(until=sim.now + 100.0)
        assert "site0.edu" not in hog.fabric._uplink_overrides
        actions = [e["action"] for e in inj.stream]
        assert actions == ["wan_degrade", "wan_restore"]

    def test_partition_mode_heals(self):
        sim, hog = make_hog()
        plan = FaultPlan([FaultEvent(5.0, "wan_degrade", "S1",
                                     duration=100.0, mode="partition")])
        inj = run_plan(sim, hog, plan, 300.0)
        actions = [e["action"] for e in inj.stream]
        assert actions == ["wan_partition", "wan_heal"]
        # Cross-site transfers work again after the heal.
        ev = hog.fabric.transfer(hosts_at(hog, "site1.edu")[0],
                                 hosts_at(hog, "site0.edu")[0], 1e6)
        assert sim.run_until(ev, sim.now + 60.0)


class TestNodeFaults:
    def test_node_wave_preempts_longest_running(self):
        sim, hog = make_hog(target=6)
        victims = [sorted(site_named(hog, name).running_glideins(),
                          key=lambda g: g.glidein_id)[0]
                   for name in ("S1", "S0")]
        before = hog.factory.counters.get("glideins_preempted")
        # Two waves at two sites, given out of time order: each fires at
        # its own instant and takes its site's longest-running pilot.
        plan = FaultPlan([FaultEvent(30.0, "node_wave", "S0", count=1),
                          FaultEvent(5.0, "node_wave", "S1", count=1)])
        inj = run_plan(sim, hog, plan, 10.0)
        assert inj.summary()["wave_preemptions"] == 1
        assert victims[0].state != victims[0].RUNNING
        assert victims[1].state == victims[1].RUNNING
        sim.run(until=sim.now + 30.0)
        assert inj.summary()["wave_preemptions"] == 2
        assert victims[1].state != victims[1].RUNNING
        assert hog.factory.counters.get("glideins_preempted") == before + 2
        assert [e["t"] - inj._armed_at for e in inj.stream] == \
            pytest.approx([5.0, 30.0])
        with pytest.raises(RuntimeError):
            inj.start()  # a plan arms once

    @pytest.mark.parametrize("mode,state", [
        ("", "dead"),          # the wrapper's zombie fix (on by default)
        ("preempt", "dead"),
        ("zombie", "zombie"),  # the §IV-D1 double fork: daemons linger
    ])
    def test_node_wave_mode_picks_the_eviction_outcome(self, mode, state):
        sim, hog = make_hog(target=6)
        victim = sorted(site_named(hog, "S1").running_glideins(),
                        key=lambda g: g.glidein_id)[0]
        node = victim.node
        plan = FaultPlan([FaultEvent(5.0, "node_wave", "S1", count=1,
                                     mode=mode)])
        run_plan(sim, hog, plan, 10.0)
        assert node.datanode.state == state

    def test_node_wave_short_site_counts_shortfall(self):
        sim, hog = make_hog(target=6)
        at_site = len(site_named(hog, "S2").running_glideins())
        plan = FaultPlan([FaultEvent(5.0, "node_wave", "S2", count=99)])
        inj = run_plan(sim, hog, plan, 10.0)
        assert inj.summary()["wave_preemptions"] == at_site
        assert inj.summary()["events_short"] == 99 - at_site

    def test_disk_fail_kills_media_not_daemon(self):
        sim, hog = make_hog()
        plan = FaultPlan([FaultEvent(5.0, "disk_fail", "S0", count=1)])
        inj = run_plan(sim, hog, plan, 10.0)
        assert inj.summary()["disks_failed"] == 1
        dead = [n for n in hog.nodes.values() if not n.disk.alive]
        assert len(dead) == 1
        # Media death alone: the daemon is still up (the self-check or a
        # failed transfer takes it down later).
        assert dead[0].host in hog.namenode.live_datanode_hosts()

    def test_straggler_window_slows_then_restores(self):
        sim, hog = make_hog()
        speeds = {h: n.tasktracker.speed for h, n in hog.nodes.items()}
        plan = FaultPlan([FaultEvent(5.0, "straggler", "S1",
                                     duration=100.0, count=2, value=4.0)])
        inj = Injector(sim, hog, plan)
        inj.start()
        sim.run(until=sim.now + 50.0)
        slowed = [h for h, n in hog.nodes.items()
                  if n.tasktracker.speed < speeds[h]]
        assert len(slowed) == 2
        assert all(h.endswith("site1.edu") for h in slowed)
        for h in slowed:
            assert hog.nodes[h].tasktracker.speed == \
                pytest.approx(speeds[h] / 4.0)
        sim.run(until=sim.now + 100.0)
        for h, n in hog.nodes.items():
            assert n.tasktracker.speed == pytest.approx(speeds[h])
        assert inj.summary()["stragglers_ended"] == 2

    def test_unknown_site_skipped_not_fatal(self):
        sim, hog = make_hog()
        before = hog.factory.counters.get("glideins_preempted")
        plan = FaultPlan([FaultEvent(5.0, "disk_fail", "Atlantis", count=1),
                          FaultEvent(6.0, "node_wave", "Atlantis", count=3)])
        inj = run_plan(sim, hog, plan, 10.0)
        assert inj.summary()["events_skipped"] == 2
        assert [e["action"] for e in inj.stream] == ["skip", "skip"]
        assert hog.factory.counters.get("glideins_preempted") == before


class TestStreamDeterminism:
    def test_same_seed_same_stream(self):
        plan = FaultPlan.fuzz(np.random.default_rng(11),
                              ["S0", "S1", "S2"], 600.0)
        streams = []
        for _ in range(2):
            sim, hog = make_hog(seed=4)
            inj = run_plan(sim, hog, plan, 1200.0)
            streams.append((json.dumps(inj.stream), inj.summary()))
        assert streams[0] == streams[1]
