"""Tests for preemption traces."""

import pytest

from repro.grid import (
    GridSiteConfig,
    PreemptionEvent,
    PreemptionTrace,
    SitePolicy,
    TraceDriver,
    TraceRecorder,
)
from repro.core import HOGConfig, HOGSystem
from repro.sim import Simulator


def quiet_hog(target=6, seed=4):
    policy = SitePolicy(scheduling_delay_mean=5.0)  # no stochastic churn
    cfg = HOGConfig(
        sites=[GridSiteConfig(f"S{i}", f"site{i}.edu", 10, policy)
               for i in range(3)],
        negotiation_interval=10.0, seed=seed)
    sim = Simulator()
    hog = HOGSystem(sim, cfg)
    hog.start(target)
    hog.run_until_nodes(target)
    return sim, hog


class TestPreemptionTrace:
    def test_events_sorted_and_validated(self):
        t = PreemptionTrace([PreemptionEvent(50.0, "B"),
                             PreemptionEvent(10.0, "A")])
        assert [e.time for e in t.events] == [10.0, 50.0]
        assert sum(e.count for e in t.events) == 2

    def test_invalid_event_rejected(self):
        with pytest.raises(ValueError):
            PreemptionTrace([PreemptionEvent(-1.0, "A")])
        with pytest.raises(ValueError):
            PreemptionEvent(1.0, "A", count=0).validate()

    def test_json_roundtrip(self):
        t = PreemptionTrace([PreemptionEvent(10.0, "A", 2, zombie=True),
                             PreemptionEvent(20.0, "B")])
        back = PreemptionTrace.from_json(t.to_json())
        assert back.events == t.events

    def test_add_keeps_order(self):
        t = PreemptionTrace([PreemptionEvent(20.0, "A")])
        t.add(PreemptionEvent(5.0, "B"))
        assert t.events[0].site == "B"


class TestTraceDriver:
    def test_replay_fires_preemptions(self):
        sim, hog = quiet_hog()
        trace = PreemptionTrace([PreemptionEvent(30.0, "S0", count=1),
                                 PreemptionEvent(60.0, "S1", count=1)])
        driver = TraceDriver(sim, hog.factory, trace)
        driver.start()
        sim.run(until=sim.now + 100.0)
        assert hog.factory.counters.get("glideins_preempted") == 2
        assert driver.skipped == 0

    def test_replay_on_empty_site_skips(self):
        sim, hog = quiet_hog()
        trace = PreemptionTrace([PreemptionEvent(10.0, "NOPE", count=3)])
        driver = TraceDriver(sim, hog.factory, trace)
        driver.start()
        sim.run(until=sim.now + 50.0)
        assert driver.skipped == 3

    def test_double_start_rejected(self):
        sim, hog = quiet_hog()
        driver = TraceDriver(sim, hog.factory, PreemptionTrace())
        driver.start()
        with pytest.raises(RuntimeError):
            driver.start()

    def test_record_then_replay_same_counts(self):
        # Record a run with stochastic churn, then replay the trace on a
        # churn-free twin and get the same number of preemptions.
        policy = SitePolicy(preempt_rate=1 / 300.0, scheduling_delay_mean=5.0)
        cfg = HOGConfig(
            sites=[GridSiteConfig(f"S{i}", f"site{i}.edu", 10, policy)
                   for i in range(3)],
            negotiation_interval=10.0, seed=9)
        sim = Simulator()
        hog = HOGSystem(sim, cfg)
        hog.start(6)
        hog.run_until_nodes(6)
        recorder = TraceRecorder(sim, hog.factory)
        t0 = sim.now
        sim.run(until=t0 + 800.0)
        trace = recorder.detach()
        n_recorded = len(trace)
        assert n_recorded > 0
        # Shift times to be relative to the replay start.
        from repro.grid import PreemptionEvent as PE
        rel = PreemptionTrace([PE(e.time - t0, e.site, e.count, e.zombie)
                               for e in trace.events])

        sim2, hog2 = quiet_hog(target=6, seed=9)
        driver = TraceDriver(sim2, hog2.factory, rel)
        driver.start()
        sim2.run(until=sim2.now + 900.0)
        assert (hog2.factory.counters.get("glideins_preempted")
                + driver.skipped) == n_recorded
