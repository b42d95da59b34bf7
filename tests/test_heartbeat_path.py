"""The idle-heartbeat fast path.

- **Shared heap entries.**  A node's tasktracker and datanode re-arm
  their heartbeat cadences on the simulator's heartbeat clock, so both
  ticks of one beat ride one clock batch (one coalesced
  :class:`CallbackTimer`).  A stale tick (daemon shut down) is a no-op
  inside the shared batch and must not disturb its partner.  Obs probe
  and invariant ticks stay dedicated (their counts are subtracted from
  ``events_processed``).
- **Parking.**  Idle chains park and their beats are replayed; lockstep
  trackers share heartbeat rounds whether their beats are real or
  replayed, and every counter matches the run that never parks.
- **Empty-index gate.**  ``FifoScheduler.assign`` returns early when the
  cluster index has no candidate job for either picker.  The gate must
  run *after* the index refresh: a snoozed speculation gate passing at
  the heartbeat instant arms its job inside that refresh.
- **Invalidation batches.**  The namenode drains a host's trash queue
  ``invalidate_work_per_heartbeat`` ids at a time, in queue order.
"""

from contextlib import nullcontext

from repro.core import HOGConfig, HOGSystem
from repro.faults.invariants import InvariantChecker
from repro.grid import GridSiteConfig, SitePolicy
from repro.hdfs import hog_config
from repro.mapreduce import MRConfig
from repro.obs.probes import ProbeSet
from repro.sim import Simulator

from helpers import (HdfsHarness, MRHarness, ScanPendingIndex, no_parking,
                     scan_scheduling)


def _small_hog(target=4):
    policy = SitePolicy(preempt_rate=0.0, burst_rate=0.0,
                        scheduling_delay_mean=5.0)
    sites = [GridSiteConfig(f"SITE{i}", f"site{i}.edu", 10, policy)
             for i in range(2)]
    sim = Simulator()
    hog = HOGSystem(sim, HOGConfig(sites=sites, seed=1,
                                   negotiation_interval=10.0))
    hog.start(target)
    hog.run_until_nodes(target)
    sim.run(until=sim.now + 10.0)
    return sim, hog


def _batches_holding(sim, owner):
    """Instants of pending clock batches holding a beat of ``owner``
    (stale ones included), each checked to ride one shared timer."""
    out = []
    for when, batch in sim.hb_clock._due.items():
        if any(d is owner for _, _, d in batch):
            timer = sim._wakeups[when]
            assert timer._fns[::2] == [sim.hb_clock._fire]
            out.append(when)
    return out


class TestSharedHeartbeatEntry:
    def test_node_daemons_tick_from_one_timer(self):
        with no_parking():
            sim, hog = _small_hog()
        for node in hog.nodes.values():
            tt_batches = _batches_holding(sim, node.tasktracker)
            dn_batches = _batches_holding(sim, node.datanode)
            assert len(tt_batches) == 1
            assert tt_batches == dn_batches, node.host

    def test_stale_tick_is_a_noop_and_partner_continues(self):
        with no_parking():
            sim, hog = _small_hog()
        node = hog.nodes[sorted(hog.nodes)[0]]
        tt, dn = node.tasktracker, node.datanode
        (fire_at,) = _batches_holding(sim, tt)
        jt_desc = hog.jobtracker._trackers[node.host]
        nn_desc = hog.namenode._nodes[node.host]
        tt_seen = jt_desc.last_heartbeat

        tt.shutdown()  # its tick is already inside the shared batch
        assert _batches_holding(sim, tt) == [fire_at]
        sim.run(until=fire_at)

        assert jt_desc.last_heartbeat == tt_seen
        assert nn_desc.last_heartbeat == fire_at
        assert _batches_holding(sim, tt) == []
        (next_at,) = _batches_holding(sim, dn)
        assert next_at > fire_at
        sim.run(until=next_at)
        assert nn_desc.last_heartbeat == next_at
        assert jt_desc.last_heartbeat == tt_seen

    def test_probe_and_invariant_ticks_stay_dedicated(self):
        sim, hog = _small_hog()
        interval = hog.jobtracker.liveness.interval()
        probes = ProbeSet(sim, {"zero": lambda: 0.0}, interval)
        checker = InvariantChecker(sim, hog, interval=interval)
        probes.start()
        checker.start()
        for owner in (probes, checker):
            (timer,) = [e[3] for e in sim._heap
                        if getattr(e[3], "_fns", None)
                        and any(getattr(fn, "__self__", None) is owner
                                for fn in e[3]._fns[::2])]
            assert timer.when is None  # not in the shared registry
            assert len(timer._fns) == 2  # owns its entry alone


class TestLockstepRounds:
    """Trackers started at one instant beat in lockstep, so each of
    their shared instants is one heartbeat round — whether the beats
    are dispatched or replayed from a parked chain."""

    @staticmethod
    def _counts(parking):
        with nullcontext() if parking else no_parking():
            h = MRHarness(n_nodes=2, n_sites=1)  # both start at t=0
        h.run(until=61.5)  # beats at 0, 3, ..., 60
        jt = h.jobtracker
        jt.liveness.resolve_all(h.sim.now)
        return jt.heartbeats, jt.heartbeat_rounds, len(jt.liveness.parked)

    def test_two_trackers_started_at_one_instant_share_rounds(self):
        plain = self._counts(parking=False)
        parked = self._counts(parking=True)
        assert plain == (42, 21, 0)
        assert parked == (42, 21, 2)

    def test_replayed_beat_shares_a_dispatched_beats_round(self):
        """One lockstep partner woken (its beat at 33 is dispatched), the
        other parked: the parked partner's replayed beat at 33 adds no
        round."""
        h = MRHarness(n_nodes=2, n_sites=1)
        h.run(until=30.5)
        jt = h.jobtracker
        jt.liveness.resolve_all(h.sim.now)
        awake, asleep = (jt.tracker(host) for host in h.hosts())
        jt.liveness.wake(jt._trackers[awake.host], h.sim.now)
        beats, rounds = jt.heartbeats, jt.heartbeat_rounds
        h.run(until=40.5)  # both beat at 33, 36, 39
        jt.liveness.resolve_all(h.sim.now)
        assert jt.heartbeats - beats == 6
        assert jt.heartbeat_rounds - rounds == 3
        assert asleep.host in jt.liveness.parked


class TestEmptyIndexGate:
    def test_snoozed_gate_passing_at_heartbeat_launches_copy(self):
        """Pending lists empty, one straggler whose speculation gate
        (oldest start 0 + min elapsed 30 s) passes exactly at the t=30
        heartbeat: that heartbeat must launch the speculative copy."""
        h = MRHarness(n_nodes=3, n_sites=1,
                      mr_config=MRConfig(speculation_min_elapsed=30.0))
        slow = h.hosts()[0]
        h.tasktrackers[slow].speed = 0.05
        job = h.submit("gate", num_maps=3, num_reduces=0,
                       map_cpu_per_block=10.0)
        h.run(until=29.0)
        index = h.jobtracker.scheduler.index
        assert not job.pending_map_tasks and not index.map_jobs
        assert job.completed_maps == 2
        assert not index.spec["map"].armed  # snoozed until t=30
        h.run(until=30.0)
        copies = [a for t in job.maps for a in t.attempts if a.speculative]
        assert len(copies) == 1
        assert copies[0].start_time == 30.0
        assert copies[0].tracker.host != slow

    def test_matchmaking_idle_heartbeat_marks_node_like_scan(self):
        """The gate skips matchmaking's map pick, whose refusal marks the
        node even when no job has work; the idle hook replays it.  A node
        joining once the index is empty (maps running, speculation
        snoozed) meets the gate on its first heartbeat."""
        def run(scan):
            with scan_scheduling() if scan else nullcontext():
                h = MRHarness(n_nodes=4, n_sites=2, mr_config=MRConfig(
                    scheduler="matchmaking"))
            h.submit("mm", num_maps=2, num_reduces=0,
                     map_cpu_per_block=60.0)
            h.run(until=10.0)
            index = h.jobtracker.scheduler.index
            assert isinstance(index, ScanPendingIndex) == scan
            if not scan:
                assert not index.map_candidates(True)
            h.add_node("node004.site0.edu")
            h.run(until=20.0)
            return dict(h.jobtracker.scheduler._marker)

        markers = [run(False), run(True)]
        assert markers[0] == markers[1]
        assert markers[0].get("node004.site0.edu")


class TestInvalidationBatches:
    def test_batches_follow_queue_order(self):
        h = HdfsHarness(n_nodes=3, config=hog_config(
            replication=1, invalidate_work_per_heartbeat=4,
            disk_check_interval=None, block_report_interval=None))
        nn = h.namenode
        h.client().preload_file("/f", 30 * h.config.block_size)
        host = max(h.hosts(), key=lambda x: h.datanodes[x].num_blocks())
        dn = h.datanodes[host]
        queued = list(dn.block_report())[::-1]
        assert len(queued) >= 6
        for bid in queued:
            nn._queue_invalidation(host, bid)
        removed = []
        original = dn.remove_block
        dn.remove_block = lambda bid: (removed.append(bid), original(bid))
        desc = nn._nodes[host]
        beats = 0
        while host in nn._invalidate_queue:
            nn._dispatch_invalidations(desc)
            beats += 1
            assert removed == queued[:4 * beats]
        assert removed == queued
        assert beats == -(-len(queued) // 4)
        assert dn.num_blocks() == 0
        assert nn.counters.get("replicas_trashed") == len(queued)
