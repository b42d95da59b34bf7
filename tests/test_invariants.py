"""Runtime invariant checker: clean systems pass, corrupted metadata is
caught, and enabling the checker is decision-free (byte-identical
payloads with it off and on)."""

from types import SimpleNamespace

import pytest

from repro.faults import InvariantChecker
from repro.hdfs import hog_config
from repro.hdfs.config import MB
from repro.scenarios import registry
from repro.scenarios.runner import ScenarioRunner

from helpers import MRHarness

SMOKE = dict(n_nodes=24, scale=0.04)


def make_system(**hdfs_overrides):
    """An MR cluster wrapped to look like a HOG system to the checker."""
    h = MRHarness(n_nodes=6, hdfs_config=hog_config(
        replication=3, disk_check_interval=None, **hdfs_overrides))
    system = SimpleNamespace(namenode=h.namenode, jobtracker=h.jobtracker,
                             fabric=h.fabric)
    return h, system


class TestCleanSystem:
    def test_busy_cluster_has_zero_violations(self):
        h, system = make_system()
        checker = InvariantChecker(h.sim, system, interval=5.0)
        checker.start()
        job = h.submit(num_maps=4, num_reduces=2)
        h.run_to_completion([job])
        h.sim.run(until=h.sim.now + 60.0)
        checker.stop()
        summary = checker.summary()
        assert summary["checks_run"] > 10
        assert summary["violations"] == 0
        assert summary["by_invariant"] == {}

    def test_tick_events_are_counted_for_subtraction(self):
        h, system = make_system()
        checker = InvariantChecker(h.sim, system, interval=5.0)
        checker.start()
        h.sim.run(until=h.sim.now + 52.0)
        assert checker.events_injected == 10


class TestCorruptionDetected:
    def test_needed_entry_at_target_flagged(self):
        h, system = make_system()
        fi = h.client().preload_file("/f", 64 * MB)
        nn = h.namenode
        nn._needed[fi.blocks[0].block_id] = None  # fully replicated block
        checker = InvariantChecker(h.sim, system)
        assert checker.check("poke") > 0
        assert "needed_consistent" in checker.violation_counts

    def test_one_sided_host_map_flagged(self):
        h, system = make_system()
        h.client().preload_file("/f", 64 * MB)
        nn = h.namenode
        nn._host_blocks[h.hosts()[0]][9999] = None  # phantom replica
        checker = InvariantChecker(h.sim, system)
        assert checker.check("poke") > 0
        assert "block_map_bidirectional" in checker.violation_counts

    def test_lost_block_with_replicas_flagged(self):
        h, system = make_system()
        fi = h.client().preload_file("/f", 64 * MB)
        nn = h.namenode
        nn._lost_blocks[fi.blocks[0].block_id] = None  # has live replicas
        checker = InvariantChecker(h.sim, system)
        assert checker.check("poke") > 0
        assert "lost_set_terminal" in checker.violation_counts

    def test_forgotten_needed_block_flagged(self):
        h, system = make_system()
        fi = h.client().preload_file("/f", 64 * MB)
        nn = h.namenode
        bid = fi.blocks[0].block_id
        # Under-replicated on paper, but neither queued nor deferred nor
        # covered by in-flight copies: the silent-stall shape.
        nn.block_info(bid).replicas.popitem()
        nn._needed[bid] = None
        checker = InvariantChecker(h.sim, system)
        assert checker.check("poke") > 0
        assert "repair_progress" in checker.violation_counts

    def test_heap_leak_flagged(self):
        h, system = make_system()
        nn = h.namenode
        for i in range(10_000):
            nn._repl_heap.append((0, i))
        checker = InvariantChecker(h.sim, system)
        assert checker.check("poke") > 0
        assert "heaps_bounded" in checker.violation_counts

    def test_tracker_heartbeat_heap_leak_flagged(self):
        h, system = make_system()
        liveness = h.jobtracker.liveness
        liveness._heap.append((0.0, h.hosts()[0]))  # a second entry
        checker = InvariantChecker(h.sim, system)
        assert checker.check("poke") > 0
        assert "heaps_bounded" in checker.violation_counts

    @pytest.mark.parametrize("leak", ["log", "marks", "wake"])
    def test_parking_bookkeeping_leak_flagged(self, leak):
        h, system = make_system()
        h.run(until=40.3)
        jt = h.jobtracker
        liveness = jt.liveness
        if leak == "log":
            liveness._log_t.extend([0.0] * (liveness.log_bound() + 1))
        elif leak == "marks":
            liveness.marks.extend([0.0] * (liveness.log_bound() + 1))
        else:
            jt._wake_maps.heap.extend([(0.0, 0, 0, None)]
                                      * jt._wake_maps.bound())
        checker = InvariantChecker(h.sim, system)
        assert checker.check("poke") > 0
        assert set(checker.violation_counts) == {"heaps_bounded"}

    @pytest.mark.parametrize("master", ["jobtracker", "namenode"])
    @pytest.mark.parametrize("corrupt", ["epoch", "dead", "ahead", "armed"])
    def test_broken_parked_daemon_flagged(self, master, corrupt):
        h, system = make_system()
        h.run(until=40.3)
        table = getattr(h, master).liveness
        assert InvariantChecker(h.sim, system).check("clean") == 0
        desc = next(iter(table.parked.values()))
        if corrupt == "epoch":
            desc.member._hb_epoch += 1  # restarted behind the park
        elif corrupt == "dead":
            desc.member.state = "dead"
        elif corrupt == "ahead":
            desc.last_heartbeat = h.sim.now + 100.0
        else:
            table.clock.arm(desc.next_beat, desc.member)
        checker = InvariantChecker(h.sim, system)
        assert checker.check("poke") > 0
        assert set(checker.violation_counts) == {"parked_daemons"}

    def test_orphaned_running_attempt_flagged(self):
        h, system = make_system()
        h.submit(num_maps=4, num_reduces=1)
        h.sim.run(until=h.sim.now + 30.0)
        jt = h.jobtracker
        attempts = [a for job in jt.active_jobs()
                    for task in job.maps + job.reduces
                    for a in task.running_attempts]
        assert attempts, "no running attempts to orphan"
        checker = InvariantChecker(h.sim, system)
        assert checker.check("before") == 0
        # Declare the tracker dead behind the scheduler's back: its still
        # RUNNING attempts are now orphans.
        jt._trackers[attempts[0].tracker.host].alive = False
        assert checker.check("after") > 0
        assert "no_orphan_attempts" in checker.violation_counts

    def test_inconsistent_tracer_stats_flagged(self):
        h, system = make_system()
        system.tracer = SimpleNamespace(
            stats=lambda: {"recorded": 10, "kept": 3, "dropped": 2})
        checker = InvariantChecker(h.sim, system)
        assert checker.check("poke") > 0
        assert "tracer_accounting" in checker.violation_counts

    def test_violations_counted_beyond_storage_cap(self):
        from repro.faults.invariants import MAX_STORED
        h, system = make_system()
        nn = h.namenode
        for i in range(MAX_STORED + 50):
            nn._host_blocks[h.hosts()[0]][10_000 + i] = None
        checker = InvariantChecker(h.sim, system)
        checker.check("poke")
        assert checker.violation_counts["block_map_bidirectional"] == \
            MAX_STORED + 50
        assert len(checker.violations) == MAX_STORED


def settled_channel():
    """A settled queue on an idle cluster's fabric: a is capped at 30 by
    c2, b takes c1's other 70, and a four-member uniform group drains
    through its own disk."""
    h, system = make_system()
    q = h.fabric.channel
    c1 = q.constraint("c1", 100.0)
    c2 = q.constraint("c2", 30.0)
    disk = q.constraint("disk", 80.0)
    a = q.submit(1e9, [c1, c2])
    b = q.submit(1e9, [c1])
    members = [q.submit(1e9, [disk]) for _ in range(4)]
    h.sim.run(until=h.sim.now + 1.0)
    assert members[0]._group is not None
    return q, InvariantChecker(h.sim, system), a, b


class TestChannelMaxMin:
    def test_settled_allocation_is_clean(self):
        _, checker, a, b = settled_channel()
        assert checker.check("poke") == 0
        assert (a.rate, b.rate) == (30.0, 70.0)

    def test_lowered_rate_has_no_bottleneck(self):
        """b slowed by 10%: c1 is no longer saturated, and b has no
        other constraint to be bottlenecked at."""
        _, checker, _, b = settled_channel()
        b.rate *= 0.9
        assert checker.check("poke") > 0
        assert checker.violation_counts["channel_max_min"] == 1
        assert "no bottleneck" in checker.violations[0].detail

    def test_raised_rate_overloads_its_constraint(self):
        _, checker, _, b = settled_channel()
        b.rate *= 1.1
        assert checker.check("poke") > 0
        assert "over capacity" in checker.violations[0].detail

    def test_group_member_off_the_clock_flagged(self):
        q, checker, _, _ = settled_channel()
        member = next(d for d in q._live if d._group is not None)
        del member._group.members[member]
        assert checker.check("poke") > 0
        assert "off its group's clock" in checker.violations[0].detail

    def test_starved_demand_without_retry_flagged(self):
        """Rate 0 and nothing armed to re-rate it: b would never move."""
        _, checker, _, b = settled_channel()
        b.rate = 0.0
        assert checker.check("poke") == 1
        assert checker.violation_counts == {"channel_max_min": 1}
        assert "no retry pending" in checker.violations[0].detail

    def test_starved_demand_with_pending_retry_is_clean(self):
        q, checker, _, b = settled_channel()
        b.rate = 0.0
        q.ensure_progress(b)
        assert checker.check("poke") == 0

    def test_unsettled_queue_is_not_judged(self):
        q, checker, a, b = settled_channel()
        b.rate *= 0.9
        a._bneck._timer_at = None
        q._mark_dirty()
        assert checker.check("poke") == 0


class TestChannelTimers:
    def test_cleared_timer_flagged(self):
        """a would never be woken: nothing fires on its bottleneck."""
        _, checker, a, _ = settled_channel()
        a._bneck._timer_at = None
        assert checker.check("poke") == 1
        assert checker.violation_counts == {"channel_timers": 1}
        assert "no timer due" in checker.violations[0].detail

    def test_timer_due_after_finish_flagged(self):
        """b sped up without re-aiming its timer: it would finish late."""
        _, checker, _, b = settled_channel()
        b._bneck._timer_at += 1.0
        assert checker.check("poke") == 1
        assert checker.violation_counts == {"channel_timers": 1}


class TestRealTraffic:
    """The channel's exactness contracts, checked on every registry
    scenario's own traffic (shuffles, replication, faults) rather than
    on random topologies: zero violations of any invariant."""

    @pytest.mark.parametrize("name", [
        pytest.param(n, marks=pytest.mark.slow) if n == "contended" else n
        for n in registry.names()])
    def test_scenario_certifies_clean(self, name):
        spec = registry.build(name, n_nodes=24, seed=0,
                              scale=0.02 if name == "contended" else 0.04)
        spec.obs.check_invariants = True
        spec.obs.invariant_interval = 5.0
        inv = ScenarioRunner(spec).run().invariants
        assert inv["checks_run"] > 100
        assert inv["by_invariant"] == {}, inv["first_violations"]


class TestZeroImpact:
    def test_checker_off_and_on_payloads_identical(self):
        """The telemetry contract, extended to invariants: enabling the
        checker must not move a single simulation decision."""
        results = []
        for enabled in (False, True):
            spec = registry.build("baseline", seed=7, **SMOKE)
            spec.obs.check_invariants = enabled
            spec.obs.invariant_interval = 30.0 if enabled else None
            results.append(ScenarioRunner(spec).run())
        off, on = results
        assert on.invariants is not None and off.invariants is None
        assert on.invariants["violations"] == 0
        assert off.events == on.events
        assert off.payload() == on.payload()
