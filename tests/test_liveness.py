"""The shared heartbeat liveness table (``repro.sim.liveness``).

Both masters run it: the namenode over datanodes, the jobtracker over
tasktrackers.  These tests pin the adaptive period, the expiry stretch,
the lazy heap (one entry per live member, re-aimed only when popped),
and the strict tie rule: dead iff ``last_heartbeat + expiry < now``;
and the replay of a parked chain against a naive re-computation.
"""

import random

from repro.hdfs import hog_config
from repro.sim import Simulator
from repro.sim import liveness as liveness_mod
from repro.sim.liveness import Descriptor, HeartbeatClock, LivenessTable

from helpers import HdfsHarness


class Member:
    _hb_epoch = 1

    def __init__(self, host):
        self.host = host


def _table(n=0, base=3.0, rate=100.0, expiry=30.0):
    table = LivenessTable(base, rate, expiry, HeartbeatClock.of(Simulator()))
    for i in range(n):
        table.register(Member(f"n{i}.site.edu"), 0.0)
    return table


class TestPeriod:
    def test_floor_for_small_clusters(self):
        table = _table(300)
        assert table.interval() == 3.0
        assert table.expiry() == 30.0

    def test_period_grows_past_the_floor(self):
        table = _table(500)
        assert table.interval() == 5.0

    def test_rate_zero_keeps_the_floor(self):
        assert _table(5000, rate=0.0).interval() == 3.0

    def test_expiry_stretches_to_four_periods(self):
        table = _table(1000)
        assert table.interval() == 10.0
        assert table.expiry() == 40.0


class TestHeap:
    def test_beats_reaim_lazily(self):
        table = _table(1)
        desc = table.members["n0.site.edu"]
        assert table._heap == [(30.0, "n0.site.edu")]
        desc.last_heartbeat = 20.0  # beats push nothing
        assert len(table._heap) == 1
        assert list(table.expire(31.0)) == []
        assert table._heap == [(50.0, "n0.site.edu")]
        assert list(table.expire(40.0)) == []  # not due: not popped
        assert table._heap == [(50.0, "n0.site.edu")]

    def test_revival_pushes_exactly_one_entry(self):
        table = _table(1)
        desc = table.members["n0.site.edu"]
        assert list(table.expire(31.0)) == [desc]
        assert not desc.alive and not table.live and not table._heap
        desc.last_heartbeat = 40.0
        table.revive(desc)
        assert desc.alive and list(table.live) == ["n0.site.edu"]
        assert table._heap == [(70.0, "n0.site.edu")]

    def test_live_replacement_adds_no_entry(self):
        table = _table(1)
        old = table.members["n0.site.edu"]
        assert table.register(Member("n0.site.edu"), 12.0) is old
        new = table.members["n0.site.edu"]
        assert new is not old and new.last_heartbeat == 12.0
        assert len(table._heap) == 1 and len(table.live) == 1
        # The surviving entry serves the new descriptor.
        assert list(table.expire(31.0)) == []
        assert table._heap == [(42.0, "n0.site.edu")]

    def test_dead_replacement_rejoins(self):
        table = _table(1)
        old = table.members["n0.site.edu"]
        list(table.expire(31.0))
        assert table.register(Member("n0.site.edu"), 33.0) is old
        assert list(table.live) == ["n0.site.edu"]
        assert table._heap == [(63.0, "n0.site.edu")]


class TestTieRule:
    def test_deadline_equal_to_now_is_alive(self):
        table = _table(1)
        desc = table.members["n0.site.edu"]
        desc.last_heartbeat = 9.0
        assert list(table.expire(39.0)) == []
        assert desc.alive
        assert list(table.expire(39.5)) == [desc]
        assert not desc.alive

    def test_namenode_keeps_a_node_silent_exactly_the_timeout(self):
        """HOG timing: 3 s beats, 30 s timeout, 3 s recheck.  A datanode
        killed at t=10 last beat at t=9; ``9 + 30`` lands on the t=39
        recheck, where the node is still alive.  The t=42 recheck
        declares it dead."""
        h = HdfsHarness(n_nodes=3, config=hog_config(
            disk_check_interval=None, block_report_interval=None))
        nn = h.namenode
        host = h.hosts()[0]
        h.run(until=10.0)
        h.datanodes[host].kill()
        h.run(until=39.0)
        assert nn._nodes[host].last_heartbeat == 9.0
        assert host in nn.live_datanode_hosts()
        assert nn.counters.get("datanodes_declared_dead") == 0
        h.run(until=42.0)
        assert host not in nn.live_datanode_hosts()
        assert nn.counters.get("datanodes_declared_dead") == 1


class TestReplay:
    """``resolve`` replays a parked chain exactly like real beats: each
    beat adds the period that the live count before its instant gives."""

    @staticmethod
    def _naive(t, until, changes, base, rate):
        beats = []
        while t < until:
            live = 0
            for at, count in changes:
                if at < t:
                    live = count
            beats.append(t)
            t = t + (base if rate <= 0 else max(base, live / rate))
        return beats, t

    def test_matches_naive_replay_on_random_logs(self):
        rng = random.Random(5)
        for _ in range(500):
            base = rng.choice([3.0, 1.0, 0.5])
            rate = rng.choice([0.0, 100.0, 10.0, 7.0])
            table = LivenessTable(base, rate, 30.0,
                                  HeartbeatClock.of(Simulator()))
            at, live, changes = 0.0, 0, []
            for _ in range(rng.randint(0, 60)):
                # Repeated and on-grid instants on purpose: ties.
                at += rng.choice([0.0, 0.01, 0.5, 1.7, 3.0, rng.random() * 5])
                live = max(0, live + rng.choice([1, 1, 1, -1]))
                changes.append((at, live))
                table._log_t.append(at)
                table._log_step.append(
                    base if rate <= 0 else max(base, live / rate))
            desc = Descriptor(Member("h"), 0.0)
            desc.next_beat = start = rng.choice(
                [0.0, rng.random() * 20] + [c[0] for c in changes[:1]])
            until = start + rng.random() * 80 + 0.01
            replayed = []
            table.on_replay = lambda _d, instants: replayed.extend(instants)
            table.resolve(desc, until)
            beats, nxt = self._naive(start, until, changes, base, rate)
            assert replayed == beats
            assert desc.next_beat == nxt
            assert desc.last_heartbeat == beats[-1]
            assert table.replayed == len(beats)

    def test_trimmed_log_replays_the_same(self, monkeypatch):
        """A table resolves and trims its change log and marks at their
        bound; the beats it replays do not change."""
        def run(slack):
            monkeypatch.setattr(liveness_mod, "LOG_SLACK", slack)
            table = _table(3, base=0.5, rate=2.0)
            replayed = []
            table.on_replay = lambda _d, instants: replayed.extend(instants)
            desc = table.members["n0.site.edu"]
            table.park(desc, 0.5)
            rng = random.Random(7)
            peak = 0
            for k in range(400):
                at = 0.37 * k
                for _ in table.expire(at):
                    pass  # silent members leave: live-count changes
                host = f"x{k % 7}.site.edu"
                if rng.random() < 0.5 and host not in table.live:
                    table.register(Member(host), at)
                table.mark(at, k)
                assert len(table._log_t) <= table.log_bound()
                assert len(table.marks) <= table.log_bound()
                peak = max(peak, len(table._log_t) + len(table.marks))
            table.resolve_all(200.0)
            return replayed, desc.next_beat, peak
        kept, nxt, peak = run(8)
        full, full_nxt, full_peak = run(10_000)
        assert len(kept) > 40
        assert kept == full and nxt == full_nxt
        assert peak < full_peak / 4

