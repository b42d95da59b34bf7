"""The shared heartbeat liveness table (``repro.sim.liveness``).

Both masters run it: the namenode over datanodes, the jobtracker over
tasktrackers.  These tests pin the adaptive period, the expiry stretch,
the lazy heap (one entry per live member, re-aimed only when popped),
and the strict tie rule: dead iff ``last_heartbeat + expiry < now``.
"""

from repro.hdfs import hog_config
from repro.sim.liveness import LivenessTable

from helpers import HdfsHarness


class Member:
    def __init__(self, host):
        self.host = host


def _table(n=0, base=3.0, rate=100.0, expiry=30.0):
    table = LivenessTable(base, rate, expiry)
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
