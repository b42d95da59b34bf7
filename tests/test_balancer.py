"""Tests for the HDFS balancer (§IV-C)."""

import pytest

from repro.hdfs import Balancer, hog_config
from repro.hdfs.config import MB

from helpers import HdfsHarness


def loaded_harness(n_loaded=3, n_empty=3, blocks=12, repl=2):
    """A cluster where only the first ``n_loaded`` nodes hold data."""
    h = HdfsHarness(n_nodes=n_loaded, n_sites=3,
                    config=hog_config(replication=repl),
                    disk_capacity=3e9)
    client = h.client()
    for i in range(blocks):
        client.preload_file(f"/f{i}", 64 * MB, replication=repl)
    # Now add empty nodes (elastic growth).
    for i in range(n_empty):
        h.add_datanode(f"fresh{i:02d}.site{i % 3}.edu")
    h.run(until=h.sim.now + 5.0)
    return h


class TestAnalysis:
    def test_utilization_reports_all_running_nodes(self):
        h = loaded_harness()
        b = Balancer(h.sim, h.namenode)
        util = b.utilization()
        assert len(util) == 6
        assert all(0.0 <= u <= 1.0 for u in util.values())

    def test_imbalance_detects_skew(self):
        h = loaded_harness()
        b = Balancer(h.sim, h.namenode, threshold=0.05)
        assert b.imbalance() > 0.05

    def test_imbalance_zero_when_empty(self):
        h = HdfsHarness(n_nodes=4)
        b = Balancer(h.sim, h.namenode)
        assert b.imbalance() == 0.0

    def test_invalid_threshold_rejected(self):
        h = HdfsHarness(n_nodes=2)
        with pytest.raises(ValueError):
            Balancer(h.sim, h.namenode, threshold=0.0)


class TestBalancing:
    def test_balancer_reduces_imbalance(self):
        h = loaded_harness()
        b = Balancer(h.sim, h.namenode, threshold=0.05)
        before = b.imbalance()
        ev = b.run()
        h.run(until=ev)
        report = ev.value
        assert report.moved_blocks > 0
        assert b.imbalance() < before

    def test_balancer_preserves_replica_counts(self):
        h = loaded_harness(repl=2)
        b = Balancer(h.sim, h.namenode, threshold=0.05)
        ev = b.run()
        h.run(until=ev)
        for bid in list(h.namenode._blocks):
            info = h.namenode.block_info(bid)
            assert info.live_replica_count == 2

    def test_balancer_never_co_locates_replicas(self):
        h = loaded_harness(repl=2)
        ev = Balancer(h.sim, h.namenode, threshold=0.05).run()
        h.run(until=ev)
        for bid in list(h.namenode._blocks):
            info = h.namenode.block_info(bid)
            # replicas is a set of distinct hosts by construction; check
            # the datanodes agree (no double-stored block).
            holders = [x for x, dn in h.datanodes.items() if bid in dn.block_report()]
            assert sorted(holders) == sorted(info.replicas)

    def test_balanced_cluster_is_noop(self):
        h = HdfsHarness(n_nodes=4, n_sites=2, disk_capacity=3e9)
        client = h.client()
        for i in range(4):
            client.preload_file(f"/f{i}", 64 * MB, replication=4)
        b = Balancer(h.sim, h.namenode, threshold=0.10)
        ev = b.run()
        h.run(until=ev)
        report = ev.value
        assert report.converged
        assert report.moved_blocks == 0

    def test_report_repr_readable(self):
        h = HdfsHarness(n_nodes=2)
        ev = Balancer(h.sim, h.namenode).run()
        h.run(until=ev)
        assert "BalancerReport" in repr(ev.value)


class TestJointStreamingMoves:
    """Balancer migrations are rated end-to-end over source disk read,
    network, and target disk write (one joint demand on the shared
    channel) — not just the receive side."""

    SLOW_READ = 5e6  # bytes/s: far below every other constraint

    def _one_loaded_node(self, read_rate):
        """One datanode holding 4 single-replica blocks on a slow-read
        disk, plus one empty datanode in another site."""
        h = HdfsHarness(n_nodes=0, n_sites=2,
                        config=hog_config(replication=1),
                        disk_capacity=1e9)
        h.add_datanode("loaded00.site0.edu", read_rate=read_rate,
                       write_rate=500e6)
        client = h.client()
        for i in range(4):
            client.preload_file(f"/f{i}", 64 * MB, replication=1)
        h.add_datanode("fresh00.site1.edu", read_rate=500e6,
                       write_rate=500e6)
        h.run(until=h.sim.now + 5.0)
        return h

    def test_moves_are_source_read_limited(self):
        """Before/after regression: with the source disk in the demand's
        constraint set, a migration can go no faster than the source can
        read.  (The pre-fix behaviour rated moves by network + target
        write only — ~14x faster here.)"""
        h = self._one_loaded_node(self.SLOW_READ)
        b = Balancer(h.sim, h.namenode, threshold=0.05)
        start = h.sim.now
        ev = b.run()
        h.run(until=ev)
        report = ev.value
        elapsed = h.sim.now - start
        assert report.moved_blocks > 0
        min_time = report.moved_bytes / self.SLOW_READ
        assert elapsed >= 0.95 * min_time, \
            f"{report.moved_blocks} moves in {elapsed:.1f}s; source disk " \
            f"alone needs {min_time:.1f}s — moves are not read-constrained"

    def test_fast_disks_restore_fast_moves(self):
        """The same migration plan on fast disks completes an order of
        magnitude sooner — the joint constraint, not overhead, sets the
        pace."""
        h = self._one_loaded_node(500e6)
        b = Balancer(h.sim, h.namenode, threshold=0.05)
        start = h.sim.now
        ev = b.run()
        h.run(until=ev)
        report = ev.value
        elapsed = h.sim.now - start
        assert report.moved_blocks > 0
        assert elapsed < 0.5 * (report.moved_bytes / self.SLOW_READ)

    def test_moves_share_the_source_disk_with_live_reads(self):
        """A concurrent HDFS read stream from the loaded node drains
        through the same read constraint, so the balancer's moves and the
        live traffic split the disk fairly (both finish later than either
        would alone)."""
        h = self._one_loaded_node(20e6)
        reader_ev = h.fabric.serve_stream(
            "loaded00.site0.edu", "client.site1.edu", 256 * MB,
            h.datanodes["loaded00.site0.edu"].disk)
        b = Balancer(h.sim, h.namenode, threshold=0.05)
        start = h.sim.now
        ev = b.run()
        h.run(until=ev)
        elapsed = h.sim.now - start
        report = ev.value
        # Alone, the moves need moved_bytes/20e6; sharing with the 256 MB
        # read stream they must take strictly longer than that.
        assert report.moved_blocks > 0
        assert elapsed > report.moved_bytes / 20e6
        h.run(until=reader_ev)
        assert reader_ev.triggered

    def test_shared_channel_balancer_preserves_replicas(self):
        """Replica-count invariants survive the joint streaming path."""
        h = HdfsHarness(n_nodes=3, n_sites=3,
                        config=hog_config(replication=2),
                        disk_capacity=3e9)
        client = h.client()
        for i in range(12):
            client.preload_file(f"/f{i}", 64 * MB, replication=2)
        for i in range(3):
            h.add_datanode(f"fresh{i:02d}.site{i % 3}.edu")
        h.run(until=h.sim.now + 5.0)
        ev = Balancer(h.sim, h.namenode, threshold=0.05).run()
        h.run(until=ev)
        assert ev.value.moved_blocks > 0
        for bid in list(h.namenode._blocks):
            info = h.namenode.block_info(bid)
            assert info.live_replica_count == 2
