"""Namenode recovery-correctness regressions.

Three failure shapes the fault engine leans on:

- the replication retry backoff (an unschedulable block must NOT be
  hot-requeued by every monitor tick — the full-site-blackout loop);
- the terminal lost-set (a block with zero live replicas leaves the
  repair queue and is resurrected only by a replica resurfacing);
- the read-failure / dead-node → re-replication → ``block_received``
  pipeline under an injected disk failure;
- the per-source replication stream cap (``dfs.max-repl-streams``),
  which must hold within one monitor tick.
"""

import pytest

from repro.hdfs import hog_config
from repro.hdfs.config import MB

from helpers import HdfsHarness


def wait_dead(h, host, timeout=120.0):
    """Advance until the namenode declares ``host`` dead."""
    deadline = h.sim.now + timeout
    while h.sim.now < deadline:
        if host not in h.namenode.live_datanode_hosts():
            return
        h.sim.run(until=h.sim.now + 5.0)
    raise AssertionError(f"{host} still believed alive after {timeout}s")


class TestReplicationRetryBackoff:
    def _wedged_cluster(self, backoff=300.0):
        """3 nodes, replication 3, one holder dead: every surviving block
        is under-replicated with NO eligible target (both live nodes
        already hold replicas) — the blackout-shaped wedge."""
        h = HdfsHarness(n_nodes=3, config=hog_config(
            replication=3, disk_check_interval=None,
            block_report_interval=None,
            replication_retry_backoff=backoff))
        h.client().preload_file("/f", 128 * MB)
        victim = h.hosts()[0]
        h.datanodes[victim].kill()
        wait_dead(h, victim)
        return h, victim

    def test_unschedulable_blocks_defer_not_hot_requeue(self):
        h, _ = self._wedged_cluster(backoff=300.0)
        nn = h.namenode
        h.sim.run(until=h.sim.now + 250.0)
        # Both blocks are short one replica and parked on the backoff —
        # not cycling through the work queue.
        assert nn.under_replicated_count() == 2
        assert nn.deferred_replication_count() == 2
        assert len(nn._repl_prio) == 0
        # The regression observable: pre-fix, the monitor re-queued the
        # blocked blocks EVERY tick (3 s), so 250 s of wedge meant ~80
        # retries per block.  With the backoff each block retries once
        # per 300 s window — the initial defer plus at most one more.
        assert 0 < nn.counters.get("replication_retries_deferred") <= 4

    def test_membership_event_rearms_immediately(self):
        h, _ = self._wedged_cluster(backoff=300.0)
        nn = h.namenode
        h.sim.run(until=h.sim.now + 100.0)
        assert nn.deferred_replication_count() == 2
        # A new datanode registers mid-backoff: the deferred blocks must
        # retry NOW (well inside the 300 s window), find the new target,
        # and repair.
        h.add_datanode("node099.site0.edu")
        h.sim.run(until=h.sim.now + 30.0)
        assert nn.under_replicated_count() == 0
        assert nn.deferred_replication_count() == 0
        assert nn.counters.get("replications_completed") == 2


class TestLostBlockSet:
    def _all_replicas_lost(self):
        h = HdfsHarness(n_nodes=2, config=hog_config(
            replication=2, disk_check_interval=None,
            block_report_interval=None))
        h.client().preload_file("/f", 64 * MB)
        for host in h.hosts():
            h.datanodes[host].kill()
        for host in h.hosts():
            wait_dead(h, host)
        return h

    def test_lost_blocks_leave_the_repair_queue(self):
        h = self._all_replicas_lost()
        nn = h.namenode
        assert nn.counters.get("blocks_all_replicas_lost") == 1
        assert nn.lost_block_count() == 1
        # Terminal means terminal: a long quiet period neither retries
        # nor re-queues the unrepairable block (pre-fix it sat in the
        # under-replication heap forever, popped every monitor tick).
        h.sim.run(until=h.sim.now + 500.0)
        assert nn.under_replicated_count() == 0
        assert nn.deferred_replication_count() == 0
        assert len(nn._repl_heap) == 0
        assert nn.counters.get("replication_retries_deferred") == 0

    def test_reregistration_resurrects_through_heal(self):
        h = self._all_replicas_lost()
        nn = h.namenode
        # Partial heal first: ONE daemon restarts with its disk intact and
        # its registration report resurfaces the replica.  The block must
        # leave the lost-set AND re-enter the repair pipeline (a
        # resurrected-but-still-short block that never re-queues is the
        # silent-stall regression).
        first, second = h.hosts()
        h.datanodes[first].start()
        h.sim.run(until=h.sim.now + 30.0)
        assert nn.counters.get("blocks_resurrected") == 1
        assert nn.lost_block_count() == 0
        assert nn.under_replicated_count() == 1
        # Full heal: the second replica resurfaces and the block map is
        # back at steady state.
        h.datanodes[second].start()
        h.sim.run(until=h.sim.now + 30.0)
        assert nn.lost_block_count() == 0
        assert nn.under_replicated_count() == 0
        assert nn.block_info(nn.get_file("/f").blocks[0].block_id) \
                 .live_replica_count == 2


class TestReadFailureAndDiskDeath:
    def test_note_read_failure_triggers_repair(self):
        h = HdfsHarness(n_nodes=4, config=hog_config(
            replication=2, disk_check_interval=None,
            block_report_interval=None))
        fi = h.client().preload_file("/f", 64 * MB)
        nn = h.namenode
        bid = fi.blocks[0].block_id
        bad_host = nn.locate(bid)[0]
        nn.note_read_failure(bid, bad_host)
        assert nn.counters.get("bad_replica_reports") == 1
        assert nn.under_replicated_count() == 1
        h.sim.run(until=h.sim.now + 60.0)
        info = nn.block_info(bid)
        assert info.live_replica_count == 2
        assert nn.counters.get("replications_completed") == 1
        # The corrupt copy was deleted on the datanode (trash path), so
        # its next report cannot re-credit the bad replica.  The host
        # itself may legitimately be re-chosen for the fresh copy.
        assert nn.counters.get("replicas_trashed") == 1

    def test_disk_failure_drives_full_repair_pipeline(self):
        """Injected media death → disk self-check shuts the daemon down →
        heartbeat timeout declares it dead → re-replication streams →
        ``block_received`` restores the target on surviving disks."""
        h = HdfsHarness(n_nodes=4, config=hog_config(
            replication=3, disk_check_interval=60.0,
            block_report_interval=None))
        fi = h.client().preload_file("/f", 64 * MB)
        nn = h.namenode
        bid = fi.blocks[0].block_id
        victim = nn.locate(bid)[0]
        h.datanodes[victim].disk.wipe()
        wait_dead(h, victim, timeout=150.0)
        h.sim.run(until=h.sim.now + 120.0)
        info = nn.block_info(bid)
        assert info.live_replica_count == 3
        assert victim not in info.replicas
        assert not info.pending_targets
        assert nn.counters.get("replications_started") >= 1
        assert nn.counters.get("replications_completed") >= 1
        assert nn.under_replicated_count() == 0


class TestReplicationStreamCap:
    def test_one_tick_launches_at_most_the_cap_per_source(self):
        """One live source, four replicas missing, cap 2: the first
        monitor tick launches two copies and re-queues the block (the
        cap used to count a stream only once its copy had started, after
        the tick's loop, so all four launched)."""
        h = HdfsHarness(n_nodes=8, config=hog_config(
            replication=1, max_replication_streams=2,
            disk_check_interval=None, block_report_interval=None))
        nn = h.namenode
        fi = h.client().preload_file("/f", 64 * MB)
        bid = fi.blocks[0].block_id
        (host,) = nn.locate(bid)
        source = h.datanodes[host]
        # What a setrep to 5 does: the block is four replicas short.
        fi.replication = 5
        nn._needed[bid] = None
        nn._queue_replication(bid)
        h.sim.run(until=nn.config.replication_monitor_period)
        assert nn.counters.get("replications_started") == 2
        assert source.active_repl_streams == 2
        assert len(nn.block_info(bid).pending_targets) == 2
        assert bid in nn._repl_prio  # the rest of the block is re-queued
        # The copies land and the re-queued remainder follows.
        h.sim.run(until=120.0)
        assert nn.block_info(bid).live_replica_count == 5
        assert source.active_repl_streams == 0
        assert nn.counters.get("replications_completed") == 4

    def test_capped_sources_skip_placement(self, monkeypatch):
        """Every source at the cap: the tick re-queues the block without
        placing it.  Placement used to run (RNG draws included) only to
        find the source capped, on every tick for every such block."""
        h = HdfsHarness(n_nodes=8, config=hog_config(
            replication=1, max_replication_streams=2,
            disk_check_interval=None, block_report_interval=None))
        nn = h.namenode
        fi = h.client().preload_file("/f", 64 * MB)
        bid = fi.blocks[0].block_id
        (host,) = nn.locate(bid)
        placements = []
        choose = nn.placement.choose_targets
        monkeypatch.setattr(nn.placement, "choose_targets",
                            lambda *a: placements.append(a) or choose(*a))
        # The only source already serves two streams (the cap).
        h.datanodes[host].active_repl_streams = 2
        fi.replication = 3
        nn._needed[bid] = None
        nn._queue_replication(bid)
        h.sim.run(until=3 * nn.config.replication_monitor_period)
        assert placements == []
        assert nn.counters.get("replications_started") == 0
        assert bid in nn._repl_prio  # fast retry, not the backoff
        # A stream frees up: the next tick places and launches a copy.
        h.datanodes[host].active_repl_streams = 1
        h.sim.run(until=4 * nn.config.replication_monitor_period)
        assert len(placements) == 1
        assert nn.counters.get("replications_started") == 1
