"""Unit and integration tests for the HDFS substrate."""

import numpy as np
import pytest

from repro.hdfs import (
    MB,
    BlockUnavailableError,
    HdfsConfig,
    Datanode,
    HdfsError,
    LiveHostIndex,
    SiteAwarePolicy,
    hog_config,
    stock_hadoop_config,
)
from repro.net import DnsSiteResolver, NetworkTopology
from repro.sim.events import Process
from repro.storage import Disk, DiskIOError

from helpers import HdfsHarness


class TestConfig:
    def test_defaults_are_stock_hadoop(self):
        cfg = stock_hadoop_config()
        assert cfg.replication == 3
        assert cfg.heartbeat_timeout == 15 * 60.0
        assert cfg.disk_check_interval is None
        cfg.validate()

    def test_hog_preset_matches_paper(self):
        cfg = hog_config()
        assert cfg.replication == 10          # §III-B1
        assert cfg.heartbeat_timeout == 30.0  # §III-B
        assert cfg.disk_check_interval == 180.0  # §IV-D1 "every 3 minutes"
        cfg.validate()

    def test_block_size_is_64mb(self):
        assert HdfsConfig().block_size == 64 * MB

    @pytest.mark.parametrize("field,value", [
        ("block_size", 0), ("replication", 0), ("heartbeat_interval", -1),
        ("disk_reserve_fraction", 1.5),
        # A monitor loops on ``timeout(period)``: 0 would spin forever.
        ("heartbeat_recheck_period", 0.0),
        ("replication_monitor_period", -1.0),
    ])
    def test_invalid_configs_rejected(self, field, value):
        cfg = HdfsConfig()
        setattr(cfg, field, value)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_timeout_must_exceed_interval(self):
        cfg = HdfsConfig(heartbeat_interval=10.0, heartbeat_timeout=5.0)
        with pytest.raises(ValueError):
            cfg.validate()


class TestDiskWiring:
    def test_datanode_rejects_a_private_queue_disk(self):
        h = HdfsHarness(n_nodes=0)
        disk = Disk(h.sim, "n0.site0.edu", 1e9)  # its own FairQueue
        with pytest.raises(ValueError):
            Datanode(h.sim, "n0.site0.edu", disk, h.fabric, h.namenode)


class TestNamespace:
    def test_file_split_into_blocks(self):
        h = HdfsHarness()
        fi = h.namenode.create_file("/data/in", 200 * MB)
        assert len(fi.blocks) == 4
        assert [b.size for b in fi.blocks] == [64 * MB, 64 * MB, 64 * MB, 8 * MB]
        assert fi.size == 200 * MB

    def test_exact_multiple_has_no_short_block(self):
        h = HdfsHarness()
        fi = h.namenode.create_file("/data/in", 128 * MB)
        assert [b.size for b in fi.blocks] == [64 * MB, 64 * MB]

    def test_duplicate_create_rejected(self):
        h = HdfsHarness()
        h.namenode.create_file("/f", MB)
        with pytest.raises(HdfsError):
            h.namenode.create_file("/f", MB)

    def test_get_missing_file_raises(self):
        h = HdfsHarness()
        with pytest.raises(HdfsError):
            h.namenode.get_file("/nope")

    def test_delete_frees_replica_space(self):
        h = HdfsHarness()
        client = h.client()
        fi = client.preload_file("/f", 64 * MB, replication=3)
        used_before = sum(dn.disk.used for dn in h.datanodes.values())
        assert used_before == 3 * 64 * MB
        h.namenode.delete_file("/f")
        assert sum(dn.disk.used for dn in h.datanodes.values()) == 0
        assert not h.namenode.exists("/f")

    def test_block_ids_unique_across_files(self):
        h = HdfsHarness()
        f1 = h.namenode.create_file("/a", 128 * MB)
        f2 = h.namenode.create_file("/b", 128 * MB)
        ids = [b.block_id for b in f1.blocks + f2.blocks]
        assert len(set(ids)) == len(ids)


class TestPlacement:
    """The site-spread rules, on a freshly built live-host index."""

    def _policy(self, hosts, seed=0):
        topo = NetworkTopology(DnsSiteResolver())
        idx = LiveHostIndex(topo)
        for h in hosts:
            idx.add(h)
        return topo, SiteAwarePolicy(topo, np.random.default_rng(seed)), idx

    def test_writer_gets_first_replica(self):
        hosts = [f"n{i}.s{i % 3}.edu" for i in range(9)]
        topo, pol, idx = self._policy(hosts)
        targets = pol.choose_targets(hosts[0], 3, set(), lambda h: True, idx)
        assert targets[0] == hosts[0]
        assert len(targets) == 3

    def test_second_replica_different_site(self):
        hosts = [f"n{i}.s{i % 3}.edu" for i in range(9)]
        topo, pol, idx = self._policy(hosts)
        targets = pol.choose_targets(hosts[0], 3, set(), lambda h: True, idx)
        assert topo.site_of(targets[1]) != topo.site_of(targets[0])

    def test_replicas_spread_across_sites(self):
        hosts = [f"n{i}.s{i % 3}.edu" for i in range(9)]
        topo, pol, idx = self._policy(hosts)
        targets = pol.choose_targets(hosts[0], 6, set(), lambda h: True, idx)
        per_site = {}
        for t in targets:
            per_site[topo.site_of(t)] = per_site.get(topo.site_of(t), 0) + 1
        # 6 replicas over 3 sites must be 2 per site under even spread.
        assert sorted(per_site.values()) == [2, 2, 2]

    def test_existing_replicas_never_rechosen(self):
        hosts = [f"n{i}.s{i % 3}.edu" for i in range(6)]
        topo, pol, idx = self._policy(hosts)
        existing = {hosts[0], hosts[1]}
        targets = pol.choose_targets(None, 2, existing, lambda h: True, idx)
        assert not (set(targets) & existing)

    def test_space_constraint_respected(self):
        hosts = [f"n{i}.s{i % 3}.edu" for i in range(6)]
        topo, pol, idx = self._policy(hosts)
        full = {hosts[0], hosts[2]}
        targets = pol.choose_targets(hosts[0], 4, set(),
                                     lambda h: h not in full, idx)
        assert not (set(targets) & full)
        assert len(targets) == 4

    def test_fewer_candidates_than_replicas(self):
        hosts = ["a.x.edu", "b.y.edu"]
        topo, pol, idx = self._policy(hosts)
        targets = pol.choose_targets(None, 10, set(), lambda h: True, idx)
        assert sorted(targets) == sorted(hosts)

    def test_no_candidates_returns_empty(self):
        topo, pol, idx = self._policy([])
        assert pol.choose_targets(None, 3, set(), lambda h: True, idx) == []
        # A writer that is not a live datanode gets no local replica.
        assert pol.choose_targets("w.x.edu", 3, set(), lambda h: True,
                                  idx) == []


class TestLiveHostIndex:
    def _index(self, hosts):
        topo = NetworkTopology(DnsSiteResolver())
        idx = LiveHostIndex(topo)
        for h in hosts:
            idx.add(h)
        return topo, idx

    def test_add_groups_by_site(self):
        hosts = [f"n{i}.s{i % 3}.edu" for i in range(9)]
        _, idx = self._index(hosts)
        assert len(idx) == 9
        assert sorted(idx.sites()) == ["s0.edu", "s1.edu", "s2.edu"]
        for site in idx.sites():
            assert idx.site_size(site) == 3
            assert all(idx.site_of(h) == site for h in idx.site_list(site))

    def test_add_is_idempotent(self):
        _, idx = self._index(["a.x.edu", "a.x.edu"])
        assert len(idx) == 1 and idx.site_size("x.edu") == 1

    def test_discard_swap_pop_keeps_positions_exact(self):
        hosts = [f"n{i}.s0.edu" for i in range(5)]
        _, idx = self._index(hosts)
        idx.discard("n1.s0.edu")  # middle removal: last host swaps in
        idx.discard("n4.s0.edu")  # the swapped-in host, by its new position
        assert "n1.s0.edu" not in idx and "n4.s0.edu" not in idx
        assert sorted(idx.site_list("s0.edu")) == \
            ["n0.s0.edu", "n2.s0.edu", "n3.s0.edu"]
        # Empty sites disappear entirely.
        for h in list(idx.site_list("s0.edu")):
            idx.discard(h)
        assert idx.sites() == [] and len(idx) == 0

    def test_swap_keeps_discard_working(self):
        hosts = [f"n{i}.s0.edu" for i in range(4)]
        _, idx = self._index(hosts)
        idx.swap("s0.edu", 0, 3)
        idx.swap("s0.edu", 1, 2)
        for h in hosts:
            assert h in idx
            idx.discard(h)
        assert len(idx) == 0


class TestPlacementWithIndex:
    """The same rules on a long-lived index, the namenode's steady state:
    earlier calls have permuted its per-site lists in place, and hosts
    have joined and left."""

    def _setup(self, n=9, n_sites=3, seed=0):
        topo = NetworkTopology(DnsSiteResolver())
        pol = SiteAwarePolicy(topo, np.random.default_rng(seed))
        hosts = [f"n{i}.s{i % n_sites}.edu" for i in range(n)]
        gone = [f"gone{i}.s{i % n_sites}.edu" for i in range(n_sites)]
        idx = LiveHostIndex(topo)
        for h in gone + hosts:
            idx.add(h)
        for _ in range(5):
            pol.choose_targets(None, n_sites, set(), lambda h: True, idx)
        for h in gone:
            idx.discard(h)
        return topo, pol, hosts, idx

    def test_writer_gets_first_replica(self):
        topo, pol, hosts, idx = self._setup()
        targets = pol.choose_targets(hosts[0], 3, set(),
                                     lambda h: True, idx)
        assert targets[0] == hosts[0]
        assert len(targets) == 3

    def test_second_replica_different_site(self):
        topo, pol, hosts, idx = self._setup()
        targets = pol.choose_targets(hosts[0], 3, set(),
                                     lambda h: True, idx)
        assert topo.site_of(targets[1]) != topo.site_of(targets[0])

    def test_replicas_spread_across_sites(self):
        topo, pol, hosts, idx = self._setup()
        targets = pol.choose_targets(hosts[0], 6, set(),
                                     lambda h: True, idx)
        per_site = {}
        for t in targets:
            per_site[topo.site_of(t)] = per_site.get(topo.site_of(t), 0) + 1
        assert sorted(per_site.values()) == [2, 2, 2]

    def test_existing_replicas_never_rechosen(self):
        topo, pol, hosts, idx = self._setup(n=6)
        existing = {hosts[0], hosts[1]}
        targets = pol.choose_targets(None, 2, existing,
                                     lambda h: True, idx)
        assert len(targets) == 2
        assert not (set(targets) & existing)

    def test_space_constraint_respected(self):
        topo, pol, hosts, idx = self._setup(n=6)
        full = {hosts[0], hosts[2]}
        targets = pol.choose_targets(hosts[0], 4, set(),
                                     lambda h: h not in full, idx)
        assert not (set(targets) & full)
        assert len(targets) == 4

    def test_fewer_candidates_than_replicas(self):
        topo, pol, hosts, idx = self._setup(n=2, n_sites=2)
        targets = pol.choose_targets(None, 10, set(),
                                     lambda h: True, idx)
        assert sorted(targets) == sorted(hosts)

    def test_draws_never_duplicate_within_one_call(self):
        _, pol, hosts, idx = self._setup(n=30, n_sites=3, seed=5)
        for _ in range(50):
            targets = pol.choose_targets(None, 10, set(),
                                         lambda h: True, idx)
            assert len(targets) == len(set(targets)) == 10

    def test_namenode_index_tracks_deaths(self):
        """The cached index follows register → death → re-register, so
        placement never returns a believed-dead host."""
        from repro.hdfs import hog_config
        from helpers import HdfsHarness
        h = HdfsHarness(n_nodes=6, n_sites=3, config=hog_config(replication=2))
        victim = h.hosts()[0]
        assert victim in h.namenode._live_index
        h.datanodes[victim].kill()
        h.run(until=h.sim.now + 2 * h.config.heartbeat_timeout)
        assert victim not in h.namenode._live_index
        for _ in range(20):
            targets = h.namenode.choose_write_targets("central.unl.edu",
                                                      1.0, 3)
            assert victim not in targets


class TestWriteRead:
    def test_pipeline_write_places_replication_factor(self):
        h = HdfsHarness(n_nodes=6, n_sites=3)
        client = h.client()
        ev = client.write_file("/wl/in0", 64 * MB, replication=3)
        h.run(until=ev)
        fi = ev.value
        info = h.namenode.block_info(fi.blocks[0].block_id)
        assert info.live_replica_count == 3

    def test_write_spreads_blocks_of_large_file(self):
        h = HdfsHarness(n_nodes=6, n_sites=3)
        ev = h.client().write_file("/big", 256 * MB, replication=2)
        h.run(until=ev)
        fi = ev.value
        assert len(fi.blocks) == 4
        for b in fi.blocks:
            assert h.namenode.block_info(b.block_id).live_replica_count == 2

    def test_write_with_no_datanodes_fails(self):
        h = HdfsHarness(n_nodes=0)
        ev = h.client().write_file("/f", MB)
        h.run(until=ev)
        with pytest.raises(HdfsError):
            ev.result()

    def test_read_prefers_local_replica(self):
        h = HdfsHarness(n_nodes=6, n_sites=3)
        client_host = h.hosts()[0]
        client = h.client(client_host)
        fi = client.preload_file("/f", 64 * MB, replication=6)
        ev = client.read_block(fi.blocks[0].block_id)
        h.run(until=ev)
        assert ev.value.source == client_host
        assert ev.value.distance == 0

    def test_read_prefers_site_over_remote(self):
        h = HdfsHarness(n_nodes=6, n_sites=3)
        # Place replicas only on two specific nodes: one sharing a site
        # with the reader, one remote.
        fi = h.namenode.create_file("/f", 64 * MB)
        block = fi.blocks[0]
        same_site = "node003.site0.edu"   # same site as node000
        remote = "node004.site1.edu"
        h.datanodes[same_site].add_block_instant(block)
        h.datanodes[remote].add_block_instant(block)
        reader = h.client("node000.site0.edu")
        ev = reader.read_block(block.block_id)
        h.run(until=ev)
        assert ev.value.source == same_site
        assert ev.value.distance == 2

    def test_read_missing_block_fails(self):
        h = HdfsHarness()
        fi = h.namenode.create_file("/f", 64 * MB)
        ev = h.client().read_block(fi.blocks[0].block_id)
        h.run(until=ev)
        with pytest.raises(BlockUnavailableError):
            ev.result()

    def test_read_unknown_block_fails(self):
        h = HdfsHarness()
        ev = h.client().read_block(99999)
        h.run(until=ev)
        with pytest.raises(BlockUnavailableError):
            ev.result()

    def test_read_retries_next_replica_on_dead_node(self):
        h = HdfsHarness(n_nodes=6, n_sites=3, config=hog_config(replication=2))
        client = h.client()
        fi = client.preload_file("/f", 64 * MB, replication=2)
        block = fi.blocks[0]
        locs = h.namenode.locate(block.block_id)
        # Kill one replica holder abruptly; namenode does not know yet.
        h.datanodes[locs[0]].kill()
        reader = h.client(locs[0])  # reader co-located with the dead node
        ev = reader.read_block(block.block_id)
        h.run(until=ev)
        assert ev.value.source == locs[1]
        # The failed attempt must have been reported.
        assert h.namenode.counters.get("bad_replica_reports") == 1


class TestFailureDetection:
    def test_dead_node_detected_after_hog_timeout(self):
        h = HdfsHarness(config=hog_config())
        victim = h.hosts()[0]
        h.run(until=10.0)
        h.datanodes[victim].kill()
        h.run(until=10.0 + 30.0 + 5.0)  # timeout + recheck slack
        assert victim not in h.namenode.live_datanode_hosts()
        assert h.namenode.counters.get("datanodes_declared_dead") == 1

    def test_stock_timeout_is_much_slower(self):
        h = HdfsHarness(config=stock_hadoop_config())
        victim = h.hosts()[0]
        h.datanodes[victim].kill()
        h.run(until=120.0)
        # After 2 minutes, stock Hadoop still believes the node is alive.
        assert victim in h.namenode.live_datanode_hosts()

    def test_lost_blocks_rereplicated(self):
        h = HdfsHarness(n_nodes=6, n_sites=3, config=hog_config(replication=3))
        client = h.client()
        fi = client.preload_file("/f", 64 * MB, replication=3)
        block = fi.blocks[0]
        victim = h.namenode.locate(block.block_id)[0]
        h.datanodes[victim].kill()
        h.run(until=300.0)
        live = h.namenode.locate(block.block_id)
        assert victim not in live
        assert len(live) == 3  # repaired back to target
        assert h.namenode.counters.get("replications_completed") >= 1

    def test_rereplication_prefers_new_site_spread(self):
        h = HdfsHarness(n_nodes=9, n_sites=3, config=hog_config(replication=3))
        client = h.client()
        fi = client.preload_file("/f", 64 * MB, replication=3)
        block = fi.blocks[0]
        victim = h.namenode.locate(block.block_id)[0]
        h.datanodes[victim].kill()
        h.run(until=300.0)
        live = h.namenode.locate(block.block_id)
        sites = {h.topology.site_of(x) for x in live}
        assert len(sites) == 3  # replicas still span all three sites

    def test_node_rejoin_reregisters(self):
        h = HdfsHarness(config=hog_config())
        victim = h.hosts()[0]
        h.datanodes[victim].kill()
        h.run(until=60.0)
        assert victim not in h.namenode.live_datanode_hosts()
        # The same host comes back (fresh glidein).
        h.add_datanode(victim)
        h.run(until=70.0)
        assert victim in h.namenode.live_datanode_hosts()


class TestZombie:
    def test_zombie_without_fix_fools_namenode(self):
        # Stock config: no disk self-check.
        h = HdfsHarness(config=stock_hadoop_config(heartbeat_timeout=30.0,
                                                   heartbeat_recheck_period=3.0))
        client = h.client()
        fi = client.preload_file("/f", 64 * MB, replication=1)
        block = fi.blocks[0]
        holder = h.namenode.locate(block.block_id)[0]
        h.run(until=10.0)
        h.datanodes[holder].make_zombie()
        h.run(until=600.0)
        # Ten minutes later the namenode still believes the zombie holds it.
        assert holder in h.namenode.locate(block.block_id)
        # ...but a real read fails over to nothing.
        ev = h.client().read_block(block.block_id)
        h.run(until=ev)
        with pytest.raises(BlockUnavailableError):
            ev.result()

    def test_disk_check_shuts_down_zombie(self):
        # HOG config: 3-minute disk self-check + 30 s heartbeat timeout.
        h = HdfsHarness(config=hog_config())
        victim = h.hosts()[0]
        h.run(until=10.0)
        h.datanodes[victim].make_zombie()
        # Within disk_check (<=180 s) + heartbeat timeout (30 s) + slack the
        # namenode must have declared it dead.
        h.run(until=10.0 + 180.0 + 30.0 + 10.0)
        assert victim not in h.namenode.live_datanode_hosts()
        assert h.datanodes[victim].state == "dead"

    def test_zombie_data_recovered_with_fix(self):
        h = HdfsHarness(n_nodes=6, n_sites=3, config=hog_config(replication=3))
        client = h.client()
        fi = client.preload_file("/f", 64 * MB, replication=3)
        block = fi.blocks[0]
        victim = h.namenode.locate(block.block_id)[0]
        h.datanodes[victim].make_zombie()
        h.run(until=600.0)
        live = h.namenode.locate(block.block_id)
        assert victim not in live
        assert len(live) == 3


class TestOverReplication:
    def test_excess_replicas_invalidated(self):
        h = HdfsHarness(n_nodes=6, n_sites=3, config=hog_config(replication=2))
        client = h.client()
        fi = client.preload_file("/f", 64 * MB, replication=2)
        block = fi.blocks[0]
        extra = [x for x in h.hosts() if x not in h.namenode.locate(block.block_id)][0]
        h.datanodes[extra].add_block_instant(block)
        info = h.namenode.block_info(block.block_id)
        assert info.live_replica_count == 2
        assert h.namenode.counters.get("replicas_invalidated") == 1


class TestOperationProcesses:
    """An HDFS operation returns its process, which is its completion
    event: expected failures are defused, anything else still crashes."""

    def test_receive_returns_its_process_with_the_block(self):
        h = HdfsHarness(n_nodes=3, n_sites=1)
        src, dst = h.hosts()[:2]
        block = h.namenode.create_file("/f", 8 * MB).blocks[0]
        ev = h.datanodes[dst].receive_block(block, src)
        assert isinstance(ev, Process)
        h.run(until=ev)
        assert ev.value is block
        assert dst in h.namenode.locate(block.block_id)

    def test_waiter_gets_a_failure_that_landed_first(self):
        """The balancer's pattern: moves are held and yielded one at a
        time, so a later move may fail before anyone waits on it."""
        h = HdfsHarness(n_nodes=4, n_sites=2)
        src, slow, dead = h.hosts()[:3]
        blocks = h.namenode.create_file("/f", 128 * MB).blocks
        h.datanodes[dead].shutdown()
        first = h.datanodes[slow].receive_block(blocks[0], src)
        second = h.datanodes[dead].receive_block(blocks[1], src)
        caught = []

        def waiter():
            yield first
            assert second.processed and not second.ok
            try:
                yield second
            except DiskIOError as exc:
                caught.append(exc)

        proc = h.sim.process(waiter())
        h.run(until=proc)
        assert len(caught) == 1

    def test_bug_inside_a_receive_crashes_the_run(self, monkeypatch):
        """Re-replication waits on the receive and catches only what a
        receive fails with: a bug in the receive is not a failed copy."""
        h = HdfsHarness(n_nodes=6, n_sites=3,
                        config=hog_config(replication=3))
        fi = h.client().preload_file("/f", 64 * MB, replication=3)
        victim = h.namenode.locate(fi.blocks[0].block_id)[0]

        def boom(block_id, host):
            raise RuntimeError("bug in block_received")

        monkeypatch.setattr(h.namenode, "block_received", boom)
        h.datanodes[victim].kill()
        with pytest.raises(RuntimeError, match="bug in block_received"):
            h.run(until=300.0)

    def test_bug_inside_a_pipeline_receive_crashes_the_run(self,
                                                          monkeypatch):
        """A write gathers every hop's outcome; a hop that failed with
        anything but a receive failure is a bug, not a lost replica."""
        h = HdfsHarness(n_nodes=6, n_sites=3)

        def boom(block_id, host):
            raise RuntimeError("bug in block_received")

        monkeypatch.setattr(h.namenode, "block_received", boom)
        ev = h.client().write_file("/f", 8 * MB, replication=2)
        with pytest.raises(RuntimeError, match="bug in block_received"):
            h.run(until=ev)

    def test_bug_inside_a_read_serve_crashes_the_run(self, monkeypatch):
        """A client read catches only what a serve fails with: a bug in
        the serve is not a bad replica."""
        h = HdfsHarness(n_nodes=6, n_sites=3)
        client = h.client()
        fi = client.preload_file("/f", 64 * MB, replication=2)

        def boom(*args, **kwargs):
            raise RuntimeError("bug in serve_stream")

        monkeypatch.setattr(h.fabric, "serve_stream", boom)
        ev = client.read_block(fi.blocks[0].block_id)
        with pytest.raises(RuntimeError, match="bug in serve_stream"):
            h.run(until=ev)
