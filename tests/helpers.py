"""Shared fixtures/builders for the test suite."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional

import numpy as np

from repro.hdfs import Datanode, HdfsClient, HdfsConfig, Namenode, SiteAwarePolicy
from repro.hdfs import namenode as namenode_mod
from repro.mapreduce import JobSpec, JobTracker, MRConfig, TaskTracker
from repro.mapreduce import jobtracker as jobtracker_mod
from repro.mapreduce import scheduler as scheduler_mod
from repro.mapreduce.pending_index import ClusterPendingIndex
from repro.net import DnsSiteResolver, FabricConfig, NetworkFabric, NetworkTopology
from repro.sim import Simulator
from repro.sim.liveness import LivenessTable
from repro.storage import Disk


class HdfsHarness:
    """A small in-memory HDFS cluster for unit/integration tests."""

    def __init__(self, n_nodes: int = 6, n_sites: int = 3,
                 config: Optional[HdfsConfig] = None,
                 disk_capacity: float = 100e9,
                 fabric_config: Optional[FabricConfig] = None,
                 seed: int = 7) -> None:
        self.sim = Simulator()
        self.topology = NetworkTopology(DnsSiteResolver())
        self.fabric = NetworkFabric(
            self.sim, self.topology,
            fabric_config or FabricConfig(
                nic_bandwidth=100e6, site_uplink_bandwidth=500e6,
                intra_site_latency=0.0005, inter_site_latency=0.04))
        self.config = config or HdfsConfig()
        rng = np.random.default_rng(seed)
        self.namenode = Namenode(
            self.sim, self.topology,
            SiteAwarePolicy(self.topology, rng), self.config)
        self.namenode.start()
        self.datanodes: Dict[str, Datanode] = {}
        self.disk_capacity = disk_capacity
        for i in range(n_nodes):
            site = f"site{i % n_sites}.edu"
            self.add_datanode(f"node{i:03d}.{site}")

    def add_datanode(self, host: str, read_rate: float = 90e6,
                     write_rate: float = 70e6) -> Datanode:
        disk = Disk(self.sim, host, self.disk_capacity, read_rate, write_rate,
                    channel=self.fabric.channel,
                    partition=self.topology.site_of(host))
        dn = Datanode(self.sim, host, disk, self.fabric, self.namenode, self.config)
        dn.start()
        self.datanodes[host] = dn
        return dn

    def client(self, host: Optional[str] = None) -> HdfsClient:
        return HdfsClient(self.sim, self.namenode, self.fabric,
                          host or "central.unl.edu")

    def hosts(self) -> List[str]:
        return sorted(self.datanodes)

    def run(self, until=None) -> None:
        self.sim.run(until=until)


class MRHarness:
    """A small full-stack cluster: each node runs a datanode + tasktracker
    sharing one local disk (the HOG worker-node shape)."""

    def __init__(self, n_nodes: int = 6, n_sites: int = 3,
                 hdfs_config: Optional[HdfsConfig] = None,
                 mr_config: Optional[MRConfig] = None,
                 map_slots: int = 1, reduce_slots: int = 1,
                 disk_capacity: float = 200e9,
                 fabric_config: Optional[FabricConfig] = None,
                 seed: int = 7) -> None:
        self.sim = Simulator()
        self.topology = NetworkTopology(DnsSiteResolver())
        self.fabric = NetworkFabric(
            self.sim, self.topology,
            fabric_config or FabricConfig(
                nic_bandwidth=100e6, site_uplink_bandwidth=500e6,
                intra_site_latency=0.0005, inter_site_latency=0.04))
        self.hdfs_config = hdfs_config or HdfsConfig()
        self.mr_config = mr_config or MRConfig()
        rng = np.random.default_rng(seed)
        self.namenode = Namenode(self.sim, self.topology,
                                 SiteAwarePolicy(self.topology, rng),
                                 self.hdfs_config)
        self.namenode.start()
        self.jobtracker = JobTracker(self.sim, self.namenode, self.topology,
                                     self.mr_config)
        self.jobtracker.start()
        self.map_slots = map_slots
        self.reduce_slots = reduce_slots
        self.disk_capacity = disk_capacity
        self.datanodes: Dict[str, Datanode] = {}
        self.tasktrackers: Dict[str, TaskTracker] = {}
        self.disks: Dict[str, Disk] = {}
        for i in range(n_nodes):
            site = f"site{i % n_sites}.edu"
            self.add_node(f"node{i:03d}.{site}")

    def add_node(self, host: str, speed: float = 1.0) -> None:
        disk = Disk(self.sim, host, self.disk_capacity,
                    channel=self.fabric.channel,
                    partition=self.topology.site_of(host))
        dn = Datanode(self.sim, host, disk, self.fabric, self.namenode,
                      self.hdfs_config)
        dn.start()
        tt = TaskTracker(self.sim, host, disk, self.fabric, self.namenode,
                         self.jobtracker, self.map_slots, self.reduce_slots,
                         speed, self.mr_config)
        tt.start()
        self.disks[host] = disk
        self.datanodes[host] = dn
        self.tasktrackers[host] = tt

    def preempt_node(self, host: str, zombie: bool = False) -> None:
        """Site preemption: kill (or zombify) both daemons on a node."""
        if zombie:
            self.disks[host].wipe()
            self.datanodes[host].make_zombie()
            self.tasktrackers[host].make_zombie()
        else:
            self.datanodes[host].kill()
            self.tasktrackers[host].kill()

    def client(self, host: Optional[str] = None) -> HdfsClient:
        return HdfsClient(self.sim, self.namenode, self.fabric,
                          host or "central.unl.edu")

    def submit(self, name: str = "job", num_maps: int = 2, num_reduces: int = 1,
               input_file: Optional[str] = None, **spec_kwargs):
        """Preload an input file sized for ``num_maps`` blocks and submit."""
        from repro.hdfs.config import MB
        input_file = input_file or f"/in/{name}"
        if not self.namenode.exists(input_file):
            self.client().preload_file(input_file,
                                       num_maps * self.hdfs_config.block_size)
        spec = JobSpec(name=name, num_maps=num_maps, num_reduces=num_reduces,
                       input_file=input_file, **spec_kwargs)
        return self.jobtracker.submit_job(spec)

    def hosts(self) -> List[str]:
        return sorted(self.tasktrackers)

    def run(self, until=None) -> None:
        self.sim.run(until=until)

    def run_to_completion(self, jobs, timeout: float = 50_000.0) -> None:
        """Advance until all ``jobs`` are finished or ``timeout`` sim-seconds."""
        done = self.jobtracker.when_jobs_done(jobs)
        if self.sim.run_until(done, timeout):
            return
        self.jobtracker.cancel_wait(done)
        raise AssertionError(
            f"jobs not finished by t={timeout}: "
            f"{[(j.job_id, j.status) for j in jobs if j.finish_time is None]}")


class ScanPendingIndex(ClusterPendingIndex):
    """Scheduler oracle: every candidate query answers with all
    schedulable jobs, in FIFO order — a per-heartbeat all-jobs scan.

    The index is still maintained as usual (the decision bodies read its
    per-job locality lists); only the candidate lists change.  They are
    never empty while a job is schedulable, so the empty-index gate never
    trips, and comparing a run under this oracle with a normal run proves
    both the index's candidate selection and the gate exact."""

    def _all_jobs(self, *_):
        return self.jobtracker.schedulable_jobs()

    map_candidates = reduce_candidates = _all_jobs
    jobs_with_local_maps = jobs_with_site_maps = _all_jobs


@contextmanager
def scan_scheduling():
    """Build every scheduler created inside the block on
    :class:`ScanPendingIndex`."""
    original = scheduler_mod.ClusterPendingIndex
    scheduler_mod.ClusterPendingIndex = ScanPendingIndex
    try:
        yield
    finally:
        scheduler_mod.ClusterPendingIndex = original


class NoParkLivenessTable(LivenessTable):
    """Parking oracle: a table that never parks, so every heartbeat is
    dispatched as a real beat — the behaviour before parking existed.
    Comparing a run under this oracle with a normal run proves the park
    predicates, the replay and the wake triggers exact."""

    def park(self, desc, next_beat) -> bool:
        return False


@contextmanager
def no_parking():
    """Build every master created inside the block on
    :class:`NoParkLivenessTable`."""
    saved = (jobtracker_mod.LivenessTable, namenode_mod.LivenessTable)
    jobtracker_mod.LivenessTable = namenode_mod.LivenessTable = \
        NoParkLivenessTable
    try:
        yield
    finally:
        jobtracker_mod.LivenessTable, namenode_mod.LivenessTable = saved
