"""The dedicated Hadoop cluster baseline (Table III).

The paper's performance baseline is a 30-worker, 100-core local cluster
running Hadoop 0.20 with stock settings, configured as **one rack**:

====================  ========  ==========================================
Nodes                 Quantity  Hardware / Hadoop configuration
====================  ========  ==========================================
Master node           1         2 × single-core 2.2 GHz Opteron-248, 8 GB
Slave nodes-I         20        2 × dual-core 2.2 GHz Opteron-275, 4 GB,
                                1 Gbps Ethernet, 4 map + 1 reduce slots
Slave nodes-II        10        2 × single-core 2.2 GHz Opteron-64, 4 GB,
                                1 Gbps Ethernet, 2 map + 1 reduce slots
====================  ========  ==========================================

"configure 1 reduce slot for each worker node because there is only one
Ethernet card in each node ... Also, configure 1 map slot per core."
All cores are 2.2 GHz Opterons, so per-core speed is uniform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..hdfs.client import HdfsClient
from ..hdfs.config import GB, HdfsConfig, stock_hadoop_config
from ..hdfs.datanode import Datanode
from ..hdfs.namenode import Namenode
from ..hdfs.placement import SiteAwarePolicy
from ..mapreduce.config import MRConfig, stock_mr_config
from ..mapreduce.job import Job, JobSpec
from ..mapreduce.jobtracker import JobTracker
from ..mapreduce.tasktracker import TaskTracker
from ..net.fabric import FabricConfig, NetworkFabric
from ..net.topology import DnsSiteResolver, NetworkTopology
from ..sim.engine import Simulator
from ..storage.disk import Disk

__all__ = ["NodeGroup", "DedicatedClusterConfig", "DedicatedCluster",
           "table3_config"]


@dataclass
class NodeGroup:
    """A homogeneous group of worker nodes."""

    count: int
    map_slots: int
    reduce_slots: int
    speed: float = 1.0
    disk_capacity: float = 400 * GB
    disk_read_rate: float = 90e6
    disk_write_rate: float = 70e6

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        if self.count < 0:
            raise ValueError("group count cannot be negative")
        if self.map_slots < 0 or self.reduce_slots < 0:
            raise ValueError("slot counts cannot be negative")
        if self.speed <= 0 or self.disk_capacity <= 0:
            raise ValueError("speed and disk capacity must be positive")


@dataclass
class DedicatedClusterConfig:
    """Configuration of a static, churn-free Hadoop cluster."""

    #: DNS domain; one domain = one site = "configured as one rack".
    domain: str = "cluster.unl.edu"
    master_host: str = "master.cluster.unl.edu"
    groups: List[NodeGroup] = field(default_factory=list)
    hdfs: HdfsConfig = field(default_factory=stock_hadoop_config)
    mr: MRConfig = field(default_factory=stock_mr_config)
    fabric: FabricConfig = field(default_factory=FabricConfig)
    seed: int = 0

    def validate(self) -> None:
        """Validate all sub-configs."""
        if not self.groups:
            raise ValueError("cluster needs at least one node group")
        for g in self.groups:
            g.validate()
        self.hdfs.validate()
        self.mr.validate()
        self.fabric.validate()

    @property
    def total_nodes(self) -> int:
        """Worker-node count."""
        return sum(g.count for g in self.groups)

    @property
    def total_map_slots(self) -> int:
        """Cluster-wide map slots (= cores, per the paper's rule)."""
        return sum(g.count * g.map_slots for g in self.groups)

    @property
    def total_reduce_slots(self) -> int:
        """Cluster-wide reduce slots."""
        return sum(g.count * g.reduce_slots for g in self.groups)


def table3_config(**overrides) -> DedicatedClusterConfig:
    """The exact Table III cluster: 30 workers, 100 map + 30 reduce slots."""
    cfg = DedicatedClusterConfig(
        groups=[
            NodeGroup(count=20, map_slots=4, reduce_slots=1),  # Slave nodes-I
            NodeGroup(count=10, map_slots=2, reduce_slots=1),  # Slave nodes-II
        ])
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


class DedicatedCluster:
    """A static single-rack Hadoop deployment (no grid, no churn)."""

    def __init__(self, sim: Simulator,
                 config: Optional[DedicatedClusterConfig] = None) -> None:
        self.sim = sim
        self.config = config or table3_config()
        self.config.validate()
        self.topology = NetworkTopology(DnsSiteResolver())
        self.fabric = NetworkFabric(sim, self.topology, self.config.fabric)
        self.topology.add_host(self.config.master_host)
        placement = SiteAwarePolicy(
            self.topology, np.random.default_rng(self.config.seed + 1))
        self.namenode = Namenode(sim, self.topology, placement, self.config.hdfs)
        self.namenode.start()
        self.jobtracker = JobTracker(sim, self.namenode, self.topology,
                                     self.config.mr)
        self.jobtracker.start()
        self.disks: Dict[str, Disk] = {}
        self.datanodes: Dict[str, Datanode] = {}
        self.tasktrackers: Dict[str, TaskTracker] = {}
        seq = 0
        for group in self.config.groups:
            for _ in range(group.count):
                seq += 1
                host = f"slave{seq:03d}.{self.config.domain}"
                self._add_node(host, group)

    def _add_node(self, host: str, group: NodeGroup) -> None:
        disk = Disk(self.sim, host, group.disk_capacity,
                    group.disk_read_rate, group.disk_write_rate,
                    channel=self.fabric.channel,
                    partition=self.fabric.topology.site_of(host))
        dn = Datanode(self.sim, host, disk, self.fabric, self.namenode,
                      self.config.hdfs)
        dn.start()
        tt = TaskTracker(self.sim, host, disk, self.fabric, self.namenode,
                         self.jobtracker, group.map_slots, group.reduce_slots,
                         group.speed, self.config.mr)
        tt.start()
        self.disks[host] = disk
        self.datanodes[host] = dn
        self.tasktrackers[host] = tt

    # -- workload interface -----------------------------------------------------
    def client(self) -> HdfsClient:
        """An HDFS client on the master node."""
        return HdfsClient(self.sim, self.namenode, self.fabric,
                          self.config.master_host)

    def preload_input(self, name: str, n_blocks: int) -> None:
        """Instantly place an input file of ``n_blocks`` full blocks."""
        self.client().preload_file(name, n_blocks * self.config.hdfs.block_size)

    def submit(self, spec: JobSpec) -> Job:
        """Submit a MapReduce job."""
        return self.jobtracker.submit_job(spec)

    def run_until_jobs_done(self, jobs: List[Job],
                            timeout: float = 200_000.0) -> float:
        """Advance simulation until every job in ``jobs`` finished.

        Event-driven: returns at the exact finish timestamp of the last
        job."""
        done = self.jobtracker.when_jobs_done(jobs)
        if self.sim.run_until(done, self.sim.now + timeout):
            return self.sim.now
        self.jobtracker.cancel_wait(done)
        unfinished = [(j.job_id, j.status) for j in jobs if j.finish_time is None]
        raise TimeoutError(f"jobs unfinished after {timeout}s: {unfinished}")

    def __repr__(self) -> str:
        return (f"<DedicatedCluster {self.config.total_nodes} nodes, "
                f"{self.config.total_map_slots}m/"
                f"{self.config.total_reduce_slots}r slots>")
