"""Hadoop On Demand (HOD): the related-work baseline of §V.

"HOD will create a temporary Hadoop platform on the nodes obtained from
the Grid Scheduler and shut down Hadoop after the MapReduce job finishes.
For frequent MapReduce requests, HOD has high reconstruction overhead,
fixed node number, and a randomly chosen head node.  Compared to HOD, HOG
does not have reconstruction time, has a scalable size, and has a static
dedicated head node."

Each HOD request pays, per job:

1. node acquisition from the grid scheduler (queue + launch),
2. Hadoop cluster construction (HDFS format + daemon startup),
3. input staging into the fresh HDFS (timed through a simulated cluster),
4. the job itself,
5. teardown (not part of response time).

We simulate each request on its own fresh cluster — which is exactly
HOD's semantics: nothing is shared between requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..hdfs.config import GB, stock_hadoop_config
from ..mapreduce.config import stock_mr_config
from ..mapreduce.job import JobSpec
from ..sim.engine import Simulator
from ..sim.rng import RandomStream
from .dedicated import DedicatedCluster, DedicatedClusterConfig, NodeGroup

__all__ = ["HODConfig", "HODJobResult", "HODRunner"]


@dataclass
class HODConfig:
    """Cost model of one HOD allocation."""

    #: Nodes acquired per request (HOD's node count is fixed per request).
    nodes_per_request: int = 30
    #: Mean grid-scheduler queueing delay per allocation, seconds.
    allocation_delay_mean: float = 60.0
    #: HDFS format + daemon startup time for the temporary cluster.
    construction_time: float = 90.0
    #: Uncounted teardown time (for completeness in logs).
    teardown_time: float = 30.0
    map_slots_per_node: int = 2
    reduce_slots_per_node: int = 1

    def validate(self) -> None:
        """Raise ``ValueError`` on non-physical settings."""
        if self.nodes_per_request < 1:
            raise ValueError("HOD needs at least one node per request")
        if min(self.allocation_delay_mean, self.construction_time,
               self.teardown_time) < 0:
            raise ValueError("times cannot be negative")


@dataclass
class HODJobResult:
    """Outcome of one HOD request."""

    job_name: str
    allocation_time: float
    construction_time: float
    staging_time: float
    job_time: float

    @property
    def response_time(self) -> float:
        """User-visible latency: everything before the answer."""
        return (self.allocation_time + self.construction_time
                + self.staging_time + self.job_time)

    @property
    def overhead_fraction(self) -> float:
        """Share of response time that is reconstruction overhead."""
        return 1.0 - self.job_time / self.response_time if self.response_time else 0.0


class HODRunner:
    """Executes job specs the HOD way: one disposable cluster per job."""

    def __init__(self, config: Optional[HODConfig] = None, seed: int = 0) -> None:
        self.config = config or HODConfig()
        self.config.validate()
        self.rng = RandomStream(seed)

    def _fresh_cluster(self, sim: Simulator) -> DedicatedCluster:
        cfg = DedicatedClusterConfig(
            domain="hod.unl.edu",
            master_host="head.hod.unl.edu",
            groups=[NodeGroup(count=self.config.nodes_per_request,
                              map_slots=self.config.map_slots_per_node,
                              reduce_slots=self.config.reduce_slots_per_node)],
            hdfs=stock_hadoop_config(),
            mr=stock_mr_config(),
        )
        return DedicatedCluster(sim, cfg)

    def run_job(self, spec: JobSpec) -> HODJobResult:
        """Run one request end to end on a disposable cluster."""
        allocation = float(self.rng.exponential(self.config.allocation_delay_mean))

        sim = Simulator()
        cluster = self._fresh_cluster(sim)
        # Stage the input into the fresh HDFS with real (timed) writes —
        # this is work HOG does once, but HOD repeats per request.
        t0 = sim.now
        ev = cluster.client().write_file(
            spec.input_file, spec.num_maps * cluster.config.hdfs.block_size)
        sim.run(until=ev)
        staging = sim.now - t0

        t1 = sim.now
        job = cluster.submit(spec)
        cluster.run_until_jobs_done([job])
        job_time = sim.now - t1

        return HODJobResult(
            job_name=spec.name,
            allocation_time=allocation,
            construction_time=self.config.construction_time,
            staging_time=staging,
            job_time=job_time,
        )

    def run_schedule(self, specs: List[JobSpec]) -> List[HODJobResult]:
        """Run a list of requests (independent clusters, as HOD would)."""
        return [self.run_job(s) for s in specs]
