"""HOGSystem: the assembled Hadoop-On-the-Grid deployment.

Mirrors Figure 3's architecture: a stable central server hosting the
Namenode and JobTracker, plus elastic opportunistic worker nodes — each
running a datanode and a tasktracker over one node-local disk — provisioned
through Condor/GlideinWMS onto whitelisted OSG sites.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..grid.condor import CondorSchedd
from ..grid.glidein import GlideinFactory
from ..grid.site import GridSite
from ..hdfs.client import HdfsClient
from ..hdfs.datanode import Datanode
from ..hdfs.namenode import Namenode
from ..hdfs.placement import SiteAwarePolicy
from ..mapreduce.job import Job, JobSpec
from ..mapreduce.jobtracker import JobTracker
from ..mapreduce.tasktracker import TaskTracker
from ..net.fabric import NetworkFabric
from ..net.topology import DnsSiteResolver, FlatResolver, NetworkTopology
from ..obs.registry import Registry
from ..obs.trace import Tracer
from ..sim.engine import Simulator
from ..sim.monitor import StepSeries
from ..storage.disk import Disk
from .config import HOGConfig

__all__ = ["WorkerNode", "HOGSystem", "PARK_KEYS"]

#: The registry's obs-only ``control`` keys (:meth:`HOGSystem.park_stats`).
PARK_KEYS = ("parked_beats", "park_wakes", "park_ties")


class WorkerNode:
    """One opportunistic worker: shared disk + datanode + tasktracker."""

    __slots__ = ("host", "site_name", "disk", "datanode", "tasktracker")

    def __init__(self, host: str, site_name: str, disk: Disk,
                 datanode: Datanode, tasktracker) -> None:
        self.host = host
        self.site_name = site_name
        self.disk = disk
        self.datanode = datanode
        self.tasktracker = tasktracker

    def preempt(self, zombie: bool) -> None:
        """The site evicted us.  ``zombie=True`` models the double-fork
        bug: the working directory is wiped but both daemons keep running
        (§IV-D1).  ``zombie=False`` is the fixed behaviour: daemons die
        with the process tree."""
        if zombie:
            self.disk.wipe()
            self.datanode.make_zombie()
            self.tasktracker.make_zombie()
        else:
            self.datanode.kill()
            self.tasktracker.kill()

    def shutdown(self) -> None:
        """Graceful stop (elastic shrink via ``condor_rm``)."""
        self.datanode.shutdown()
        self.tasktracker.shutdown()

    def pause(self) -> None:
        """Connectivity outage (site blackout without eviction): both
        daemons stop dead — in-flight transfers abort, heartbeats cease,
        the masters declare the node lost — but the disk and its block
        replicas stay intact for :meth:`resume`."""
        self.datanode.kill()
        self.tasktracker.kill()

    def resume(self) -> bool:
        """Outage over: restart the daemons on the surviving disk.  The
        datanode re-registers carrying its full block report (the
        namenode reconciles it); the tasktracker rejoins empty.  Returns
        False when the node cannot come back (disk lost meanwhile)."""
        if not self.disk.alive:
            return False
        if self.datanode.state == Datanode.DEAD:
            self.datanode.start()
        if self.tasktracker.state == TaskTracker.DEAD:
            self.tasktracker.start()
        return True

    def __repr__(self) -> str:
        return f"<WorkerNode {self.host} @{self.site_name}>"


class HOGSystem:
    """The full HOG deployment over a simulator instance.

    Typical use::

        sim = Simulator()
        hog = HOGSystem(sim, HOGConfig())
        hog.start(target_nodes=100)
        hog.run_until_nodes(100)
        hog.preload_input("/in/data", n_blocks=50)
        job = hog.submit(JobSpec(...))
        hog.run_until_jobs_done([job])
    """

    def __init__(self, sim: Simulator, config: Optional[HOGConfig] = None) -> None:
        self.sim = sim
        self.config = config or HOGConfig()
        self.config.validate()
        self.rng = np.random.default_rng(self.config.seed)

        resolver = (DnsSiteResolver() if self.config.site_awareness
                    else FlatResolver("flat-grid"))
        self.topology = NetworkTopology(resolver)
        # Even with site awareness off, the *physical* network still has
        # sites: bandwidth asymmetry is real whether or not Hadoop can see
        # it.  The fabric gets its own DNS-resolved topology.
        self.physical_topology = NetworkTopology(DnsSiteResolver())
        self.fabric = NetworkFabric(sim, self.physical_topology,
                                    self.config.fabric)
        # The central server (stable, hosts master daemons + the package
        # repository) must be in the topologies before anyone talks to it.
        self.topology.add_host(self.config.central_host)
        self.physical_topology.add_host(self.config.central_host)

        placement = SiteAwarePolicy(
            self.topology, np.random.default_rng(self.config.seed + 1))
        self.namenode = Namenode(sim, self.topology, placement, self.config.hdfs)
        self.namenode.start()
        self.jobtracker = JobTracker(sim, self.namenode, self.topology,
                                     self.config.mr)
        self.jobtracker.start()

        self.schedd = CondorSchedd()
        self.sites = [GridSite(sc) for sc in self.config.sites]
        self.factory = GlideinFactory(
            sim, self.schedd, self.sites, self.fabric,
            np.random.default_rng(self.config.seed + 2),
            node_start=self._node_start,
            node_preempt=self._node_preempt,
            node_shutdown=self._node_shutdown,
            wrapper=self.config.wrapper,
            negotiation_interval=self.config.negotiation_interval)

        self.nodes: Dict[str, WorkerNode] = {}
        #: Actual running worker nodes over time.
        self.node_series = StepSeries("running_nodes", initial=0, t0=sim.now)
        #: Node count as the masters believe it (what Figure 5 plots:
        #: "the reported number of nodes ... fluctuated above 55
        #: momentarily as nodes left but were not reported dead for their
        #: heartbeat timeout").
        self.believed_series = StepSeries("believed_nodes", initial=0, t0=sim.now)
        self.factory.node_count_listeners.append(
            lambda n: self.node_series.record(self.sim.now, n))
        # Change-driven believed recorder: every live-tracker-count change
        # lands in the series at its exact timestamp, instead of being
        # sampled on a 5 s polling grid.
        self.jobtracker.tracker_count_listeners.append(
            lambda n: self.believed_series.record(self.sim.now, n))
        #: The unified metrics registry over every subsystem counter;
        #: consumers call ``hog.registry.snapshot()`` instead of plucking
        #: fields off live objects.
        self.registry = self._build_registry()
        self.tracer: Optional[Tracer] = None

    def _build_registry(self) -> Registry:
        """Bind every scattered counter and gauge into one registry.

        Bindings are *reads over live objects*: hot paths keep their plain
        attribute increments, and the registry only aggregates at snapshot
        time — so absorbing a counter here costs its owner nothing.
        """
        reg = Registry()
        channel = self.fabric.channel
        reg.bind_attrs("channel", channel, (
            "rebalances", "uniform_groups", "uniform_completions",
            "uniform_joins", "uniform_pins",
            "cross_partition_passes", "arrival_fast_paths",
            "departure_fast_paths", "completion_fast_paths",
            "timer_reaims", "starvation_rescues", "peak_demands",
            "region_expansions", "pass_size_hist"))
        reg.bind_attrs("channel", self.fabric, ("peak_flows",))
        reg.bind_snapshot("control", self.control_plane_stats)
        # Obs-only: ScenarioResult.payload() drops these keys.
        reg.bind_snapshot("control", self.park_stats)
        reg.bind_counterset("grid", self.factory.counters, prefix="glideins")
        reg.bind_counterset("grid", self.factory.counters, prefix="preemption")
        # The full namenode bag: recovery health (blocks_all_replicas_lost,
        # replication_retries_deferred, replicas_trashed...) must surface
        # in result records so the run-diff gate can flag fault metrics
        # appearing in scenarios that should never lose data.
        reg.bind_counterset("hdfs", self.namenode.counters)
        # Read-only gauges for the sim-time sampler (ProbeSet): every
        # reader below is a pure O(small) state read with no side effects.
        reg.gauge("running_nodes", self.factory.running_count)
        reg.gauge("believed_nodes", self.jobtracker.live_tracker_count)
        reg.gauge("active_flows", lambda: self.fabric.active_flows)
        reg.gauge("active_demands", lambda: channel.active_demands)
        reg.gauge("pending_maps", lambda: sum(
            len(j.pending_map_tasks) for j in self.jobtracker.active_jobs()))
        reg.gauge("pending_reduces", lambda: sum(
            len(j.pending_reduce_tasks) for j in self.jobtracker.active_jobs()))
        reg.gauge("under_replicated", self.namenode.under_replicated_count)
        reg.gauge("repl_heap_depth", lambda: len(self.namenode._repl_heap))
        reg.gauge("event_heap_depth", lambda: len(self.sim._heap))
        reg.gauge("lost_blocks", self.namenode.lost_block_count)
        reg.gauge("deferred_replications",
                  self.namenode.deferred_replication_count)
        reg.gauge("invalidation_backlog",
                  self.namenode.pending_invalidation_count)
        return reg

    def attach_tracer(self, tracer: Optional[Tracer]) -> None:
        """Install (or remove, with ``None``) the causal tracer.

        One call wires every emission site: the jobtracker (job/attempt
        spans, heartbeat rounds), the namenode (datanodes read it for
        HDFS flow spans), the glidein factory (preemption bursts), and
        the channel core (filling passes).  Nodes provisioned later pick
        it up through their master daemons, so attaching before or after
        :meth:`start` both work.
        """
        self.tracer = tracer
        self.jobtracker.tracer = tracer
        self.namenode.tracer = tracer
        self.factory.tracer = tracer
        self.fabric.channel.tracer = tracer

    # -- node lifecycle hooks (called by the glidein factory) -----------------------
    def _node_start(self, host: str, site: GridSite) -> WorkerNode:
        node_cfg = self.config.site_nodes.get(site.name, self.config.node)
        speed = float(self.rng.uniform(node_cfg.speed_min, node_cfg.speed_max))
        # The disk drains through the fabric's shared channel so shuffle
        # serves, HDFS reads, and replication streams are jointly
        # constrained by disk and network bandwidth.
        disk = Disk(self.sim, host, node_cfg.disk_capacity,
                    node_cfg.disk_read_rate, node_cfg.disk_write_rate,
                    channel=self.fabric.channel,
                    partition=self.fabric.topology.site_of(host))
        dn = Datanode(self.sim, host, disk, self.fabric, self.namenode,
                      self.config.hdfs)
        dn.start()
        tt = TaskTracker(self.sim, host, disk, self.fabric,
                         self.namenode, self.jobtracker,
                         node_cfg.map_slots, node_cfg.reduce_slots,
                         speed, self.config.mr)
        tt.start()
        node = WorkerNode(host, site.name, disk, dn, tt)
        self.nodes[host] = node
        return node

    def _node_preempt(self, node: WorkerNode, zombie: bool) -> None:
        node.preempt(zombie)

    def _node_shutdown(self, node: WorkerNode) -> None:
        node.shutdown()

    # -- control ---------------------------------------------------------------------
    def start(self, target_nodes: int) -> None:
        """Request ``target_nodes`` glideins and start all monitors."""
        self.factory.start()
        self.factory.set_target(target_nodes)

    def set_target(self, n: int) -> None:
        """Elastically grow or shrink the node request (§IV-C)."""
        self.factory.set_target(n)

    # -- run helpers ---------------------------------------------------------------------
    def run_until_nodes(self, n: int, timeout: float = 36_000.0) -> float:
        """Advance simulation until ``n`` workers are running (the paper
        waits for the target before starting the workload, §IV-A).
        Returns the exact time the count is reached; raises on timeout.

        Event-driven: the engine jumps straight from real event to real
        event instead of advancing on a fixed polling grid."""
        if self.factory.running_count() >= n:
            return self.sim.now
        reached = self.factory.when_running(n)
        if self.sim.run_until(reached, self.sim.now + timeout):
            return self.sim.now
        self.factory.cancel_wait(reached)
        raise TimeoutError(
            f"only {self.factory.running_count()}/{n} nodes after {timeout}s")

    def run_until_jobs_done(self, jobs: List[Job],
                            timeout: float = 200_000.0) -> float:
        """Advance simulation until every job in ``jobs`` finished.

        Returns the exact finish timestamp of the last job (not rounded up
        to a polling step)."""
        done = self.jobtracker.when_jobs_done(jobs)
        if self.sim.run_until(done, self.sim.now + timeout):
            return self.sim.now
        self.jobtracker.cancel_wait(done)
        unfinished = [(j.job_id, j.status) for j in jobs if j.finish_time is None]
        raise TimeoutError(f"jobs unfinished after {timeout}s: {unfinished}")

    # -- workload interface ---------------------------------------------------------------
    def client(self) -> HdfsClient:
        """An HDFS client running on the central server."""
        return HdfsClient(self.sim, self.namenode, self.fabric,
                          self.config.central_host)

    def preload_input(self, name: str, n_blocks: int) -> None:
        """Instantly place an input file of ``n_blocks`` full blocks
        (models the pre-measurement data upload of §IV-A)."""
        self.client().preload_file(
            name, n_blocks * self.config.hdfs.block_size)

    def submit(self, spec: JobSpec) -> Job:
        """Submit a MapReduce job."""
        return self.jobtracker.submit_job(spec)

    def running_nodes(self) -> int:
        """Actual running worker count."""
        return self.factory.running_count()

    def control_plane_stats(self) -> Dict[str, int]:
        """Counters for the delta-driven control plane: how much work the
        heartbeat/index/metadata paths actually did (the scale story is
        these growing ~linearly with events, not with nodes × jobs)."""
        jt = self.jobtracker
        nn = self.namenode
        index = getattr(jt.scheduler, "index", None)
        self.resolve_heartbeats()
        return {
            "heartbeats": jt.heartbeats,
            "heartbeat_rounds": jt.heartbeat_rounds,
            "sched_index_updates": index.updates if index is not None else 0,
            "nn_block_reports": nn.counters.get("block_reports"),
            "nn_block_report_blocks": nn.counters.get("block_report_blocks"),
            "nn_replications_started": nn.counters.get("replications_started"),
        }

    def resolve_heartbeats(self) -> None:
        """Replay every parked daemon's skipped beats up to now, so the
        heartbeat counters are exact (:mod:`repro.sim.liveness`)."""
        now = self.sim.now
        self.jobtracker.liveness.resolve_all(now)
        self.namenode.liveness.resolve_all(now)

    def park_stats(self) -> Dict[str, int]:
        """Heartbeat parking, both masters: beats replayed instead of
        dispatched, parked daemons woken, ambiguous ties (must be 0).
        Obs-only — kept out of the result payload."""
        self.resolve_heartbeats()
        tables = (self.jobtracker.liveness, self.namenode.liveness)
        return {"parked_beats": sum(t.replayed for t in tables),
                "park_wakes": sum(t.wakes for t in tables),
                "park_ties": self.sim.hb_clock.ties}

    def preempt_host(self, host: str, zombie: bool = False) -> None:
        """Force a site preemption of the glidein running at ``host``.

        Goes through the glidein lifecycle (capacity released, factory
        notified, replacement requested next cycle), exactly like a
        spontaneous preemption.  ``zombie`` forces the double-fork zombie
        outcome regardless of the wrapper's ``zombie_fix`` setting."""
        glidein = self.factory.find_by_hostname(host)
        if glidein is None:
            raise KeyError(f"no running glidein at {host}")
        glidein.preempt(zombie=zombie)

    def __repr__(self) -> str:
        return (f"<HOGSystem nodes={self.factory.running_count()}"
                f"/{self.factory.target} sites={len(self.sites)}>")
