"""Shared experiment machinery: run the Facebook workload on a system.

Both runners follow the §IV-A protocol:

1. stand the system up (for HOG: request N nodes and *wait* until they
   have all joined — "we first configure a given number of nodes that HOG
   will achieve and wait until HOG reaches this number"),
2. upload the input data,
3. replay the 88-job exponential submission schedule,
4. measure the workload response time (first submission → last completion),
   and for HOG the area beneath the node-count curve (Table IV).

The HOG side is a thin consumer of the scenario subsystem: a
:class:`HogRunSettings` is translated into an ad-hoc
:class:`~repro.scenarios.spec.ScenarioSpec` and executed by the unified
:class:`~repro.scenarios.runner.ScenarioRunner` — the setup, phase, and
measurement code lives there, once, shared with every registry scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..baselines.dedicated import DedicatedClusterConfig, DedicatedCluster, table3_config
from ..core.config import NodeConfig
from ..grid.glidein import WrapperConfig
from ..grid.site import SitePolicy
from ..hdfs.config import HdfsConfig
from ..mapreduce.config import MRConfig
from ..metrics.report import WorkloadResult
from ..net.fabric import FabricConfig
from ..scenarios import calibration
from ..scenarios.runner import ScenarioRunner, collect_result, drive_workload
from ..scenarios.spec import ClusterSpec, FaultSpec, ScenarioSpec, WorkloadSpec
from ..sim.engine import Simulator
from ..sim.rng import RandomStream
from ..workload.schedule import LoadgenParams, build_facebook_schedule

__all__ = ["HogRunSettings", "run_facebook_on_hog", "run_facebook_on_cluster",
           "settings_to_spec"]


@dataclass
class HogRunSettings:
    """Everything that varies between HOG experiment runs."""

    n_nodes: int = 55
    seed: int = 0
    policy: SitePolicy = field(default_factory=calibration.default_grid_policy)
    loadgen: LoadgenParams = field(default_factory=calibration.default_loadgen)
    #: Workload scale in (0, 1]: fraction of Table II's per-bin job counts.
    scale: float = 1.0
    hdfs: Optional[HdfsConfig] = None
    mr: Optional[MRConfig] = None
    wrapper: Optional[WrapperConfig] = None
    fabric: Optional["FabricConfig"] = None
    node: Optional[NodeConfig] = None
    site_awareness: bool = True
    n_sites: int = 5
    #: Fraction of ``n_nodes`` that must be *simultaneously* running before
    #: the workload starts.  1.0 reproduces the paper's strict §IV-A
    #: protocol; under churn the running count hovers just below the target
    #: (replacements are always in flight re-downloading the worker
    #: package), so large-scale sweeps use e.g. 0.98 to avoid waiting
    #: simulated hours for a churn lull.
    ramp_fraction: float = 1.0
    #: Cap on simulated seconds for safety.
    timeout: float = 400_000.0


def settings_to_spec(settings: HogRunSettings,
                     name: str = "adhoc") -> ScenarioSpec:
    """Translate experiment settings into an (unregistered) scenario spec."""
    return ScenarioSpec(
        name=name,
        cluster=ClusterSpec(
            n_nodes=settings.n_nodes,
            n_sites=settings.n_sites,
            site_awareness=settings.site_awareness,
            ramp_fraction=settings.ramp_fraction,
            node=settings.node,
            fabric=settings.fabric,
            hdfs=settings.hdfs,
            mr=settings.mr,
            wrapper=settings.wrapper,
        ),
        workload=WorkloadSpec(loadgen=settings.loadgen, scale=settings.scale),
        faults=FaultSpec(policy=settings.policy),
        scheduler=(settings.mr.scheduler if settings.mr is not None
                   else "fifo"),
        seed=settings.seed,
        timeout=settings.timeout,
    )


def run_facebook_on_hog(settings: HogRunSettings,
                        return_system: bool = False):
    """Run the Table II workload on a HOG deployment.

    Returns a :class:`WorkloadResult` (and optionally the live
    :class:`~repro.core.hog.HOGSystem` for inspection)."""
    runner = ScenarioRunner(settings_to_spec(settings))
    runner.run()
    if return_system:
        return runner.workload, runner.system
    return runner.workload


def run_facebook_on_cluster(seed: int = 0, scale: float = 1.0,
                            loadgen: Optional[LoadgenParams] = None,
                            cluster_config: Optional[DedicatedClusterConfig] = None,
                            timeout: float = 400_000.0,
                            return_system: bool = False):
    """Run the Table II workload on the Table III dedicated cluster."""
    sim = Simulator()
    cfg = cluster_config or table3_config(fabric=calibration.cluster_fabric())
    cluster = DedicatedCluster(sim, cfg)
    sim.run(until=10.0)  # let daemons register
    schedule = build_facebook_schedule(
        RandomStream(seed + 77), loadgen or calibration.default_loadgen(),
        scale=scale)
    for input_file, n_blocks in schedule.inputs.items():
        cluster.preload_input(input_file, n_blocks)

    jobs: list = []
    start = sim.now
    drive_workload(sim, cluster, schedule, jobs, timeout)
    end = sim.now
    result = collect_result(
        f"Cluster({cfg.total_map_slots} cores)", cfg.total_nodes, jobs,
        start, end, None, cluster.jobtracker)
    if return_system:
        return result, cluster
    return result
