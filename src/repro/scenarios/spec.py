"""Declarative scenario specifications.

A :class:`ScenarioSpec` is everything needed to stand up a HOG deployment
and measure one workload on it, as *data*: cluster shape (node counts,
per-site hardware tiers, per-site WAN uplink caps), workload (Facebook
loadgen parameters or an explicit pinned
:class:`~repro.workload.schedule.SubmissionSchedule`), fault model
(stochastic :class:`~repro.grid.site.SitePolicy` and/or a pinned
:class:`~repro.faults.plan.FaultPlan`), scheduler choice, and
optional scenario phases (elastic growth, a concurrent HDFS balancer run).

Specs round-trip through plain dicts / JSON (:meth:`ScenarioSpec.to_dict`
/ :meth:`ScenarioSpec.from_dict`), so scenarios can be catalogued,
diffed, and replayed byte-for-byte.  ``None`` fields mean "use the
calibrated default" — resolved by the
:class:`~repro.scenarios.runner.ScenarioRunner`, never baked into the
spec, so the calibration can evolve without invalidating saved specs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
import json
from typing import Dict, List, Optional

from ..core.config import NodeConfig
from ..faults.plan import FaultPlan
from ..grid.glidein import WrapperConfig
from ..grid.site import SitePolicy
from ..hdfs.config import HdfsConfig
from ..mapreduce.config import MRConfig
from ..mapreduce.job import JobSpec
from ..net.fabric import FabricConfig
from ..workload.facebook import MEAN_INTERARRIVAL
from ..workload.schedule import (
    LoadgenParams,
    ScheduledJob,
    SubmissionSchedule,
)

__all__ = ["ClusterSpec", "WorkloadSpec", "FaultSpec", "ObsSpec",
           "ScenarioSpec"]


def _opt_dict(obj) -> Optional[dict]:
    return None if obj is None else asdict(obj)


def _opt_load(cls, d: Optional[dict]):
    return None if d is None else cls(**d)


def _schedule_to_dict(s: Optional[SubmissionSchedule]) -> Optional[dict]:
    if s is None:
        return None
    return {
        "inputs": dict(s.inputs),
        "jobs": [{"submit_time": j.submit_time, "bin_id": j.bin_id,
                  "spec": asdict(j.spec)} for j in s.jobs],
    }


def _schedule_from_dict(d: Optional[dict]) -> Optional[SubmissionSchedule]:
    if d is None:
        return None
    jobs = [ScheduledJob(jd["submit_time"], JobSpec(**jd["spec"]),
                         jd["bin_id"]) for jd in d["jobs"]]
    return SubmissionSchedule(jobs, dict(d["inputs"]))


@dataclass
class ClusterSpec:
    """Cluster shape: how many workers, on what hardware, behind what WAN.

    ``None`` config fields fall back to the calibrated grid defaults
    (:mod:`repro.scenarios.calibration`) at run time.
    """

    #: Worker-node target the workload waits for before starting (§IV-A).
    n_nodes: int = 55
    #: Grid sites the deployment spans (≤ 5, the paper's whitelist).
    n_sites: int = 5
    site_awareness: bool = True
    #: Fraction of ``n_nodes`` that must be simultaneously running before
    #: the workload starts (1.0 = the paper's strict protocol; large
    #: churny sweeps use e.g. 0.98).
    ramp_fraction: float = 1.0
    #: Site over-provisioning factor (slack for churn replacement).
    capacity_headroom: float = 1.3
    #: Baseline worker hardware; ``None`` = calibrated grid node.
    node: Optional[NodeConfig] = None
    #: Per-site hardware tiers keyed by grid site *name* (e.g.
    #: ``"UCSDT2"``) — the SSD/HDD heterogeneous-mix knob.
    site_tiers: Dict[str, NodeConfig] = field(default_factory=dict)
    #: Per-site WAN bandwidth caps, bytes/s, keyed by site *domain* (the
    #: topology site name, e.g. ``"fnal.gov"``) — merged into the fabric's
    #: ``site_uplink_overrides``.
    uplink_caps: Dict[str, float] = field(default_factory=dict)
    fabric: Optional[FabricConfig] = None
    hdfs: Optional[HdfsConfig] = None
    mr: Optional[MRConfig] = None
    wrapper: Optional[WrapperConfig] = None

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if not (0.0 < self.ramp_fraction <= 1.0):
            raise ValueError("ramp_fraction must be in (0, 1]")
        if self.capacity_headroom < 1.0:
            raise ValueError("capacity_headroom must be >= 1")
        if any(v <= 0 for v in self.uplink_caps.values()):
            raise ValueError("uplink caps must be positive")
        for node in self.site_tiers.values():
            node.validate()
        for cfg in (self.hdfs, self.mr):
            if cfg is not None:
                cfg.validate()

    def to_dict(self) -> dict:
        d = asdict(self)
        d["node"] = _opt_dict(self.node)
        d["site_tiers"] = {k: asdict(v) for k, v in self.site_tiers.items()}
        d["fabric"] = _opt_dict(self.fabric)
        d["hdfs"] = _opt_dict(self.hdfs)
        d["mr"] = _opt_dict(self.mr)
        d["wrapper"] = _opt_dict(self.wrapper)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ClusterSpec":
        d = dict(d)
        d["node"] = _opt_load(NodeConfig, d.get("node"))
        d["site_tiers"] = {k: NodeConfig(**v)
                           for k, v in (d.get("site_tiers") or {}).items()}
        d["fabric"] = _opt_load(FabricConfig, d.get("fabric"))
        d["hdfs"] = _opt_load(HdfsConfig, d.get("hdfs"))
        d["mr"] = _opt_load(MRConfig, d.get("mr"))
        d["wrapper"] = _opt_load(WrapperConfig, d.get("wrapper"))
        return cls(**d)


@dataclass
class WorkloadSpec:
    """What runs on the cluster: generated Facebook mix or a pinned
    schedule."""

    #: Loadgen cost model; ``None`` = the calibrated Table II model.
    loadgen: Optional[LoadgenParams] = None
    #: Fraction of Table II's per-bin job counts, in (0, 1].
    scale: float = 1.0
    #: Mean of the exponential submission gaps (paper: 14 s).
    mean_interarrival: float = MEAN_INTERARRIVAL
    #: Explicit submission schedule.  When set it is replayed verbatim and
    #: ``loadgen``/``scale``/``mean_interarrival`` are ignored.
    schedule: Optional[SubmissionSchedule] = None

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        if not (0.0 < self.scale <= 1.0):
            raise ValueError("scale must be in (0, 1]")
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        if self.loadgen is not None:
            self.loadgen.validate()

    def to_dict(self) -> dict:
        return {
            "loadgen": _opt_dict(self.loadgen),
            "scale": self.scale,
            "mean_interarrival": self.mean_interarrival,
            "schedule": _schedule_to_dict(self.schedule),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WorkloadSpec":
        d = dict(d)
        d["loadgen"] = _opt_load(LoadgenParams, d.get("loadgen"))
        d["schedule"] = _schedule_from_dict(d.get("schedule"))
        return cls(**d)


@dataclass
class FaultSpec:
    """How the grid misbehaves.

    ``policy`` drives stochastic preemption; ``plan`` pins typed fault
    events to times and sites (site blackouts, WAN degradation/partitions,
    preemption waves, disk failures, stragglers — see
    :mod:`repro.faults.plan`), replayed from the instant the cluster
    finishes ramping.  When a plan is given and no policy, the runner
    uses a churn-free policy so the pinned events are the *only* fault
    source.
    """

    policy: Optional[SitePolicy] = None
    plan: Optional[FaultPlan] = None

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        if self.policy is not None:
            self.policy.validate()
        if self.plan is not None:
            for ev in self.plan.events:
                ev.validate()

    def to_dict(self) -> dict:
        return {"policy": _opt_dict(self.policy),
                "plan": None if self.plan is None else self.plan.to_list()}

    @classmethod
    def from_dict(cls, d: dict) -> "FaultSpec":
        unknown = [k for k in d if k not in ("policy", "plan")]
        if "trace" in unknown:
            raise ValueError(
                "FaultSpec has no 'trace' field: pin preemptions as "
                "node_wave events in 'plan' (repro.faults.plan)")
        if unknown:
            raise ValueError(f"unknown FaultSpec keys {unknown}")
        plan = d.get("plan")
        return cls(policy=_opt_load(SitePolicy, d.get("policy")),
                   plan=None if plan is None else FaultPlan.from_list(plan))


@dataclass
class ObsSpec:
    """Telemetry knobs for one run (all off by default).

    The hard contract (``tests/test_obs.py``): none of these settings may
    change a simulation outcome — the determinism payload is byte-identical
    with everything off, everything on, and any ``sample_interval``.
    """

    #: Sim-time gauge sampling cadence in seconds; ``None`` disables the
    #: probes (no timer events are ever created).
    sample_interval: Optional[float] = None
    #: Enable the causal tracer (job/attempt/shuffle/HDFS spans + marks).
    trace: bool = False
    #: Tracer category allow-list; ``None`` records every category.
    #: High-volume categories (``channel``) are worth opting into
    #: explicitly on large runs.
    trace_categories: Optional[List[str]] = None
    #: Tracer ring-buffer bound (newest records kept).
    trace_capacity: int = 100_000
    #: Attach an :class:`~repro.sim.events.EngineProfile` to the engine.
    profile_engine: bool = False
    #: Cap on points per emitted gauge timeline (downsampled above this).
    timeline_max_points: int = 512
    #: Run the :class:`~repro.faults.invariants.InvariantChecker` at phase
    #: boundaries (and on a cadence, if ``invariant_interval`` is set).
    check_invariants: bool = False
    #: Invariant-check cadence in sim-seconds; ``None`` = phase
    #: boundaries only.  Implies ``check_invariants``-style zero cost when
    #: the checker is off: no timer events are ever created.
    invariant_interval: Optional[float] = None

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        if self.sample_interval is not None and self.sample_interval <= 0:
            raise ValueError("sample_interval must be positive or None")
        if self.trace_capacity < 1:
            raise ValueError("trace_capacity must be >= 1")
        if self.timeline_max_points < 2:
            raise ValueError("timeline_max_points must be >= 2")
        if self.invariant_interval is not None \
                and self.invariant_interval <= 0:
            raise ValueError("invariant_interval must be positive or None")

    @property
    def enabled(self) -> bool:
        """True when any telemetry feature is switched on."""
        return (self.sample_interval is not None or self.trace
                or self.profile_engine or self.check_invariants)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Optional[dict]) -> "ObsSpec":
        return cls(**d) if d else cls()


@dataclass
class ScenarioSpec:
    """One complete, runnable, serializable scenario."""

    name: str
    description: str = ""
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    faults: FaultSpec = field(default_factory=FaultSpec)
    #: Telemetry configuration; the all-defaults instance means "off".
    obs: ObsSpec = field(default_factory=ObsSpec)
    #: Task scheduler: ``fifo`` (the paper), ``delay``, or ``matchmaking``.
    scheduler: str = "fifo"
    seed: int = 0
    #: Cap on simulated seconds per phase, for safety.
    timeout: float = 400_000.0
    #: Elastic-growth phase: after the input preload, raise the node
    #: target to this and wait for it (§IV-C) before the workload starts.
    grow_to: Optional[int] = None
    #: Run the HDFS balancer concurrently with the workload (the
    #: rebalance-under-load scenario; §IV-C pairs it with elastic growth).
    balance_during_run: bool = False
    balancer_threshold: float = 0.10

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        if not self.name:
            raise ValueError("a scenario needs a name")
        if self.scheduler not in ("fifo", "delay", "matchmaking"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.grow_to is not None and self.grow_to < self.cluster.n_nodes:
            raise ValueError("grow_to must be >= the initial node target")
        if not (0.0 < self.balancer_threshold < 1.0):
            raise ValueError("balancer_threshold must be in (0, 1)")
        self.cluster.validate()
        self.workload.validate()
        self.faults.validate()
        self.obs.validate()

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form (JSON-safe)."""
        return {
            "name": self.name,
            "description": self.description,
            "cluster": self.cluster.to_dict(),
            "workload": self.workload.to_dict(),
            "faults": self.faults.to_dict(),
            "obs": self.obs.to_dict(),
            "scheduler": self.scheduler,
            "seed": self.seed,
            "timeout": self.timeout,
            "grow_to": self.grow_to,
            "balance_during_run": self.balance_during_run,
            "balancer_threshold": self.balancer_threshold,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`."""
        d = dict(d)
        d["cluster"] = ClusterSpec.from_dict(d.get("cluster") or {})
        d["workload"] = WorkloadSpec.from_dict(d.get("workload") or {})
        d["faults"] = FaultSpec.from_dict(d.get("faults") or {})
        # Tolerate specs saved before the obs section existed.
        d["obs"] = ObsSpec.from_dict(d.pop("obs", None))
        return cls(**d)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize to JSON."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a spec serialized by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))
