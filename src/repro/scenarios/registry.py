"""The scenario registry: named, composable, parameterizable scenarios.

Every entry is a *builder* ``(n_nodes=None, scale=None, seed=0) →
ScenarioSpec``; ``None`` arguments take the scenario's preferred default,
so the same name runs at paper scale from the CLI and at a few dozen
nodes from the fast test tier.  Consumers may further tweak the returned
spec (it is plain data) — fig5, for instance, swaps the fault policy.

Built-ins
---------
``baseline``
    The paper's Figure 4 configuration: Table II workload, calibrated
    grid hardware, typical opportunistic churn.
``contended``
    Shuffle-heavy (2× intermediate data) on half-speed disks: shuffle
    serves and replication become genuinely *disk*-bound, exercising the
    channel core's joint disk+network demands.
``wan_staging``
    Every site uplink throttled hard while elevated churn keeps
    replacement glideins re-downloading the worker package — package
    staging, cross-site shuffle, and re-replication all share the same
    starved WAN legs.
``hetero_tiers``
    SSD/HDD site mix: two SSD sites, two stock-disk sites, one slow-HDD
    site, exercising placement and scheduling over per-site disk tiers.
``rebalance_under_load``
    Preload on a small cluster, grow it elastically (§IV-C), then run the
    HDFS balancer *concurrently* with the job stream — block migrations
    are rated jointly against live shuffle traffic at both endpoints.
``churn_heavy``
    Pinned diurnal preemption waves (``node_wave`` fault-plan events)
    sweeping site after site, on top of mild background churn.
``blackout``
    A full-site connectivity blackout mid-workload that heals before the
    run ends: the namenode re-replicates around the dark site, then the
    returning datanodes re-register with intact disks and the block map
    reconciles back to steady state (the long-horizon recovery scenario).
``flaky_wan``
    Degraded and partitioned WAN windows plus straggler nodes: uplinks
    run at a fraction of capacity, one site drops off the WAN entirely
    for a stretch, slow nodes drag the tail.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional

from ..core.config import NodeConfig
from ..faults.plan import FaultEvent, FaultPlan
from ..grid.site import PAPER_SITE_DOMAINS, PAPER_SITE_NAMES, SitePolicy
from ..hdfs.config import GB
from . import calibration
from .spec import ClusterSpec, FaultSpec, ObsSpec, ScenarioSpec, WorkloadSpec

__all__ = ["register", "names", "describe", "build", "ScenarioBuilder"]

ScenarioBuilder = Callable[..., ScenarioSpec]

_REGISTRY: Dict[str, ScenarioBuilder] = {}


def register(name: str) -> Callable[[ScenarioBuilder], ScenarioBuilder]:
    """Decorator: add a builder to the registry under ``name``."""
    def deco(fn: ScenarioBuilder) -> ScenarioBuilder:
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} already registered")
        _REGISTRY[name] = fn
        return fn
    return deco


def names() -> List[str]:
    """Registered scenario names, in registration order."""
    return list(_REGISTRY)


def describe() -> Dict[str, str]:
    """``name → one-line description`` for every registered scenario."""
    return {name: builder.__doc__.strip().splitlines()[0]
            for name, builder in _REGISTRY.items()}


def build(name: str, n_nodes: Optional[int] = None,
          scale: Optional[float] = None, seed: int = 0) -> ScenarioSpec:
    """Build a registered scenario's spec.

    ``n_nodes``/``scale`` override the scenario's preferred defaults;
    further tweaks go directly on the returned (plain-data) spec.
    """
    builder = _REGISTRY.get(name)
    if builder is None:
        raise KeyError(f"unknown scenario {name!r}; "
                       f"registered: {', '.join(_REGISTRY)}")
    return builder(n_nodes=n_nodes, scale=scale, seed=seed)


def _slow_disk_node() -> NodeConfig:
    """Half-speed spinning disks on otherwise calibrated grid hardware."""
    return replace(calibration.grid_node_config(),
                   disk_read_rate=45e6, disk_write_rate=35e6)


def _ssd_node() -> NodeConfig:
    """A 2012-era SATA SSD tier: ~4× the stock disk bandwidth."""
    return replace(calibration.grid_node_config(),
                   disk_read_rate=360e6, disk_write_rate=280e6)


@register("baseline")
def baseline(n_nodes: Optional[int] = None, scale: Optional[float] = None,
             seed: int = 0) -> ScenarioSpec:
    """The paper's evaluation setup: Table II workload under typical churn."""
    return ScenarioSpec(
        name="baseline",
        description="Table II Facebook workload on calibrated grid "
                    "hardware under typical opportunistic churn (the "
                    "Figure 4 configuration).",
        cluster=ClusterSpec(n_nodes=n_nodes or 55),
        workload=WorkloadSpec(scale=scale or 1.0),
        faults=FaultSpec(policy=calibration.default_grid_policy()),
        seed=seed,
    )


@register("contended")
def contended(n_nodes: Optional[int] = None, scale: Optional[float] = None,
              seed: int = 0) -> ScenarioSpec:
    """Shuffle-heavy workload (2x intermediate data) on half-speed disks."""
    base = calibration.default_loadgen()
    return ScenarioSpec(
        name="contended",
        description="2x the baseline intermediate data on half-speed "
                    "disks: every shuffle serve and replication stream is "
                    "a disk-bound joint disk+network demand.",
        cluster=ClusterSpec(n_nodes=n_nodes or 100, node=_slow_disk_node()),
        workload=WorkloadSpec(
            loadgen=replace(base,
                            map_output_ratio=2.0 * base.map_output_ratio),
            scale=scale or 1.0),
        faults=FaultSpec(policy=calibration.default_grid_policy()),
        seed=seed,
    )


@register("wan_staging")
def wan_staging(n_nodes: Optional[int] = None, scale: Optional[float] = None,
                seed: int = 0) -> ScenarioSpec:
    """Glidein package staging and shuffle sharing starved site uplinks."""
    # ~1.2 Gbps per site uplink (vs 10 Gbps default) and churn brisk
    # enough that replacement glideins are re-downloading the 75 MB worker
    # package throughout the run — downloads, cross-site shuffle, and
    # re-replication all contend on the same WAN legs.
    caps = {domain: 150e6 for domain in PAPER_SITE_DOMAINS}
    caps["unl.edu"] = 150e6  # the central package server's own uplink
    return ScenarioSpec(
        name="wan_staging",
        description="Site uplinks capped at ~1.2 Gbps while elevated "
                    "churn keeps glidein package downloads competing "
                    "with the shuffle on the WAN.",
        cluster=ClusterSpec(n_nodes=n_nodes or 60, uplink_caps=caps,
                            ramp_fraction=0.95),
        workload=WorkloadSpec(scale=scale or 1.0),
        faults=FaultSpec(policy=SitePolicy(
            preempt_rate=1.0 / 3500.0, burst_rate=1.0 / 2500.0,
            burst_fraction=0.15, scheduling_delay_mean=30.0)),
        seed=seed,
    )


@register("hetero_tiers")
def hetero_tiers(n_nodes: Optional[int] = None,
                 scale: Optional[float] = None,
                 seed: int = 0) -> ScenarioSpec:
    """Heterogeneous SSD/HDD site mix (two fast, two stock, one slow)."""
    tiers = {
        PAPER_SITE_NAMES[0]: _ssd_node(),
        PAPER_SITE_NAMES[1]: _ssd_node(),
        # sites 2 and 3 keep the calibrated stock disk
        PAPER_SITE_NAMES[4]: _slow_disk_node(),
    }
    return ScenarioSpec(
        name="hetero_tiers",
        description="Per-site disk tiers (SSD / stock / slow HDD): the "
                    "same workload crosses fast and slow storage domains "
                    "behind one scheduler.",
        cluster=ClusterSpec(n_nodes=n_nodes or 60, site_tiers=tiers),
        workload=WorkloadSpec(scale=scale or 1.0),
        faults=FaultSpec(policy=calibration.stable_policy()),
        seed=seed,
    )


@register("rebalance_under_load")
def rebalance_under_load(n_nodes: Optional[int] = None,
                         scale: Optional[float] = None,
                         seed: int = 0) -> ScenarioSpec:
    """HDFS balancer migrating blocks while the job stream is live."""
    n = n_nodes or 40
    # Small disks make the 244 GB input preload a substantial fraction of
    # each initial node's capacity, so the empty late-joiners leave a real
    # imbalance for the balancer to work off while jobs run.
    node = replace(calibration.grid_node_config(), disk_capacity=24 * GB)
    return ScenarioSpec(
        name="rebalance_under_load",
        description="Preload on a small cluster, grow it elastically "
                    "(fresh nodes join empty, §IV-C), then run the HDFS "
                    "balancer concurrently with the job stream: block "
                    "moves are rated jointly against live shuffle at "
                    "both the source disk and the target disk.",
        cluster=ClusterSpec(n_nodes=n, node=node),
        workload=WorkloadSpec(scale=scale or 0.25),
        faults=FaultSpec(policy=calibration.stable_policy()),
        grow_to=max(n + 1, int(round(n * 1.5))),
        balance_during_run=True,
        balancer_threshold=0.05,
        seed=seed,
    )


def diurnal_waves(n_nodes: int, n_sites: int = 5,
                  wave_period: float = 900.0, n_waves: int = 24,
                  victim_fraction: float = 0.3) -> FaultPlan:
    """Deterministic diurnal preemption waves, as ``node_wave`` events.

    Every ``wave_period`` seconds one site (rotating round-robin) evicts
    ``victim_fraction`` of the scenario's per-site node share — the
    pinned, replayable counterpart of the stochastic burst model.  Waves
    beyond the run's end simply never fire.
    """
    per_site = max(1, int(round(victim_fraction * n_nodes / n_sites)))
    return FaultPlan([
        FaultEvent(time=(w + 1) * wave_period, kind="node_wave",
                   site=PAPER_SITE_NAMES[w % n_sites], count=per_site)
        for w in range(n_waves)
    ])


@register("churn_heavy")
def churn_heavy(n_nodes: Optional[int] = None,
                scale: Optional[float] = None,
                seed: int = 0) -> ScenarioSpec:
    """Diurnal preemption waves (pinned plan) over background churn."""
    n = n_nodes or 55
    return ScenarioSpec(
        name="churn_heavy",
        description="A pinned plan of diurnal preemption waves sweeps "
                    "the sites round-robin on top of mild background "
                    "churn — the deterministic heavy-fluctuation regime "
                    "of Figure 5c.",
        cluster=ClusterSpec(n_nodes=n, ramp_fraction=0.95),
        workload=WorkloadSpec(scale=scale or 1.0),
        faults=FaultSpec(policy=calibration.stable_policy(),
                         plan=diurnal_waves(n)),
        seed=seed,
    )


@register("blackout")
def blackout(n_nodes: Optional[int] = None, scale: Optional[float] = None,
             seed: int = 0) -> ScenarioSpec:
    """Full-site blackout that heals: long-horizon HDFS recovery."""
    n = n_nodes or 40
    plan = FaultPlan([
        # One site goes dark mid-workload (connectivity outage: daemons
        # stop, disks intact).  The namenode declares the nodes dead,
        # re-replicates around the hole; when the site heals, every node
        # re-registers with its full block report and the reconciliation
        # path trashes the now-excess replicas.
        FaultEvent(time=300.0, kind="site_blackout",
                   site=PAPER_SITE_NAMES[2], duration=450.0, mode="outage"),
    ])
    return ScenarioSpec(
        name="blackout",
        description="A full-site connectivity blackout heals mid-run: "
                    "re-replication storms around the dark site, then "
                    "re-registration block reports reconcile the block "
                    "map back to pre-fault steady state (asserted by the "
                    "settle phase's convergence finals).",
        cluster=ClusterSpec(n_nodes=n),
        workload=WorkloadSpec(scale=scale or 0.25),
        faults=FaultSpec(plan=plan),
        obs=ObsSpec(check_invariants=True),
        seed=seed,
    )


@register("flaky_wan")
def flaky_wan(n_nodes: Optional[int] = None, scale: Optional[float] = None,
              seed: int = 0) -> ScenarioSpec:
    """Degraded/partitioned WAN windows with stragglers and disk loss."""
    n = n_nodes or 40
    plan = FaultPlan([
        FaultEvent(time=120.0, kind="wan_degrade",
                   site=PAPER_SITE_NAMES[0], duration=600.0, value=0.15),
        FaultEvent(time=200.0, kind="straggler",
                   site=PAPER_SITE_NAMES[1], duration=700.0, count=3,
                   value=4.0),
        FaultEvent(time=300.0, kind="wan_degrade",
                   site=PAPER_SITE_NAMES[3], duration=450.0, value=0.25),
        # The hard window: one site drops off the WAN entirely — live
        # cross-site transfers abort, new ones fail fast for the duration.
        FaultEvent(time=600.0, kind="wan_degrade",
                   site=PAPER_SITE_NAMES[2], duration=240.0,
                   mode="partition"),
        FaultEvent(time=900.0, kind="disk_fail",
                   site=PAPER_SITE_NAMES[4], count=2),
    ])
    return ScenarioSpec(
        name="flaky_wan",
        description="Uplinks run at 15-25% capacity in overlapping "
                    "windows, one site is WAN-partitioned outright, "
                    "straggler nodes drag the tail, and two disks die "
                    "under their datanodes — the hostile-WAN regime.",
        cluster=ClusterSpec(n_nodes=n),
        workload=WorkloadSpec(scale=scale or 0.25),
        faults=FaultSpec(plan=plan),
        obs=ObsSpec(check_invariants=True),
        seed=seed,
    )
