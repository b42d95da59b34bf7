"""Ablations of HOG's design choices (DESIGN.md per-experiment index).

Each function isolates one mechanism the paper motivates:

- **replication factor** (§III-B1): 3 vs the chosen 10 ("Too many replicas
  would impose extra replication overhead ... Too few would cause frequent
  data failures");
- **failure detection** (§III-B): 30 s vs stock ~15 min timeouts;
- **site awareness** (§III-B1): on vs off;
- **zombie fix** (§IV-D1): disk self-check + in-tree daemons vs the
  double-fork bug;
- **speculative copies** (§VI future work): the configurable N-copies
  execution the paper proposes;
- **HOD** (§V): per-job cluster reconstruction vs HOG's persistent
  platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..baselines.hod import HODConfig, HODRunner
from ..grid.glidein import WrapperConfig
from ..grid.site import SitePolicy
from ..hdfs.config import hog_config
from ..mapreduce.config import hog_mr_config
from ..metrics.report import WorkloadResult, format_table
from ..scenarios import calibration
from ..sim.rng import RandomStream
from ..workload.schedule import build_facebook_schedule
from .common import HogRunSettings, run_facebook_on_hog

__all__ = [
    "ablate_replication",
    "ablate_failure_detection",
    "ablate_site_awareness",
    "ablate_zombie_fix",
    "ablate_speculative_copies",
    "compare_hod",
]


def _base_settings(n_nodes: int, seed: int, policy: Optional[SitePolicy],
                   scale: float) -> HogRunSettings:
    return HogRunSettings(
        n_nodes=n_nodes, seed=seed,
        policy=policy or calibration.unstable_policy(),
        loadgen=calibration.default_loadgen(), scale=scale)


def ablate_replication(factors=(3, 10), n_nodes: int = 55, seed: int = 5,
                       scale: float = 1.0,
                       policy: Optional[SitePolicy] = None) -> Dict[int, WorkloadResult]:
    """Workload response and data-availability counters vs replication
    factor, under churn."""
    out: Dict[int, WorkloadResult] = {}
    for factor in factors:
        settings = _base_settings(n_nodes, seed, policy, scale)
        settings.hdfs = hog_config(replication=factor)
        out[factor] = run_facebook_on_hog(settings)
    return out


def ablate_failure_detection(timeouts=(30.0, 900.0), n_nodes: int = 55,
                             seed: int = 6, scale: float = 1.0,
                             policy: Optional[SitePolicy] = None) -> Dict[float, WorkloadResult]:
    """HOG's 30 s heartbeat timeout vs the stock ~15 min value, under churn.

    With slow detection, blocks on dead nodes are not re-replicated and
    lost tasks sit unnoticed until expiry."""
    out: Dict[float, WorkloadResult] = {}
    for timeout in timeouts:
        settings = _base_settings(n_nodes, seed, policy, scale)
        settings.hdfs = hog_config(heartbeat_timeout=timeout)
        settings.mr = hog_mr_config(tracker_expiry=timeout)
        out[timeout] = run_facebook_on_hog(settings)
    return out


def ablate_site_awareness(n_nodes: int = 55, seed: int = 7, scale: float = 1.0,
                          policy: Optional[SitePolicy] = None) -> Dict[bool, WorkloadResult]:
    """Site awareness on vs off.

    Off = every node in one flat domain: placement cannot spread replicas
    across sites (burst preemptions can take out all copies) and the
    scheduler cannot prefer nearby data."""
    out: Dict[bool, WorkloadResult] = {}
    for enabled in (True, False):
        settings = _base_settings(n_nodes, seed, policy, scale)
        settings.site_awareness = enabled
        out[enabled] = run_facebook_on_hog(settings)
    return out


def ablate_zombie_fix(n_nodes: int = 55, seed: int = 8, scale: float = 1.0,
                      policy: Optional[SitePolicy] = None) -> Dict[bool, WorkloadResult]:
    """The §IV-D1 fix on vs off.

    Off reproduces the first-iteration HOG: preempted nodes leave zombie
    daemons that keep heartbeating, eat task attempts, and pin phantom
    replicas.  (With the fix off we also disable the datanode disk
    self-check, matching the original Datanode.java.)"""
    out: Dict[bool, WorkloadResult] = {}
    for fixed in (True, False):
        settings = _base_settings(n_nodes, seed, policy, scale)
        settings.wrapper = WrapperConfig(zombie_fix=fixed)
        settings.hdfs = hog_config(
            disk_check_interval=180.0 if fixed else None)
        out[fixed] = run_facebook_on_hog(settings)
    return out


def ablate_speculative_copies(copies=(1, 2, 3), n_nodes: int = 55,
                              seed: int = 9, scale: float = 1.0,
                              policy: Optional[SitePolicy] = None) -> Dict[int, WorkloadResult]:
    """§VI future work: "we will make all tasks have configurable number
    of copies running in the HOG and take the fastest as the result."

    ``copies=1`` disables speculation; 2 is stock Hadoop; ≥3 is the
    proposed extension."""
    out: Dict[int, WorkloadResult] = {}
    for n_copies in copies:
        settings = _base_settings(n_nodes, seed, policy, scale)
        settings.mr = hog_mr_config(
            speculative_execution=(n_copies > 1),
            max_task_copies=max(1, n_copies))
        out[n_copies] = run_facebook_on_hog(settings)
    return out


@dataclass
class HodComparison:
    """HOG vs HOD on the same job mix (§V)."""

    hog_response: float
    hod_total_response: float
    hod_mean_overhead_fraction: float
    n_jobs: int

    def to_table(self) -> str:
        """Render the comparison as a report table."""
        rows = [
            ["HOG (persistent platform)", f"{self.hog_response:.0f}", "-"],
            ["HOD (per-job reconstruction)", f"{self.hod_total_response:.0f}",
             f"{100 * self.hod_mean_overhead_fraction:.0f}%"],
        ]
        return format_table(
            ["System", "workload response (s)", "mean overhead"],
            rows, title=f"HOG vs HOD on {self.n_jobs} jobs (§V)")


def compare_hod(n_nodes: int = 55, seed: int = 10, scale: float = 0.25,
                hod_config: Optional[HODConfig] = None) -> HodComparison:
    """Run the same (scaled) job mix on HOG and on HOD.

    HOD requests run back-to-back (its head node and cluster are rebuilt
    per request), so its workload response is the sum of per-request
    responses beyond the submission schedule."""
    settings = _base_settings(n_nodes, seed, calibration.stable_policy(), scale)
    hog_result = run_facebook_on_hog(settings)

    schedule = build_facebook_schedule(RandomStream(seed + 77),
                                       calibration.default_loadgen(),
                                       scale=scale)
    runner = HODRunner(hod_config or HODConfig(nodes_per_request=n_nodes,
                                               map_slots_per_node=1,
                                               reduce_slots_per_node=1),
                       seed=seed)
    results = runner.run_schedule([j.spec for j in schedule.jobs])
    # HOD requests execute serially per user; workload response is bounded
    # below by the later of (submission time, previous completions).
    t = 0.0
    for item, res in zip(schedule.jobs, results):
        t = max(t, item.submit_time) + res.response_time
    import numpy as np
    overhead = float(np.mean([r.overhead_fraction for r in results]))
    return HodComparison(
        hog_response=hog_result.response_time,
        hod_total_response=t,
        hod_mean_overhead_fraction=overhead,
        n_jobs=len(results))


def compare_schedulers(n_nodes: int = 40, seed: int = 12, scale: float = 0.25,
                       policy: Optional[SitePolicy] = None) -> Dict[str, WorkloadResult]:
    """FIFO (HOG's scheduler, §III-B2) vs delay scheduling [3] vs
    matchmaking [20] on the same workload.

    The comparison of interest is map-launch *locality* (and, secondarily,
    response time): the alternatives trade a little waiting for a lot of
    locality when replication is low."""
    out: Dict[str, WorkloadResult] = {}
    for name in ("fifo", "delay", "matchmaking"):
        settings = _base_settings(n_nodes, seed, policy or
                                  calibration.stable_policy(), scale)
        # Low replication makes locality a real contest (10x replication
        # makes every scheduler look perfect).
        settings.hdfs = hog_config(replication=2)
        settings.mr = hog_mr_config(scheduler=name)
        out[name] = run_facebook_on_hog(settings)
    return out
