"""The benchmark's workloads: registry scenarios at fixed sizes.

Every workload is a named registry scenario (``repro.scenarios.registry``)
with node count, workload scale and ramp fraction fixed here; the
benchmark owns no cluster or workload construction of its own.  The
``--seed`` argument picks the cluster seeds a run cycles through
(:func:`run_seeds`), so one seed always gives the same simulations, byte
for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    nodes: int
    scale: float
    #: ``None`` keeps the registry default.
    ramp_fraction: Optional[float]
    #: Scenario seed of the job schedule, and of the cluster for
    #: ``--seed 0`` (the sizing ``benchmarks/bench_scale_sweep.py`` uses).
    base_seed: int
    #: Scenario seeds one benchmark run cycles through (see
    #: :func:`run_seeds`).
    seeds_per_run: int
    #: The run must end with every fault-recovery gauge at 0 and no
    #: invariant violation.
    fault_checks: bool = False

    def tiny(self) -> "Workload":
        """The same scenario path at a size that runs in a few seconds,
        one cluster seed per run (self-tests only)."""
        return replace(self, nodes=max(80, self.nodes // 20), scale=0.02,
                       seeds_per_run=1)


WORKLOADS = {w.name: w for w in (
    Workload("baseline_1k", "baseline", 1000, 0.25, 0.98, 1000, 5),
    Workload("contended_250", "contended", 250, 0.25, 0.98, 250, 3),
    Workload("frontier_10k", "baseline", 10_000, 0.02, 0.5, 10_000, 1),
    Workload("blackout_200", "blackout", 200, 0.25, None, 0, 5,
             fault_checks=True),
)}


def run_seeds(workload: Workload, seed: int) -> List[int]:
    """The cluster seeds a run with ``--seed seed`` cycles through."""
    k = workload.seeds_per_run
    return [workload.base_seed + seed * k + j for j in range(k)]


def build_spec(workload: Workload, cluster_seed: int):
    """The registry spec for one scenario run.

    The Facebook job schedule is the one the registry draws for the
    workload's ``base_seed``, whatever the cluster seed: the paper's
    Figure 4 replays one fixed schedule, and holding it fixed leaves the
    seed to vary what the grid does (churn, placement, replacements)
    instead of how much work arrives.
    """
    from repro.scenarios import ScenarioRunner, registry

    def spec_for(seed: int):
        spec = registry.build(workload.scenario, n_nodes=workload.nodes,
                              scale=workload.scale, seed=seed)
        if workload.ramp_fraction is not None:
            spec.cluster.ramp_fraction = workload.ramp_fraction
        return spec

    spec = spec_for(cluster_seed)
    spec.workload.schedule = ScenarioRunner(
        spec_for(workload.base_seed)).build_schedule()
    return spec
