"""Figure 5 + Table IV — node fluctuation at 55 nodes.

The paper examines "three executions of the HOG system with 55 nodes",
plotting the available-node count during the workload (Figure 5a/5b/5c)
and integrating the "area which is beneath the curve" (Table IV):

=======  =============  =======
Figure   Response time  Area
=======  =============  =======
5a       4396           181020
5b       3896           172360
5c       6235           252455
=======  =============  =======

The reproduced claim: "the more node fluctuation, the longer response we
will get for a given workload" — the unstable run (5c) has the longest
response, and among comparable runs the one with less area under the curve
(fewer node-seconds actually delivered, 5a vs 5b) is slower.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..grid.site import SitePolicy
from ..metrics.report import format_table
from ..scenarios import ScenarioRunner, calibration, registry
from ..sim.monitor import StepSeries

__all__ = ["Fig5Run", "Fig5Result", "run_fig5"]


@dataclass
class Fig5Run:
    """One 55-node execution."""

    label: str
    seed: int
    stable: bool
    response_time: float
    area: float
    #: (times, node counts) of the believed-node series over the run.
    series: Tuple[np.ndarray, np.ndarray]

    @property
    def mean_nodes(self) -> float:
        """Time-averaged node count (area / response)."""
        return self.area / self.response_time if self.response_time else 0.0


@dataclass
class Fig5Result:
    """The three runs plus the Table IV readout."""

    runs: List[Fig5Run]
    target_nodes: int

    def table4(self) -> str:
        """Regenerate Table IV."""
        rows = [[r.label, f"{r.response_time:.0f}", f"{r.area:.0f}",
                 f"{r.mean_nodes:.1f}"]
                for r in self.runs]
        return format_table(
            ["Run", "Response Time (s)", "Area (node*s)", "mean nodes"],
            rows, title=f"Table IV: area beneath curves ({self.target_nodes}"
                        " max nodes)")

    def unstable_is_slowest(self) -> bool:
        """The paper's causal claim: the unstable run takes longest."""
        unstable = [r for r in self.runs if not r.stable]
        stable = [r for r in self.runs if r.stable]
        if not unstable or not stable:
            return False
        return min(u.response_time for u in unstable) > \
            max(s.response_time for s in stable)


def run_fig5(target_nodes: int = 55,
             scale: float = 1.0,
             seeds: Tuple[int, int, int] = (11, 12, 13),
             stable_policy: Optional[SitePolicy] = None,
             unstable_policy: Optional[SitePolicy] = None) -> Fig5Result:
    """Regenerate Figure 5's three executions (a/b stable, c unstable).

    Every run is the registry's ``baseline`` scenario with the fault
    policy swapped (stable for 5a/5b, unstable for 5c), executed by the
    unified :class:`~repro.scenarios.runner.ScenarioRunner`."""
    stable_policy = stable_policy or calibration.stable_policy()
    unstable_policy = unstable_policy or calibration.unstable_policy()
    plan = [("5a", seeds[0], True, stable_policy),
            ("5b", seeds[1], True, stable_policy),
            ("5c", seeds[2], False, unstable_policy)]
    runs: List[Fig5Run] = []
    for label, seed, stable, policy in plan:
        spec = registry.build("baseline", n_nodes=target_nodes, scale=scale,
                              seed=seed)
        spec.name = f"fig5-{label}"
        spec.faults.policy = policy
        runner = ScenarioRunner(spec)
        runner.run()
        result, hog = runner.workload, runner.system
        times, values = hog.believed_series.as_arrays()
        window = (times >= result.start_time) & (times <= result.end_time)
        runs.append(Fig5Run(
            label=label, seed=seed, stable=stable,
            response_time=result.response_time,
            area=result.node_area or 0.0,
            series=(times[window], values[window])))
    return Fig5Result(runs, target_nodes)
