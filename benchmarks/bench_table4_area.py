"""Table IV — "Area beneath curves".

Integrates the node-count series of the three Figure 5 runs over their
execution windows, regenerating the paper's response-time/area table, and
checks the causal claim: "the more node fluctuation, the longer response
we will get for a given workload".
"""

import pytest

from repro.scenarios.calibration import PAPER_TABLE4
from repro.experiments.fig5 import run_fig5

import sys
sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _util import FIG5_NODES, SCALE, emit


@pytest.fixture(scope="module")
def fig5_result():
    return run_fig5(target_nodes=FIG5_NODES, scale=SCALE, seeds=(21, 22, 23))


def test_table4_regenerate(benchmark, fig5_result):
    def integrate_all():
        return [(r.label, r.response_time, r.area) for r in fig5_result.runs]

    rows = benchmark(integrate_all)
    emit(fig5_result.table4())
    emit("Paper values: " + ", ".join(
        f"{k}: response={v[0]:.0f}s area={v[1]:.0f}"
        for k, v in PAPER_TABLE4.items()))
    assert len(rows) == 3


def test_table4_unstable_run_is_slowest(benchmark, fig5_result):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # asserts run under --benchmark-only
    # Paper: 5c (unstable) has both the largest area-per-second deficit
    # and the longest response (6235 s vs 4396/3896 s).
    assert fig5_result.unstable_is_slowest()


def test_table4_mean_nodes_below_target(benchmark, fig5_result):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # asserts run under --benchmark-only
    # Table IV arithmetic: area/response < target (churn means the system
    # spends real time below the configured maximum; paper's 5a yields
    # 181020/4396 =~ 41 < 55).
    for run in fig5_result.runs:
        assert run.mean_nodes < FIG5_NODES
