"""Tests for the experiment drivers (small scales for speed)."""

import numpy as np
import pytest

from repro.grid.site import sites_with_policy
from repro.scenarios import calibration
from repro.experiments.common import (
    HogRunSettings,
    run_facebook_on_cluster,
    run_facebook_on_hog,
)
from repro.experiments.fig4 import Fig4Point, Fig4Result, find_crossover
from repro.experiments.tables import render_table1, render_table2, render_table3


class TestCalibration:
    def test_paper_constants_recorded(self):
        assert calibration.PAPER_FIG4_NODE_COUNTS[-1] == 1101
        assert calibration.PAPER_TABLE4["5c"] == (6235.0, 252455.0)

    def test_policies_ordered_by_churn(self):
        stable = calibration.stable_policy()
        unstable = calibration.unstable_policy()
        assert unstable.preempt_rate > stable.preempt_rate
        assert unstable.burst_rate > stable.burst_rate

    def test_fabric_lan_faster_than_wan(self):
        fab = calibration.grid_fabric()
        assert fab.intra_site_latency < fab.inter_site_latency


class TestSitesHelper:
    def test_five_sites_with_headroom(self):
        sites = sites_with_policy(calibration.stable_policy(), 100)
        assert len(sites) == 5
        assert sum(s.capacity for s in sites) >= 130  # 30% headroom

    def test_distinct_domains(self):
        sites = sites_with_policy(calibration.stable_policy(), 10)
        assert len({s.domain for s in sites}) == 5


class TestTableRenderers:
    def test_table1_contains_all_bins(self):
        text = render_table1()
        for token in ("39%", "4800", "151-300"):
            assert token in text

    def test_table2_contains_reduce_counts(self):
        text = render_table2()
        assert "30" in text and "200" in text

    def test_table3_totals(self):
        text = render_table3()
        assert "100 map slots" in text
        assert "30 reduce slots" in text


class TestCrossover:
    def _pt(self, nodes, resp):
        return Fig4Point(nodes, [resp], [0.0])

    def test_simple_crossover(self):
        pts = [self._pt(40, 5000), self._pt(100, 3800), self._pt(200, 2000)]
        assert find_crossover(pts, 3900.0) == (40, 100)

    def test_no_crossover(self):
        pts = [self._pt(40, 5000), self._pt(100, 4500)]
        assert find_crossover(pts, 3900.0) is None

    def test_already_below_at_first_point(self):
        pts = [self._pt(40, 3000)]
        assert find_crossover(pts, 3900.0) == (0, 40)

    def test_fig4_result_table_renders(self):
        res = Fig4Result(3900.0, [self._pt(40, 5000), self._pt(100, 3000)], 1)
        text = res.to_table()
        assert "Figure 4" in text and "40" in text
        assert "Equivalent performance bracket: 40..100" in text


@pytest.mark.slow
class TestSmallEndToEnd:
    """Tiny-scale end-to-end runs of the experiment machinery."""

    def test_cluster_runner_completes(self):
        res = run_facebook_on_cluster(seed=1, scale=0.05)
        assert res.failed_jobs == 0
        assert res.response_time > 0
        # One job per bin at minimum scale.
        assert len(res.bin_responses) == 6

    def test_hog_runner_completes(self):
        res = run_facebook_on_hog(HogRunSettings(
            n_nodes=12, seed=1, scale=0.05,
            policy=calibration.stable_policy()))
        assert res.failed_jobs == 0
        assert res.node_area is not None and res.node_area > 0
        assert sum(res.locality.values()) > 0

    def test_hog_runner_with_moderate_churn_completes(self):
        res = run_facebook_on_hog(HogRunSettings(
            n_nodes=12, seed=2, scale=0.05,
            policy=calibration.default_grid_policy()))
        assert res.failed_jobs == 0

    def test_hog_degrades_gracefully_under_meltdown_churn(self):
        # The unstable policy on a *tiny* 12-node grid can genuinely lose
        # all replicas of a block during burst cascades (the paper avoids
        # this regime by running >= 40 nodes).  The required behaviour is
        # graceful: failed jobs are declared failed, the rest complete,
        # and the run terminates.
        res = run_facebook_on_hog(HogRunSettings(
            n_nodes=12, seed=2, scale=0.05,
            policy=calibration.unstable_policy()))
        total_jobs = res.failed_jobs + sum(
            len(v) for v in res.bin_responses.values())
        assert total_jobs == 7  # one job per bin at this scale, plus bin1
        # Depending on hash-seed-dependent tie-breaking, anywhere from 0
        # to all jobs may survive the meltdown; what matters is that every
        # job reached a terminal state and the run ended.
        assert res.response_time > 0


class TestCli:
    def test_tables_command(self, capsys):
        from repro.experiments.run import main
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table III" in out

    def test_bad_command_rejected(self):
        from repro.experiments.run import main
        with pytest.raises(SystemExit):
            main(["nonsense"])
