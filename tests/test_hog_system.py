"""Integration tests for the assembled HOG system."""

import pytest

from repro.core import HOGConfig, HOGSystem, NodeConfig
from repro.grid import GridSiteConfig, SitePolicy
from repro.hdfs import hog_config
from repro.mapreduce import JobSpec, JobStatus, hog_mr_config
from repro.sim import Simulator


def small_config(n_sites=3, capacity=20, preempt_rate=0.0, burst_rate=0.0,
                 seed=1, **kw):
    policy = SitePolicy(preempt_rate=preempt_rate, burst_rate=burst_rate,
                        scheduling_delay_mean=5.0)
    sites = [GridSiteConfig(f"SITE{i}", f"site{i}.edu", capacity, policy)
             for i in range(n_sites)]
    return HOGConfig(sites=sites, seed=seed,
                     negotiation_interval=10.0, **kw)


def make_hog(target=6, **cfg_kwargs):
    sim = Simulator()
    hog = HOGSystem(sim, small_config(**cfg_kwargs))
    hog.start(target)
    return sim, hog


class TestProvisioning:
    def test_nodes_reach_target(self):
        sim, hog = make_hog(target=6)
        t = hog.run_until_nodes(6)
        assert hog.running_nodes() == 6
        assert t > 0  # provisioning takes time (queue + download + start)

    def test_workers_spread_over_sites(self):
        sim, hog = make_hog(target=9, n_sites=3)
        hog.run_until_nodes(9)
        used_sites = {hog.topology.site_of(h) for h in hog.nodes}
        assert len(used_sites) == 3

    def test_datanodes_and_trackers_registered(self):
        sim, hog = make_hog(target=4)
        hog.run_until_nodes(4)
        sim.run(until=sim.now + 10.0)
        assert hog.namenode.num_live_datanodes() == 4
        assert hog.jobtracker.live_tracker_count() == 4

    def test_elastic_grow(self):
        sim, hog = make_hog(target=3)
        hog.run_until_nodes(3)
        hog.set_target(8)
        hog.run_until_nodes(8)
        assert hog.running_nodes() == 8

    def test_elastic_shrink(self):
        sim, hog = make_hog(target=8)
        hog.run_until_nodes(8)
        hog.set_target(3)
        deadline = sim.now + 600.0
        while sim.now < deadline and hog.running_nodes() > 3:
            sim.run(until=sim.now + 10.0)
        assert hog.running_nodes() == 3

    def test_target_capped_by_grid_capacity(self):
        sim, hog = make_hog(target=1000, n_sites=2, capacity=5)
        with pytest.raises(TimeoutError):
            hog.run_until_nodes(11, timeout=2000.0)
        assert hog.running_nodes() == 10  # grid is simply full

    def test_node_series_records_growth(self):
        sim, hog = make_hog(target=5)
        hog.run_until_nodes(5)
        assert hog.node_series.max() == 5
        assert hog.node_series.values[0] == 0


class TestChurn:
    def test_preempted_nodes_replaced(self):
        # Aggressive per-node churn: mean lifetime 200 s.
        sim, hog = make_hog(target=6, preempt_rate=1 / 200.0)
        hog.run_until_nodes(6)
        start = sim.now
        sim.run(until=start + 2000.0)
        assert hog.factory.counters.get("glideins_preempted") > 0
        # The factory kept requesting replacements.
        assert hog.factory.counters.get("glideins_submitted") > 6
        # And the system is still near target.
        assert hog.running_nodes() >= 4

    def test_burst_preemption_hits_one_site(self):
        sim, hog = make_hog(target=9, n_sites=3, burst_rate=1 / 300.0)
        hog.run_until_nodes(9)
        sim.run(until=sim.now + 1500.0)
        assert hog.factory.counters.get("preemption_bursts") >= 1
        assert hog.factory.counters.get("glideins_preempted") >= 1

    def test_believed_count_lags_reality(self):
        # Kill nodes abruptly: masters believe them alive until the 30 s
        # timeout ("fluctuated above 55 momentarily", §IV-B).
        sim, hog = make_hog(target=5)
        hog.run_until_nodes(5)
        sim.run(until=sim.now + 20.0)
        victim = next(iter(hog.nodes.values()))
        victim.preempt(zombie=False)
        kill_time = sim.now
        sim.run(until=kill_time + 10.0)
        assert hog.jobtracker.live_tracker_count() == 5  # still believed
        sim.run(until=kill_time + 60.0)
        assert hog.jobtracker.live_tracker_count() == 4  # detected


class TestWorkloadOnHog:
    def test_job_runs_on_grid(self):
        sim, hog = make_hog(target=6)
        hog.run_until_nodes(6)
        hog.preload_input("/in/j0", n_blocks=6)
        job = hog.submit(JobSpec("grid-job", 6, 2, "/in/j0",
                                 map_cpu_per_block=5.0))
        hog.run_until_jobs_done([job])
        assert job.status == JobStatus.SUCCEEDED

    def test_job_survives_preemption_during_run(self):
        sim, hog = make_hog(target=8, preempt_rate=1 / 400.0, seed=3)
        hog.run_until_nodes(8)
        hog.preload_input("/in/churny", n_blocks=8)
        job = hog.submit(JobSpec("churny", 8, 2, "/in/churny",
                                 map_cpu_per_block=30.0))
        hog.run_until_jobs_done([job], timeout=100_000.0)
        assert job.status == JobStatus.SUCCEEDED

    def test_replication_10_spreads_input(self):
        sim, hog = make_hog(target=12, n_sites=3, capacity=10)
        hog.run_until_nodes(12)
        hog.preload_input("/in/wide", n_blocks=2)
        fi = hog.namenode.get_file("/in/wide")
        for block in fi.blocks:
            locs = hog.namenode.locate(block.block_id)
            assert len(locs) == 10  # replication factor 10 (§III-B1)
            sites = {hog.topology.site_of(x) for x in locs}
            assert len(sites) == 3  # spread over all sites


class TestConfigValidation:
    def test_default_config_valid(self):
        HOGConfig().validate()

    def test_no_sites_rejected(self):
        with pytest.raises(ValueError):
            HOGConfig(sites=[]).validate()

    def test_package_host_forced_to_central(self):
        cfg = HOGConfig()
        cfg.wrapper.package_host = "elsewhere.org"
        cfg.validate()
        assert cfg.wrapper.package_host == cfg.central_host

    def test_node_config_validation(self):
        with pytest.raises(ValueError):
            NodeConfig(speed_min=2.0, speed_max=1.0).validate()
        with pytest.raises(ValueError):
            NodeConfig(disk_capacity=0).validate()
