"""Unit and integration tests for the MapReduce substrate."""

import pytest

from repro.hdfs import HdfsClient, hog_config
from repro.mapreduce import (
    JobSpec,
    JobStatus,
    MRConfig,
    TaskStatus,
    TaskTracker,
    hog_mr_config,
    stock_mr_config,
)

from repro.storage import Disk

from helpers import MRHarness


class TestConfig:
    def test_stock_defaults(self):
        cfg = stock_mr_config()
        assert cfg.tracker_expiry == 600.0
        assert cfg.speculative_execution is True
        assert cfg.max_task_copies == 2  # "at most two copies" (§III-B2)
        cfg.validate()

    def test_hog_preset(self):
        cfg = hog_mr_config()
        assert cfg.tracker_expiry == 30.0  # §III-B
        cfg.validate()

    def test_speculation_slowness_is_one_third(self):
        # "slower tasks (1/3 slower than average)"
        assert MRConfig().speculation_slowness_factor == pytest.approx(4.0 / 3.0)

    @pytest.mark.parametrize("field,value", [
        ("heartbeat_interval", 0), ("max_task_copies", 0),
        ("reduce_slowstart", 2.0), ("parallel_shuffle_copies", 0),
        ("speculation_slowness_factor", 0.5), ("sort_rate", 0),
        # The expiry monitor loops on ``timeout(period)``: 0 spins.
        ("expiry_check_period", 0.0),
    ])
    def test_invalid_configs_rejected(self, field, value):
        cfg = MRConfig()
        setattr(cfg, field, value)
        with pytest.raises(ValueError):
            cfg.validate()


class TestDiskWiring:
    def test_tasktracker_rejects_a_private_queue_disk(self):
        h = MRHarness(n_nodes=0)
        disk = Disk(h.sim, "n0.site0.edu", 1e9)  # its own FairQueue
        with pytest.raises(ValueError):
            TaskTracker(h.sim, "n0.site0.edu", disk, h.fabric, h.namenode,
                        h.jobtracker)


class TestJobSpec:
    def test_valid_spec(self):
        JobSpec("j", 4, 2, "/in").validate()

    @pytest.mark.parametrize("kwargs", [
        dict(num_maps=0), dict(num_reduces=-1),
        dict(map_cpu_per_block=-1), dict(map_output_ratio=-0.5),
    ])
    def test_invalid_specs_rejected(self, kwargs):
        base = dict(name="j", num_maps=2, num_reduces=1, input_file="/in")
        base.update(kwargs)
        with pytest.raises(ValueError):
            JobSpec(**base).validate()


class TestJobExecution:
    def test_single_job_completes(self):
        h = MRHarness(n_nodes=4, n_sites=2)
        job = h.submit("wordcount", num_maps=4, num_reduces=2)
        h.run_to_completion([job])
        assert job.status == JobStatus.SUCCEEDED
        assert job.completed_maps == 4
        assert job.completed_reduces == 2
        assert job.response_time > 0

    def test_map_only_job_completes(self):
        h = MRHarness(n_nodes=4, n_sites=2)
        job = h.submit("maponly", num_maps=3, num_reduces=0)
        h.run_to_completion([job])
        assert job.status == JobStatus.SUCCEEDED

    def test_job_output_written_to_hdfs(self):
        h = MRHarness(n_nodes=4, n_sites=2)
        job = h.submit("out", num_maps=2, num_reduces=1)
        h.run_to_completion([job])
        assert any(name.startswith(f"/in/out.out/j{job.job_id}/")
                   for name in h.namenode._files)

    def test_fifo_ordering_respected(self):
        h = MRHarness(n_nodes=2, n_sites=2)
        j1 = h.submit("first", num_maps=4, num_reduces=1)
        j2 = h.submit("second", num_maps=4, num_reduces=1)
        h.run_to_completion([j1, j2])
        # FIFO: the first job must not finish after the second by much —
        # specifically it must have started first.
        assert j1.start_time <= j2.start_time
        assert j1.finish_time <= j2.finish_time

    def test_multiple_jobs_all_complete(self):
        h = MRHarness(n_nodes=6, n_sites=3)
        jobs = [h.submit(f"j{i}", num_maps=2, num_reduces=1) for i in range(5)]
        h.run_to_completion(jobs)
        assert all(j.status == JobStatus.SUCCEEDED for j in jobs)

    def test_submit_without_input_rejected(self):
        h = MRHarness(n_nodes=2)
        from repro.hdfs import HdfsError
        with pytest.raises(HdfsError):
            h.jobtracker.submit_job(JobSpec("x", 2, 1, "/missing"))

    def test_submit_with_too_few_blocks_rejected(self):
        h = MRHarness(n_nodes=2)
        h.client().preload_file("/small", h.hdfs_config.block_size)
        with pytest.raises(ValueError):
            h.jobtracker.submit_job(JobSpec("x", 5, 1, "/small"))

    def test_intermediate_data_freed_only_at_job_end(self):
        h = MRHarness(n_nodes=2, n_sites=1)
        job = h.submit("inter", num_maps=2, num_reduces=1,
                       map_output_ratio=0.5)
        h.run_to_completion([job])
        # After completion, no node may still hold intermediate data.
        label = f"intermediate:j{job.job_id}"
        for disk in h.disks.values():
            assert disk.usage_by_label().get(label, 0.0) == 0.0

    def test_locality_counters_sum_to_map_count(self):
        h = MRHarness(n_nodes=4, n_sites=2)
        job = h.submit("loc", num_maps=4, num_reduces=1)
        h.run_to_completion([job])
        assert sum(job.locality_counters.values()) >= 4


class TestSlots:
    def test_slot_limits_respected(self):
        h = MRHarness(n_nodes=2, n_sites=1, map_slots=1, reduce_slots=1)
        job = h.submit("slots", num_maps=8, num_reduces=1)
        max_running = [0]

        def sample(sim):
            while job.finish_time is None:
                running = sum(tt.running_maps for tt in h.tasktrackers.values())
                max_running[0] = max(max_running[0], running)
                for tt in h.tasktrackers.values():
                    assert tt.running_maps <= tt.map_slots
                    assert tt.running_reduces <= tt.reduce_slots
                yield sim.timeout(1.0)

        h.sim.process(sample(h.sim))
        h.run_to_completion([job])
        assert max_running[0] <= 2  # 2 nodes x 1 slot

    def test_heterogeneous_slots(self):
        h = MRHarness(n_nodes=2, n_sites=1, map_slots=4, reduce_slots=1)
        job = h.submit("het", num_maps=8, num_reduces=1)
        h.run_to_completion([job])
        assert job.status == JobStatus.SUCCEEDED


class TestReduceSlowstart:
    def test_reduces_wait_for_slowstart(self):
        h = MRHarness(n_nodes=4, n_sites=2,
                      mr_config=MRConfig(reduce_slowstart=1.0))
        job = h.submit("slow", num_maps=4, num_reduces=2,
                       map_cpu_per_block=20.0)
        first_reduce_start = []

        def watch(sim):
            while job.finish_time is None:
                if any(t.attempts for t in job.reduces) and not first_reduce_start:
                    first_reduce_start.append(sim.now)
                yield sim.timeout(1.0)

        h.sim.process(watch(h.sim))
        h.run_to_completion([job])
        last_map_finish = max(t.finish_time for t in job.maps)
        # With slowstart=1.0, no reduce may start before every map is done.
        assert first_reduce_start[0] >= last_map_finish - 3.0  # heartbeat slack


class TestFailureRecovery:
    def test_node_death_recovers_running_tasks(self):
        h = MRHarness(n_nodes=4, n_sites=2, hdfs_config=hog_config(replication=3),
                      mr_config=hog_mr_config())
        job = h.submit("recover", num_maps=6, num_reduces=1,
                       map_cpu_per_block=30.0)
        victim = h.hosts()[0]

        def preempt(sim):
            yield sim.timeout(20.0)
            h.preempt_node(victim)

        h.sim.process(preempt(h.sim))
        h.run_to_completion([job])
        assert job.status == JobStatus.SUCCEEDED
        assert h.jobtracker.counters.get("trackers_lost") == 1

    def test_kill_during_output_write_is_not_a_failure(self, monkeypatch):
        """A reduce killed while it writes its output (a lost node, a
        losing speculative copy) is killed, not failed: the write's
        waiter catches only what the write fails with."""
        h = MRHarness(n_nodes=4, n_sites=2)
        job = h.submit("killed-write", num_maps=2, num_reduces=1)
        write_file = HdfsClient.write_file
        killed = []

        def kill_soon(attempt):
            attempt.tracker.kill_attempt(attempt)
            killed.append(attempt)

        def writing(client, *args, **kwargs):
            if not killed:
                attempt = job.reduces[0].running_attempts[0]
                assert attempt.process is h.sim.active_process
                h.sim.call_soon(kill_soon, attempt)
            return write_file(client, *args, **kwargs)

        monkeypatch.setattr(HdfsClient, "write_file", writing)
        h.run(until=600.0)
        assert killed
        assert h.jobtracker.counters.get("attempts_failed") == 0
        assert job.reduces[0].failures == 0

    def test_completed_map_reexecuted_when_node_lost(self):
        # Kill a node after its maps are done but before the reduce
        # fetched everything: the map outputs must be re-executed.
        h = MRHarness(n_nodes=3, n_sites=1, hdfs_config=hog_config(replication=3),
                      mr_config=hog_mr_config(reduce_slowstart=1.0))
        job = h.submit("remap", num_maps=3, num_reduces=1,
                       map_cpu_per_block=5.0, map_output_ratio=4.0)

        def preempt(sim):
            # Kill an output holder the moment the last map finishes —
            # with slowstart=1.0 no reduce has been scheduled yet, so its
            # output cannot have been fetched.
            while job.completed_maps < 3:
                yield sim.timeout(0.05)
            holder = job.map_outputs[0].host
            h.preempt_node(holder)

        h.sim.process(preempt(h.sim))
        h.run_to_completion([job])
        assert job.status == JobStatus.SUCCEEDED
        assert h.jobtracker.counters.get("maps_reexecuted") >= 1

    def test_zombie_tracker_fails_tasks_then_blacklisted(self):
        h = MRHarness(n_nodes=3, n_sites=1, hdfs_config=hog_config(
                          replication=3, disk_check_interval=None),
                      mr_config=hog_mr_config())
        victim = h.hosts()[0]
        h.run(until=5.0)
        h.preempt_node(victim, zombie=True)
        job = h.submit("zombie", num_maps=6, num_reduces=1)
        h.run_to_completion([job])
        assert job.status == JobStatus.SUCCEEDED
        # The zombie must have eaten at least one attempt and been
        # blacklisted for the job.
        assert h.jobtracker.counters.get("attempts_failed") >= 1
        assert victim in job.blacklist

    def test_dead_disk_tracker_cannot_use_up_a_tasks_attempts(self):
        """Hadoop 1.x ``hasFailedOnMachine``: a task is not offered again
        to a tracker it failed on.  A tracker whose disk died fails each
        attempt at once and is free again; while every other tracker is
        busy, it would take all ``max_attempts`` of one task before the
        per-job blacklist acts, and fail the job."""
        h = MRHarness(n_nodes=2, n_sites=1, hdfs_config=hog_config(
                          replication=2, disk_check_interval=None),
                      mr_config=hog_mr_config())
        h.client().preload_file("/in/short", h.hdfs_config.block_size)
        busy = h.submit("busy", num_maps=2, num_reduces=0,
                        map_cpu_per_block=2000.0)
        h.run(until=30.0)
        assert busy.running_map_tasks
        victim = "node099.site0.edu"
        h.add_node(victim)
        h.disks[victim].wipe()
        job = h.submit("short", num_maps=1, num_reduces=1,
                       input_file="/in/short")
        h.run_to_completion([busy, job])
        assert job.status == JobStatus.SUCCEEDED
        assert h.jobtracker.counters.get("attempts_failed") >= 1
        for task in job.maps + job.reduces:
            on_victim = [a for a in task.attempts
                         if a.tracker.host == victim]
            assert len(on_victim) <= 1, task

    def test_tracker_rejoin_reregisters(self):
        h = MRHarness(n_nodes=2, n_sites=1, mr_config=hog_mr_config())
        victim = h.hosts()[0]
        h.preempt_node(victim)
        h.run(until=60.0)
        assert h.jobtracker.live_tracker_count() == 1
        h.add_node(victim)
        h.run(until=70.0)
        assert h.jobtracker.live_tracker_count() == 2

    def test_stock_expiry_slower_than_hog(self):
        h_stock = MRHarness(n_nodes=2, n_sites=1, mr_config=stock_mr_config())
        h_stock.preempt_node(h_stock.hosts()[0])
        h_stock.run(until=120.0)
        assert h_stock.jobtracker.live_tracker_count() == 2  # still believed

        h_hog = MRHarness(n_nodes=2, n_sites=1, mr_config=hog_mr_config())
        h_hog.preempt_node(h_hog.hosts()[0])
        h_hog.run(until=120.0)
        assert h_hog.jobtracker.live_tracker_count() == 1  # detected


class TestSpeculation:
    def _slow_node_harness(self):
        h = MRHarness(n_nodes=4, n_sites=1,
                      mr_config=MRConfig(speculation_min_elapsed=5.0))
        # Make one node pathologically slow.
        slow = h.hosts()[0]
        h.tasktrackers[slow].speed = 0.05
        return h, slow

    def test_straggler_gets_backup_copy(self):
        h, slow = self._slow_node_harness()
        job = h.submit("spec", num_maps=8, num_reduces=1,
                       map_cpu_per_block=20.0)
        h.run_to_completion([job])
        assert job.status == JobStatus.SUCCEEDED
        assert h.jobtracker.counters.get("speculative_attempts") >= 1

    def test_speculation_disabled_no_backups(self):
        h = MRHarness(n_nodes=4, n_sites=1,
                      mr_config=MRConfig(speculative_execution=False))
        h.tasktrackers[h.hosts()[0]].speed = 0.2
        job = h.submit("nospec", num_maps=8, num_reduces=1,
                       map_cpu_per_block=20.0)
        h.run_to_completion([job])
        assert h.jobtracker.counters.get("speculative_attempts") == 0

    def test_at_most_two_copies(self):
        h, slow = self._slow_node_harness()
        job = h.submit("twocopies", num_maps=8, num_reduces=1,
                       map_cpu_per_block=20.0)

        def check(sim):
            while job.finish_time is None:
                for t in job.maps:
                    assert len(t.running_attempts) <= 2
                yield sim.timeout(1.0)

        h.sim.process(check(h.sim))
        h.run_to_completion([job])

    def test_losing_attempt_killed(self):
        h, slow = self._slow_node_harness()
        job = h.submit("kill", num_maps=8, num_reduces=1,
                       map_cpu_per_block=20.0)
        h.run_to_completion([job])
        if h.jobtracker.counters.get("speculative_attempts") > 0:
            assert h.jobtracker.counters.get("speculative_attempts_killed") >= 0
        # No attempt may still be running after the job is done.
        for t in job.maps + job.reduces:
            assert not t.running_attempts
