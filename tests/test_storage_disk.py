"""Tests for the local disk model (capacity, timed I/O, wipe/probe)."""

import random

import pytest

from repro.sim import Simulator
from repro.sim.util import gather_safe
from repro.storage import Disk, DiskFullError, DiskIOError


def make_disk(capacity=1000.0, read_rate=100.0, write_rate=50.0):
    sim = Simulator()
    return sim, Disk(sim, "n1.unl.edu", capacity, read_rate, write_rate)


class TestCapacity:
    def test_allocate_and_free(self):
        sim, disk = make_disk()
        disk.allocate(400.0, "hdfs")
        assert disk.used == 400.0
        assert disk.free == 600.0

    def test_overflow_raises(self):
        sim, disk = make_disk()
        disk.allocate(900.0, "hdfs")
        with pytest.raises(DiskFullError):
            disk.allocate(200.0, "intermediate")

    def test_release_by_label(self):
        sim, disk = make_disk()
        disk.allocate(300.0, "hdfs")
        disk.allocate(200.0, "intermediate")
        disk.release(100.0, "hdfs")
        assert disk.usage_by_label() == {"hdfs": 200.0, "intermediate": 200.0}

    def test_release_all_label(self):
        sim, disk = make_disk()
        disk.allocate(300.0, "intermediate")
        freed = disk.release_all("intermediate")
        assert freed == 300.0
        assert disk.used == 0.0

    def test_over_release_rejected(self):
        sim, disk = make_disk()
        disk.allocate(100.0, "hdfs")
        with pytest.raises(ValueError):
            disk.release(200.0, "hdfs")

    def test_release_tolerates_rounding_residue_of_large_totals(self):
        """A label total that passed through ~9 GB of fractional block
        sizes keeps a rounding residue of a few ulps of those totals:
        releasing the last whole block must not be judged an over-release
        (this crashed datanode replication receives)."""
        sim, disk = make_disk(capacity=24 * 2**30)
        block = 64 * 2**20
        rng = random.Random(10)
        sizes = [rng.uniform(1e6, block) for _ in range(300)]
        for n in sizes:
            disk.allocate(n, "hdfs")
        disk.allocate(block, "hdfs")
        for n in sizes:
            disk.release(n, "hdfs")
        assert disk.usage_by_label()["hdfs"] < block - 1e-6  # the residue
        disk.release(block, "hdfs")
        assert disk.used == pytest.approx(0.0, abs=1e-3)

    def test_negative_allocate_rejected(self):
        sim, disk = make_disk()
        with pytest.raises(ValueError):
            disk.allocate(-5.0)

    def test_zero_capacity_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Disk(sim, "x", 0.0)


class TestTimedIO:
    def test_read_duration(self):
        sim, disk = make_disk(read_rate=100.0)
        ev = disk.read(500.0)
        sim.run(until=ev)
        assert sim.now == pytest.approx(5.0)

    def test_write_duration(self):
        sim, disk = make_disk(write_rate=50.0)
        ev = disk.write(500.0)
        sim.run(until=ev)
        assert sim.now == pytest.approx(10.0)

    def test_concurrent_reads_share_bandwidth(self):
        sim, disk = make_disk(read_rate=100.0)
        e1 = disk.read(250.0)
        e2 = disk.read(250.0)
        sim.run(until=gather_safe(sim, [e1, e2]))
        assert sim.now == pytest.approx(5.0)

    def test_reads_and_writes_are_independent_channels(self):
        sim, disk = make_disk(read_rate=100.0, write_rate=100.0)
        e1 = disk.read(500.0)
        e2 = disk.write(500.0)
        sim.run(until=gather_safe(sim, [e1, e2]))
        assert sim.now == pytest.approx(5.0)

    def test_zero_byte_io_instant(self):
        sim, disk = make_disk()
        ev = disk.read(0.0)
        sim.run(until=ev)
        assert sim.now == 0.0


class TestWipe:
    def test_probe_healthy_then_wiped(self):
        sim, disk = make_disk()
        assert disk.probe() is True
        disk.wipe()
        assert disk.probe() is False
        assert not disk.alive

    def test_wipe_clears_usage(self):
        sim, disk = make_disk()
        disk.allocate(500.0, "hdfs")
        disk.wipe()
        assert disk.used == 0.0

    def test_io_after_wipe_fails(self):
        sim, disk = make_disk()
        disk.wipe()
        caught = []

        def proc(sim):
            try:
                yield disk.read(100.0)
            except DiskIOError as exc:
                caught.append(exc)

        sim.process(proc(sim))
        sim.run()
        assert len(caught) == 1

    def test_allocate_after_wipe_fails(self):
        sim, disk = make_disk()
        disk.wipe()
        with pytest.raises(DiskIOError):
            disk.allocate(10.0)

    def test_inflight_io_fails_on_wipe(self):
        sim, disk = make_disk(read_rate=100.0)
        ev = disk.read(1000.0)
        caught = []

        def watcher(sim):
            try:
                yield ev
            except DiskIOError:
                caught.append(sim.now)

        def wiper(sim):
            yield sim.timeout(3.0)
            disk.wipe()

        sim.process(watcher(sim))
        sim.process(wiper(sim))
        sim.run()
        assert caught == [3.0]
