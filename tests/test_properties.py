"""Property-based tests (hypothesis) on core data structures and invariants."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.metrics import StepSeries
from repro.net import (
    DnsSiteResolver,
    FabricConfig,
    NetworkFabric,
    NetworkTopology,
)
from repro.sim import Simulator
from repro.sim.util import gather_safe
from repro.storage import Disk


hostnames = st.from_regex(r"[a-z]{1,8}\.[a-z]{1,8}\.(edu|gov|org)",
                          fullmatch=True)


class TestTopologyProperties:
    @given(st.lists(hostnames, min_size=1, max_size=30))
    def test_every_host_lands_in_exactly_one_site(self, hosts):
        resolver = DnsSiteResolver()
        topo = NetworkTopology(resolver)
        for h in hosts:
            topo.add_host(h)
        assert all(topo.site_of(h) == resolver.resolve(h) for h in hosts)
        assert topo.sites() == sorted({resolver.resolve(h) for h in hosts})

    @given(hostnames, hostnames)
    def test_same_site_is_symmetric(self, a, b):
        topo = NetworkTopology(DnsSiteResolver())
        assert topo.same_site(a, b) == topo.same_site(b, a)

    @given(hostnames, hostnames)
    def test_distance_symmetric_and_consistent(self, a, b):
        topo = NetworkTopology(DnsSiteResolver())
        d = topo.distance(a, b)
        assert d == topo.distance(b, a)
        if a == b:
            assert d == 0
        else:
            assert d in (2, 4)

    @given(st.lists(hostnames, min_size=1, max_size=20, unique=True))
    def test_resolution_count_equals_unique_hosts(self, hosts):
        calls = []

        class Counting(DnsSiteResolver):
            def resolve(self, hostname):
                calls.append(hostname)
                return super().resolve(hostname)

        topo = NetworkTopology(Counting())
        for h in hosts:
            topo.add_host(h)
            topo.add_host(h)  # idempotent
        assert calls == hosts


class TestStepSeriesProperties:
    @given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=1000.0),
                              st.floats(min_value=0.0, max_value=1e6)),
                    min_size=1, max_size=40))
    def test_area_additivity(self, increments):
        """integrate(a,c) == integrate(a,b) + integrate(b,c)."""
        s = StepSeries(initial=1.0)
        t = 0.0
        for dt, v in increments:
            t += dt
            s.record(t, v)
        end = t + 10.0
        mid = end / 2
        whole = s.integrate(0.0, end)
        parts = s.integrate(0.0, mid) + s.integrate(mid, end)
        assert whole == pytest.approx(parts, rel=1e-9, abs=1e-6)

    @given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=1000.0),
                              st.floats(min_value=0.0, max_value=100.0)),
                    min_size=1, max_size=40))
    def test_area_bounded_by_min_max(self, increments):
        s = StepSeries(initial=50.0)
        t = 0.0
        for dt, v in increments:
            t += dt
            s.record(t, v)
        end = t + 1.0
        area = s.integrate(0.0, end)
        assert s.min() * end - 1e-6 <= area <= s.max() * end + 1e-6

    @given(st.floats(min_value=0.0, max_value=1e5),
           st.floats(min_value=1e-3, max_value=1e5))
    def test_constant_series_area_exact(self, value, duration):
        s = StepSeries(initial=value)
        assert s.integrate(0.0, duration) == pytest.approx(value * duration)


class TestFabricProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                              st.floats(min_value=1.0, max_value=1e4)),
                    min_size=1, max_size=12))
    @example([(0, 0, 1.0), (0, 0, 1.0), (1, 1, 3.0), (1, 1, 3.0),
              (4, 0, 1.0), (4, 0, 1.0)])
    def test_all_transfers_complete_and_conserve_time(self, transfers):
        """Every transfer completes, and no transfer beats its uncontended
        lower bound.  (The pinned example ties flows 1,1 at their NIC and
        their WAN leg: when the 4,0 flows drain, the region certificate
        moves their bottleneck to the NIC, which must get a timer.)"""
        sim = Simulator()
        topo = NetworkTopology(DnsSiteResolver())
        fabric = NetworkFabric(sim, topo, FabricConfig(
            nic_bandwidth=100.0, site_uplink_bandwidth=150.0,
            intra_site_latency=0.0, inter_site_latency=0.0))
        events = []
        for si, di, size in transfers:
            src = f"n{si}.s{si % 3}.edu"
            dst = f"m{di}.t{di % 3}.edu"
            # No latency or overhead: bytes over the 100 B/s NICs.
            lower = size / 100.0
            events.append((fabric.transfer(src, dst, size), lower))
        sim.run()
        for ev, lower in events:
            assert ev.processed and ev.ok
        # Completion time can never beat the uncontended estimate.
        assert sim.now >= max(lower for _, lower in events) - 1e-6

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=12),
           st.floats(min_value=10.0, max_value=1e4))
    def test_fair_share_n_equal_flows(self, n, size):
        """n identical flows through one NIC finish together at n x the
        single-flow duration."""
        sim = Simulator()
        topo = NetworkTopology(DnsSiteResolver())
        fabric = NetworkFabric(sim, topo, FabricConfig(
            nic_bandwidth=100.0, site_uplink_bandwidth=1e9,
            intra_site_latency=0.0, inter_site_latency=0.0))
        events = [fabric.transfer("src.a.edu", f"d{i}.a.edu", size)
                  for i in range(n)]
        sim.run()
        assert all(ev.ok for ev in events)
        assert sim.now == pytest.approx(n * size / 100.0, rel=1e-6)


class TestDiskProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1,
                    max_size=20))
    def test_allocate_release_roundtrip(self, sizes):
        sim = Simulator()
        disk = Disk(sim, "h", capacity=1e9)
        for i, n in enumerate(sizes):
            disk.allocate(n, f"l{i}")
        assert disk.used == pytest.approx(sum(sizes))
        for i, n in enumerate(sizes):
            disk.release(n, f"l{i}")
        assert disk.used == pytest.approx(0.0, abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=10.0, max_value=1e4), min_size=1,
                    max_size=10))
    def test_concurrent_reads_total_time_is_total_bytes_over_rate(self, sizes):
        """Work conservation: the read channel drains sum(bytes)/rate when
        all reads start together."""
        sim = Simulator()
        disk = Disk(sim, "h", capacity=1e9, read_rate=100.0)
        events = [disk.read(n) for n in sizes]
        done = gather_safe(sim, events)
        sim.run(until=done)  # (stale timers may tick after completion)
        assert all(ev.ok for ev in events)
        assert sim.now == pytest.approx(sum(sizes) / 100.0, rel=1e-6)
