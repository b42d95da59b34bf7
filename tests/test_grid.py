"""Tests for the grid substrate: submit files, sites, glidein lifecycle,
preemption."""

import numpy as np
import pytest

from repro.grid import (
    PAPER_SITES,
    CondorSchedd,
    Glidein,
    GlideinFactory,
    GridSite,
    GridSiteConfig,
    SitePolicy,
    SubmissionFile,
    WrapperConfig,
)
from repro.sim import Simulator


class TestSubmissionFile:
    def _listing1(self):
        return SubmissionFile(
            requirements=("FNAL_FERMIGRID", "USCMS-FNAL-WC1", "UCSDT2",
                          "AGLT2", "MIT_CMS"),
            queue=1000)

    def test_listing1_defaults(self):
        sub = self._listing1()
        assert sub.universe == "vanilla"
        assert sub.executable == "wrapper.sh"
        assert sub.when_to_transfer_output == "ON_EXIT_OR_EVICT"
        assert sub.on_exit_remove is False
        sub.validate()

    def test_render_contains_all_sites(self):
        text = self._listing1().render()
        for site in ("FNAL_FERMIGRID", "USCMS-FNAL-WC1", "UCSDT2",
                     "AGLT2", "MIT_CMS"):
            assert f'GLIDEIN_ResourceName =?= "{site}"' in text
        assert text.strip().endswith("queue 1000")

    def test_render_parse_roundtrip(self):
        sub = self._listing1()
        parsed = SubmissionFile.parse(sub.render())
        assert parsed == sub

    def test_parse_listing1_verbatim(self):
        # Listing 1, transcribed (line-wrapped quotes joined).
        text = '''
universe = vanilla
requirements = GLIDEIN_ResourceName =?= "FNAL_FERMIGRID" || GLIDEIN_ResourceName =?= "USCMS-FNAL-WC1" || GLIDEIN_ResourceName =?= "UCSDT2" || GLIDEIN_ResourceName =?= "AGLT2" || GLIDEIN_ResourceName =?= "MIT_CMS"
executable = wrapper.sh
output = condor_out/out.$(CLUSTER).$(PROCESS)
error = condor_out/err.$(CLUSTER).$(PROCESS)
log = hadoop-grid.log
should_transfer_files = YES
when_to_transfer_output = ON_EXIT_OR_EVICT
OnExitRemove = FALSE
PeriodicHold = false
x509userproxy = /tmp/x509up_u1384
queue 1000
'''
        sub = SubmissionFile.parse(text)
        assert sub.queue == 1000
        assert len(sub.requirements) == 5
        assert sub.x509userproxy == "/tmp/x509up_u1384"

    def test_empty_requirements_rejected(self):
        with pytest.raises(ValueError):
            SubmissionFile(requirements=(), queue=1).validate()

    def test_negative_queue_rejected(self):
        with pytest.raises(ValueError):
            SubmissionFile(requirements=("X",), queue=-1).validate()


class TestSitePolicy:
    def test_valid_policy(self):
        SitePolicy(preempt_rate=0.001, burst_rate=0.0005).validate()

    @pytest.mark.parametrize("kwargs", [
        dict(preempt_rate=-1), dict(burst_fraction=1.5),
        dict(scheduling_delay_mean=-1),
    ])
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SitePolicy(**kwargs).validate()


class TestGridSite:
    def test_capacity_accounting(self):
        site = GridSite(GridSiteConfig("X", "x.edu", capacity=2))
        assert site.free_slots == 2
        site.attach("g1")
        site.attach("g2")
        assert site.free_slots == 0
        with pytest.raises(RuntimeError):
            site.attach("g3")
        site.detach("g1")
        assert site.free_slots == 1

    def test_hostnames_unique_and_in_domain(self):
        site = GridSite(GridSiteConfig("X", "x.edu", capacity=10))
        names = {site.next_hostname() for _ in range(100)}
        assert len(names) == 100
        assert all(n.endswith(".x.edu") for n in names)

    def test_single_label_domain_rejected(self):
        with pytest.raises(ValueError):
            GridSiteConfig("X", "localhost", capacity=1).validate()

    def test_paper_sites_are_five_distinct_domains(self):
        sites = PAPER_SITES()
        assert len(sites) == 5
        names = {s.name for s in sites}
        assert names == {"FNAL_FERMIGRID", "USCMS-FNAL-WC1", "UCSDT2",
                         "AGLT2", "MIT_CMS"}
        assert len({s.domain for s in sites}) == 5


class TestWrapperConfig:
    def test_paper_package_size(self):
        assert WrapperConfig().package_bytes == 75 * 1024 * 1024

    def test_zombie_fix_default_on(self):
        assert WrapperConfig().zombie_fix is True

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            WrapperConfig(package_bytes=-1).validate()


class TestCondorSchedd:
    def test_submit_assigns_cluster_ids(self):
        schedd = CondorSchedd()

        class FakeJob:
            state = "idle"
            cluster_id = None

            def removed(self):
                self.state = "removed"

        jobs = [FakeJob() for _ in range(3)]
        c1 = schedd.submit(SubmissionFile(requirements=("X",), queue=3), jobs)
        assert all(j.cluster_id == c1 for j in jobs)
        assert len(schedd.idle_jobs()) == 3

        more = [FakeJob()]
        c2 = schedd.submit(SubmissionFile(requirements=("X",), queue=1), more)
        assert c2 == c1 + 1

    def test_remove(self):
        schedd = CondorSchedd()

        class FakeJob:
            state = "idle"
            cluster_id = None
            removals = 0

            def removed(self):
                self.state = "removed"
                self.removals += 1

        j = FakeJob()
        schedd.submit(SubmissionFile(requirements=("X",), queue=1), [j])
        schedd.remove(j)
        schedd.remove(j)  # no longer queued: a second condor_rm is a no-op
        assert j.removals == 1
        assert j.state == "removed"


def make_factory(preempt_rate=0.0, capacity=8, seed=0):
    """A factory over one site with an instant wrapper (no package
    download); node callbacks only log what reached the worker nodes."""
    sim = Simulator()
    policy = SitePolicy(preempt_rate=preempt_rate, scheduling_delay_mean=0.0)
    site = GridSite(GridSiteConfig("S0", "site0.edu", capacity, policy))
    log = {"preempt": [], "shutdown": []}
    factory = GlideinFactory(
        sim, CondorSchedd(), [site], fabric=None,
        rng=np.random.default_rng(seed),
        node_start=lambda host, site: host,
        node_preempt=lambda node, zombie: log["preempt"].append(node),
        node_shutdown=lambda node: log["shutdown"].append(node),
        wrapper=WrapperConfig(package_bytes=0, init_env_time=0.0,
                              daemon_start_time=0.0),
        negotiation_interval=10.0)
    return sim, factory, log


class TestPilotLifetime:
    """A pilot that left before its preemption clock fires is never
    preempted by that clock (mean lifetime 100 s; the runs below last
    100 lifetimes)."""

    def _running_pilot(self):
        sim, factory, log = make_factory(preempt_rate=0.01)
        factory.start()
        factory.set_target(1)
        sim.run(until=1.0)
        (pilot,) = factory.glideins()
        assert pilot.state == Glidein.RUNNING
        return sim, factory, log, pilot

    def test_burst_preempted_pilot_is_counted_once(self):
        sim, factory, log, pilot = self._running_pilot()
        factory.set_target(0)
        pilot.preempt()  # what a preemption burst does to its victims
        sim.run(until=10_000.0)
        assert pilot.state == Glidein.PREEMPTED
        assert factory.counters.get("glideins_preempted") == 1
        assert log["preempt"] == [pilot.hostname]

    def test_removed_pilot_is_never_preempted(self):
        sim, factory, log, pilot = self._running_pilot()
        factory.set_target(0)  # the next cycle condor_rm's the pilot
        sim.run(until=10_000.0)
        assert pilot.state == Glidein.REMOVED
        assert factory.counters.get("glideins_preempted") == 0
        assert log["preempt"] == []
        assert log["shutdown"] == [pilot.hostname]


class TestPilotBookkeeping:
    """Departed pilots leave the schedd queue and the factory's pilot
    map: both stay bounded by the live pilots under churn."""

    def test_departed_pilots_leave_queue_and_factory(self):
        sim, factory, _log = make_factory(preempt_rate=0.01)
        factory.start()
        factory.set_target(6)
        sim.run(until=2_000.0)
        preempted = factory.counters.get("glideins_preempted")
        assert preempted > 20
        live = factory.pending_count() + factory.running_count()
        assert len(factory.schedd._queue) == live
        assert len(factory._glideins) == live
        # Elastic shrink: removed pilots leave both too.
        factory.set_target(2)
        sim.run(until=sim.now + 15.0)
        assert factory.counters.get("glideins_removed") > 0
        live = factory.pending_count() + factory.running_count()
        assert live <= 2
        assert len(factory.schedd._queue) == live
        assert len(factory._glideins) == live
        assert set(factory._glideins.values()) == \
            set(factory.schedd._queue.values())
