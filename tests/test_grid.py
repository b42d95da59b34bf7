"""Tests for the grid substrate: submit files, sites, glidein lifecycle,
preemption."""

import numpy as np
import pytest

from repro.grid import (
    PAPER_SITES,
    CondorSchedd,
    GridSite,
    GridSiteConfig,
    SitePolicy,
    SubmissionFile,
    WrapperConfig,
)


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
