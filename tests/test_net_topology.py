"""Tests for site-awareness topology resolution (paper §III-B1)."""

import pytest

from repro.net import (
    DEFAULT_SITE,
    DnsSiteResolver,
    FlatResolver,
    NetworkTopology,
)


class CountingResolver(DnsSiteResolver):
    """The DNS rule, counting its invocations (the topology script runs)."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def resolve(self, hostname: str) -> str:
        self.calls += 1
        return super().resolve(hostname)


class TestDnsSiteResolver:
    def test_paper_rule_last_two_labels(self):
        # "The worker nodes will be separated depending on the last two
        # groups, the site.edu."
        r = DnsSiteResolver()
        assert r.resolve("workername.site.edu") == "site.edu"

    def test_deep_hostname(self):
        r = DnsSiteResolver()
        assert r.resolve("node07.red.hcc.unl.edu") == "unl.edu"

    def test_same_site_same_result(self):
        r = DnsSiteResolver()
        assert r.resolve("a.fnal.gov") == r.resolve("b.fnal.gov") == "fnal.gov"

    def test_short_hostname_falls_back_to_default(self):
        r = DnsSiteResolver()
        assert r.resolve("localhost") == DEFAULT_SITE
        assert r.resolve("site.edu") == DEFAULT_SITE  # no worker label

    def test_trailing_dot_stripped(self):
        r = DnsSiteResolver()
        assert r.resolve("n1.ucsd.edu.") == "ucsd.edu"

    def test_custom_label_count(self):
        r = DnsSiteResolver(labels=3)
        assert r.resolve("n1.t2.mit.edu") == "t2.mit.edu"

    def test_invalid_label_count(self):
        with pytest.raises(ValueError):
            DnsSiteResolver(labels=0)


class TestFlatResolver:
    def test_everything_one_site(self):
        r = FlatResolver("rack0")
        assert r.resolve("a.x.edu") == "rack0"
        assert r.resolve("b.y.gov") == "rack0"


class TestNetworkTopology:
    def test_add_and_lookup(self):
        topo = NetworkTopology()
        site = topo.add_host("n1.unl.edu")
        assert site == "unl.edu"
        assert topo.site_of("n1.unl.edu") == "unl.edu"
        assert topo._site_of == {"n1.unl.edu": "unl.edu"}

    def test_resolver_invoked_once_per_host(self):
        # The topology script "is executed each time a new node is
        # discovered" — i.e. once, then cached.
        resolver = CountingResolver()
        topo = NetworkTopology(resolver)
        topo.add_host("n1.unl.edu")
        topo.add_host("n1.unl.edu")
        topo.site_of("n1.unl.edu")
        assert resolver.calls == 1

    def test_lazy_registration_via_site_of(self):
        topo = NetworkTopology()
        assert topo.site_of("n9.mit.edu") == "mit.edu"
        assert "n9.mit.edu" in topo._site_of

    def test_same_site(self):
        topo = NetworkTopology()
        assert topo.same_site("a.fnal.gov", "b.fnal.gov")
        assert not topo.same_site("a.fnal.gov", "a.ucsd.edu")

    def test_sites_and_members(self):
        topo = NetworkTopology()
        for h in ["a.fnal.gov", "b.fnal.gov", "c.ucsd.edu"]:
            topo.add_host(h)
        assert topo.sites() == ["fnal.gov", "ucsd.edu"]
        assert topo.site_of("b.fnal.gov") == "fnal.gov"
        assert "d.fnal.gov" not in topo._site_of

    def test_hadoop_style_distance(self):
        topo = NetworkTopology()
        assert topo.distance("a.unl.edu", "a.unl.edu") == 0
        assert topo.distance("a.unl.edu", "b.unl.edu") == 2
        assert topo.distance("a.unl.edu", "b.mit.edu") == 4

    def test_five_paper_sites(self):
        # The evaluation restricted execution to 5 OSG sites.
        topo = NetworkTopology()
        sites = ["fnal.gov", "wc1.fnal.gov", "ucsd.edu", "aglt2.org", "mit.edu"]
        for i, s in enumerate(sites):
            topo.add_host(f"worker{i}.{s}")
        # wc1.fnal.gov workers resolve to fnal.gov (last two labels).
        assert len(topo.sites()) == 4
