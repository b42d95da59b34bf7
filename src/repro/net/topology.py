"""Grid network topology: hosts grouped into sites.

The paper (§III-B1) replaces Hadoop's rack awareness with *site awareness*:
worker nodes are classified by the last two labels of their DNS name
(``workername.site.edu`` → site ``site.edu``) using a topology script
configured as ``topology.script.file.name``.  :class:`DnsSiteResolver`
implements exactly that rule; :class:`NetworkTopology` is the registry the
Namenode and JobTracker consult.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = [
    "DEFAULT_SITE",
    "SiteResolver",
    "DnsSiteResolver",
    "FlatResolver",
    "NetworkTopology",
]

#: Site assigned to hosts the resolver cannot classify (mirrors Hadoop's
#: ``/default-rack``).
DEFAULT_SITE = "default-site"


class SiteResolver:
    """Maps a hostname to a site (failure/bandwidth domain) name.

    Subclasses implement :meth:`resolve`.  This plays the role of Hadoop's
    ``topology.script.file.name`` executable.
    """

    def resolve(self, hostname: str) -> str:
        """Return the site name for ``hostname``."""
        raise NotImplementedError


class DnsSiteResolver(SiteResolver):
    """The paper's DNS rule: site = last ``labels`` DNS labels of the host.

    ``node07.red.unl.edu`` → ``unl.edu`` with the default ``labels=2``.
    Hostnames with fewer labels than required fall back to
    :data:`DEFAULT_SITE`.
    """

    def __init__(self, labels: int = 2) -> None:
        if labels < 1:
            raise ValueError("labels must be >= 1")
        self.labels = labels

    def resolve(self, hostname: str) -> str:
        parts = hostname.strip().strip(".").split(".")
        if len(parts) <= self.labels:
            return DEFAULT_SITE
        return ".".join(parts[-self.labels:])


class FlatResolver(SiteResolver):
    """Places every host in one site — models a single-rack dedicated
    cluster (the paper's Table III baseline is configured as one rack)."""

    def __init__(self, site: str = "local-cluster") -> None:
        self.site = site

    def resolve(self, hostname: str) -> str:
        return self.site


class NetworkTopology:
    """Registry of known hosts and their site assignments.

    Mirrors Hadoop's ``NetworkTopology``: hosts are resolved once, on first
    contact (the topology script "is executed each time a new node is
    discovered by the namenode and the jobtracker").
    """

    def __init__(self, resolver: Optional[SiteResolver] = None) -> None:
        self._resolver = resolver or DnsSiteResolver()
        self._site_of: Dict[str, str] = {}

    def add_host(self, hostname: str) -> str:
        """Register ``hostname``; returns its site.  Idempotent."""
        site = self._site_of.get(hostname)
        if site is None:
            site = self._resolver.resolve(hostname)
            self._site_of[hostname] = site
        return site

    def site_of(self, hostname: str) -> str:
        """Site of a registered host (registers it if unknown)."""
        return self._site_of.get(hostname) or self.add_host(hostname)

    def same_site(self, a: str, b: str) -> bool:
        """True if two hosts share a site (the locality test used by both
        block placement and map-task scheduling).  Two per-host lookups:
        no state is kept per pair, since a many-to-many shuffle meets
        almost every pair only once."""
        return self.site_of(a) == self.site_of(b)

    def sites(self) -> List[str]:
        """All sites with at least one registered host."""
        return sorted(set(self._site_of.values()))

    def distance(self, a: str, b: str) -> int:
        """Hadoop-style distance: 0 same node, 2 same site, 4 cross-site."""
        if a == b:
            return 0
        return 2 if self.same_site(a, b) else 4

    def __repr__(self) -> str:
        return (f"<NetworkTopology {len(self._site_of)} hosts in "
                f"{len(self.sites())} sites>")
