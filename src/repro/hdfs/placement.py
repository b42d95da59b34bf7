"""Block placement policies: Hadoop's rack-aware default and HOG's
site-aware extension.

Hadoop's default (rack awareness): first replica on the writer's node,
second on a different rack, third on the same rack as the second, further
replicas spread randomly.  HOG re-interprets "rack" as OSG *site* and adds
a third failure level — "HOG's data placement and replication policy takes
the site failure into account when it places data blocks" (§I) — so
replicas of a block are spread across as many sites as possible, guarding
against whole-site preemption bursts.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..net.topology import NetworkTopology

__all__ = ["SiteAwarePolicy", "LiveHostIndex"]


class LiveHostIndex:
    """Event-maintained per-site live-host lists for the placement hot path.

    The namenode keeps one of these current (O(1) add/discard via
    swap-pop and a position map), and :class:`SiteAwarePolicy` draws from
    the cached lists directly instead of grouping the live hosts by site
    for every block placed.

    Draws permute a site's list in place (swap-to-end); that is harmless —
    each list is a set of hosts whose order carries no meaning — and every
    swap goes through :meth:`swap` so positions stay exact.  All iteration
    orders are insertion-ordered (dicts), never hash-ordered, preserving
    the sim's hash-seed determinism.
    """

    __slots__ = ("_topology", "_lists", "_pos")

    def __init__(self, topology: NetworkTopology) -> None:
        self._topology = topology
        self._lists: Dict[str, List[str]] = {}
        #: host → (site, index into that site's list).
        self._pos: Dict[str, Tuple[str, int]] = {}

    def __contains__(self, host: str) -> bool:
        return host in self._pos

    def __len__(self) -> int:
        return len(self._pos)

    def add(self, host: str) -> None:
        """Start tracking ``host`` (idempotent)."""
        if host in self._pos:
            return
        site = self._topology.site_of(host)
        lst = self._lists.setdefault(site, [])
        self._pos[host] = (site, len(lst))
        lst.append(host)

    def discard(self, host: str) -> None:
        """Stop tracking ``host`` (idempotent); O(1) swap-pop."""
        entry = self._pos.pop(host, None)
        if entry is None:
            return
        site, i = entry
        lst = self._lists[site]
        last = lst.pop()
        if last != host:
            lst[i] = last
            self._pos[last] = (site, i)
        if not lst:
            del self._lists[site]

    def site_of(self, host: str) -> Optional[str]:
        """Site of a tracked host, or ``None`` if untracked."""
        entry = self._pos.get(host)
        return entry[0] if entry is not None else None

    def sites(self) -> List[str]:
        """Sites with at least one tracked host (insertion order)."""
        return list(self._lists)

    def site_size(self, site: str) -> int:
        """Tracked hosts at ``site``."""
        return len(self._lists.get(site, ()))

    def site_list(self, site: str) -> List[str]:
        """The *shared* mutable host list of ``site`` — callers must only
        reorder it through :meth:`swap`."""
        return self._lists[site]

    def swap(self, site: str, i: int, j: int) -> None:
        """Exchange two positions of a site's list, keeping the position
        map consistent."""
        if i == j:
            return
        lst = self._lists[site]
        lst[i], lst[j] = lst[j], lst[i]
        self._pos[lst[i]] = (site, i)
        self._pos[lst[j]] = (site, j)


class SiteAwarePolicy:
    """Spread replicas across failure domains (racks or sites).

    The same code implements both stock rack awareness and HOG site
    awareness: the failure domain is whatever the topology resolver
    reports.  Selection order:

    1. the writer's own node (data locality for the writer),
    2. a node in a *different* domain than the first replica,
    3. remaining replicas round-robin over the domains with the fewest
       replicas so far, random node within the domain.
    """

    def __init__(self, topology: NetworkTopology, rng: np.random.Generator) -> None:
        self.topology = topology
        self.rng = rng

    def choose_targets(self, writer: Optional[str], count: int,
                       existing: Set[str], space_ok: Callable[[str], bool],
                       index: LiveHostIndex) -> List[str]:
        """Return up to ``count`` live hosts for new replicas.

        ``writer`` gets the first replica if it is a viable datanode
        (``None`` for re-replication); hosts in ``existing`` already hold
        (or are receiving) a replica and are never chosen; ``space_ok``
        tests whether a host can accept one more block; ``index`` holds
        the live datanodes grouped by site.

        Capacity is probed lazily (only for hosts actually considered),
        and draws run directly against the cached per-site lists, so
        placement cost scales with the replica count, not the cluster
        size.  Per-call state is one ``site → remaining draw window`` map.
        A draw picks a random host inside the site's window, swaps it to
        the window's end, and shrinks the window — so within one call no
        host is considered twice (taken or full hosts fall out of the
        window), while across calls the lists merely end up permuted."""
        chosen: List[str] = []
        taken: Set[str] = set(existing)
        #: site → how many of its hosts are still drawable this call.
        windows: Dict[str, int] = {s: index.site_size(s)
                                   for s in index.sites()}
        site_load: Dict[str, int] = {s: 0 for s in windows}
        # Pure commutative count — the result is order-independent.
        for h in taken:  # set-order-ok
            s = self.topology.site_of(h)
            if s in site_load:
                site_load[s] += 1

        def draw(site: str) -> Optional[str]:
            lst = index.site_list(site)
            window = windows[site]
            while window > 0:
                i = int(self.rng.integers(window))
                host = lst[i]
                index.swap(site, i, window - 1)
                window -= 1
                if host not in taken and space_ok(host):
                    windows[site] = window
                    return host
            windows[site] = 0
            return None

        # 1. Writer-local replica.
        if writer is not None and count > 0 and writer not in taken \
                and writer in index and space_ok(writer):
            wsite = index.site_of(writer)
            chosen.append(writer)
            taken.add(writer)
            site_load[wsite] += 1

        # 2. Always pick from the least-loaded domain.
        while len(chosen) < count:
            open_sites = [s for s in windows if windows[s] > 0]
            if not open_sites:
                break
            site = min(open_sites, key=lambda s: (site_load[s], s))
            host = draw(site)
            if host is None:
                continue
            chosen.append(host)
            taken.add(host)
            site_load[site] += 1
        return chosen
