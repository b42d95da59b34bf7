"""Heartbeat liveness: the one failure detector both masters run.

HOG's availability story is one protocol applied twice (§III-B):
datanodes heartbeat the namenode, tasktrackers heartbeat the jobtracker,
and each master declares a silent worker dead after the same timeout
(stock Hadoop ~10-15 min; HOG 30 s).  :class:`LivenessTable` is that
protocol — a table of last-heard times plus a lazy deadline heap — and
each master keeps only what it does with a verdict.

- **Adaptive period.**  A member's heartbeat period is the configured
  floor, lengthened as the cluster grows so the master's cluster-wide
  heartbeat rate stays near ``rate`` (stock Hadoop 1.x behaviour); the
  expiry is stretched to four periods so scaled-up clusters do not flap.
- **Tie rule.**  A member is dead iff ``last_heartbeat + expiry < now``
  — strict, like Hadoop 0.20's ``isDatanodeDead``: a member heard from
  exactly ``expiry`` seconds ago is still alive.
- **Lazy heap.**  Exactly one ``(deadline, host)`` entry per live host,
  pushed when the host joins the live set, never per heartbeat.  A heap
  deadline is a lower bound on the member's true deadline (beats only
  push it later), so :meth:`LivenessTable.expire` pops only entries
  already past and re-aims those whose member was heard from since: a
  check costs O(expired), not O(members).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["Descriptor", "LivenessTable"]


class Descriptor:
    """A master's view of one worker daemon (a datanode or tasktracker)."""

    __slots__ = ("member", "last_heartbeat", "alive")

    def __init__(self, member, now: float) -> None:
        self.member = member
        self.last_heartbeat = now
        #: The master's belief — may lag reality by up to the expiry.
        self.alive = True

    @property
    def host(self) -> str:
        """Hostname of the tracked daemon."""
        return self.member.host


class LivenessTable:
    """Last-heard times, live set and expiry heap of one master."""

    def __init__(self, base_interval: float, rate: float,
                 expiry: float) -> None:
        self._base = base_interval
        self._rate = rate
        self._expiry = expiry
        #: host → descriptor of the daemon last registered there.
        self.members: Dict[str, Descriptor] = {}
        #: Believed-alive hosts (insertion-ordered dict as a set).
        self.live: Dict[str, None] = {}
        self._heap: List[Tuple[float, str]] = []

    def interval(self) -> float:
        """Per-member heartbeat period: ``max(base, live / rate)``; the
        floor alone when ``rate`` is 0."""
        rate = self._rate
        if rate <= 0:
            return self._base
        return max(self._base, len(self.live) / rate)

    def expiry(self) -> float:
        """Effective silence before a member is dead: the configured
        value, stretched to four adaptive periods."""
        return max(self._expiry, 4.0 * self.interval())

    def register(self, member, now: float) -> Optional[Descriptor]:
        """Track ``member`` at its host, heard from at ``now``; returns
        the descriptor it replaces.  A host without a live entry joins
        the live set and gets one heap entry; a live member replaced in
        place keeps its entry."""
        host = member.host
        old = self.members.get(host)
        self.members[host] = Descriptor(member, now)
        if old is None or not old.alive:
            self._join(host, now)
        return old

    def revive(self, desc: Descriptor) -> None:
        """A member declared dead heartbeats again (its beat already
        stored in ``last_heartbeat``)."""
        desc.alive = True
        self._join(desc.host, desc.last_heartbeat)

    def _join(self, host: str, now: float) -> None:
        self.live[host] = None
        heappush(self._heap, (now + self.expiry(), host))

    def expire(self, now: float) -> Iterator[Descriptor]:
        """Yield each live member silent past the expiry at ``now``,
        already marked dead and out of the live set.  Lazy: the caller
        handles each verdict before the next entry is examined."""
        expiry = self.expiry()
        heap = self._heap
        members = self.members
        while heap and heap[0][0] < now:
            _, host = heappop(heap)
            desc = members[host]
            deadline = desc.last_heartbeat + expiry
            if deadline < now:
                desc.alive = False
                del self.live[host]
                yield desc
            else:
                # Heard from since the entry was pushed: re-aim.
                heappush(heap, (deadline, host))
