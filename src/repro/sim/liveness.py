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

Beats are dispatched by one :class:`HeartbeatClock` per simulator: one
coalesced ``call_at`` per instant, the daemons due then called in chain
order (the order they started in, so lockstep daemons — a node's
datanode and tasktracker, or a restored site's nodes — keep their
relative order however they were armed).

**Parking.**  Most beats only refresh ``last_heartbeat`` and bump a
counter.  After a real beat, the master decides whether the daemon's
following beats provably do nothing else (its park predicate); if so
the daemon *parks*: it arms no timer and keeps its chain position
(``Descriptor.next_beat``) and epoch.  Its skipped beats are *resolved*
(replayed) only when something reads them or a wake trigger fires:

- **Replay.**  Skipped beat k+1 is ``t_k + interval(t_k)`` — the same
  addition and the same adaptive period as a real beat.  The table
  keeps a log of live-count changes; ``interval(t)`` uses every change
  at an instant ``< t``.
- **Tie rule.**  A change logged at exactly a replayed instant is
  ambiguous — the real beat could have run on either side of it — and
  counts in :attr:`HeartbeatClock.ties` when it moves the period (so
  does a job-list change, one of the master's ``marks``, at a replayed
  instant).  A change made once every beat of its instant has provably
  run (the simulator settled the instant, or that instant's beat batch
  already fired) is logged just after it (:meth:`LivenessTable.stamp`)
  and is no tie.  Dispatch order gives ties too: a wake that must arm a
  beat at the current instant out of chain order, and a beat armed as
  the first of its instant while another source already holds a
  coalesced timer there and a chain is parked (a parked chain may have
  registered that instant first in a run that never parks, ahead of the
  other source's callbacks).  A stop exactly on a parked beat is a tie
  too.  Ties are counted conservatively, and ``bench_scale_sweep``
  fails on any.  Not counted: a timeout or ``call_after`` event due
  exactly on a beat instant and created between the moment a parked
  chain would have armed that instant and the moment an awake one does
  (the engine does not index such events by instant); the comparison
  with a run that never parks (``tests/test_parking.py``) covers it.
- **Resolve contract.**  :meth:`LivenessTable.expire` resolves a parked
  member before judging it; a daemon's shutdown, kill and zombie entry
  resolve up to that instant and drop the park (:meth:`drop`,
  :meth:`wake`); masters resolve their counters before anyone reads
  them (:meth:`resolve_all`).  Once every parked chain is resolved to
  an instant no replay starts before it again, so the change log and
  the marks keep only their last entry before it; a log outgrowing
  :meth:`LivenessTable.log_bound` is resolved and trimmed that way.
- **Wake.**  :meth:`wake` resolves a parked daemon up to now and arms
  its next beat (the first chain instant not yet beaten) as a real one.
  What triggers a wake is the master's business: the jobtracker wakes
  only the trackers that would act, one at a time in chain order.

Replayed beats call the master's ``on_replay(desc, instants)`` hook, if
set, with the replayed beat instants (the jobtracker counts heartbeats
and rounds from them).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heappop, heappush
from math import inf, nextafter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Descriptor", "HeartbeatClock", "LivenessTable"]

#: Change-log and mark entries a table keeps, beyond two per member,
#: before it resolves its parked chains and trims (:meth:`log_bound`).
LOG_SLACK = 4096


class Descriptor:
    """A master's view of one worker daemon (a datanode or tasktracker)."""

    __slots__ = ("member", "last_heartbeat", "alive", "next_beat",
                 "park_epoch", "park_id")

    def __init__(self, member, now: float) -> None:
        self.member = member
        self.last_heartbeat = now
        #: The master's belief — may lag reality by up to the expiry.
        self.alive = True
        #: While parked: the first unresolved beat instant; else ``None``.
        self.next_beat: Optional[float] = None
        #: The daemon epoch the park was taken at.
        self.park_epoch = 0
        #: Bumped on every park (stale-entry filter for wake heaps).
        self.park_id = 0

    @property
    def host(self) -> str:
        """Hostname of the tracked daemon."""
        return self.member.host


class HeartbeatClock:
    """Dispatches every heartbeat of one simulator, in chain order.

    A daemon enrolls at each start (:meth:`enroll` hands out its chain
    order) and arms each beat with :meth:`arm`.  All beats due at one
    instant share one ``call_at`` entry and run sorted by chain order;
    a beat armed at the instant being dispatched joins the running
    batch at its place.  Daemons expose ``_hb_seq``, ``_hb_epoch`` and
    ``_hb_tick(epoch)``.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        #: instant → [(seq, epoch, daemon)] sorted by seq.
        self._due: Dict[float, list] = {}
        self._seq = 0
        self._firing: Optional[float] = None
        self._batch: list = []
        self._pos = 0
        #: Instant of the last batch dispatched.
        self.fired_at: Optional[float] = None
        #: The liveness tables whose members beat here.
        self.tables: List["LivenessTable"] = []
        #: Ambiguous ties met by any table or by dispatch (must stay 0).
        self.ties = 0

    @classmethod
    def of(cls, sim) -> "HeartbeatClock":
        """The simulator's clock (created on first use)."""
        clock = sim.hb_clock
        if clock is None:
            clock = sim.hb_clock = cls(sim)
        return clock

    def enroll(self) -> int:
        """A fresh chain order for a daemon (re)starting now."""
        self._seq += 1
        return self._seq

    def arm(self, when: float, daemon) -> None:
        """Schedule ``daemon``'s beat at ``when``, counting a tie when its
        dispatch order may differ from a run that never parks."""
        entry = (daemon._hb_seq, daemon._hb_epoch, daemon)
        if when == self._firing:
            # Join the running batch after the beat now dispatching; in
            # order only if this chain sorts after it.
            batch = self._batch
            pos = self._pos
            batch.insert(bisect_left(batch, entry, pos), entry)
            if batch[pos - 1][0] > entry[0]:
                self.ties += 1
            return
        batch = self._due.get(when)
        if batch is None:
            sim = self.sim
            if when <= sim._now or (when in sim._wakeups and any(
                    table.parked for table in self.tables)):
                self.ties += 1
            self._due[when] = [entry]
            sim.call_at(when, self._fire, when)
            return
        if batch[-1][0] < entry[0]:
            batch.append(entry)
        else:
            insort(batch, entry)

    def _fire(self, when: float) -> None:
        batch = self._due.pop(when)
        self._firing = when
        self._batch = batch
        i = 0
        while i < len(batch):
            _, epoch, daemon = batch[i]
            i += 1
            self._pos = i
            daemon._hb_tick(epoch)
        self._firing = None
        self._batch = []
        self.fired_at = when

    def armed(self) -> Dict[int, None]:
        """``id`` of every daemon with a live beat armed (a pure read)."""
        out: Dict[int, None] = {}
        for batch in (self._batch[self._pos:], *self._due.values()):
            for _, epoch, daemon in batch:
                if epoch == daemon._hb_epoch:
                    out[id(daemon)] = None
        return out


class LivenessTable:
    """Last-heard times, live set and expiry heap of one master."""

    def __init__(self, base_interval: float, rate: float,
                 expiry: float, clock: HeartbeatClock) -> None:
        self._base = base_interval
        self._rate = rate
        self._expiry = expiry
        self.clock = clock
        clock.tables.append(self)
        #: host → descriptor of the daemon last registered there.
        self.members: Dict[str, Descriptor] = {}
        #: Believed-alive hosts (insertion-ordered dict as a set).
        self.live: Dict[str, None] = {}
        self._heap: List[Tuple[float, str]] = []
        #: Live-count change log: instants, and the period from each on.
        self._log_t: List[float] = []
        self._log_step: List[float] = []
        #: Sorted instants a replayed beat must not land on (the
        #: master's own ambiguity marks; see module docstring), and the
        #: master's value from each on (:meth:`mark`).
        self.marks: List[float] = []
        self.mark_values: List[int] = []
        #: host → descriptor of each parked member.
        self.parked: Dict[str, Descriptor] = {}
        #: Master bookkeeping for replayed beats (see module docstring).
        self.on_replay: Optional[Callable] = None
        #: Replayed beats and wakes (obs counters; ties are the clock's).
        self.replayed = 0
        self.wakes = 0

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
        place keeps its entry.  A parked member being replaced is woken
        first: its next beat re-registers it."""
        host = member.host
        old = self.members.get(host)
        if old is not None and old.next_beat is not None:
            self.wake(old, now)
        self.members[host] = Descriptor(member, now)
        if old is None or not old.alive:
            self._join(host, now)
        return old

    def revive(self, desc: Descriptor) -> None:
        """A member declared dead heartbeats again (its beat already
        stored in ``last_heartbeat``)."""
        desc.alive = True
        self._join(desc.host, desc.last_heartbeat)

    def stamp(self, now: float) -> float:
        """Log instant of a change made at ``now``: just after ``now``
        when every beat due at ``now`` has provably run — the simulator
        settled the instant, or its beat batch was dispatched (all beats
        of one instant share it) — else ``now`` itself."""
        clock = self.clock
        if clock.sim.settled_through >= now or clock.fired_at == now:
            return nextafter(now, inf)
        return now

    def _join(self, host: str, now: float) -> None:
        self.live[host] = None
        self._log_change(now)
        heappush(self._heap, (now + self.expiry(), host))

    def _log_change(self, now: float) -> None:
        if len(self._log_t) >= self.log_bound():
            self.resolve_all(now)
        self._log_t.append(self.stamp(now))
        self._log_step.append(self.interval())

    def mark(self, now: float, value: int) -> None:
        """Log a master change at ``now`` that a replayed beat reads
        (``value`` from then on) and must not land on."""
        if len(self.marks) >= self.log_bound():
            self.resolve_all(now)
        self.marks.append(self.stamp(now))
        self.mark_values.append(value)

    def log_bound(self) -> int:
        """Most entries the change log or the marks hold: past it the
        table resolves every parked chain and trims."""
        return LOG_SLACK + 2 * len(self.members)

    def expire(self, now: float) -> Iterator[Descriptor]:
        """Yield each live member silent past the expiry at ``now``,
        already marked dead and out of the live set.  Lazy: the caller
        handles each verdict before the next entry is examined.  A parked
        member is resolved before it is judged."""
        expiry = self.expiry()
        heap = self._heap
        members = self.members
        while heap and heap[0][0] < now:
            _, host = heappop(heap)
            desc = members[host]
            if desc.next_beat is not None:
                self.resolve(desc, now)
            deadline = desc.last_heartbeat + expiry
            if deadline < now:
                desc.alive = False
                del self.live[host]
                self._log_change(now)
                yield desc
            else:
                # Heard from since the entry was pushed: re-aim.
                heappush(heap, (deadline, host))

    # -- parking ------------------------------------------------------------
    def park(self, desc: Descriptor, next_beat: float) -> bool:
        """Park ``desc``'s daemon after a real beat whose successors are
        provably bookkeeping only; ``next_beat`` is the beat it would arm.
        Returns False when the table does not park (the caller arms)."""
        desc.next_beat = next_beat
        desc.park_epoch = desc.member._hb_epoch
        desc.park_id += 1
        self.parked[desc.member.host] = desc
        return True

    def resolve(self, desc: Descriptor, until: float) -> None:
        """Replay ``desc``'s parked beats at instants ``< until``."""
        t = desc.next_beat
        if t >= until:
            return
        log_t = self._log_t
        steps = self._log_step
        nlog = len(log_t)
        base = self._base
        out: list = []
        ties = 0
        i = 0
        while t < until:
            # The beat at t: its period counts the changes before t.
            i = bisect_left(log_t, t, i)
            step = steps[i - 1] if i else base
            if i < nlog and log_t[i] == t:
                # A change at this very instant is ambiguous only if it
                # moves the period (the floor usually binds).
                k = i
                while k < nlog and log_t[k] == t:
                    if steps[k] != step:
                        ties += 1
                    k += 1
            out.append(t)
            t = t + step
        marks = self.marks
        if marks and marks[-1] >= out[0]:
            j = bisect_left(marks, out[0])
            while j < len(marks) and marks[j] <= out[-1]:
                k = bisect_left(out, marks[j])
                if out[k] == marks[j]:
                    ties += 1
                j += 1
        desc.next_beat = t
        desc.last_heartbeat = out[-1]
        self.replayed += len(out)
        self.clock.ties += ties
        hook = self.on_replay
        if hook is not None:
            hook(desc, out)

    def resolve_all(self, now: float) -> None:
        """Resolve every parked member up to ``now`` (before a counter
        read), then trim the change log and the marks."""
        until = self.stamp(now)
        for desc in self.parked.values():
            self.resolve(desc, until)
        # No replay starts before ``until`` any more: of the entries
        # before it only the last (the value from then on) is read.
        for times, values in ((self._log_t, self._log_step),
                              (self.marks, self.mark_values)):
            k = bisect_left(times, until) - 1
            if k > 0:
                del times[:k]
                del values[:k]

    def _unpark(self, desc: Descriptor, until: float) -> float:
        self.resolve(desc, until)
        del self.parked[desc.member.host]
        t = desc.next_beat
        desc.next_beat = None
        return t

    def wake(self, desc: Descriptor, now: float) -> float:
        """Resolve a parked daemon up to ``now`` and arm its next beat
        (the first chain instant not yet beaten) as a real one; returns
        that instant."""
        t = self._unpark(desc, self.stamp(now))
        self.wakes += 1
        self.clock.arm(t, desc.member)
        return t

    def drop(self, desc: Descriptor, now: float,
             ambiguous: bool = True) -> None:
        """The daemon stops at ``now``: resolve the beats it made and
        forget the park.  A beat due exactly at ``now`` of an unsettled
        instant is a tie unless the caller knows the stop precedes it
        (``ambiguous``)."""
        if self._unpark(desc, self.stamp(now)) == now and ambiguous:
            self.clock.ties += 1

    def parked_desc(self, member) -> Optional[Descriptor]:
        """``member``'s descriptor if it is parked, else ``None``."""
        desc = self.parked.get(member.host)
        if desc is not None and desc.member is member:
            return desc
        return None
