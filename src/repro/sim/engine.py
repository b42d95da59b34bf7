"""The discrete-event simulation core.

:class:`Simulator` owns simulated time and the event heap.  Bodies that
wait more than once in sequence, or that someone waits on (task attempts,
pilot startups, HDFS operations), are generator processes; daemon
cadences are callback-timer chains.  One simulator drives them all.

Example
-------
>>> sim = Simulator()
>>> def hello(sim):
...     yield sim.timeout(3.0)
...     return "done at %g" % sim.now
>>> p = sim.process(hello(sim))
>>> sim.run()
>>> p.value
'done at 3'
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, List, Optional, Tuple

from .events import (
    NORMAL,
    POOL_MAX,
    PROCESSED,
    TRIGGERED,
    URGENT,
    CallbackTimer,
    EngineProfile,
    Event,
    Process,
    Timeout,
)

__all__ = ["Simulator", "EmptySchedule"]


class EmptySchedule(Exception):
    """Raised internally when the event heap runs dry."""


class Simulator:
    """A discrete-event simulator with generator-based processes.

    Parameters
    ----------
    start:
        Initial simulated time (seconds).
    """

    def __init__(self, start: float = 0.0, pooling: bool = True) -> None:
        self._now: float = float(start)
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._counter = count()
        self._active_proc: Optional[Process] = None
        #: Pending shared wake-ups by absolute timestamp (see `call_at`).
        self._wakeups: dict = {}
        #: Free lists of fired, recyclable event objects (see
        #: :class:`~repro.sim.events.Timeout` /
        #: :class:`~repro.sim.events.CallbackTimer`).  ``pooling=False``
        #: disables recycling (benchmark A/B baseline).
        self._timeout_pool: List[Timeout] = []
        self._timer_pool: List[CallbackTimer] = []
        self._pool_cap: int = POOL_MAX if pooling else 0
        #: Total events processed over the simulator's lifetime (perf metric
        #: for benchmark harnesses: events/sec of wall time).
        self.events_processed: int = 0
        #: Optional :class:`~repro.sim.events.EngineProfile` sampled at
        #: each dispatch.  ``None`` (default) costs one attribute load per
        #: event; profiling is read-only either way.
        self.profile: Optional[EngineProfile] = None
        #: The daemons' shared heartbeat clock
        #: (:class:`~repro.sim.liveness.HeartbeatClock`), made on first use.
        self.hb_clock = None
        #: Every event scheduled at or before this instant has run (set
        #: when a run stops on its horizon or a dry heap, not when it
        #: stops right after an event): lets a parked heartbeat at the
        #: current instant be known to have beaten already.
        self.settled_through = float("-inf")

    # -- time -----------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_proc

    # -- event factories -------------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` simulated seconds from now.

        Served from the free list of fired timeouts when one is
        available; see :class:`~repro.sim.events.Timeout` for the
        recycling contract.
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative timeout delay {delay!r}")
            t = pool.pop()
            t.callbacks = []
            t._value = value
            t._state = TRIGGERED
            t.delay = delay
            prof = self.profile
            if prof is not None:
                prof.timeout_pool_reuses += 1
            heappush(self._heap,
                     (self._now + delay, NORMAL, next(self._counter), t))
            return t
        return Timeout(self, delay, value)

    def process(self, generator, name: str = "") -> Process:
        """Start ``generator`` as a new simulation process."""
        return Process(self, generator, name=name)

    # -- callback timers (the resume-free fast path) ---------------------------
    def _acquire_timer(self, at_time: float, priority: int) -> CallbackTimer:
        """Pooled CallbackTimer scheduled at absolute ``at_time``."""
        pool = self._timer_pool
        if pool:
            t = pool.pop()
            t._state = TRIGGERED
            prof = self.profile
            if prof is not None:
                prof.timer_pool_reuses += 1
        else:
            t = CallbackTimer(self)
        heappush(self._heap, (at_time, priority, next(self._counter), t))
        return t

    def call_at(self, when: float, fn, arg: Any = None) -> CallbackTimer:
        """Call ``fn(arg)`` at absolute sim time ``when`` (coalesced).

        All callers asking for the same timestamp before it fires share
        a single heap entry, and their ``(fn, arg)`` pairs run in
        registration order at dispatch — no event value, no callbacks-list
        churn, no generator resume.  ``when`` at or before the current
        time fires "now" (still asynchronously).  The returned timer is
        pooled; never retain it past its fire, and never ``yield`` it.
        """
        wakeups = self._wakeups
        t = wakeups.get(when)
        if t is None:
            # _acquire_timer inlined: the hottest timer entry point (every
            # heartbeat beat and flow start passes through here).
            pool = self._timer_pool
            if pool:
                t = pool.pop()
                t._state = TRIGGERED
                prof = self.profile
                if prof is not None:
                    prof.timer_pool_reuses += 1
            else:
                t = CallbackTimer(self)
            now = self._now
            heappush(self._heap, (when if when > now else now, NORMAL,
                                  next(self._counter), t))
            t.when = when
            wakeups[when] = t
        fns = t._fns
        fns.append(fn)
        fns.append(arg)
        return t

    def call_after(self, delay: float, fn, arg: Any = None) -> CallbackTimer:
        """Call ``fn(arg)`` ``delay`` sim-seconds from now (dedicated).

        Unlike :meth:`call_at` the timer is *not* shared: it owns its
        heap entry, exactly like ``timeout(delay)`` with one callback
        appended, minus the event-object overhead.  Use for one-shot
        deferred actions and for the obs probe and invariant ticks, whose
        fire counts are subtracted from ``events_processed``.  Cadences
        that may share instants (daemon heartbeats, flow starts) use
        ``call_at(sim._now + delay, ...)``: one entry per instant.
        """
        if delay < 0:
            raise ValueError(f"negative timer delay {delay!r}")
        t = self._acquire_timer(self._now + delay, NORMAL)
        fns = t._fns
        fns.append(fn)
        fns.append(arg)
        return t

    def call_soon(self, fn, arg: Any = None) -> CallbackTimer:
        """Call ``fn(arg)`` at the current instant, URGENT priority.

        Mirrors the scheduling of a new process's initializer (URGENT at
        ``now``): converted daemon loops use it so their first action
        keeps the exact dispatch slot the generator version had.
        """
        t = self._acquire_timer(self._now, URGENT)
        fns = t._fns
        fns.append(fn)
        fns.append(arg)
        return t

    # -- scheduling -------------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Place a triggered event on the heap ``delay`` seconds from now."""
        heappush(self._heap, (self._now + delay, priority, next(self._counter), event))

    def step(self) -> None:
        """Process the single next event."""
        try:
            when, _, _, event = heappop(self._heap)
        except IndexError:
            raise EmptySchedule() from None
        self._now = when
        self.events_processed += 1
        if self.profile is not None:
            self.profile.note(event, len(self._heap))
        event._process()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap is empty or simulated time reaches ``until``.

        ``until`` may also be an :class:`Event`; the run then stops as soon
        as that event has been processed.
        """
        if isinstance(until, Event):
            self._dispatch(until, float("inf"))
            if until._state < PROCESSED:
                raise RuntimeError(
                    "simulation ran out of events before `until` fired")
            return
        horizon = float("inf")
        if until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(f"until={horizon!r} is in the past (now={self._now!r})")
        # A never-triggered stand-in keeps the loop's stop check uniform.
        self._dispatch(Event(self), horizon)
        if horizon != float("inf"):
            self._now = horizon

    def run_until(self, event: Event, deadline: float = float("inf")) -> bool:
        """Advance straight through real events until ``event`` has fired.

        Unlike ``run(until=event)`` this never raises when the schedule
        runs dry, and unlike fixed-step polling it stops at the *exact*
        simulated instant the event is processed.  Events scheduled at or
        before ``deadline`` are processed; if ``event`` has not fired by
        then, time is advanced to ``deadline`` (when finite) and ``False``
        is returned.  Returns ``True`` as soon as ``event`` has fired.
        """
        self._dispatch(event, deadline)
        if event._state >= PROCESSED:
            return True
        if deadline != float("inf"):
            self._now = max(self._now, deadline)
        return False

    def _dispatch(self, stop: Event, horizon: float) -> None:
        """The dispatch loop behind :meth:`run` and :meth:`run_until`.

        Processes events at or before ``horizon`` until the heap runs dry
        or ``stop`` has been processed.  Batched same-instant dispatch:
        all heap entries sharing (time, priority) drain in one inner loop
        with a single ``_now`` write and one ``events_processed`` flush
        per batch.  The stop check stays per-event so a run halts at the
        exact dispatch ``stop`` is processed, mid-batch included.
        """
        heap = self._heap
        pop = heappop
        while heap and stop._state < PROCESSED:
            when, priority = heap[0][0], heap[0][1]
            if when > horizon:
                break
            self._now = when
            prof = self.profile
            n = 0
            while True:
                _, _, _, event = pop(heap)
                n += 1
                if prof is not None:
                    prof.note(event, len(heap))
                event._process()
                if stop._state >= PROCESSED or not heap:
                    break
                head = heap[0]
                if head[0] != when or head[1] != priority:
                    break
            self.events_processed += n
            if prof is not None:
                prof.note_batch(n)
        if stop._state < PROCESSED:
            # Stopped by the horizon or a dry heap: every event at or
            # before it has run.
            self.settled_through = (horizon if horizon != float("inf")
                                    else self._now)

    def __repr__(self) -> str:
        return f"<Simulator t={self._now:g} pending={len(self._heap)}>"
