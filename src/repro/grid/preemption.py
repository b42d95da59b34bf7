"""Recorded and replayable preemption schedules.

The stochastic preemption in :class:`~repro.grid.site.SitePolicy` models
*typical* OSG behaviour; for controlled experiments (and for replaying an
interesting Figure 5 execution exactly) a **trace** pins every preemption
to a time and a victim choice.

A trace is a list of :class:`PreemptionEvent`; ``TraceRecorder`` captures
one from a live run, and ``TraceDriver`` replays one against a
:class:`~repro.grid.glidein.GlideinFactory`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import List, Optional

from ..sim.engine import Simulator
from .glidein import Glidein, GlideinFactory

__all__ = ["PreemptionEvent", "PreemptionTrace", "TraceRecorder", "TraceDriver"]


@dataclass(frozen=True)
class PreemptionEvent:
    """One preemption: at ``time``, site ``site`` evicts ``count`` nodes.

    ``zombie`` overrides the wrapper's zombie_fix for this event (``None``
    = follow the wrapper).  Victims are the site's longest-running
    glideins (deterministic given the same provisioning history).
    """

    time: float
    site: str
    count: int = 1
    zombie: Optional[bool] = None

    def validate(self) -> None:
        """Raise ``ValueError`` on nonsensical events."""
        if self.time < 0:
            raise ValueError("event time cannot be negative")
        if self.count < 1:
            raise ValueError("count must be >= 1")


class PreemptionTrace:
    """An ordered preemption schedule, serializable to/from JSON."""

    def __init__(self, events: Optional[List[PreemptionEvent]] = None) -> None:
        self.events: List[PreemptionEvent] = sorted(
            events or [], key=lambda e: e.time)
        for e in self.events:
            e.validate()

    def __len__(self) -> int:
        return len(self.events)

    def add(self, event: PreemptionEvent) -> None:
        """Insert an event, keeping time order."""
        event.validate()
        self.events.append(event)
        self.events.sort(key=lambda e: e.time)

    # -- serialization -----------------------------------------------------------
    def to_json(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps([asdict(e) for e in self.events], indent=1)

    @classmethod
    def from_json(cls, text: str) -> "PreemptionTrace":
        """Parse a trace serialized by :meth:`to_json`."""
        return cls([PreemptionEvent(**d) for d in json.loads(text)])


class TraceRecorder:
    """Captures every preemption of a live run into a trace.

    Hooks the factory's counters path by wrapping ``node_preempt``; the
    recorded trace replays the same *times* and *sites* (victim identity
    is re-resolved deterministically on replay).
    """

    def __init__(self, sim: Simulator, factory: GlideinFactory) -> None:
        self.sim = sim
        self.factory = factory
        self.trace = PreemptionTrace()
        self._wrapped = factory.node_preempt
        factory.node_preempt = self._record

    def _record(self, node, zombie: bool) -> None:
        site = getattr(node, "site_name", None) or "unknown"
        self.trace.add(PreemptionEvent(time=self.sim.now, site=site,
                                       count=1, zombie=zombie))
        self._wrapped(node, zombie=zombie)

    def detach(self) -> PreemptionTrace:
        """Stop recording; returns the trace."""
        self.factory.node_preempt = self._wrapped
        return self.trace


class TraceDriver:
    """Replays a :class:`PreemptionTrace` against a factory.

    Use with churn-free site policies (``preempt_rate=0``) so the trace is
    the *only* source of preemptions.
    """

    def __init__(self, sim: Simulator, factory: GlideinFactory,
                 trace: PreemptionTrace) -> None:
        self.sim = sim
        self.factory = factory
        self.trace = trace
        #: Events that found no running glidein to evict.
        self.skipped = 0
        self._start: Optional[float] = None
        self._stopped = False

    def start(self) -> None:
        """Begin replaying (from the current simulation time)."""
        if self._start is not None:
            raise RuntimeError("trace driver already started")
        self._start = self.sim.now
        self.sim.call_soon(self._replay, 0)

    def _replay(self, i: int) -> None:
        """Fire the due trace events from ``i`` on; sleep until the next."""
        events = self.trace.events
        while i < len(events):
            when = self._start + events[i].time
            if when > self.sim.now:
                self.sim.call_after(when - self.sim.now, self._wake, i)
                return
            self._fire(events[i])
            i += 1

    def _wake(self, i: int) -> None:
        """Event ``i`` fell due: fire it, unless stopped while asleep."""
        if not self._stopped:
            self._fire(self.trace.events[i])
            self._replay(i + 1)

    def _fire(self, event: PreemptionEvent) -> None:
        site = next((s for s in self.factory.sites if s.name == event.site),
                    None)
        victims: List[Glidein] = []
        if site is not None:
            running = sorted(site.running_glideins(),
                             key=lambda g: g.glidein_id)
            victims = running[:event.count]
        if not victims:
            self.skipped += event.count
            return
        for g in victims:
            g.preempt(zombie=event.zombie)

    def stop(self) -> None:
        """Abort the replay."""
        self._stopped = True
