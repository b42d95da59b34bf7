"""Small coordination helpers on top of the core engine."""

from __future__ import annotations

from typing import Any, List, Optional

from .engine import Simulator
from .events import Event

__all__ = ["gather_safe", "Outcome", "expected_failure"]


class Outcome:
    """Result of one event inside :func:`gather_safe`."""

    __slots__ = ("ok", "value", "error")

    def __init__(self, ok: bool, value: Any = None, error: BaseException = None) -> None:
        self.ok = ok
        self.value = value
        self.error = error

    def __repr__(self) -> str:
        return f"Outcome(ok={self.ok}, {'value=%r' % (self.value,) if self.ok else 'error=%r' % (self.error,)})"


def expected_failure(sim: Simulator, exc: BaseException) -> BaseException:
    """Defuse the running process and return ``exc`` for it to raise.

    An operation whose process is its own completion event raises its
    documented failures through this: such a failure does not crash the
    run while nobody waits on the process yet (a balancer yields its
    moves one at a time), and a waiter still gets ``exc`` thrown in.
    Any other exception leaves the process armed, so it still crashes.
    """
    sim._active_proc._defused = True
    return exc


def gather_safe(sim: Simulator, events: List[Event]) -> Event:
    """Wait for *all* events, collecting failures instead of propagating.

    Waits for every event, even after one fails, and fires with a list
    of :class:`Outcome` in input order: the engine's one fan-in.  Used for
    fan-out operations where partial success is meaningful (e.g. an HDFS
    write pipeline where one target dies).

    Implemented with plain callbacks (no helper processes): shuffle fan-out
    runs this on every fetch batch, so each saved process is two fewer heap
    events.
    """
    events = list(events)
    result = sim.event()
    outcomes: List[Optional[Outcome]] = [None] * len(events)
    pending = [len(events)]

    if not events:
        result.succeed([])
        return result

    def settle(i: int, ev: Event) -> None:
        if ev._ok:
            outcomes[i] = Outcome(True, value=ev._value)
        else:
            ev._defused = True  # the Outcome takes responsibility for it
            outcomes[i] = Outcome(False, error=ev._value)
        pending[0] -= 1
        if pending[0] == 0:
            result.succeed(outcomes)

    for i, ev in enumerate(events):
        if ev.callbacks is None:  # already processed
            settle(i, ev)
        else:
            ev.callbacks.append(
                lambda fired, i=i: settle(i, fired))
    return result
