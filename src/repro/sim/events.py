"""Core event primitives for the discrete-event simulation engine.

The engine follows the classic process-interaction style (as popularised by
SimPy): simulation *processes* are Python generators that ``yield`` events;
the engine resumes a process when the event it is waiting on fires.

Events move through three states:

``PENDING``
    Created but not yet scheduled to fire.
``TRIGGERED``
    Placed on the event heap with a firing time; its value is decided.
``PROCESSED``
    Its callbacks have run.

Failures propagate: an event may *fail* with an exception, in which case
the exception is thrown into every waiting process (unless it has been
:meth:`Event.defused`).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

__all__ = [
    "PENDING",
    "TRIGGERED",
    "PROCESSED",
    "Event",
    "EngineProfile",
    "Timeout",
    "CallbackTimer",
    "Process",
    "Interrupt",
]

#: Free-list bound for recycled :class:`Timeout`/:class:`CallbackTimer`
#: objects.  Sized for the deepest same-instant burst a 10k-node run
#: produces; beyond it, surplus fired timers fall back to the allocator.
POOL_MAX = 4096

PENDING = 0
TRIGGERED = 1
PROCESSED = 2

#: Scheduling priorities (lower fires first at equal times).
URGENT = 0
NORMAL = 1


class Event:
    """A happening at a point in simulated time that processes can wait on.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.engine.Simulator`.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state", "_defused")

    def __init__(self, sim: "Simulator") -> None:  # noqa: F821
        self.sim = sim
        #: Callables invoked with this event when it is processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._state: int = PENDING
        self._defused: bool = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._state >= TRIGGERED

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state >= PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception) once triggered."""
        if self._state < TRIGGERED:
            raise RuntimeError(f"value of {self!r} is not yet available")
        return self._value

    def result(self) -> Any:
        """The event's value; re-raises the exception if the event failed."""
        if self._state < TRIGGERED:
            raise RuntimeError(f"result of {self!r} is not yet available")
        if not self._ok:
            raise self._value
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule the event to fire successfully with ``value``."""
        if self._state != PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        self.sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule the event to fire as a failure carrying ``exception``."""
        if self._state != PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = TRIGGERED
        self.sim._schedule(self, delay)
        return self

    def defused(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    # -- engine hooks --------------------------------------------------------
    def _process(self) -> None:
        """Run callbacks; called by the engine when the event fires."""
        callbacks, self.callbacks = self.callbacks, None
        self._state = PROCESSED
        assert callbacks is not None
        for cb in callbacks:
            cb(self)
        if not self._ok and not self._defused:
            raise self._value

    def __repr__(self) -> str:
        state = {PENDING: "pending", TRIGGERED: "triggered", PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay.

    Fired timeouts whose only waiter was a generator process are recycled
    into the simulator's free list (``sim.timeout`` draws from it), so the
    steady-state sleep/resume cycle allocates nothing.  The recycling
    contract: never retain a reference to a yielded timeout past its fire
    — in-engine code never does, and the pool only reclaims the
    single-process-waiter case, so plain callback waiters keep ordinary
    object lifetimes.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        # Timeouts are the hottest allocation in the simulation; the base
        # initialiser is inlined to save a call per event.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = TRIGGERED
        self._defused = False
        self.delay = delay
        sim._schedule(self, delay)

    def _process(self) -> None:
        # Timeouts cannot fail, so the base class's failure re-raise is
        # dead weight here; the common single-waiter case additionally
        # feeds the free list.
        callbacks, self.callbacks = self.callbacks, None
        self._state = PROCESSED
        if len(callbacks) == 1:
            cb = callbacks[0]
            cb(self)
            if getattr(cb, "__func__", None) is Process._resume:
                # Sole waiter was a generator sleep: nobody can hold a
                # live reference any more (the process has moved on to a
                # new target), so the object is safe to recycle.
                sim = self.sim
                pool = sim._timeout_pool
                if len(pool) < sim._pool_cap:
                    pool.append(self)
            return
        for cb in callbacks:
            cb(self)


class CallbackTimer(Event):
    """A fire-once timer that invokes ``(fn, arg)`` pairs directly.

    The fast-path twin of :class:`Timeout`: hot fire-once timers (channel
    bottleneck/group wake-ups, heartbeat ticks, probe ticks) do not need
    an event value, failure propagation, or generator resumption — just
    "call this function at that time".  A :class:`CallbackTimer` skips
    the callbacks-list churn and ``Process._resume`` entirely: its
    ``_fns`` flat list holds ``fn0, arg0, fn1, arg1, ...`` and dispatch
    is a plain call loop.

    Timers created through :meth:`~repro.sim.engine.Simulator.call_at`
    are *shared per timestamp*: ``when`` holds the registry key while
    registered, and the dispatch removes the key with an identity check
    so a successor registered under the same key is never evicted.  Fired
    timers are recycled into the simulator's free list — never retain one
    past its fire.

    Do not ``yield`` a CallbackTimer from a process; use
    ``sim.timeout`` for events processes wait on.
    """

    __slots__ = ("when", "_fns")

    def __init__(self, sim: "Simulator") -> None:  # noqa: F821
        self.sim = sim
        self.callbacks = None
        self._value = None
        self._ok = True
        self._state = TRIGGERED
        self._defused = False
        #: The ``sim._wakeups`` key this timer is registered under, or
        #: ``None`` for standalone (``call_after``) timers.
        self.when: Optional[float] = None
        self._fns: list = []

    def _process(self) -> None:
        sim = self.sim
        when = self.when
        if when is not None:
            self.when = None
            # Identity-guarded key cleanup: a callback running this
            # instant may re-register the same timestamp; its successor
            # must not be evicted by *our* cleanup (the dict-aliasing
            # pitfall).  Removing the key *before* the call loop keeps
            # the old shared-wakeup ordering: cleanup first, then
            # attached actions.
            wakeups = sim._wakeups
            if wakeups.get(when) is self:
                del wakeups[when]
        self._state = PROCESSED
        fns = self._fns
        self._fns = None
        i = 0
        n = len(fns)
        while i < n:
            fns[i](fns[i + 1])
            i += 2
        fns.clear()
        pool = sim._timer_pool
        if len(pool) < sim._pool_cap:
            # Recycle the object *and* its list allocation.
            self._fns = fns
            pool.append(self)


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called."""

    @property
    def cause(self) -> Any:
        """The value passed to :meth:`Process.interrupt` (``None`` when
        the interrupt was raised without one)."""
        return self.args[0] if self.args else None


class _Initialize(Event):
    """Immediate event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process") -> None:  # noqa: F821
        super().__init__(sim)
        self._ok = True
        self._value = None
        self._state = TRIGGERED
        assert self.callbacks is not None
        self.callbacks.append(process._resume)
        sim._schedule(self, 0.0, priority=URGENT)


class Process(Event):
    """A running simulation process.

    A process wraps a generator; it is itself an event that fires when the
    generator returns (value = the generator's return value) or raises
    (failure).  Processes may be interrupted, which raises
    :class:`Interrupt` inside the generator at its current yield point.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, sim: "Simulator", generator, name: str = "") -> None:  # noqa: F821
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on (None if not waiting).
        self._target: Optional[Event] = None
        _Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point.

        Interrupting a dead process is an error; interrupting a process
        that is waiting on an event detaches it from that event first.
        """
        if self._state != PENDING:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self._target is self:
            raise RuntimeError("a process cannot interrupt itself synchronously")
        _Interruption(self, cause)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the fired ``event``."""
        self.sim._active_proc = self
        while True:
            if event._ok:
                try:
                    target = self._generator.send(event._value)
                except StopIteration as exc:
                    self._finish_ok(getattr(exc, "value", None))
                    break
                except BaseException as exc:
                    self._finish_fail(exc)
                    break
            else:
                # Throw the failure into the process; mark it defused since
                # the process is taking responsibility for it.
                event._defused = True
                try:
                    target = self._generator.throw(event._value)
                except StopIteration as exc:
                    self._finish_ok(getattr(exc, "value", None))
                    break
                except BaseException as exc:
                    self._finish_fail(exc)
                    break

            if not isinstance(target, Event):
                self._finish_fail(
                    RuntimeError(f"process {self.name!r} yielded non-event {target!r}")
                )
                break
            if target.sim is not self.sim:
                self._finish_fail(
                    RuntimeError(f"process {self.name!r} yielded a foreign event")
                )
                break
            if target.callbacks is not None:
                # Event not yet processed: register and go to sleep.
                target.callbacks.append(self._resume)
                self._target = target
                break
            # Event already processed: loop immediately with its value.
            event = target

        self.sim._active_proc = None

    def _finish_ok(self, value: Any) -> None:
        self._target = None
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        self.sim._schedule(self, 0.0)

    def _finish_fail(self, exc: BaseException) -> None:
        self._target = None
        self._ok = False
        self._value = exc
        self._state = TRIGGERED
        self.sim._schedule(self, 0.0)

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


class _Interruption(Event):
    """Internal immediate event that delivers an interrupt to a process."""

    __slots__ = ("process",)

    def __init__(self, process: Process, cause: Any) -> None:
        super().__init__(process.sim)
        self.process = process
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self._state = TRIGGERED
        assert self.callbacks is not None
        self.callbacks.append(self._deliver)
        self.sim._schedule(self, 0.0, priority=URGENT)

    def _deliver(self, event: Event) -> None:
        proc = self.process
        if proc._state != PENDING:
            return  # Process finished before the interrupt fired: drop it.
        if proc._target is not None:
            # Detach from the event the process was waiting on.
            if proc._target.callbacks is not None:
                try:
                    proc._target.callbacks.remove(proc._resume)
                except ValueError:
                    pass
            proc._target = None
        proc._resume(self)


class EngineProfile:
    """Self-profiling counters for the dispatch loop.

    Attach one as ``Simulator.profile`` to see where events go: dispatch
    counts by event class, process resumes vs. plain callbacks, and the
    heap's high-water depth — the data the ROADMAP's raw-throughput work
    needs instead of guesses.  When ``Simulator.profile`` is ``None``
    (the default) the engine pays one attribute load per event and
    nothing else; profiling itself is observational only (it reads the
    fired event's callback list before dispatch, mutating nothing), so
    enabling it cannot change a simulation outcome.
    """

    __slots__ = ("dispatched", "dispatch_by_kind", "callbacks_run",
                 "process_resumes", "heap_high_water",
                 "callback_timer_fires", "timer_callbacks_run",
                 "timeout_pool_reuses", "timer_pool_reuses",
                 "batches", "batch_size_hist")

    def __init__(self) -> None:
        self.dispatched = 0
        #: event class name → times an instance was popped and processed.
        self.dispatch_by_kind: dict = {}
        #: Callbacks invoked across all dispatched events.
        self.callbacks_run = 0
        #: Callbacks that were generator-process resumptions.
        self.process_resumes = 0
        #: Deepest the event heap got (sampled at each pop).
        self.heap_high_water = 0
        #: :class:`CallbackTimer` dispatches (the resume-free fast path).
        self.callback_timer_fires = 0
        #: Direct ``(fn, arg)`` calls made by fired callback timers.
        self.timer_callbacks_run = 0
        #: ``sim.timeout`` acquisitions served from the free list.
        self.timeout_pool_reuses = 0
        #: Callback-timer acquisitions served from the free list.
        self.timer_pool_reuses = 0
        #: Same-``(time, priority)`` dispatch batches drained by run loops.
        self.batches = 0
        #: Power-of-two batch-size buckets → batch count.
        self.batch_size_hist: dict = {}

    def note(self, event: Event, heap_depth: int) -> None:
        """Account one event about to be dispatched.

        Must run *before* ``event._process()`` — processing clears the
        callback list this inspects.
        """
        self.dispatched += 1
        if heap_depth > self.heap_high_water:
            self.heap_high_water = heap_depth
        kind = type(event).__name__
        by_kind = self.dispatch_by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if type(event) is CallbackTimer:
            self.callback_timer_fires += 1
            fns = event._fns
            if fns:
                self.timer_callbacks_run += len(fns) >> 1
            return
        callbacks = event.callbacks
        if callbacks:
            self.callbacks_run += len(callbacks)
            resume = Process._resume
            for cb in callbacks:
                if getattr(cb, "__func__", None) is resume:
                    self.process_resumes += 1

    def note_batch(self, size: int) -> None:
        """Account one same-instant dispatch batch of ``size`` events."""
        self.batches += 1
        bucket = 1 if size <= 1 else 1 << (size - 1).bit_length()
        hist = self.batch_size_hist
        hist[bucket] = hist.get(bucket, 0) + 1

    def as_dict(self) -> dict:
        """JSON-ready snapshot of the profile."""
        return {
            "dispatched": self.dispatched,
            "dispatch_by_kind": dict(self.dispatch_by_kind),
            "callbacks_run": self.callbacks_run,
            "process_resumes": self.process_resumes,
            "heap_high_water": self.heap_high_water,
            "callback_timer_fires": self.callback_timer_fires,
            "timer_callbacks_run": self.timer_callbacks_run,
            "timeout_pool_reuses": self.timeout_pool_reuses,
            "timer_pool_reuses": self.timer_pool_reuses,
            "batches": self.batches,
            "batch_size_hist": {str(k): v for k, v in
                                sorted(self.batch_size_hist.items())},
        }
