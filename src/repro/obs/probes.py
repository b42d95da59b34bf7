"""Sim-time series probes: sample registered gauges on a cadence.

A :class:`ProbeSet` owns one self-rescheduling timer.  Every
``interval`` simulated seconds it reads each registered gauge (live
nodes, active flows, pending maps/reduces, under-replication queue
depth, event-heap depth, ...) into a
:class:`~repro.sim.monitor.StepSeries`, giving every run per-gauge
timelines keyed by sim time.

Decision-free by construction: the timer is a plain callback — it reads
gauges, records values, and re-arms; it never mutates simulation state
and never draws randomness.  Its heap entries consume tie-break counter
values, which preserves the *relative* order of all other same-instant
events, so enabling probes (at any cadence) cannot flip a simulation
decision.

Zero-cost accounting: each fired probe tick is exactly ONE engine event
(a pooled callback timer via ``Simulator.call_after`` — no event object,
no generator process), counted in :attr:`ProbeSet.events_injected` — consumers
subtract it from ``Simulator.events_processed`` so reported event counts
are identical with probes off, on, or at any cadence (the determinism
guard asserts this byte-for-byte).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..sim.engine import Simulator
from ..sim.monitor import StepSeries

__all__ = ["ProbeSet"]


class ProbeSet:
    """Samples ``gauges`` every ``interval`` sim-seconds into series."""

    def __init__(self, sim: Simulator,
                 gauges: Dict[str, Callable[[], float]],
                 interval: float) -> None:
        if interval <= 0:
            raise ValueError(f"probe interval must be positive, got {interval!r}")
        self.sim = sim
        self.interval = float(interval)
        self._gauges = dict(gauges)
        #: gauge name → its sampled step series.
        self.series: Dict[str, StepSeries] = {
            name: StepSeries(name) for name in self._gauges}
        #: Probe timer events that actually fired (exactly one engine
        #: event each) — subtract from ``events_processed`` for
        #: obs-invariant event counts.
        self.events_injected = 0
        self.samples = 0
        self._running = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Take an immediate first sample and arm the cadence timer."""
        if self._running or not self._gauges:
            return
        self._running = True
        self._sample()
        self._arm()

    def stop(self) -> None:
        """Disarm: the pending timer (if any) fires once more as a no-op
        (its callback sees ``_running`` false and neither samples nor
        re-arms) — or never, if the run ends first."""
        self._running = False

    # -- internals ---------------------------------------------------------
    def _arm(self) -> None:
        # A dedicated entry, never the coalescing call_at: each tick must
        # be exactly one engine event, because events_injected is
        # subtracted from events_processed.
        self.sim.call_after(self.interval, self._tick)

    def _tick(self, _arg) -> None:
        self.events_injected += 1
        if not self._running:
            return
        self._sample()
        self._arm()

    def _sample(self) -> None:
        now = self.sim.now
        self.samples += 1
        series = self.series
        for name, fn in self._gauges.items():
            series[name].record(now, fn())

    # -- export ------------------------------------------------------------
    def timelines(self, max_points: Optional[int] = None) -> Dict[str, dict]:
        """JSON-ready ``{gauge: {"t": [...], "v": [...]}}`` timelines.

        ``max_points`` caps each series via
        :meth:`StepSeries.downsample` so huge runs stay storable.
        """
        out: Dict[str, dict] = {}
        for name, s in self.series.items():
            if len(s) == 0:
                continue
            times, values = s.downsample(max_points) if max_points \
                else (list(s.times), list(s.values))
            out[name] = {"t": [round(float(t), 3) for t in times],
                         "v": [float(v) for v in values]}
        return out
