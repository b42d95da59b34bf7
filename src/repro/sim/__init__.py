"""Discrete-event simulation engine used by every substrate in the repo.

Public surface:

- :class:`Simulator` — the event loop and clock.
- :class:`Event`, :class:`Timeout`, :class:`Process`, :class:`Interrupt`
  — event primitives (fan-in: :func:`repro.sim.util.gather_safe`).
- :class:`FairQueue`, :class:`Constraint`, :class:`Demand` — the unified
  max-min fair shared-resource core (network + disk rate sharing).
- :class:`RngRegistry` — reproducible named random streams.
- :class:`StepSeries`, :class:`CounterSet` — measurement.
"""

from .channel import Constraint, Demand, FairQueue
from .engine import EmptySchedule, Simulator
from .events import CallbackTimer, Event, Interrupt, Process, Timeout
from .monitor import CounterSet, StepSeries
from .rng import RngRegistry

__all__ = [
    "Simulator",
    "EmptySchedule",
    "FairQueue",
    "Constraint",
    "Demand",
    "Event",
    "Timeout",
    "CallbackTimer",
    "Process",
    "Interrupt",
    "RngRegistry",
    "StepSeries",
    "CounterSet",
]
