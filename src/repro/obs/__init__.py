"""Unified telemetry subsystem.

One coherent observability layer over the whole reproduction, replacing
the scattered ad-hoc counters that used to be hand-plucked per consumer:

- :mod:`repro.obs.registry` — a metrics registry (counters, gauges,
  power-of-two histogram buckets) that absorbs every per-subsystem
  counter behind one :meth:`~repro.obs.registry.Registry.snapshot`;
- :mod:`repro.obs.probes` — sim-time series probes sampling registered
  gauges on a configurable cadence into
  :class:`~repro.sim.monitor.StepSeries` timelines;
- :mod:`repro.obs.trace` — a causal tracer (job → task attempt →
  shuffle/HDFS flow spans with parent ids, heartbeat-round and
  filling-pass events) exportable as Chrome trace-event JSON;
- :mod:`repro.obs.memory` — per-phase garbage-collector runs and peak
  RSS, read at phase boundaries only;
- :mod:`repro.obs.diff` — the run-diff engine behind
  ``python -m repro.obs.inspect --diff`` and the scale-sweep benchmark's
  ``--check-against`` regression gate;
- :mod:`repro.obs.inspect` — the CLI rendering snapshots, timelines,
  and threshold-flagged diffs of two result files.

The hard contract (enforced by ``tests/test_obs.py``): telemetry is
**zero-cost when disabled and decision-free when enabled** — the same
spec and seed produce byte-identical simulation payloads with tracing
and probing off, on, and at any sampling cadence.
"""

from .registry import Registry
from .probes import ProbeSet
from .trace import Tracer
from .diff import DiffEntry, Thresholds, diff_records, diff_reports

__all__ = ["Registry", "ProbeSet", "Tracer",
           "DiffEntry", "Thresholds", "diff_records", "diff_reports"]
