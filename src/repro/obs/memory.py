"""Per-phase memory telemetry: garbage-collector runs and peak RSS.

At the end of each runner phase, :class:`MemoryMeter` records how many
collections each garbage-collector generation ran during the phase (the
deltas of :func:`gc.get_stats`) and the process's peak resident set size
so far (``ru_maxrss``).  It reads two process counters per phase boundary
and installs no per-event hook, so it costs nothing between phases.

The section is obs-only: collector timing follows the process's whole
allocation history and RSS follows the host, so
:meth:`~repro.scenarios.runner.ScenarioResult.payload` strips it.  A
process that runs several scenarios reports, in each, the peak RSS of
the process up to that point.
"""

from __future__ import annotations

import gc
import sys
from typing import List, Optional

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX hosts
    resource = None  # type: ignore[assignment]

__all__ = ["MemoryMeter", "peak_rss_mb"]


def peak_rss_mb() -> Optional[float]:
    """The process's peak resident set size in MiB (None where the
    platform has no ``resource`` module)."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    unit = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return round(peak / unit, 1)


def _collections() -> List[int]:
    return [gen["collections"] for gen in gc.get_stats()]


class MemoryMeter:
    """Collector runs per generation and peak RSS, phase by phase."""

    def __init__(self) -> None:
        self._last = _collections()
        self.phases: List[dict] = []

    def mark(self, name: str) -> None:
        """Close phase ``name``: record what happened since the last mark
        (or since construction)."""
        now = _collections()
        self.phases.append({
            "name": name,
            "gc_collections": [b - a for a, b in zip(self._last, now)],
            "maxrss_mb": peak_rss_mb(),
        })
        self._last = now

    def as_dict(self) -> dict:
        return {"phases": self.phases}
