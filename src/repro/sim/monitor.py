"""Measurement utilities: step time-series and counters.

The paper's Figure 5 plots the number of available HOG nodes over time and
Table IV integrates the *area beneath* those curves.  :class:`StepSeries`
records right-continuous step functions and computes exactly that integral.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

__all__ = ["StepSeries", "CounterSet"]


class StepSeries:
    """A right-continuous step function sampled at change points.

    ``record(t, v)`` appends the new value ``v`` holding from time ``t``
    onward.  Querying and integration treat the series as constant between
    change points.
    """

    def __init__(self, name: str = "", initial: Optional[float] = None, t0: float = 0.0) -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []
        if initial is not None:
            self.record(t0, initial)

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> List[float]:
        """Change-point times (a copy)."""
        return list(self._times)

    @property
    def values(self) -> List[float]:
        """Values holding from the corresponding change point (a copy)."""
        return list(self._values)

    def record(self, t: float, value: float) -> None:
        """Append ``value`` holding from time ``t``.

        Times must be non-decreasing; recording at an existing final time
        overwrites the final value (last-write-wins within a timestamp).
        """
        if self._times:
            if t < self._times[-1]:
                raise ValueError(f"non-monotonic record: {t} < {self._times[-1]}")
            if t == self._times[-1]:
                self._values[-1] = value
                return
        self._times.append(float(t))
        self._values.append(float(value))

    def value_at(self, t: float) -> float:
        """Value of the step function at time ``t``."""
        if not self._times:
            raise ValueError(f"series {self.name!r} is empty")
        i = bisect_right(self._times, t) - 1
        if i < 0:
            raise ValueError(f"time {t} precedes first record {self._times[0]}")
        return self._values[i]

    def integrate(self, t0: float, t1: float) -> float:
        """Area under the step function over ``[t0, t1]``.

        This is the paper's Table IV "area beneath curve" metric when the
        series is the available-node count.
        """
        if t1 < t0:
            raise ValueError(f"inverted interval [{t0}, {t1}]")
        if not self._times or t1 == t0:
            return 0.0
        area = 0.0
        # Clip all change points into the window, adding boundary samples.
        times = self._times
        values = self._values
        i = max(bisect_right(times, t0) - 1, 0)
        cur_t = t0
        cur_v = values[i] if times[i] <= t0 else 0.0
        i += 1
        while i < len(times) and times[i] < t1:
            if times[i] > cur_t:
                area += cur_v * (times[i] - cur_t)
                cur_t = times[i]
            cur_v = values[i]
            i += 1
        area += cur_v * (t1 - cur_t)
        return area

    def mean(self, t0: float, t1: float) -> float:
        """Time-weighted mean value over ``[t0, t1]``."""
        if t1 <= t0:
            raise ValueError("mean() needs a non-empty interval")
        return self.integrate(t0, t1) / (t1 - t0)

    def max(self) -> float:
        """Largest recorded value."""
        if not self._values:
            raise ValueError("empty series")
        return max(self._values)

    def min(self) -> float:
        """Smallest recorded value."""
        if not self._values:
            raise ValueError("empty series")
        return min(self._values)

    def as_arrays(self):
        """Return ``(times, values)`` as numpy arrays (copies).  numpy is
        imported here, so the simulation itself never loads it."""
        import numpy as np
        return (np.asarray(self._times, dtype=float),
                np.asarray(self._values, dtype=float))

    def downsample(self, max_points: int) -> Tuple[List[float], List[float]]:
        """Return ``(times, values)`` lists with at most ``max_points``
        change points, always keeping the first and last.

        Intermediate points are picked at evenly spaced indices — a
        deterministic thinning that preserves the series' envelope well
        enough for timeline storage/plotting (exact integration should
        use the full series).
        """
        if max_points < 2:
            raise ValueError(f"max_points must be >= 2, got {max_points}")
        n = len(self._times)
        if n <= max_points:
            return list(self._times), list(self._values)
        idx = [i * (n - 1) // (max_points - 1) for i in range(max_points)]
        return ([self._times[i] for i in idx],
                [self._values[i] for i in idx])


class CounterSet:
    """A named bag of monotonically increasing counters."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def incr(self, name: str, by: int = 1) -> int:
        """Increment ``name`` by ``by`` and return the new value."""
        new = self._counts.get(name, 0) + by
        self._counts[name] = new
        return new

    def get(self, name: str) -> int:
        """Current value of ``name`` (0 if never incremented)."""
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of all counters."""
        return dict(self._counts)

    def __repr__(self) -> str:
        return f"CounterSet({self._counts!r})"
