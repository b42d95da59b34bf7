"""Typed, serializable fault schedules.

A :class:`FaultPlan` is the declarative half of the fault engine: a
sorted list of :class:`FaultEvent` records, each naming a *kind*, a
target site, and (for windowed kinds) a duration.  Plans round-trip
through plain lists of dicts / JSON, so a scenario's fault schedule can
be catalogued, diffed, and replayed byte-for-byte.  It is the one pinned
fault schedule: preemption waves (``churn_heavy``'s diurnal sweep among
them) are ``node_wave`` events.

Times are sim-seconds **relative to the instant the injector is armed**
(the runner arms it when the cluster finishes ramping).

Event kinds
-----------
``site_blackout``
    The site goes dark for ``duration`` seconds.  ``mode="outage"``
    (default) models a connectivity/power outage: the downtime calendar
    closes the site to new pilots and every running worker's daemons stop
    — disks intact — then restart at the window end, re-registering with
    their block reports (the namenode reconciles them).  ``mode="evict"``
    models a scheduled drain: the calendar closes and every running pilot
    is preempted; the site simply reopens at the window end.
``wan_degrade``
    The site's WAN uplink runs at ``value`` × its configured capacity for
    ``duration`` seconds (``0 < value < 1``), driving the fabric's
    ``site_uplink_overrides`` live.  ``mode="partition"`` (or
    ``value=0``) is the hard form: cross-site transfers touching the
    site fail fast for the window.
``node_wave``
    A correlated failure wave, layered on whatever stochastic churn the
    site policy already runs: the ``count`` longest-running pilots at the
    site are preempted at once.  The default mode follows the wrapper's
    zombie fix; ``mode="zombie"`` forces the §IV-D1 double-fork outcome
    and ``mode="preempt"`` a clean eviction.
``disk_fail``
    ``count`` per-datanode disk failures at the site: the media dies
    under a running daemon (reads/writes start failing; with the HOG
    disk self-check the daemon later shuts itself down).
``straggler``
    ``count`` nodes at the site run ``value``× slower (``value > 1``)
    for ``duration`` seconds, then recover — the slow-node window.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence

__all__ = ["FaultEvent", "FaultPlan", "KINDS", "WINDOWED_KINDS"]

#: Recognised event kinds.
KINDS = ("site_blackout", "wan_degrade", "node_wave", "disk_fail",
         "straggler")
#: Kinds that open a window and need a positive ``duration``.
WINDOWED_KINDS = ("site_blackout", "wan_degrade", "straggler")

#: Allowed ``mode`` values per kind ("" = kind's default).
_MODES: Dict[str, Sequence[str]] = {
    "site_blackout": ("", "outage", "evict"),
    "wan_degrade": ("", "degrade", "partition"),
    "node_wave": ("", "preempt", "zombie"),
    "disk_fail": ("",),
    "straggler": ("",),
}


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One scheduled fault (immutable, totally ordered for sorting)."""

    #: Sim-seconds after the injector arms.
    time: float
    #: One of :data:`KINDS`.
    kind: str
    #: Target grid site *name* (e.g. ``"UCSDT2"``).
    site: str
    #: Window length for :data:`WINDOWED_KINDS`; ignored otherwise.
    duration: float = 0.0
    #: Victim count for ``node_wave`` / ``disk_fail`` / ``straggler``.
    count: int = 0
    #: Kind-specific magnitude: ``wan_degrade`` bandwidth fraction,
    #: ``straggler`` slowdown factor.
    value: float = 0.0
    #: Kind-specific variant; see :data:`_MODES`.
    mode: str = ""

    def validate(self) -> None:
        """Raise ``ValueError`` on a malformed event."""
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.time < 0:
            raise ValueError("fault time cannot be negative")
        if not self.site:
            raise ValueError(f"{self.kind} event needs a target site")
        if self.mode not in _MODES[self.kind]:
            raise ValueError(
                f"{self.kind} mode must be one of {_MODES[self.kind]}, "
                f"got {self.mode!r}")
        if self.kind in WINDOWED_KINDS and self.duration <= 0:
            raise ValueError(f"{self.kind} needs a positive duration")
        if self.kind in ("node_wave", "disk_fail", "straggler") \
                and self.count < 1:
            raise ValueError(f"{self.kind} needs count >= 1")
        if self.kind == "wan_degrade":
            partition = self.mode == "partition" or self.value == 0.0
            if not partition and not (0.0 < self.value < 1.0):
                raise ValueError(
                    "wan_degrade value must be a bandwidth fraction in "
                    "(0, 1), or 0 / mode='partition'")
        if self.kind == "straggler" and self.value <= 1.0:
            raise ValueError("straggler value is a slowdown factor > 1")


class FaultPlan:
    """An ordered, validated schedule of :class:`FaultEvent`."""

    def __init__(self, events: Sequence[FaultEvent]) -> None:
        for ev in events:
            ev.validate()
        #: Events sorted by (time, kind, site, ...) — the dataclass total
        #: order — so equal-time events replay in a deterministic order
        #: independent of construction order.
        self.events: List[FaultEvent] = sorted(events)

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other) -> bool:
        return isinstance(other, FaultPlan) and self.events == other.events

    def __repr__(self) -> str:
        kinds: Dict[str, int] = {}
        for ev in self.events:
            kinds[ev.kind] = kinds.get(ev.kind, 0) + 1
        mix = ", ".join(f"{k}x{n}" for k, n in kinds.items())
        return f"<FaultPlan {len(self.events)} events ({mix})>"

    # -- serialization -----------------------------------------------------
    def to_list(self) -> List[dict]:
        """Plain-dict form (JSON-safe), one dict per event."""
        return [asdict(ev) for ev in self.events]

    @classmethod
    def from_list(cls, items: Sequence[dict]) -> "FaultPlan":
        """Inverse of :meth:`to_list`."""
        return cls([FaultEvent(**d) for d in items])

    def to_json(self, indent: int = 2) -> str:
        """Serialize to JSON."""
        return json.dumps(self.to_list(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan serialized by :meth:`to_json`."""
        return cls.from_list(json.loads(text))

    # -- generation --------------------------------------------------------
    @classmethod
    def fuzz(cls, rng, site_names: Sequence[str], horizon: float,
             n_events: int = 6) -> "FaultPlan":
        """A random (but rng-deterministic) plan for chaos testing.

        Draws ``n_events`` events of random kinds over ``[0, horizon)``
        against ``site_names``.  The same seeded generator always yields
        the identical plan — the chaos harness asserts this byte-for-byte
        before asserting run determinism.
        """
        events = []
        for _ in range(n_events):
            kind = KINDS[int(rng.integers(len(KINDS)))]
            site = site_names[int(rng.integers(len(site_names)))]
            time = float(rng.uniform(0.0, horizon))
            duration = float(rng.uniform(30.0, max(60.0, horizon / 4)))
            if kind == "site_blackout":
                mode = ("outage", "evict")[int(rng.integers(2))]
                events.append(FaultEvent(time, kind, site,
                                         duration=duration, mode=mode))
            elif kind == "wan_degrade":
                if rng.integers(4) == 0:
                    events.append(FaultEvent(time, kind, site,
                                             duration=duration,
                                             mode="partition"))
                else:
                    events.append(FaultEvent(
                        time, kind, site, duration=duration,
                        value=float(rng.uniform(0.05, 0.8))))
            elif kind == "node_wave":
                mode = ("", "zombie")[int(rng.integers(4) == 0)]
                events.append(FaultEvent(
                    time, kind, site, count=int(rng.integers(1, 4)),
                    mode=mode))
            elif kind == "disk_fail":
                events.append(FaultEvent(time, kind, site,
                                         count=int(rng.integers(1, 3))))
            else:  # straggler
                events.append(FaultEvent(
                    time, kind, site, duration=duration,
                    count=int(rng.integers(1, 4)),
                    value=float(rng.uniform(2.0, 6.0))))
        return cls(events)
