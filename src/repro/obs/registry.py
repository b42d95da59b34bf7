"""The metrics registry: one snapshot entry point for every counter.

Hot paths keep their counters as plain attribute increments (a registry
call per channel fast path would tax exactly the paths PR 7 made cheap);
the registry *binds* those attributes — plus whole
:class:`~repro.sim.monitor.CounterSet` bags and arbitrary snapshot
callables — under namespaces, and :meth:`Registry.snapshot` reads them
all at once.  Consumers (the scenario runner, the scale-sweep benchmark,
the inspect CLI) stop hand-plucking fields from live objects.

Gauges are *read-only probes* registered for the sim-time sampler
(:class:`~repro.obs.probes.ProbeSet`): a gauge function must not mutate
simulation state — that is the decision-free half of the telemetry
contract.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.monitor import CounterSet

__all__ = ["Registry", "trim_hist"]


def trim_hist(buckets: Sequence[int]) -> List[int]:
    """Copy ``buckets`` with trailing zero buckets trimmed (keeps small
    runs' records compact, like the channel's ``pass_size_hist``)."""
    hist = list(buckets)
    while hist and hist[-1] == 0:
        hist.pop()
    return hist


class Registry:
    """Namespaced bindings over the system's scattered telemetry.

    Three binding kinds feed :meth:`snapshot`:

    - :meth:`bind_attrs` — named plain-int (or list) attributes read off
      a live object (the channel core's fast-path counters);
    - :meth:`bind_counterset` — a whole :class:`CounterSet`, optionally
      filtered by key prefix (the jobtracker / namenode / factory bags);
    - :meth:`bind_snapshot` — an arbitrary zero-argument callable
      returning a dict (the control-plane roll-up).

    Registered gauges round out the registry; they are sampled by
    :class:`~repro.obs.probes.ProbeSet` rather than snapshotted.
    """

    def __init__(self) -> None:
        #: namespace → list of zero-arg callables each yielding a dict.
        self._sources: Dict[str, List[Callable[[], dict]]] = {}
        #: gauge name → zero-arg read-only callable.
        self._gauges: Dict[str, Callable[[], float]] = {}

    # -- binding -----------------------------------------------------------
    def bind_snapshot(self, namespace: str,
                      fn: Callable[[], dict]) -> None:
        """Merge ``fn()``'s dict into ``namespace`` at snapshot time."""
        self._sources.setdefault(namespace, []).append(fn)

    def bind_attrs(self, namespace: str, obj: object,
                   names: Sequence[str],
                   rename: Optional[Dict[str, str]] = None) -> None:
        """Read the listed attributes of ``obj`` into ``namespace``.

        List-valued attributes (histogram buckets) are copied with
        trailing zeros trimmed; everything else is taken verbatim.
        ``rename`` maps attribute names to snapshot keys.
        """
        rename = rename or {}

        def read() -> dict:
            out = {}
            for name in names:
                value = getattr(obj, name)
                if isinstance(value, list):
                    value = trim_hist(value)
                out[rename.get(name, name)] = value
            return out

        self.bind_snapshot(namespace, read)

    def bind_counterset(self, namespace: str, counters: CounterSet,
                        prefix: Optional[str] = None) -> None:
        """Snapshot a :class:`CounterSet`, optionally prefix-filtered."""

        def read() -> dict:
            d = counters.as_dict()
            if prefix is None:
                return d
            return {k: v for k, v in d.items() if k.startswith(prefix)}

        self.bind_snapshot(namespace, read)

    # -- gauges ------------------------------------------------------------
    def gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Register a read-only gauge for the sim-time sampler.

        ``fn`` runs inside probe callbacks mid-simulation: it must only
        *read* state (counts, heap depths), never mutate or draw RNG.
        """
        self._gauges[name] = fn

    def gauges(self) -> Dict[str, Callable[[], float]]:
        """All registered gauges (name → reader), in registration order."""
        return dict(self._gauges)

    def read_gauges(self) -> Dict[str, float]:
        """One immediate sample of every gauge."""
        return {name: fn() for name, fn in self._gauges.items()}

    # -- snapshot ----------------------------------------------------------
    def snapshot(self) -> Dict[str, dict]:
        """Read every bound source: ``{namespace: {name: value}}``.

        Values are plain JSON-ready types; later bindings to the same
        namespace overwrite same-named keys from earlier ones.
        """
        snap: Dict[str, dict] = {}
        for namespace, readers in self._sources.items():
            bucket = snap.setdefault(namespace, {})
            for read in readers:
                bucket.update(read())
        return snap

    def namespaces(self) -> Tuple[str, ...]:
        """Bound namespaces, in binding order."""
        return tuple(self._sources)
