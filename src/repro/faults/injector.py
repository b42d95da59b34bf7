"""The injector: executes a :class:`~repro.faults.plan.FaultPlan`.

Pure sim-time machinery: a callback-timer chain replays the plan's events
relative to the instant :meth:`Injector.start` is called, window restores
are scheduled through simulator timers, and every victim choice is a
deterministic function of system state (running pilots ordered by
glidein id — i.e. longest-running first).  Identical seeds therefore
produce identical fault streams, which the chaos harness asserts
byte-for-byte via :attr:`Injector.stream`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..grid.glidein import Glidein
from ..grid.site import GridSite
from ..sim.engine import Simulator
from ..sim.monitor import CounterSet
from .plan import FaultEvent, FaultPlan

__all__ = ["Injector"]


class Injector:
    """Schedules a fault plan against a live :class:`HOGSystem`."""

    def __init__(self, sim: Simulator, system, plan: FaultPlan) -> None:
        self.sim = sim
        self.system = system
        self.plan = plan
        self.counters = CounterSet()
        #: Append-only fault action log: one dict per action (fire or
        #: restore), in execution order.  The determinism contract is that
        #: two runs with identical seeds produce identical streams.
        self.stream: List[dict] = []
        self._armed_at: Optional[float] = None
        self._stopped = False
        self._sites: Dict[str, GridSite] = {s.name: s for s in system.sites}
        # Window nesting depths so overlapping windows at one site compose
        # (the condition lifts only when the *last* open window closes).
        self._downtime_depth: Dict[str, int] = {}
        self._degrade_depth: Dict[str, int] = {}
        self._partition_depth: Dict[str, int] = {}
        #: Per-site pool of pilots paused by outage blackouts, keyed by
        #: glidein id (merged across overlapping windows; drained when the
        #: site's last blackout heals).
        self._paused: Dict[str, Dict[int, Glidein]] = {}

    # -- control -----------------------------------------------------------
    def start(self) -> None:
        """Arm the plan: event times become relative to ``sim.now``."""
        if self._armed_at is not None:
            raise RuntimeError("injector already started")
        self._armed_at = self.sim.now
        self.sim.call_soon(self._replay, 0)

    def stop(self) -> None:
        """Cancel any not-yet-fired events (restores still run)."""
        self._stopped = True

    def summary(self) -> Dict[str, int]:
        """Counter snapshot plus the stream length."""
        out = dict(sorted(self.counters.as_dict().items()))
        out["stream_entries"] = len(self.stream)
        return out

    # -- internals ---------------------------------------------------------
    def _replay(self, i: int) -> None:
        """Fire the due plan events from ``i`` on; sleep until the next."""
        events = self.plan.events
        while i < len(events):
            due = self._armed_at + events[i].time
            if due > self.sim.now:
                self.sim.call_after(due - self.sim.now, self._wake, i)
                return
            self._fire(events[i])
            i += 1

    def _wake(self, i: int) -> None:
        """Event ``i`` fell due: fire it, unless stopped while asleep."""
        if not self._stopped:
            self._fire(self.plan.events[i])
            self._replay(i + 1)

    def _fire(self, ev: FaultEvent) -> None:
        site = self._sites.get(ev.site)
        if site is None:
            self.counters.incr("events_skipped")
            self._record("skip", ev.site, reason="unknown site")
            return
        handler: Callable[[FaultEvent, GridSite], None] = {
            "site_blackout": self._site_blackout,
            "wan_degrade": self._wan_degrade,
            "node_wave": self._node_wave,
            "disk_fail": self._disk_fail,
            "straggler": self._straggler,
        }[ev.kind]
        self.counters.incr("events_fired")
        self.counters.incr(f"fired_{ev.kind}")
        handler(ev, site)

    def _record(self, action: str, site: str, **detail) -> None:
        entry = {"t": self.sim.now, "action": action, "site": site}
        entry.update(detail)
        self.stream.append(entry)

    def _after(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` at ``sim.now + delay`` (window restore)."""
        self.sim.call_after(delay, lambda _arg: fn())

    def _victims(self, site: GridSite) -> List[Glidein]:
        """Running pilots at ``site``, longest-running (lowest id) first —
        the deterministic victim order."""
        return sorted(site.running_glideins(), key=lambda g: g.glidein_id)

    def _fabric_site(self, site: GridSite) -> str:
        """The network-topology site key (last two DNS labels) for a grid
        site — what the fabric's WAN links are keyed by."""
        return ".".join(site.domain.split(".")[-2:])

    # -- site blackout -----------------------------------------------------
    def _site_blackout(self, ev: FaultEvent, site: GridSite) -> None:
        mode = ev.mode or "outage"
        self._downtime_depth[site.name] = \
            self._downtime_depth.get(site.name, 0) + 1
        site.in_downtime = True
        if mode == "evict":
            victims = self._victims(site)
            for g in victims:
                g.preempt()
            self.counters.incr("blackout_evictions", len(victims))
            self._record("blackout", site.name, mode=mode,
                         evicted=len(victims), duration=ev.duration)
        else:
            pool = self._paused.setdefault(site.name, {})
            paused = 0
            for g in self._victims(site):
                if g.node is not None and g.glidein_id not in pool:
                    g.node.pause()
                    pool[g.glidein_id] = g
                    paused += 1
            self.counters.incr("blackout_pauses", paused)
            self._record("blackout", site.name, mode=mode,
                         paused=paused, duration=ev.duration)
        self._after(ev.duration, lambda: self._blackout_heal(site))

    def _blackout_heal(self, site: GridSite) -> None:
        depth = self._downtime_depth.get(site.name, 1) - 1
        self._downtime_depth[site.name] = depth
        if depth > 0:
            return  # another blackout window still open
        site.in_downtime = False
        pool = self._paused.pop(site.name, {})
        resumed = lost = 0
        for g in pool.values():
            # A pilot evicted during the outage (site hazard clock, node
            # wave, elastic shrink) does not come back on heal.
            if g.state == Glidein.RUNNING and g.node is not None \
                    and g.node.resume():
                resumed += 1
            else:
                lost += 1
        self.counters.incr("blackout_resumes", resumed)
        self.counters.incr("blackout_losses", lost)
        self._record("blackout_heal", site.name, resumed=resumed, lost=lost)

    # -- WAN degradation / partition --------------------------------------
    def _wan_degrade(self, ev: FaultEvent, site: GridSite) -> None:
        fsite = self._fabric_site(site)
        fabric = self.system.fabric
        if ev.mode == "partition" or ev.value == 0.0:
            self._partition_depth[fsite] = \
                self._partition_depth.get(fsite, 0) + 1
            aborted = fabric.partition_site(fsite)
            self.counters.incr("partition_aborted_flows", aborted)
            self._record("wan_partition", site.name,
                         aborted=aborted, duration=ev.duration)
            self._after(ev.duration, lambda: self._wan_heal(site, fsite))
        else:
            self._degrade_depth[fsite] = \
                self._degrade_depth.get(fsite, 0) + 1
            base = fabric.config.site_uplink_overrides.get(
                fsite, fabric.config.site_uplink_bandwidth)
            fabric.set_site_uplink(fsite, base * ev.value)
            self._record("wan_degrade", site.name,
                         fraction=ev.value, duration=ev.duration)
            self._after(ev.duration, lambda: self._wan_restore(site, fsite))

    def _wan_heal(self, site: GridSite, fsite: str) -> None:
        depth = self._partition_depth.get(fsite, 1) - 1
        self._partition_depth[fsite] = depth
        if depth > 0:
            return
        self.system.fabric.heal_site(fsite)
        self._record("wan_heal", site.name)

    def _wan_restore(self, site: GridSite, fsite: str) -> None:
        depth = self._degrade_depth.get(fsite, 1) - 1
        self._degrade_depth[fsite] = depth
        if depth > 0:
            return  # a nested degrade window still owns the uplink
        self.system.fabric.set_site_uplink(fsite, None)
        self._record("wan_restore", site.name)

    # -- correlated node-failure wave --------------------------------------
    def _node_wave(self, ev: FaultEvent, site: GridSite) -> None:
        zombie = (True if ev.mode == "zombie"
                  else False if ev.mode == "preempt" else None)
        victims = self._victims(site)[:ev.count]
        for g in victims:
            g.preempt(zombie=zombie)
        self.counters.incr("wave_preemptions", len(victims))
        if len(victims) < ev.count:
            self.counters.incr("events_short", ev.count - len(victims))
        self._record("node_wave", site.name, mode=ev.mode or "preempt",
                     preempted=len(victims))

    # -- per-datanode disk failure -----------------------------------------
    def _disk_fail(self, ev: FaultEvent, site: GridSite) -> None:
        victims = [g for g in self._victims(site)
                   if g.node is not None and g.node.disk.alive][:ev.count]
        for g in victims:
            g.node.disk.wipe()
        self.counters.incr("disks_failed", len(victims))
        if len(victims) < ev.count:
            self.counters.incr("events_short", ev.count - len(victims))
        self._record("disk_fail", site.name, failed=len(victims))

    # -- straggler (slow-node) window --------------------------------------
    def _straggler(self, ev: FaultEvent, site: GridSite) -> None:
        victims = [g for g in self._victims(site)
                   if g.node is not None][:ev.count]
        slowed: List[Tuple[object, float]] = []
        for g in victims:
            tt = g.node.tasktracker
            slowed.append((tt, tt.speed))
            tt.speed = tt.speed / ev.value
        self.counters.incr("stragglers_started", len(slowed))
        if len(victims) < ev.count:
            self.counters.incr("events_short", ev.count - len(victims))
        self._record("straggler", site.name, slowed=len(slowed),
                     factor=ev.value, duration=ev.duration)
        self._after(ev.duration, lambda: self._straggler_end(site, slowed))

    def _straggler_end(self, site: GridSite,
                       slowed: List[Tuple[object, float]]) -> None:
        # Restoring a dead/replaced tracker's speed is harmless: a
        # replacement node is a fresh object with its own speed draw.
        for tt, orig in slowed:
            tt.speed = orig
        self.counters.incr("stragglers_ended", len(slowed))
        self._record("straggler_end", site.name, restored=len(slowed))

    def __repr__(self) -> str:
        return (f"<Injector {len(self.plan)} events "
                f"fired={self.counters.get('events_fired')}>")
