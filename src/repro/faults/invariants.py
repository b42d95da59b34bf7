"""Runtime invariant checking over a live HOG system.

An :class:`InvariantChecker` evaluates a set of registered invariants —
consistency predicates over namenode metadata, jobtracker task state,
simulator heaps, tracer accounting, and the channel core's max-min
allocation and bottleneck timers — on a sim-time cadence and/or at
phase boundaries.  Faults are only as trustworthy as the recovery they
exercise; the checker is what turns "the run finished" into "the run
finished *and* the metadata reconverged".

It honours the telemetry zero-impact contract exactly like
:class:`~repro.obs.probes.ProbeSet`:

- **zero-cost disabled** — nothing is constructed, no timer exists;
- **decision-free enabled** — every invariant is a pure read over live
  state (no mutation, no randomness), the cadence timer is a single
  pooled callback timer (``Simulator.call_after``) per tick counted in
  :attr:`InvariantChecker.events_injected`, so enabling the checker can
  never flip a simulation decision and subtracted event counts stay
  byte-identical.

Transients are respected: each invariant only asserts what must hold
*between* engine events (the checker runs from a timer callback, never
mid-function), e.g. a replaced-in-place tracker's orphaned attempts are
tolerated until the monitor's safety net, but an attempt still RUNNING
after its tracker was *declared dead* is a violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..sim.channel import TIE
from ..sim.engine import Simulator

__all__ = ["InvariantChecker", "Violation"]

#: Stored-violation cap: everything is counted, only the first this many
#: carry full detail (a broken invariant fires every tick; unbounded
#: detail storage would itself violate the metadata-bounded spirit).
MAX_STORED = 200


@dataclass(frozen=True)
class Violation:
    """One invariant failure at one check point."""

    #: Sim time of the check that caught it.
    time: float
    #: Registered invariant name.
    invariant: str
    #: Human-readable specifics (block id, host, sizes...).
    detail: str
    #: Check label ("tick", or the phase-boundary name).
    label: str = ""


class InvariantChecker:
    """Evaluates registered invariants on ticks and phase boundaries."""

    def __init__(self, sim: Simulator, system,
                 interval: Optional[float] = None) -> None:
        if interval is not None and interval <= 0:
            raise ValueError(
                f"invariant interval must be positive, got {interval!r}")
        self.sim = sim
        self.system = system
        self.interval = interval
        #: name → zero-arg callable returning a list of detail strings
        #: (empty = invariant holds).
        self._invariants: Dict[str, Callable[[], List[str]]] = {}
        self.violations: List[Violation] = []
        #: Total violations per invariant (beyond the stored cap too).
        self.violation_counts: Dict[str, int] = {}
        self.checks_run = 0
        #: Fired cadence-timer events (one engine event each) — subtract
        #: from ``events_processed`` for checker-invariant event counts.
        self.events_injected = 0
        self._running = False
        self._register_defaults()

    # -- registration ------------------------------------------------------
    def register(self, name: str,
                 fn: Callable[[], List[str]]) -> None:
        """Add (or replace) an invariant.  ``fn`` must be a pure read."""
        self._invariants[name] = fn

    def _register_defaults(self) -> None:
        self.register("needed_consistent", self._inv_needed_consistent)
        self.register("block_map_bidirectional", self._inv_block_map)
        self.register("lost_set_terminal", self._inv_lost_set)
        self.register("repair_progress", self._inv_repair_progress)
        self.register("heaps_bounded", self._inv_heaps_bounded)
        self.register("parked_daemons", self._inv_parked_daemons)
        self.register("no_orphan_attempts", self._inv_no_orphans)
        self.register("tracer_accounting", self._inv_tracer)
        self.register("channel_max_min", self._inv_channel_max_min)
        self.register("channel_timers", self._inv_channel_timers)

    # -- lifecycle (ProbeSet idiom) ----------------------------------------
    def start(self) -> None:
        """Run an immediate check and arm the cadence timer (if any)."""
        if self._running:
            return
        self._running = True
        self.check("start")
        if self.interval is not None:
            self._arm()

    def stop(self) -> None:
        """Disarm: a pending timer fires once more as a counted no-op."""
        self._running = False

    def _arm(self) -> None:
        # A dedicated entry, never the coalescing call_at: each tick must
        # be exactly one engine event, because events_injected is
        # subtracted from events_processed.
        self.sim.call_after(self.interval, self._tick)

    def _tick(self, _arg) -> None:
        self.events_injected += 1
        if not self._running:
            return
        self.check("tick")
        self._arm()

    # -- checking ----------------------------------------------------------
    def check(self, label: str = "") -> int:
        """Evaluate every invariant now; returns new violation count."""
        self.checks_run += 1
        now = self.sim.now
        found = 0
        for name, fn in self._invariants.items():
            for detail in fn():
                found += 1
                self.violation_counts[name] = \
                    self.violation_counts.get(name, 0) + 1
                if len(self.violations) < MAX_STORED:
                    self.violations.append(
                        Violation(now, name, detail, label))
        return found

    def summary(self) -> dict:
        """JSON-ready outcome (deterministically ordered)."""
        return {
            "checks_run": self.checks_run,
            "violations": sum(self.violation_counts.values()),
            "by_invariant": dict(sorted(self.violation_counts.items())),
            "first_violations": [
                {"t": v.time, "invariant": v.invariant,
                 "detail": v.detail, "label": v.label}
                for v in self.violations[:10]],
        }

    # -- default invariants (pure reads) ------------------------------------
    def _inv_needed_consistent(self) -> List[str]:
        """Every under-replicated entry names a live block genuinely below
        its target — the incremental ``_needed`` set never drifts from the
        block map it mirrors."""
        nn = self.system.namenode
        out = []
        for bid in nn._needed:
            info = nn._blocks.get(bid)
            if info is None:
                out.append(f"needed block {bid} not in block map")
            elif info.live_replica_count >= nn._replication_target(bid):
                out.append(f"block {bid} needed but at target "
                           f"({info.live_replica_count} replicas)")
        return out

    def _inv_block_map(self) -> List[str]:
        """Block→host and host→block maps agree in both directions."""
        nn = self.system.namenode
        out = []
        for bid, info in nn._blocks.items():
            for host in info.replicas:
                if bid not in nn._host_blocks.get(host, {}):
                    out.append(f"replica {bid}@{host} missing from host map")
        for host, bids in nn._host_blocks.items():
            for bid in bids:
                info = nn._blocks.get(bid)
                if info is None or host not in info.replicas:
                    out.append(f"host map {host} credits unknown replica {bid}")
        return out

    def _inv_lost_set(self) -> List[str]:
        """The lost-set is terminal: zero live replicas, out of the repair
        queue (it would otherwise hot-loop), disjoint from ``_needed``."""
        nn = self.system.namenode
        out = []
        for bid in nn._lost_blocks:
            info = nn._blocks.get(bid)
            if info is None:
                out.append(f"lost block {bid} not in block map")
                continue
            if info.live_replica_count != 0:
                out.append(f"lost block {bid} has "
                           f"{info.live_replica_count} replicas")
            if bid in nn._needed:
                out.append(f"lost block {bid} still in needed set")
            if bid in nn._repl_prio:
                out.append(f"lost block {bid} still in work queue")
        return out

    def _inv_repair_progress(self) -> List[str]:
        """No under-replicated block is ever *forgotten*: while live
        capacity suffices it must be queued, deferred on the retry
        backoff, or covered by in-flight copies — the safety half of
        "eventually reaches target"."""
        nn = self.system.namenode
        out = []
        for bid in nn._needed:
            if bid in nn._repl_prio or bid in nn._repl_deferred:
                continue
            info = nn._blocks.get(bid)
            if info is None:
                continue  # caught by needed_consistent
            missing = (nn._replication_target(bid) - info.live_replica_count
                       - len(info.pending_targets))
            if missing > 0:
                out.append(f"needed block {bid} unqueued, undeferred, "
                           f"{missing} short")
        return out

    def _inv_heaps_bounded(self) -> List[str]:
        """Lazy heaps and namenode metadata stay linear in real state —
        generous slack, so only a genuine leak (e.g. a hot requeue loop
        pushing every tick) trips it.  The heartbeat heaps have no slack:
        each holds one entry per live datanode / tasktracker; nor have the
        schedd queue and the factory's pilot map, which hold live (idle,
        starting, running) pilots only.  The parking change logs, marks
        and wake heaps trim themselves at their bounds."""
        nn = self.system.namenode
        jt = self.system.jobtracker
        sim = self.sim
        blocks = len(nn._blocks)
        nodes = len(nn._nodes)
        out = []
        checks = [
            ("replication work heap", len(nn._repl_heap), 8 * blocks + 64),
            ("replication priority map", len(nn._repl_prio), blocks + 1),
            ("deferred heap", len(nn._deferred_heap), 8 * blocks + 64),
            ("heartbeat heap", len(nn.liveness._heap), len(nn.liveness.live)),
            ("tracker heartbeat heap", len(jt.liveness._heap),
             len(jt.liveness.live)),
            ("heartbeat change log", len(nn.liveness._log_t),
             nn.liveness.log_bound()),
            ("tracker heartbeat change log", len(jt.liveness._log_t),
             jt.liveness.log_bound()),
            ("job-list marks", len(jt.liveness.marks),
             jt.liveness.log_bound()),
            ("map wake heap", len(jt._wake_maps.heap),
             jt._wake_maps.bound()),
            ("reduce wake heap", len(jt._wake_reduces.heap),
             jt._wake_reduces.bound()),
            ("invalidation backlog", nn.pending_invalidation_count(),
             8 * blocks + 64),
            ("event heap", len(sim._heap), 4096 + 100 * nodes + 16 * blocks),
        ]
        factory = getattr(self.system, "factory", None)
        if factory is not None:
            pilots = factory.pending_count() + factory.running_count()
            checks.append(("schedd queue", len(factory.schedd._queue), pilots))
            checks.append(("pilot map", len(factory._glideins), pilots))
        for name, size, bound in checks:
            if size > bound:
                out.append(f"{name} size {size} exceeds bound {bound}")
        return out

    def _inv_parked_daemons(self) -> List[str]:
        """Every parked heartbeat chain is resumable: its daemon is alive
        at the epoch it parked in, is the member its master tracks and
        believes alive, has no beat armed besides, and its chain's
        resolved beat lies before the check instant with the next one
        after it."""
        now = self.sim.now
        out = []
        tables = (("jobtracker", self.system.jobtracker.liveness),
                  ("namenode", self.system.namenode.liveness))
        for master, table in tables:
            if not table.parked:
                continue
            armed = table.clock.armed()
            for host, desc in table.parked.items():
                member = desc.member
                where = f"{master} parked {host}"
                if table.members.get(host) is not desc or not desc.alive:
                    out.append(f"{where}: not the live tracked member")
                if not member.is_alive or \
                        member._hb_epoch != desc.park_epoch:
                    out.append(f"{where}: daemon dead or restarted "
                               f"(epoch {member._hb_epoch} vs parked "
                               f"{desc.park_epoch})")
                if id(member) in armed:
                    out.append(f"{where}: also has a beat armed")
                nxt = desc.next_beat
                if nxt is None or not desc.last_heartbeat <= now or \
                        not nxt > desc.last_heartbeat:
                    out.append(f"{where}: chain at {desc.last_heartbeat!r}"
                               f" -> {nxt!r} at check instant {now!r}")
        return out

    def _inv_no_orphans(self) -> List[str]:
        """No attempt still RUNNING after its tracker was declared dead
        (``_lost_tracker`` fails them synchronously).  A live tracker
        replaced in place is a tolerated transient — the monitor's safety
        net requeues those."""
        jt = self.system.jobtracker
        out = []
        for job in jt.active_jobs():
            for task in job.maps + job.reduces:
                for attempt in task.running_attempts:
                    desc = jt._trackers.get(attempt.tracker.host)
                    if desc is None or not desc.alive:
                        out.append(
                            f"attempt {attempt.attempt_id} of "
                            f"{task.type}-{job.job_id}-{task.index} runs on "
                            f"dead tracker {attempt.tracker.host}")
        return out

    def _inv_tracer(self) -> List[str]:
        """Tracer ring-buffer accounting is consistent: every recorded
        span/instant is either kept or counted dropped."""
        tracer = getattr(self.system, "tracer", None)
        if tracer is None:
            return []
        stats = tracer.stats()
        out = []
        if stats["kept"] + stats["dropped"] != stats["recorded"]:
            out.append(f"tracer kept {stats['kept']} + dropped "
                       f"{stats['dropped']} != recorded {stats['recorded']}")
        if stats["dropped"] < 0:
            out.append(f"tracer dropped negative: {stats['dropped']}")
        return out

    def _inv_channel_max_min(self) -> List[str]:
        """The channel allocation is max-min fair, checked through the
        bottleneck property (within the channel's tie tolerance): no
        constraint carries more than its capacity, every positive-rate
        demand has a saturated constraint where its rate is maximal, a
        starved (rate 0) demand has an ``ensure_progress`` retry pending,
        and every uniform-group member sits at its group's share (the
        group is live and alone on its bottleneck).  Only checked while
        the queue is settled — a pending pass is about to re-rate."""
        fabric = getattr(self.system, "fabric", None)
        if fabric is None:
            return []
        q = fabric.channel
        if q._dirty or q._pass_scheduled:
            return []
        load: Dict[object, float] = {}
        top: Dict[object, float] = {}
        rated = []
        out = []
        for d in q._live:
            g = d._group
            if g is None:
                r = d.rate
            else:
                r = g.share()
                b = g.constraint
                if d not in g.members or b.group is not g or \
                        len(b.demands) != len(g.members):
                    out.append(f"group member {d!r} off its group's clock "
                               f"on {b.name}")
            rated.append((d, r))
            for c in d.constraints:
                load[c] = load.get(c, 0.0) + r
                if r > top.get(c, 0.0):
                    top[c] = r
        for c, total in load.items():
            if total * TIE > c.capacity:
                out.append(f"constraint {c.name} carries {total!r} B/s over "
                           f"capacity {c.capacity!r}")
        for d, r in rated:
            if r <= 0.0:
                if d._retry_at is None:
                    out.append(f"demand {d!r} starved with no retry pending")
                continue
            for c in d.constraints:
                if load[c] >= c.capacity * TIE and r >= top[c] * TIE:
                    break
            else:
                out.append(f"demand {d!r} on "
                           f"{[c.name for c in d.constraints]} has no "
                           f"bottleneck")
        return out

    def _inv_channel_timers(self) -> List[str]:
        """Every rated demand will be woken: each ungrouped live demand
        with a positive rate has a live timer on its recorded bottleneck,
        due at or before its finish (within the tie tolerance).  Region
        passes seed from recorded bottlenecks, so a demand without one
        would never complete.  Only checked while the queue is settled."""
        fabric = getattr(self.system, "fabric", None)
        if fabric is None:
            return []
        q = fabric.channel
        if q._dirty or q._pass_scheduled:
            return []
        out = []
        for d in q._live:
            rate = d.rate
            if d._group is not None or rate <= 0.0:
                continue
            b = d._bneck
            due = None if b is None else b._timer_at
            finish = d._last_update + d.remaining / rate
            if due is None or due * TIE > finish:
                where = "no bottleneck" if b is None else b.name
                out.append(f"demand {d!r} finishing at {finish!r} has no "
                           f"timer due by then on {where} (due {due!r})")
        return out
