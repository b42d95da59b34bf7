"""Unified max-min fair shared-resource core.

Every rate-limited byte stream in the simulation — network flows through
NICs and WAN uplinks, disk reads and writes, and transfers jointly
constrained by several of those at once — is a :class:`Demand` drained by
one :class:`FairQueue`.  The queue computes the max-min fair allocation
over arbitrary capacity :class:`Constraint` sets by progressive filling
and advances time with as few timers as the allocation's structure allows.
``net/fabric.py`` and ``storage/disk.py`` are thin adapters over this
module; they contain no rate arithmetic of their own.

Design
------

**Incremental passes, closed regions.**  A demand arrival or departure
re-rates at most the connected component of demands reachable from the
constraints it touched (demands are vertices; sharing a constraint is an
edge) — usually much less: see *region passes* below, the one pass that
sets rates.  A region is *closed* when no ungrouped demand outside it
shares its constraints: it is then a union of whole components, filled
with the kernel's degenerate-residual rescue on, and each bottleneck
that carries only its own frozen demands is tried as a uniform group.
Demands are advanced lazily: each demand's ``remaining`` is drained up
to *now* the moment a pass first takes it in.  A batch of changes in two
unrelated sites never merges their rate computations, since each
bottleneck gets its own timer or group.

**Per-constraint virtual clocks (uniform groups).**  When one constraint
bottlenecks *every* demand of its component and each member's other
constraints are private and no tighter than the bottleneck, the rates
stay uniform for the component's whole remaining lifetime: capacity/n,
for the live member count n.  Completion order is then fixed at group
formation, so the constraint runs a *virtual clock* — cumulative bytes
drained per member — and keeps members in a heap keyed by the clock
reading at which each finishes.  One armed timer per group replaces a
timer per demand, and — unlike a plain group timer — each completion is
O(log n) with **no** re-filling pass: survivors speed up implicitly
because the clock advances at capacity/n for the current n.  This is the
multi-bottleneck generalisation of the single-timer trick the disk
channel and the fabric's single-bottleneck path used to implement twice,
divergently.

**One filling kernel, group timers per bottleneck.**  Every pass fills
through one progressive-filling kernel (``_fill``): a lazy heap of
per-constraint fair shares over residuals and unfrozen counts kept in
constraint scratch slots.  Bottlenecks the uniform test rejects (shared
side constraints, or a region that is not closed) still never arm
per-demand timers.  The kernel freezes each demand at exactly one
bottleneck constraint; all demands frozen at a constraint share its
fair share, so one timer per bottleneck — aimed at that group's earliest
finish — wakes the region at the exact next completion instant.  The
resulting pass drains whatever finished, re-rates survivors, and re-arms.
A live timer that fires at or before the new target is *kept* (it
re-checks and re-aims), so slowdowns never allocate timers.  A timer
that fires early on a settled queue, before anything recorded there has
drained, is re-aimed at the earliest finish without a pass.

**Departures.**  An aborted demand (``remove``) marks its constraints
dirty and the scheduled pass re-rates the survivors; a grouped one
dissolves its group first.  A drained demand completing on its
bottleneck timer skips the pass when its departure is provably local
(``_departure_is_local``): every constraint it crossed stays
unsaturated or has no survivor as fast as the leaver.

**Region passes.**  Most dirty batches change a few rates inside a
large component (shuffle fan-ins and replication pipelines chain many
demands together through per-node disk and NIC constraints).  A pass
therefore re-rates a *region*, not the component.  Each demand records
the constraint it froze at (``Demand._bneck``, kept by every path that
sets a rate), and only a change there can speed it up: R starts as the
ungrouped demands on the dirty constraints whose recorded bottleneck is
dirty too, or unknown.  (On a group-owned dirty constraint every
ungrouped demand starts in R: the pass must re-record the group's
foreign load there.)  C is the set of R's non-slack constraints, and
every demand outside R keeps its rate as a fixed load on C.  R is
progressively filled into the residual capacity ``capacity - (rates of
demands outside R)``.  A uniform group met on C is *pinned*: its members
are a fixed load of ``k * share``, exact while ``capacity - k * share >=
n_foreign * share`` and no foreign level ends below the share.

**The certificate.**  An allocation is max-min fair iff it is feasible
and every demand has a *bottleneck*: a saturated constraint on which its
rate is maximal (Bertsekas & Gallager, *Data Networks*, §6.5).  The fill
keeps C feasible, so a region pass only has to re-establish bottlenecks
around R.  An R demand frozen at b needs no outside demand on b faster
than it; any faster one joins R.  An outside demand sharing C whose
recorded bottleneck the region did not touch passes without a scan (that
constraint's load and sharers did not move); one bottlenecked on a C
constraint passes in bulk while that constraint stays saturated with
nobody faster; any other must find a saturated constraint where it is
rate-maximal, or join R.  The fill repeats until nothing joins, and
only then are the fill's bottleneck timers armed.

**The timer rule.**  A bottleneck timer wakes only the demands recorded
at its constraint, so every rated demand's recorded bottleneck carries a
timer due by its finish.  Fills arm one per bottleneck; when the
certificate moves an outside demand's bottleneck, it aims the new
constraint's timer at that demand's finish (the runtime
``channel_timers`` invariant checks this).

**Finishing in-region.**  Every batch finishes inside its region
pass.  An inexact pin, or a fill level below a pinned group's share,
dissolves the group and its members join R (they are left unrated, so
the same pass must re-rate them).  A starved outside sharer is a
suspect the certificate fails.  A non-positive level in an open region
brings the outside sharers on C into R.  Each of these grows R and
fills again, so a pass always ends certified.

**Tie contract.**  Demands frozen at one bottleneck may get equal rates
from different float expressions (a region level is a residual after
other freezes; a pin or a later pass computes the same level from
another sum) and so differ in the last bit.  Every comparison that can
*skip* re-rating — saturation and "rate-maximal" in the certificate,
the completion fast path, and the runtime
``channel_max_min`` invariant — therefore uses one relative tolerance,
:data:`TIE` (``x >= y * TIE``: x is at least y up to 1e-9).  An exact
``>=`` would judge a last-bit-slower survivor strictly slower than its
leaver and skip a pass that was needed.  (The arrival fast path compares
exactly: a last-bit miss there only declines the shortcut and runs a
pass.)

**Heap batching.**  All wake-ups go through the coalescing
:meth:`~repro.sim.engine.Simulator.call_at`, so the many groups that
finish at the same simulated instant share a single event-heap entry and
dispatch without event-object or generator-resume overhead.

Same-instant changes batch into one scheduled pass (`_mark_dirty`), and
completions that land exactly on a pass's timestamp are drained by that
pass directly — their freed capacity is redistributed without another
event.
"""

from __future__ import annotations

import heapq
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from .engine import Simulator
from .events import Event

__all__ = ["Constraint", "Demand", "FairQueue"]

#: The one relative tolerance of every rate comparison that can skip
#: re-rating (see "Tie contract" above): ``x >= y * TIE`` reads "x is at
#: least y, up to float order".
TIE = 1.0 - 1e-9


class Constraint:
    """A capacity-constrained shared resource (NIC direction, WAN leg,
    disk channel, ...)."""

    __slots__ = ("name", "capacity", "partition", "demands", "group",
                 "_timer_at", "_timer_version", "_visit", "_residual",
                 "_ucount", "_omax", "_rmax", "_obmin", "_bound_sum",
                 "_unbounded", "_slack_below", "_wit_counts")

    def __init__(self, name: str, capacity: float,
                 partition: Optional[str] = None) -> None:
        if capacity <= 0:
            raise ValueError(f"constraint {name!r} needs positive capacity")
        self.name = name
        self.capacity = float(capacity)
        #: Optional site key (the fabric uses the site name); passes
        #: spanning several count in ``cross_partition_passes``.
        self.partition = partition
        #: Demands currently draining through this constraint (an
        #: insertion-ordered dict used as a set: iteration order must not
        #: depend on the interpreter's hash seed, or runs stop being
        #: reproducible).
        self.demands: Dict["Demand", None] = {}
        #: Live uniform group whose span includes this constraint, if any.
        self.group: Optional["_UniformGroup"] = None
        #: Absolute sim time of the live bottleneck group timer (None if none).
        self._timer_at: Optional[float] = None
        self._timer_version = 0
        #: Region stamp (see FairQueue._region_pass) — avoids per-pass sets.
        self._visit = 0
        #: Per-pass progressive-filling scratch (valid only mid-pass).
        self._residual = 0.0
        self._ucount = 0
        #: Region-pass scratch: fastest demand outside the region, fastest
        #: region demand, and slowest outside demand bottlenecked here.
        self._omax = 0.0
        self._rmax = 0.0
        self._obmin = 0.0
        #: Witness-grouped upper bound on the traffic this constraint can
        #: ever see.  Each demand's *witness* here is its tightest other
        #: constraint; all demands sharing a witness w also share w's
        #: capacity, so they jointly contribute min(cap_w, Σ bounds) =
        #: cap_w — the bound sums *distinct witness capacities*, not
        #: per-demand bounds.  While it stays (strictly, with margin)
        #: below `capacity` the constraint is provably slack: it cannot
        #: bind in any max-min allocation, so region passes skip it
        #: entirely.  This is what keeps an under-subscribed WAN leg from
        #: chaining two sites' components together — and, grouped by
        #: witness, it stays slack even when many flows fan out of a few
        #: tight source disks.  Maintained O(constraints-of-demand) per
        #: add/remove (`_wit_counts` holds the live count per witness).
        self._bound_sum = 0.0
        self._wit_counts: Dict["Constraint", int] = {}
        #: Live demands whose bound through here is unbounded (their only
        #: constraint) — any such demand disables the slack shortcut.
        self._unbounded = 0
        #: Slack test threshold: capacity minus a relative safety margin
        #: (guards float drift in the running sum; the margin errs toward
        #: treating a constraint as binding, which is always correct).
        self._slack_below = self.capacity * (1.0 - 1e-9)

    @property
    def slack(self) -> bool:
        """True while this constraint provably cannot bind (see above)."""
        return self._unbounded == 0 and self._bound_sum < self._slack_below

    def __repr__(self) -> str:
        return (f"<Constraint {self.name} cap={self.capacity:g} "
                f"demands={len(self.demands)}>")


class Demand:
    """One in-flight piece of work draining through a set of constraints."""

    # ``__weakref__``: a finished demand's lifetime can be watched; its
    # ``done`` event holds no reference back, so it dies with its owner.
    __slots__ = ("size", "remaining", "rate", "constraints", "done",
                 "_last_update", "_fill_mark", "_group", "_group_key",
                 "_retry_at", "_visit", "_witness", "_bneck",
                 "on_exit", "__weakref__")

    def __init__(self, size: float, constraints: Sequence[Constraint],
                 done: Event, now: float) -> None:
        self.size = float(size)
        self.remaining = float(size)
        self.rate = 0.0
        self.constraints: Tuple[Constraint, ...] = tuple(constraints)
        # Per-constraint witness: the tightest *other* constraint (None
        # for a sole constraint) — its capacity bounds the rate this
        # demand can ever push through constraint i, and demands sharing
        # a witness share that cap (feeds the grouped slack shortcut).
        # Ties go to the first index, for the tightest and the runner-up.
        cs = self.constraints
        n = len(cs)
        if n <= 1:
            self._witness: Tuple[Optional[Constraint], ...] = (None,) * n
        else:
            lo, lo_cap, lo_i = cs[0], cs[0].capacity, 0
            second, second_cap = None, 0.0
            for i in range(1, n):
                c = cs[i]
                cap = c.capacity
                if cap < lo_cap:
                    second, second_cap = lo, lo_cap
                    lo, lo_cap, lo_i = c, cap, i
                elif second is None or cap < second_cap:
                    second, second_cap = c, cap
            witness = [lo] * n
            witness[lo_i] = second
            self._witness = tuple(witness)
        self.done = done
        self._last_update = now
        #: Fill id this demand was last frozen in (or, outside a region,
        #: last certified in — see FairQueue._region_pass).
        self._fill_mark = 0
        #: The constraint the last rate-setting path froze this demand at
        #: (its bottleneck), or None when unknown (fresh, or just left a
        #: uniform group).  Region passes trust it to skip certificate
        #: scans, so every path that sets ``rate`` must set it too.
        self._bneck: Optional[Constraint] = None
        #: Uniform group membership (virtual-clock mode), if any.
        self._group: Optional["_UniformGroup"] = None
        #: Virtual-clock reading at which this demand drains (group mode).
        self._group_key = 0.0
        #: Due time of the pending starvation retry (see
        #: FairQueue.ensure_progress), or None.
        self._retry_at: Optional[float] = None
        #: Region stamp (see FairQueue._region_pass).
        self._visit = 0
        #: Adapter hook called once when the demand leaves the queue for
        #: any reason (completion or abort) — index teardown lives here.
        self.on_exit: Optional[Callable[["Demand"], None]] = None

    def remaining_now(self, now: float) -> float:
        """Bytes left at time ``now``, accounting for lazy advancement and
        virtual-clock (group) mode — `remaining` itself is only exact at
        the instant of the last pass that visited this demand."""
        group = self._group
        if group is not None:
            drained = group.drained
            if group.members and now > group.clock_at:
                drained += (group.constraint.capacity / len(group.members)
                            * (now - group.clock_at))
            return max(0.0, self._group_key - drained)
        left = self.remaining
        dt = now - self._last_update
        if dt > 0.0 and self.rate > 0.0:
            left -= self.rate * dt
        return max(0.0, left)

    def __repr__(self) -> str:
        return (f"<Demand {self.remaining:.0f}/{self.size:.0f}B "
                f"@{self.rate:g}B/s x{len(self.constraints)}>")


class _UniformGroup:
    """Virtual-clock mode for a single-bottleneck component.

    All members drain at ``capacity / len(members)``; the clock counts
    cumulative bytes drained per member, and a member finishes when the
    clock passes its formation-time key.  Valid only while the invariant
    holds that no member can be re-rated by anything except membership
    changes of this very group.  Foreign traffic sharing a span
    constraint does *not* dissolve the group: filling passes pin the
    members at the clock share, rate the foreign demands into the span
    constraint's residual capacity, and record that load (``_foreign``)
    so the group's own threshold accounting stays exact.  The pin is
    provably max-min exact while ``capacity - k*share >= n_foreign *
    share`` on every shared constraint — past that point the joint
    allocation would squeeze the members below the clock share, and the
    pass dissolves the group instead.

    Membership is *delta-driven*: a new demand whose constraints all lie
    inside the span (or are fresh and private) joins in O(log n) via
    :meth:`try_join` — no filling pass, no dissolve — and completions
    leave through the clock heap (an aborted member dissolves the group:
    :meth:`FairQueue.remove`).  Non-bottleneck span constraints may be
    *shared* by several members as long as they stay slack at the current
    share; the tightest such limit is tracked in a lazy threshold heap,
    and the group dissolves itself the moment completions push the share
    past it.  This is what keeps a mass ramp (10k nodes pulling the
    worker package through one central NIC) from costing one O(n)
    refill per arrival.
    """

    __slots__ = ("queue", "constraint", "members", "heap", "drained",
                 "clock_at", "armed_at", "version", "span", "counts",
                 "_thr_heap", "_seq", "_tseq", "_foreign")

    def __init__(self, queue: "FairQueue", constraint: Constraint,
                 members: Dict[Demand, None], span: List[Constraint],
                 counts: Dict[Constraint, int]) -> None:
        self.queue = queue
        self.constraint = constraint
        self.members = members
        self.drained = 0.0
        self.clock_at = queue.sim.now
        self.armed_at: Optional[float] = None
        self.version = 0
        #: Every constraint touched by any member; all point back here so
        #: dirt anywhere in the span dissolves the group first.
        self.span = span
        #: Live members through each non-bottleneck span constraint.
        self.counts = counts
        #: Lazy min-heap of (capacity / k, seq, constraint, k): the group
        #: stays valid while the common share is at or below the top
        #: *current* entry (entries self-validate against ``counts``).
        self._thr_heap: List[tuple] = []
        self._tseq = 0
        for c, k in counts.items():
            self._thr_heap.append((c.capacity / k, self._tseq, c, k))
            self._tseq += 1
        heapq.heapify(self._thr_heap)
        #: Foreign (non-member) load currently allocated on each shared
        #: span constraint, as recorded by the last filling pass that
        #: pinned this group.  Insertion-ordered for reproducible dirty
        #: marks on refresh.
        self._foreign: Dict[Constraint, float] = {}
        heap = []
        seq = 0
        for d in members:
            d._group = self
            d._group_key = d.remaining
            heap.append((d.remaining, seq, d))
            seq += 1
        heapq.heapify(heap)
        self.heap = heap
        self._seq = seq
        for c in span:
            c.group = self

    def _advance(self) -> None:
        now = self.queue.sim.now
        if self.members and now > self.clock_at:
            self.drained += (self.constraint.capacity / len(self.members)
                             * (now - self.clock_at))
        self.clock_at = now

    def share(self) -> float:
        """Current per-member fair share."""
        return self.constraint.capacity / len(self.members)

    def _threshold(self) -> float:
        """Max sustainable share before some shared span constraint binds
        (lazily discarding entries whose member count — or recorded
        foreign load — moved on since the push)."""
        heap = self._thr_heap
        counts = self.counts
        foreign = self._foreign
        while heap:
            value, _, c, k = heap[0]
            if counts.get(c, 0) == k and \
                    value == (c.capacity - foreign.get(c, 0.0)) / k:
                return value
            heapq.heappop(heap)
        return float("inf")

    def _push_threshold(self, c: Constraint, k: int) -> None:
        """Record a fresh limit entry for span constraint ``c`` at member
        count ``k`` (entries self-validate in :meth:`_threshold`)."""
        self._tseq += 1
        heapq.heappush(self._thr_heap,
                       ((c.capacity - self._foreign.get(c, 0.0)) / k,
                        self._tseq, c, k))

    def set_foreign(self, c: Constraint, load: float) -> None:
        """A filling pass re-rated the foreign demands sharing span
        constraint ``c``: remember their total allocation so threshold
        checks account for it."""
        if load > 0.0:
            self._foreign[c] = load
        else:
            self._foreign.pop(c, None)
        k = self.counts.get(c, 0)
        if k:
            self._push_threshold(c, k)

    def _foreign_refresh(self) -> None:
        """The common share changed (membership moved): foreign demands
        sharing span constraints see a different residual, so schedule a
        same-instant pass to re-rate them.  Members are pinned by those
        passes, so this stays O(foreign), never O(members)."""
        if not self._foreign:
            return
        queue = self.queue
        for c in self._foreign:
            queue._dirty[c] = None
        queue._mark_dirty()

    def try_join(self, demand: Demand) -> bool:
        """Admit an arriving demand without a filling pass, if exact.

        The demand must drain through the bottleneck (which stays
        members-only), and the reduced share must stay within every
        shared constraint's limit.  Span constraints carrying foreign
        traffic are fine while the pin stays exact: the members' total
        plus the foreigners' current allocation must fit, and the
        foreigners must keep at least the common share each (otherwise
        joint max-min would squeeze the members and the group must go
        generic).  The caller has already registered the demand on its
        constraints."""
        bottleneck = self.constraint
        if bottleneck not in demand.constraints:
            return False
        if len(bottleneck.demands) != len(self.members) + 1:
            return False  # a foreign demand is pending on the bottleneck
        share = bottleneck.capacity / (len(self.members) + 1)
        counts = self.counts
        foreign = self._foreign
        contested: Optional[List[Constraint]] = None
        for c in demand.constraints:
            if c is bottleneck:
                continue
            if c.group is not None and c.group is not self:
                return False  # another group owns it: stay generic
            k = counts.get(c, 0) + 1
            n_foreign = len(c.demands) - k
            if n_foreign:
                f = foreign.get(c)
                if f is None:
                    # Untracked sharers (no pass pinned us here yet):
                    # account their live rates directly.
                    f = 0.0
                    for d2 in c.demands:
                        if d2._group is not self and d2 is not demand:
                            f += d2.rate
                if k * share > c.capacity - f or \
                        c.capacity - k * share < n_foreign * share:
                    return False
                if contested is None:
                    contested = [c]
                else:
                    contested.append(c)
            elif k * share > c.capacity:
                return False
        if share > self._threshold():
            return False
        self._advance()
        self.members[demand] = None
        demand._group = self
        demand._group_key = self.drained + demand.remaining
        demand.rate = share
        demand._last_update = self.queue.sim.now
        self._seq += 1
        heapq.heappush(self.heap, (demand._group_key, self._seq, demand))
        for c in demand.constraints:
            if c is bottleneck:
                continue
            k = counts.get(c, 0) + 1
            counts[c] = k
            self._push_threshold(c, k)
            if c.group is None:
                c.group = self
                self.span.append(c)
        self.queue.uniform_joins += 1
        # The share dropped: foreign sharers gained residual.  Re-rate
        # them in a same-instant pass (this pins the group, so the pass
        # costs O(foreign)) and record newly contested constraints.
        if contested is not None:
            for c in contested:
                self.queue._dirty[c] = None
            self.queue._mark_dirty()
        self._foreign_refresh()
        self.rearm()
        return True

    def dissolve(self) -> None:
        """Materialise member state and fall back to generic mode.

        Rates and ``remaining`` are snapshot at *now* so the next filling
        pass (whoever marked us dirty schedules one) starts exact."""
        self._advance()
        self.version += 1
        share = (self.constraint.capacity / len(self.members)
                 if self.members else 0.0)
        now = self.queue.sim.now
        for d in self.members:
            d.remaining = max(0.0, d._group_key - self.drained)
            d.rate = share
            d._bneck = None
            d._last_update = now
            d._group = None
        for c in self.span:
            if c.group is self:
                c.group = None
        self.members = {}
        self.heap = []
        self.counts = {}
        self._thr_heap = []
        self._foreign = {}

    def rearm(self) -> None:
        """Aim the group's single wake-up at the earliest finish."""
        heap, members = self.heap, self.members
        while heap and heap[0][2] not in members:
            heapq.heappop(heap)
        if not heap:
            self.armed_at = None
            return
        eta = max(0.0, (heap[0][0] - self.drained)
                  * len(members) / self.constraint.capacity)
        fire_at = self.queue.sim.now + eta
        if self.armed_at is not None and self.armed_at <= fire_at:
            return  # the live wake-up fires first and will re-aim
        self.armed_at = fire_at
        version = self.version

        def on_fire(_arg: Any) -> None:
            if self.version != version or self.armed_at != fire_at:
                return
            self.armed_at = None
            self._tick()

        self.queue.sim.call_at(fire_at, on_fire)

    def _tick(self) -> None:
        """Clock wake-up: complete every member the clock has passed."""
        self._advance()
        queue = self.queue
        eps = queue.EPSILON
        heap, members = self.heap, self.members
        counts = self.counts
        bottleneck = self.constraint
        left = False
        while heap and heap[0][0] <= self.drained + eps:
            d = heapq.heappop(heap)[2]
            if d not in members:
                continue
            members.pop(d, None)
            d._group = None
            d.remaining = 0.0
            for c in d.constraints:
                if c is bottleneck:
                    continue
                k = counts[c] - 1
                if k:
                    counts[c] = k
                    self._push_threshold(c, k)
                else:
                    del counts[c]
                    if c.group is self:
                        c.group = None
                    if c in self._foreign:
                        queue._dirty[c] = None
                        queue._mark_dirty()
                        del self._foreign[c]
            left = True
            queue.uniform_completions += 1
            queue._unregister(d)
            if not d.done.triggered:
                d.done.succeed(None)
        if members:
            # Departures raised the common share; if it now exceeds what
            # some shared span constraint can sustain, the allocation is
            # no longer uniform — hand the survivors to a generic pass.
            if left and \
                    bottleneck.capacity / len(members) > self._threshold():
                for c in self.span:
                    queue._dirty[c] = None
                self.dissolve()
                queue._mark_dirty()
                return
            if left:
                self._foreign_refresh()
            self.rearm()
        else:
            self.version += 1
            for c in self.span:
                if c.group is self:
                    c.group = None
            self._foreign_refresh()
            self._foreign = {}


class FairQueue:
    """The shared max-min fair drain engine (see module docstring)."""

    #: Residual bytes below which a demand counts as drained (guards
    #: against floating-point residue stranding nearly-done work).
    EPSILON = 1e-3

    #: How long a starved demand (rate pinned to zero by a degenerate
    #: filling pass) waits before forcing another pass.
    STARVATION_RETRY = 1.0

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: Live demands (insertion-ordered dict used as a set, so readers
        #: such as the runtime invariant checker iterate reproducibly).
        self._live: Dict[Demand, None] = {}
        #: Constraints whose demand set changed since the last pass
        #: (insertion-ordered for reproducible region ordering).
        self._dirty: Dict[Constraint, None] = {}
        self._pass_scheduled = False
        #: Region stamp source (see Constraint._visit): one id per pass.
        self._region_id = 0
        #: Freeze stamp source (see Demand._fill_mark): one id per fill.
        self._fill_id = 0
        # -- stats (benchmarks / tests) --
        #: Filling passes executed (one region pass per dirty batch).
        self.rebalances = 0
        #: Times the zero-rate starvation guard had to rescue a demand.
        self.starvation_rescues = 0
        #: Uniform (virtual-clock) groups formed.
        self.uniform_groups = 0
        #: Demands completed by a group clock without a filling pass.
        self.uniform_completions = 0
        #: Arrivals admitted into a live group without a filling pass.
        self.uniform_joins = 0
        #: Filling passes that pinned a live group (members clock-rated,
        #: only the foreign sharers re-rated) instead of dissolving it.
        self.uniform_pins = 0
        #: Filling passes whose region spanned >1 partition.
        self.cross_partition_passes = 0
        #: Extra region-pass rounds: R grew (certificate failures,
        #: dissolved pins, non-positive levels) and was filled again.
        self.region_expansions = 0
        #: Arrivals rated exactly from local residuals (no filling pass).
        self.arrival_fast_paths = 0
        #: Always 0 (every abort takes the scheduled pass); kept because
        #: result readers still look the key up.
        self.departure_fast_paths = 0
        #: Early bottleneck-timer firings resolved in place: nothing
        #: recorded at the constraint had drained, so the timer was
        #: re-aimed at the earliest finish there — no filling pass ran.
        self.timer_reaims = 0
        #: Bottleneck-timer completions resolved in place: the lone
        #: drained demand was unregistered and completed directly because
        #: its departure provably freed nobody — no filling pass ran.
        self.completion_fast_paths = 0
        #: Filling-pass region sizes (demands re-rated + drained), in
        #: power-of-two buckets: ``pass_size_hist[k]`` counts passes
        #: with size in [2^(k-1), 2^k).  Tells whether sub-component
        #: re-rating is actually shrinking passes.
        self.pass_size_hist = [0] * 24
        #: Highwater mark of concurrent live demands.
        self.peak_demands = 0
        #: Optional :class:`~repro.obs.trace.Tracer` for filling-pass
        #: marks (``channel`` category).  ``None`` keeps the pass body
        #: free of any telemetry cost beyond one attribute load.
        self.tracer = None

    # -- construction ---------------------------------------------------------
    def constraint(self, name: str, capacity: float,
                   partition: Optional[str] = None) -> Constraint:
        """Create a constraint owned by this queue."""
        return Constraint(name, capacity, partition)

    # -- demand lifecycle -----------------------------------------------------
    def submit(self, size: float, constraints: Sequence[Constraint],
               done: Optional[Event] = None) -> Demand:
        """Start draining ``size`` bytes through ``constraints``.

        The returned demand's ``done`` event succeeds (value ``None``)
        when the last byte drains.  Zero-byte demands complete immediately.
        The event never points back at the demand, so a finished demand
        is freed by reference counting once its owner drops it.
        """
        if size < 0:
            raise ValueError(f"cannot drain {size!r} bytes")
        if done is None:
            done = self.sim.event()
        demand = Demand(size, constraints, done, self.sim.now)
        if size == 0 or not demand.constraints:
            done.succeed(None)
            return demand
        self.start(demand)
        return demand

    def request(self, size: float, constraints: Sequence[Constraint]) -> Event:
        """Like :meth:`submit` but returns just the completion event."""
        return self.submit(size, constraints).done

    def start(self, demand: Demand) -> None:
        """Enter a pre-built demand into the fluid phase."""
        self._live[demand] = None
        n = len(self._live)
        if n > self.peak_demands:
            self.peak_demands = n
        demand._last_update = self.sim.now
        witnesses = demand._witness
        for i, c in enumerate(demand.constraints):
            c.demands[demand] = None
            w = witnesses[i]
            if w is None:
                c._unbounded += 1
            else:
                wc = c._wit_counts
                k = wc.get(w, 0)
                if k == 0:
                    c._bound_sum += w.capacity
                wc[w] = k + 1
        # Delta-driven arrival: when the demand lands wholly inside one
        # live uniform group's span (plus fresh private constraints), it
        # joins the group's virtual clock directly — no dirty marks, no
        # filling pass.  This is the mass-arrival fast path: n demands
        # piling onto one bottleneck cost O(n log n), not O(n²).
        for c in demand.constraints:
            group = c.group
            if group is not None:
                if group.try_join(demand):
                    return
                break
        # Sub-component arrival re-rating: when the allocation is settled
        # (no pending pass) and the newcomer fits into its constraints'
        # residual capacity without squeezing anyone, rating it at the
        # tightest residual is *exactly* max-min — every incumbent keeps
        # its bottleneck, and the newcomer's bottleneck is the constraint
        # it just saturated.  Costs O(local neighborhood), no pass.
        if self._try_arrival_fast_path(demand):
            return
        for c in demand.constraints:
            self._dirty[c] = None
        self._mark_dirty()

    def _try_arrival_fast_path(self, demand: Demand) -> bool:
        """Rate an arriving demand without a filling pass, if exact.

        Exactness argument (unique max-min allocation == every demand has
        a *bottleneck*: a saturated constraint where its rate is maximal):
        give the newcomer r = min over its constraints of the residual
        capacity, leave every incumbent untouched.  Incumbent bottlenecks
        stay saturated and rate-maximal (the newcomer only adds load to
        constraints that had residual >= r, so no previously saturated
        constraint of the newcomer exists — r would be <= 0).  The
        newcomer has a bottleneck iff some constraint with residual == r
        has no incumbent faster than r.  If the state is not settled
        (pending pass, group-owned or starved neighbors), decline."""
        if self._pass_scheduled or self._dirty:
            return False
        r = float("inf")
        info: List[tuple] = []  # (constraint, residual, max incumbent rate)
        for c in demand.constraints:
            if c.group is not None:
                return False
            load = 0.0
            maxr = 0.0
            for d2 in c.demands:
                if d2 is demand:
                    continue
                rt = d2.rate
                if rt <= 0.0 or d2._group is not None:
                    return False  # starved or clock-managed: not settled
                load += rt
                if rt > maxr:
                    maxr = rt
            resid = c.capacity - load
            if resid < r:
                r = resid
            info.append((c, resid, maxr))
        if r <= 0.0:
            return False
        bottleneck: Optional[Constraint] = None
        for c, resid, maxr in info:
            if resid == r and maxr <= r:
                bottleneck = c
                break
        if bottleneck is None:
            return False
        demand.rate = r
        demand._bneck = bottleneck
        self.arrival_fast_paths += 1
        self._arm_bottleneck_timer(bottleneck, demand.remaining / r)
        return True

    def _unregister(self, demand: Demand) -> None:
        """Shared teardown: indexes, adapter hook."""
        self._live.pop(demand, None)
        witnesses = demand._witness
        for i, c in enumerate(demand.constraints):
            c.demands.pop(demand, None)
            w = witnesses[i]
            if w is None:
                c._unbounded -= 1
            else:
                wc = c._wit_counts
                k = wc[w] - 1
                if k:
                    wc[w] = k
                else:
                    del wc[w]
                    c._bound_sum -= w.capacity
                    if not wc:
                        c._bound_sum = 0.0  # reset float drift at idle
        demand._retry_at = None
        if demand.on_exit is not None:
            demand.on_exit(demand)

    def remove(self, demand: Demand) -> None:
        """Drop a live demand; the scheduled pass re-rates the survivors.

        A grouped demand dissolves its group first: the survivors' share
        rises, and the pass re-rates them like any other demands."""
        group = demand._group
        if group is not None:
            for c in group.span:
                self._dirty[c] = None
            group.dissolve()
            self._mark_dirty()
        self._unregister(demand)
        dirty = False
        for c in demand.constraints:
            if c.demands:
                self._dirty[c] = None
                dirty = True
        if dirty:
            self._mark_dirty()

    def _departure_is_local(self, demand: Demand, rate: float) -> bool:
        """True when ``demand`` leaving at ``rate`` provably leaves the
        survivors' rates exactly max-min, so no pass is needed.

        Freeing capacity on a constraint can only change the allocation
        if some survivor had that constraint as its bottleneck.  A
        constraint that was unsaturated binds nobody; a saturated one
        whose fastest survivor is strictly slower than the leaver cannot
        be a survivor's bottleneck either (the bottleneck property needs
        rate >= every sharer, including the leaver).  ``demand`` itself is
        skipped: the completion fast path asks while it is still
        registered.  O(local neighborhood)."""
        for c in demand.constraints:
            if c.group is not None:
                return False  # pinned foreign load: let a pass re-rate
            load = 0.0
            maxr = 0.0
            for d2 in c.demands:
                if d2 is demand:
                    continue
                rt = d2.rate
                if rt <= 0.0 or d2._group is not None:
                    return False  # starved or clock-managed: not settled
                load += rt
                if rt > maxr:
                    maxr = rt
            if maxr >= rate * TIE and load + rate >= c.capacity * TIE:
                return False  # could have been a survivor's bottleneck
        return True

    def abort(self, demand: Demand, exc: Exception) -> None:
        """Fail a live demand with ``exc`` (endpoint death, wiped disk)."""
        if demand not in self._live:
            return
        self.remove(demand)
        if not demand.done.triggered:
            demand.done.fail(exc)
            demand.done.defused()  # callers may not be listening anymore

    def abort_constraint(self, constraint: Constraint, exc: Exception) -> int:
        """Fail every live demand touching ``constraint``; returns count."""
        victims = list(constraint.demands)  # dict keys, insertion order
        for d in victims:
            self.abort(d, exc)
        return len(victims)

    @property
    def active_demands(self) -> int:
        """Number of demands currently draining."""
        return len(self._live)

    # -- fluid dynamics -------------------------------------------------------
    def _mark_dirty(self) -> None:
        """Schedule a single pass at the current timestamp.  Batching
        matters: heartbeat-driven scheduling starts many demands in the
        same instant, and one pass covers them all."""
        if self._pass_scheduled:
            return
        self._pass_scheduled = True
        self.sim.call_at(self.sim.now, self._scheduled_pass)

    def _scheduled_pass(self, _arg: Any = None) -> None:
        self._pass_scheduled = False
        self._rebalance()

    def ensure_progress(self, demand: Demand) -> None:
        """Starvation guard: a demand left with ``rate <= 0`` and no live
        group/bottleneck timer would hang forever if no other demand ever
        arrived or departed.  Arm a retry that forces a fresh pass; it is
        pending while ``demand._retry_at`` holds its due time."""
        if demand.rate > 0 or demand._group is not None:
            return
        due = self.sim.now + self.STARVATION_RETRY
        demand._retry_at = due

        def retry(_arg: Any) -> None:
            if demand._retry_at != due:
                return  # superseded, or the demand left
            demand._retry_at = None
            if demand.rate > 0:
                return
            for c in demand.constraints:
                self._dirty[c] = None
            self._mark_dirty()

        self.sim.call_at(due, retry)

    def _rebalance(self) -> None:
        """Re-rate the demands the dirty constraints can move: one region
        pass (:meth:`_region_pass`) per same-instant batch of changes."""
        if not self._dirty:
            return
        # A dirty constraint owned by a uniform group does NOT dissolve
        # it: the pass pins the members at the clock share and re-rates
        # only the foreign demands.  The single exception is the group's
        # own bottleneck with its members-only invariant broken — a
        # foreign demand landed there, and the virtual clock cannot
        # represent that.  (So no region ever meets a group's own
        # bottleneck: only members are left on it.)
        for c in list(self._dirty):
            g = c.group
            if g is not None and c is g.constraint and \
                    len(c.demands) != len(g.members):
                g.dissolve()
        seeds, self._dirty = self._dirty, {}
        self._region_pass(seeds)

    def _region_pass(self, seeds: Dict[Constraint, None]) -> None:
        """Re-rate the demands ``seeds`` can move, certified locally.

        The region R starts as the ungrouped demands on the dirty
        constraints that are recorded-bottlenecked there (or unrated),
        and every ungrouped demand on a group-owned one; C is the set of
        their non-slack constraints.  Every demand outside R keeps its
        rate as a fixed load on C, uniform-group members pinned at the
        clock share among them, and R is progressively filled into the
        residual capacity.  The bottleneck property then certifies the
        result (see the module docstring).  Another round runs, with R
        grown, while anything fails: demands that fail the certificate
        join R; an inexact pin, or a level below a pinned group's share,
        dissolves the group into R; a non-positive level brings every
        outside sharer on C into R.  A closed region (no ungrouped
        demand outside R on C) fills with the rescue on and forms a
        uniform group at each bottleneck that carries only its own
        frozen demands."""
        self._region_id += 1
        rid = self._region_id
        now = self.sim.now
        eps = self.EPSILON
        region: List[Demand] = []
        drained: List[Demand] = []
        links: List[Constraint] = []
        fresh: List[Demand] = []
        for seed in seeds:
            # Only a demand bottlenecked here (or unrated) can move; the
            # rest keep their rates unless the certificate pulls them in.
            # A group-owned seed re-rates all its foreign demands: the
            # pass must re-record the group's foreign load there.
            owned = seed.group is not None
            for d in seed.demands:
                if d._visit != rid and d._group is None and (
                        owned or d._bneck is seed or d._bneck is None):
                    d._visit = rid
                    fresh.append(d)
        if not fresh:
            return  # nobody bottlenecked here: nothing to re-rate
        inf = float("inf")
        rounds = -1
        while fresh:
            rounds += 1
            # Enter ``fresh`` into R: advance each demand to now and stamp
            # its constraints (the non-slack ones join C).
            for d in fresh:
                d._visit = rid
                dt = now - d._last_update
                if dt > 0.0 and d.rate > 0.0:
                    rem = d.remaining - d.rate * dt
                    d.remaining = rem if rem > 0.0 else 0.0
                d._last_update = now
                if d.remaining <= eps:
                    drained.append(d)
                else:
                    region.append(d)
                for c in d.constraints:
                    if c._visit != rid:
                        c._visit = rid
                        if c._unbounded or c._bound_sum >= c._slack_below:
                            links.append(c)
            fresh.clear()
            self._fill_id += 1
            fid = self._fill_id
            for d in drained:
                d._fill_mark = fid  # leaving: never frozen, never counted
            # Residual capacity left by the demands outside the region,
            # and the region's demands per constraint.  An outside demand
            # whose recorded bottleneck is untouched by the region keeps
            # it (that constraint's load and sharers did not move); one
            # bottlenecked on a C constraint is vouched for in bulk there
            # (``_obmin``); any other, or a starved one, is a suspect,
            # scanned after the fill.
            self._fill_id += 1
            sid = self._fill_id
            suspects: List[Demand] = []
            rlists: List[List[Demand]] = []
            pinned: List[Constraint] = []
            inexact: Optional[_UniformGroup] = None
            outside = 0
            for c in links:
                load = 0.0
                omax = 0.0
                g = c.group
                if g is not None:
                    # Pin the members at the clock share: a fixed load,
                    # exact while the foreign demands could each get it.
                    share = g.share()
                    k = g.counts[c]
                    load = k * share
                    if c.capacity - load < (len(c.demands) - k) * share:
                        inexact = g
                        break
                    omax = share
                    pinned.append(c)
                obmin = inf
                rl: List[Demand] = []
                for d2 in c.demands:
                    if d2._visit != rid:
                        if d2._group is not None:
                            continue  # pinned member: in ``load`` above
                        rt = d2.rate
                        load += rt
                        if rt > omax:
                            omax = rt
                        b = d2._bneck
                        if b is c:
                            if rt < obmin:
                                obmin = rt
                        elif (rt <= 0.0 or b is None or b._visit == rid
                              and not b._unbounded
                              and b._bound_sum < b._slack_below) \
                                and d2._fill_mark != sid:
                            d2._fill_mark = sid
                            suspects.append(d2)
                        outside += 1
                    elif d2._fill_mark != fid:
                        rl.append(d2)
                c._residual = c.capacity - load
                c._omax = omax
                c._obmin = obmin
                c._rmax = 0.0
                c._ucount = len(rl)
                rlists.append(rl)
            if inexact is not None:
                self._dissolve_into(inexact, fresh)
                continue
            bnecks = self._fill(len(region), links, rlists, fid, not outside)
            self._fill_id += 1
            cid = self._fill_id
            if bnecks is None:
                # A non-positive level: the outside sharers' fixed rates
                # leave R nothing.  Bring each of them into R once.
                for c in links:
                    for e in c.demands:
                        if e._visit != rid and e._fill_mark != cid and \
                                e._group is None:
                            e._fill_mark = cid
                            fresh.append(e)
                continue
            # Certificate.  (1) An R demand frozen at b needs every
            # outside demand on b to be no faster than it.
            short: List[_UniformGroup] = []
            for link, level, _ in bnecks:
                g = link.group
                if g is not None and level < g.share() * TIE:
                    short.append(g)  # a pinned member would outpace it
                if link._omax * TIE > level:
                    for e in link.demands:
                        if e._visit != rid and e._fill_mark != cid and \
                                e.rate * TIE > level and e._group is None:
                            e._fill_mark = cid
                            fresh.append(e)
            # (2) An outside demand frozen at a C constraint keeps it while
            # that constraint stays saturated with nobody faster; others
            # must find a saturated constraint where they are maximal.
            for c in links:
                obmin = c._obmin
                if obmin == inf:
                    continue
                m = c._omax if c._omax > c._rmax else c._rmax
                if obmin >= m * TIE and \
                        c._residual <= c.capacity * (1.0 - TIE):
                    continue
                for e in c.demands:
                    if e._bneck is c and e._visit != rid and \
                            e._fill_mark != cid:
                        e._fill_mark = cid
                        if not self._certify(e, rid):
                            fresh.append(e)
            for e in suspects:
                if e._fill_mark != cid:
                    e._fill_mark = cid
                    if not self._certify(e, rid):
                        fresh.append(e)
            for g in short:
                if g.members:
                    self._dissolve_into(g, fresh)
        if pinned:
            for c in pinned:
                g = c.group
                avail = c.capacity - g.counts[c] * g.share()
                r = c._residual
                g.set_foreign(c, avail - r if r < avail else 0.0)
            self.uniform_pins += 1

        self.rebalances += 1
        self.region_expansions += rounds
        multi_partition = False
        first_partition: Optional[str] = None
        for c in links:
            p = c.partition
            if p is not None and p != first_partition:
                if first_partition is None:
                    first_partition = p
                else:
                    multi_partition = True
                    self.cross_partition_passes += 1
                    break
        size = len(region) + len(drained)
        hist = self.pass_size_hist
        hist[min(size.bit_length(), len(hist) - 1)] += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.instant("channel", "filling-pass", now, "channel",
                           args={"size": size, "drained": len(drained),
                                 "cross_partition": multi_partition})
        for d in drained:
            self._unregister(d)
            if not d.done.triggered:
                d.done.succeed(None)
        for link, level, min_remaining in bnecks:
            # In a closed region a bottleneck whose every demand froze
            # there is a whole component on its own: try virtual-clock
            # mode before arming a timer.
            if not outside and all(d._bneck is link for d in link.demands) \
                    and self._try_uniform_group(link, list(link.demands)):
                continue
            self._arm_bottleneck_timer(link, min_remaining / level)

    def _dissolve_into(self, group: _UniformGroup,
                       fresh: List[Demand]) -> None:
        """Dissolve ``group`` mid-pass and queue its members for the
        region: they leave with ``_bneck`` None and no timer, so this
        pass must re-rate every one of them."""
        members = list(group.members)
        group.dissolve()
        fresh.extend(members)

    def _fill(self, count: int, links: List[Constraint],
              lists: List[Iterable[Demand]], fid: int, rescue: bool
              ) -> Optional[List[tuple]]:
        """Progressive filling for a region pass.

        Freezes ``count`` demands (``lists[i]`` are those on ``links[i]``;
        group members are skipped) into the residuals and unfrozen counts
        in the links' scratch, stamping each with ``fid``.  A lazy
        min-heap of ``(fair share, link index)`` picks bottlenecks; shares
        only grow as competitors freeze, so a stale entry is re-pushed
        with its recomputed share.  Returns ``(bottleneck, level, earliest
        remaining)`` per bottleneck in freeze order, or None when a level
        is non-positive and ``rescue`` (:meth:`_rescue_level`, on for
        closed regions) is off.  (The heap cannot run dry first: each
        demand's tightest constraint is never slack, so it is a link.)"""
        heap = [(c._residual / c._ucount, i)
                for i, c in enumerate(links) if c._ucount]
        heapq.heapify(heap)
        heappop = heapq.heappop
        heappush = heapq.heappush
        bnecks: List[tuple] = []
        left = count
        while left > 0 and heap:
            share, i = heappop(heap)
            link = links[i]
            n = link._ucount
            if n == 0:
                continue  # all this constraint's demands froze elsewhere
            cur = link._residual / n
            if cur > share:
                heappush(heap, (cur, i))
                continue  # stale entry: competitors froze since the push
            if cur <= 0.0:
                if not rescue:
                    return None
                cur = self._rescue_level(link, fid)
            min_remaining = float("inf")
            for d in lists[i]:
                if d._fill_mark == fid or d._group is not None:
                    continue
                d._fill_mark = fid
                d.rate = cur
                d._bneck = link
                if d.remaining < min_remaining:
                    min_remaining = d.remaining
                left -= 1
                for c2 in d.constraints:
                    r = c2._residual - cur
                    c2._residual = r if r > 0.0 else 0.0
                    c2._ucount -= 1
                    if cur > c2._rmax:
                        c2._rmax = cur
            bnecks.append((link, cur, min_remaining))
        return bnecks

    def _rescue_level(self, link: Constraint, fid: int) -> float:
        """Positive level for ``link``'s unfrozen demands after its scratch
        residual degenerated (floating-point underflow after many freeze
        rounds): a zero rate would strand them with no timer.  Uses the
        exactly recomputed residual, or a plain fair split of the
        constraint (the oversubscription is bounded by the rounding
        residue)."""
        frozen_sum = 0.0
        unfrozen = 0
        for d in link.demands:
            if d._group is not None:
                frozen_sum += d._group.share()
            elif d._fill_mark == fid:
                frozen_sum += d.rate
            else:
                unfrozen += 1
        self.starvation_rescues += unfrozen
        exact = link.capacity - frozen_sum
        if exact > 0.0:
            return exact / unfrozen
        return link.capacity / len(link.demands)

    def _certify(self, e: Demand, rid: int) -> bool:
        """True when outside demand ``e`` has a bottleneck after the
        region fill: a saturated constraint where its rate is maximal (up
        to the tie tolerance).  Records it as ``e._bneck`` (see "The
        timer rule")."""
        rate = e.rate
        for c in e.constraints:
            if c._unbounded == 0 and c._bound_sum < c._slack_below:
                continue  # slack: never saturated
            if c._visit == rid:
                if c._residual > c.capacity * (1.0 - TIE):
                    continue
                m = c._omax if c._omax > c._rmax else c._rmax
            else:
                if c.group is not None:
                    continue  # clock-managed rates: cannot read them here
                load = 0.0
                m = 0.0
                for d2 in c.demands:
                    rt = d2.rate
                    load += rt
                    if rt > m:
                        m = rt
                if load < c.capacity * TIE:
                    continue
            if rate >= m * TIE:
                if e._bneck is not c:
                    # The timer rule: only c's timer wakes e from now
                    # on, so aim it at e's (unchanged) finish.
                    e._bneck = c
                    self._arm_bottleneck_timer(
                        c, e._last_update - self.sim.now + e.remaining / rate)
                return True
        return False

    def _try_uniform_group(self, bottleneck: Constraint,
                           members: List[Demand]) -> bool:
        """Enter virtual-clock mode if the allocation is exactly uniform:
        every non-bottleneck constraint must carry only members (a foreign
        demand — reachable through a slack-skipped constraint — would
        change rates without dirtying the span) and must stay slack at the
        common share.  Shared constraints are fine; their limits go into
        the group's threshold heap, and the group dissolves itself when
        completions push the share past the tightest one.

        The group's span covers *every* member constraint (slack ones
        included): any dirt anywhere in the span must dissolve the group
        before the members can be walked with stale group-mode state."""
        share = bottleneck.capacity / len(members)
        span: List[Constraint] = [bottleneck]
        counts: Dict[Constraint, int] = {}
        for d in members:
            for c in d.constraints:
                if c is bottleneck:
                    continue
                k = counts.get(c, 0)
                if k == 0:
                    span.append(c)
                counts[c] = k + 1
        for c, k in counts.items():
            if len(c.demands) != k or k * share > c.capacity:
                return False
        self.uniform_groups += 1
        group = _UniformGroup(self, bottleneck, dict.fromkeys(members),
                              span, counts)
        group.rearm()
        return True

    def _arm_bottleneck_timer(self, constraint: Constraint,
                              eta: float) -> None:
        """One timer for everything frozen at one bottleneck constraint.

        Fires at the group's earliest completion and marks the constraint
        dirty: the pass drains whatever finished, re-rates survivors, and
        re-arms.  A live timer firing at or before the target is kept —
        it re-checks and re-aims — so slowdowns never allocate timers."""
        now = self.sim.now
        fire_at = now + (eta if eta > 0.0 else 0.0)
        armed = constraint._timer_at
        if armed is not None and armed <= fire_at:
            return
        constraint._timer_version += 1
        constraint._timer_at = fire_at
        version = constraint._timer_version

        def on_fire(_arg: Any) -> None:
            if constraint._timer_version != version:
                return
            constraint._timer_at = None
            if not constraint.demands:
                return
            if self._try_timer_completion(constraint) or \
                    self._try_timer_reaim(constraint):
                return
            self._dirty[constraint] = None
            self._mark_dirty()

        self.sim.call_at(fire_at, on_fire)

    def _try_timer_reaim(self, constraint: Constraint) -> bool:
        """Re-aim a bottleneck timer that fired early, without a pass.

        A timer fires early when the demands it was aimed at were slowed
        after it was armed.  While the queue is settled their rates are
        certified max-min, so the pass it would schedule re-derives them
        and only re-arms the timer: this re-arms it directly, at the
        earliest finish among the demands recorded at ``constraint``.
        Declines (the pass runs) when a demand there is grouped, starved
        or unrated, or a recorded one has drained."""
        if self._dirty or self._pass_scheduled or constraint.group is not None:
            return False
        now = self.sim.now
        eta = float("inf")
        for d in constraint.demands:
            rate = d.rate
            b = d._bneck
            if d._group is not None or rate <= 0.0 or b is None:
                return False
            if b is not constraint:
                continue  # woken by its own bottleneck's timer
            dt = now - d._last_update
            if dt > 0.0:
                rem = d.remaining - rate * dt
                d.remaining = rem if rem > 0.0 else 0.0
                d._last_update = now
            if d.remaining <= self.EPSILON:
                return False
            t = d.remaining / rate
            if t < eta:
                eta = t
        self.timer_reaims += 1
        if eta != float("inf"):
            self._arm_bottleneck_timer(constraint, eta)
        return True

    def _try_timer_completion(self, constraint: Constraint) -> bool:
        """Resolve a bottleneck-timer firing in place when the pass it
        would schedule provably has nothing to do.

        Applies when the constraint holds exactly one non-grouped demand
        that has drained: the demand completes here, and the filling pass
        is skipped iff :meth:`_departure_is_local` holds for it.  This
        eliminates the single-drained-demand passes that otherwise
        dominate the pass count (most flows finish alone on their
        bottleneck, with every shared constraint slack)."""
        if self._dirty or self._pass_scheduled or len(constraint.demands) != 1:
            return False
        d = next(iter(constraint.demands))
        rate = d.rate
        if d._group is not None or rate <= 0.0:
            return False
        now = self.sim.now
        dt = now - d._last_update
        if dt > 0.0:
            rem = d.remaining - rate * dt
            d.remaining = rem if rem > 0.0 else 0.0
            d._last_update = now
        if d.remaining > self.EPSILON:
            return False  # fired early (rate dropped since arming): re-rate
        if not self._departure_is_local(d, rate):
            return False
        self.completion_fast_paths += 1
        self._unregister(d)
        if not d.done.triggered:
            d.done.succeed(None)
        return True
