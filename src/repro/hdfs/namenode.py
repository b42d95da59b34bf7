"""The simulated HDFS Namenode: namespace, block map, failure detection,
and re-replication.

The namenode is the stable "master server" of §III-B — it runs on the
central server and is a single point of failure we do not fail.  It:

- tracks datanodes via heartbeats and declares them dead after
  ``heartbeat_timeout`` (stock ~15 min; HOG 30 s),
- maintains the block → replica-locations map,
- re-replicates blocks that fall below their file's replication target,
  most-endangered first,
- invalidates excess replicas when nodes return.

Note that a *zombie* datanode (§IV-D1) keeps heartbeating, so the
namenode continues to count its replicas — silently degrading real
availability until the datanode's disk self-check (if enabled) kills it.
"""

from __future__ import annotations

import heapq
from functools import partial
from itertools import islice
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..net.topology import NetworkTopology
from ..sim.engine import Simulator
from ..sim.liveness import Descriptor, HeartbeatClock, LivenessTable
from ..sim.monitor import CounterSet
from .block import Block, BlockInfo, FileInfo
from .config import HdfsConfig
from .datanode import RECEIVE_FAILURES, Datanode
from .placement import LiveHostIndex, SiteAwarePolicy

__all__ = ["Namenode", "HdfsError"]


class HdfsError(Exception):
    """Namespace operation failed."""


class Namenode:
    """Master metadata server for the simulated HDFS."""

    def __init__(self, sim: Simulator, topology: NetworkTopology,
                 placement: SiteAwarePolicy,
                 config: Optional[HdfsConfig] = None) -> None:
        self.sim = sim
        self.topology = topology
        self.placement = placement
        self.config = config or HdfsConfig()
        self.config.validate()

        self._files: Dict[str, FileInfo] = {}
        self._blocks: Dict[int, BlockInfo] = {}
        self._block_file: Dict[int, str] = {}
        #: Datanode heartbeats and the timeout verdicts (§III-B).
        self.liveness = LivenessTable(self.config.heartbeat_interval,
                                      self.config.heartbeats_per_second,
                                      self.config.heartbeat_timeout,
                                      HeartbeatClock.of(sim))
        #: host → descriptor (the liveness table's member map).
        self._nodes: Dict[str, Descriptor] = self.liveness.members
        self._host_blocks: Dict[str, Dict[int, None]] = {}
        #: Under-replicated block ids — maintained *incrementally* on every
        #: replica add/remove (heartbeat re-registration, death, commit),
        #: so the replication monitor never scans the block map.
        self._needed: Dict[int, None] = {}
        #: Delta-driven replication work queue: a lazy (live-replica-count,
        #: block id) min-heap fed by the same replica add/remove events
        #: that maintain ``_needed``.  The monitor pops most-endangered
        #: blocks instead of re-sorting the whole needed set every tick;
        #: blocks waiting only on in-flight copies leave the queue and are
        #: re-queued by ``block_received`` / replication-failure events.
        self._repl_heap: List[Tuple[int, int]] = []
        #: block id → priority of its one *live* heap entry (stale filter).
        self._repl_prio: Dict[int, int] = {}
        #: Terminal lost-set: blocks with ZERO believed replicas.  They
        #: leave the under-replication queue entirely (no source exists,
        #: so scheduling work for them is a hot loop) and are resurrected
        #: by a later ``block_received`` — e.g. a blacked-out site healing
        #: and its datanodes re-registering with intact disks.
        self._lost_blocks: Dict[int, None] = {}
        #: Replication retry backoff: block id → sim time before which the
        #: monitor will not reconsider it (set when a block could not be
        #: scheduled: no live source, no eligible target, or every source
        #: at its stream cap).  Entries are promoted back into the work
        #: queue when due, or immediately on a membership event.
        self._repl_deferred: Dict[int, float] = {}
        #: Lazy (retry time, block id) min-heap over ``_repl_deferred``.
        self._deferred_heap: List[Tuple[float, int]] = []
        #: Namenode-side "trash": host → replica ids the datanode must
        #: delete (orphaned replicas found when a re-registering node's
        #: block report is reconciled).  Drained a bounded batch per
        #: heartbeat (``invalidate_work_per_heartbeat``).
        self._invalidate_queue: Dict[str, Dict[int, None]] = {}
        #: The believed-alive hosts grouped per site, maintained event-driven —
        #: placement draws from these cached lists instead of regrouping
        #: the live list for every block (the 10k-node hot path).
        self._live_index = LiveHostIndex(topology)
        self._next_block_id = 0
        self.counters = CounterSet()
        #: Optional :class:`~repro.obs.trace.Tracer`; datanodes read it
        #: off their namenode for HDFS flow spans, so dynamically
        #: provisioned nodes need no per-node wiring.
        self.tracer = None
        #: Called with the hostname whenever a datanode is declared dead.
        self.dead_node_listeners: List[Callable[[str], None]] = []
        self._monitors_started = False

    # -- monitors ---------------------------------------------------------------
    def start(self) -> None:
        """Start the heartbeat and replication monitors."""
        if self._monitors_started:
            return
        self._monitors_started = True
        self.sim.call_soon(self._arm_heartbeat_monitor)
        self.sim.call_soon(self._arm_replication_monitor)

    def _arm_heartbeat_monitor(self, _arg=None) -> None:
        self.sim.call_after(self.config.heartbeat_recheck_period,
                            self._heartbeat_monitor)

    def _heartbeat_monitor(self, _arg) -> None:
        for desc in self.liveness.expire(self.sim.now):
            self._declare_dead(desc)
        self._arm_heartbeat_monitor()

    def _arm_replication_monitor(self, _arg=None) -> None:
        self.sim.call_after(self.config.replication_monitor_period,
                            self._replication_monitor)

    def _replication_monitor(self, _arg) -> None:
        self._schedule_replication_work()
        self._arm_replication_monitor()

    # -- datanode protocol ---------------------------------------------------------
    def register_datanode(self, datanode: Datanode) -> None:
        """First contact from a datanode ("the slave servers will report to
        the single master server").  Resolves its site via the topology
        script and starts tracking heartbeats."""
        host = datanode.host
        self.topology.add_host(host)
        self.liveness.register(datanode, self.sim.now)
        self._host_blocks.setdefault(host, {})
        self._live_index.add(host)
        self.counters.incr("datanodes_registered")
        # A restarted node may still hold replicas from a previous life;
        # its registration report is authoritative for the host, so it is
        # reconciled (stale believed replicas dropped, orphans trashed).
        self.process_block_report(host, datanode.block_report(),
                                  reconcile=True)
        # Membership changed: blocks parked on the retry backoff may have
        # a target (or a source) again.
        self._rearm_deferred_replications()

    def heartbeat(self, datanode: Datanode) -> bool:
        """Periodic datanode report.  A heartbeat from a node previously
        declared dead re-registers it (Hadoop's re-registration path).

        Returns True when the datanode may park: the beat was no
        (re-)registration and left no delete command queued for it, so
        its following beats only refresh ``last_heartbeat`` until a
        delete is queued (:meth:`_queue_invalidation` wakes it)."""
        desc = self._nodes.get(datanode.host)
        if desc is None or desc.member is not datanode:
            self.register_datanode(datanode)
            return False
        desc.last_heartbeat = self.sim._now
        if not desc.alive:
            self.liveness.revive(desc)
            self._live_index.add(datanode.host)
            self.counters.incr("datanodes_reregistered")
            self.process_block_report(datanode.host, datanode.block_report(),
                                      reconcile=True)
            self._rearm_deferred_replications()
            return False
        queue = self._invalidate_queue
        if queue:
            self._dispatch_invalidations(desc)
            return datanode.host not in queue
        return True

    def _declare_dead(self, desc: Descriptor) -> None:
        """Heartbeat timeout fired (the liveness table has already marked
        the node dead): drop its replicas and queue re-replication ("Data
        blocks stored on this node will be considered lost and the
        Namenode will automatically replicate those blocks")."""
        host = desc.host
        self._live_index.discard(host)
        self.counters.incr("datanodes_declared_dead")
        # Pending delete commands are moot — if the node ever returns, its
        # re-registration report is reconciled and re-derives the orphans.
        self._invalidate_queue.pop(host, None)
        for bid in list(self._host_blocks.get(host, ())):
            self._remove_replica(bid, host)
        for listener in self.dead_node_listeners:
            listener(host)

    # -- block map maintenance --------------------------------------------------------
    def process_block_report(self, host: str, block_ids,
                             reconcile: bool = False) -> None:
        """Aggregate block report from ``host`` — sent at (re-)registration
        and then periodically (``HdfsConfig.block_report_interval``).

        One set-difference against the believed replica map: only replicas
        the namenode does not already credit to the host go through the
        full per-replica path — for the common re-registration (believed
        state intact) the whole report is a dictionary-lookup sweep with
        no bookkeeping writes.

        ``reconcile=True`` (the **(re-)registration** path only) treats
        the report as authoritative for the host: replicas it carries for
        files that no longer exist are queued for deletion (the namenode
        "trash" — drained over subsequent heartbeats), and believed
        replicas the report does NOT carry are dropped.  Periodic reports
        stay additive-only on purpose — a §IV-D1 zombie keeps sending
        *empty* reports, and reconciling those would clear its believed
        replicas and silently repair the availability bug this repo
        exists to model."""
        self.counters.incr("block_reports")
        believed = self._host_blocks.setdefault(host, {})
        blocks = self._blocks
        carried = 0
        new = []
        reported: Optional[Dict[int, None]] = {} if reconcile else None
        for bid in block_ids:
            carried += 1
            if reported is not None:
                reported[bid] = None
                if bid not in blocks:
                    # Orphaned replica: its file was deleted while the
                    # node was unreachable.  Tell the node to free it.
                    self._queue_invalidation(host, bid)
                    self.counters.incr("orphan_replicas_found")
                    continue
            if bid not in believed and bid in blocks:
                new.append(bid)
        # ``block_report_blocks`` counts replicas *carried* by reports (the
        # aggregate scan volume), not just the previously-unknown ones —
        # registration reports from empty nodes contribute nothing, but
        # the periodic reports from loaded nodes dominate it.
        self.counters.incr("block_report_blocks", carried)
        if reported is not None and len(reported) < len(believed):
            # Stale believed replicas (credited to the host, absent from
            # its authoritative report): drop them so the block map
            # matches reality and repair can start.
            stale = [bid for bid in believed if bid not in reported]
            self.counters.incr("stale_replicas_reconciled", len(stale))
            for bid in stale:
                self._remove_replica(bid, host)
        for bid in new:
            self.block_received(bid, host)

    def block_received(self, block_id: int, host: str) -> None:
        """A datanode finalized a replica of ``block_id``."""
        info = self._blocks.get(block_id)
        if info is None:
            return  # file deleted while the replica was in flight
        info.replicas[host] = None
        info.pending_targets.pop(host, None)
        self._host_blocks.setdefault(host, {})[block_id] = None
        target = self._replication_target(block_id)
        # Membership test, not ``pop(..., None)``: the dict-as-set stores
        # None values, which would alias the missing-key sentinel.
        if block_id in self._lost_blocks:
            del self._lost_blocks[block_id]
            # Resurrection: a replica of a lost block resurfaced (a healed
            # site's datanode re-registered with its disk intact).  The
            # block rejoins the normal repair pipeline.
            self.counters.incr("blocks_resurrected")
            if info.live_replica_count < target:
                self._needed[block_id] = None
        if info.live_replica_count >= target:
            self._needed.pop(block_id, None)
        elif block_id in self._needed:
            # Still short, but the danger level changed: re-aim the work
            # queue (the old heap entry goes stale).
            self._queue_replication(block_id, info)
        if info.live_replica_count > target:
            self._invalidate_excess(info, target)

    def _remove_replica(self, block_id: int, host: str) -> None:
        info = self._blocks.get(block_id)
        if info is None:
            return
        info.replicas.pop(host, None)
        self._host_blocks.get(host, {}).pop(block_id, None)
        if info.live_replica_count == 0:
            # Terminal (for now): no live source exists, so the block
            # leaves the work queue entirely instead of being rescheduled
            # forever.  A later ``block_received`` resurrects it.
            self.counters.incr("blocks_all_replicas_lost")
            self._needed.pop(block_id, None)
            self._repl_prio.pop(block_id, None)  # heap entry goes stale
            self._repl_deferred.pop(block_id, None)
            self._lost_blocks[block_id] = None
        elif info.live_replica_count < self._replication_target(block_id):
            self._needed[block_id] = None
            self._queue_replication(block_id, info)

    def _queue_replication(self, block_id: int,
                           info: Optional[BlockInfo] = None) -> None:
        """(Re-)arm the replication work queue for one needed block."""
        if info is None:
            info = self._blocks.get(block_id)
            if info is None:
                return
        prio = info.live_replica_count
        self._repl_prio[block_id] = prio
        heapq.heappush(self._repl_heap, (prio, block_id))
        # An explicit re-queue supersedes any retry backoff in force.
        self._repl_deferred.pop(block_id, None)

    def _defer_replication(self, block_id: int) -> None:
        """Park an unschedulable block on the retry backoff.

        Without this, a block with no eligible target (e.g. every
        off-site node down during a full-site blackout) is popped and
        re-pushed by EVERY monitor tick — a deterministic hot requeue
        loop.  Deferred blocks re-arm after ``replication_retry_backoff``
        sim-seconds, or immediately when membership changes."""
        until = self.sim.now + self.config.replication_retry_backoff
        self._repl_deferred[block_id] = until
        heapq.heappush(self._deferred_heap, (until, block_id))
        self.counters.incr("replication_retries_deferred")

    def _promote_deferred_replications(self) -> None:
        """Move due backoff entries back into the work queue (lazy heap:
        entries invalidated by a later re-queue or defer are skipped)."""
        heap = self._deferred_heap
        now = self.sim.now
        while heap and heap[0][0] <= now:
            until, bid = heapq.heappop(heap)
            if self._repl_deferred.get(bid) != until:
                continue  # stale (re-queued, re-deferred, or resolved)
            del self._repl_deferred[bid]
            if bid in self._needed:
                self._queue_replication(bid)

    def _rearm_deferred_replications(self) -> None:
        """Membership event (a datanode (re-)registered): every deferred
        block may have a target or source again — retry now instead of
        waiting out the backoff."""
        if not self._repl_deferred:
            return
        for bid in list(self._repl_deferred):
            if bid in self._needed:
                self._queue_replication(bid)  # also clears the deferral
            else:
                del self._repl_deferred[bid]
        # Heap entries are now all stale; drop them wholesale.
        self._deferred_heap.clear()

    # -- invalidation queue (the namenode "trash") ---------------------------------
    def _queue_invalidation(self, host: str, block_id: int) -> None:
        self._invalidate_queue.setdefault(host, {})[block_id] = None
        # A parked datanode's next beat now carries delete commands.
        desc = self.liveness.parked.get(host)
        if desc is not None:
            self.liveness.wake(desc, self.sim._now)

    def _dispatch_invalidations(self, desc: Descriptor) -> None:
        """Piggyback up to ``invalidate_work_per_heartbeat`` delete
        commands on a heartbeat response (Hadoop's bounded
        ``dfs.block.invalidate.limit`` drain)."""
        queue = self._invalidate_queue.get(desc.host)
        if not queue:
            return
        # Copy only the batch, not the whole backlog (O(limit) per beat).
        batch = list(islice(queue, self.config.invalidate_work_per_heartbeat))
        for bid in batch:
            del queue[bid]
            desc.member.remove_block(bid)
        self.counters.incr("replicas_trashed", len(batch))
        if not queue:
            del self._invalidate_queue[desc.host]

    def report_bad_replica(self, block_id: int, host: str) -> None:
        """A client failed to read ``block_id`` from ``host``: drop that
        replica and let the replication monitor repair.  The corrupt copy
        is also queued for deletion on the datanode — without that, the
        host's next block report would re-credit the bad replica and
        silently cancel the repair."""
        self.counters.incr("bad_replica_reports")
        self._remove_replica(block_id, host)
        desc = self._nodes.get(host)
        if desc is not None and desc.alive:
            self._queue_invalidation(host, block_id)

    #: Hadoop-flavoured alias (``DFSClient.reportBadBlocks`` path).
    note_read_failure = report_bad_replica

    def _invalidate_excess(self, info: BlockInfo, target: int) -> None:
        """Remove replicas beyond the target.  A balancer-designated source
        replica goes first; otherwise drain the most replica-crowded site
        (preserving cross-site spread)."""
        while info.live_replica_count > target:
            if info.balancer_drop is not None and \
                    info.balancer_drop in info.replicas:
                victim = info.balancer_drop
                info.balancer_drop = None
            else:
                by_site: Dict[str, List[str]] = {}
                for h in info.replicas:
                    by_site.setdefault(self.topology.site_of(h), []).append(h)
                site = max(by_site, key=lambda s: (len(by_site[s]), s))
                victim = sorted(by_site[site])[0]
            desc = self._nodes.get(victim)
            if desc is not None and desc.member.state == Datanode.RUNNING:
                desc.member.remove_block(info.block.block_id)
            info.replicas.pop(victim, None)
            self._host_blocks.get(victim, {}).pop(info.block.block_id, None)
            self.counters.incr("replicas_invalidated")

    # -- replication ----------------------------------------------------------------
    def _replication_target(self, block_id: int) -> int:
        fname = self._block_file.get(block_id)
        if fname is None:
            return self.config.replication
        return self._files[fname].replication

    def _schedule_replication_work(self, work_limit: int = 64) -> None:
        """Drain the delta-driven work queue, most endangered first.

        Cost is O(popped · log |queue|): the needed set is never re-sorted.
        A block leaves the queue once its missing count is covered by
        in-flight copies — the replica events that change that coverage
        (``block_received``, replication failure, another death) re-queue
        it.  Blocks that cannot be scheduled at all (no live source, no
        eligible target) go to the retry backoff instead of straight back
        into the queue, so a cluster with nowhere to repair to does not
        spin the monitor.  A block whose every source is at its stream
        cap is re-queued for the next tick without being placed: streams
        drain between ticks."""
        self._promote_deferred_replications()
        heap = self._repl_heap
        if not heap:
            return
        cap = self.config.max_replication_streams
        scheduled = 0
        blocked: List[int] = []
        retry: List[int] = []
        while heap and scheduled < work_limit:
            prio, bid = heapq.heappop(heap)
            if self._repl_prio.get(bid) != prio:
                continue  # stale entry (block re-queued or resolved)
            del self._repl_prio[bid]
            if bid not in self._needed:
                continue
            info = self._blocks.get(bid)
            if info is None:
                self._needed.pop(bid, None)
                continue
            target = self._replication_target(bid)
            missing = target - info.live_replica_count - len(info.pending_targets)
            if missing <= 0:
                continue  # covered by in-flight copies; events re-queue
            sources = [h for h in info.replicas if self._is_usable_source(h)]
            if not sources:
                blocked.append(bid)  # no live source — back off
                continue
            if min(self._nodes[h].member.active_repl_streams
                   for h in sources) >= cap:
                # Every source at its stream cap: no copy can launch this
                # tick, so skip placement (and its RNG draws) entirely.
                retry.append(bid)
                continue
            size = info.block.size
            targets = self.placement.choose_targets(
                None, missing, {**info.replicas, **info.pending_targets},
                lambda h: self._can_host_store(h, size), self._live_index)
            launched = 0
            capped = False
            for tgt in targets:
                # Tie-break by hostname so the choice never depends on
                # replica-map iteration order.
                src = min(sources, key=lambda h: (
                    self._nodes[h].member.active_repl_streams, h))
                if self._nodes[src].member.active_repl_streams >= cap:
                    capped = True  # per-source stream throttle hit
                    break
                info.pending_targets[tgt] = None
                # Count the stream at launch, so the cap holds within
                # this loop.  One joint demand over source disk read +
                # network path + target disk write, like a real copy.
                src_dn = self._nodes[src].member
                src_dn.active_repl_streams += 1
                self.counters.incr("replications_started")
                self._nodes[tgt].member.receive_block(
                    info.block, src, source_disk=src_dn.disk
                ).callbacks.append(
                    partial(self._replicated, info, src_dn, tgt))
                scheduled += 1
                launched += 1
            if launched == 0 and not capped:
                blocked.append(bid)  # no eligible target — back off
            elif launched < missing:
                # Partial progress, or sources merely busy: streams drain
                # between ticks, so the fast retry path stays.  Re-queued
                # AFTER the loop — pushing into the heap being drained
                # would pop the same capped block again this tick, forever.
                retry.append(bid)
        for bid in retry:
            self._queue_replication(bid)
        for bid in blocked:
            self._defer_replication(bid)

    def _replicated(self, info: BlockInfo, src_dn: Datanode, target: str,
                    proc) -> None:
        """Bookkeeping when a re-replication receive finishes.  Only
        :data:`RECEIVE_FAILURES` count as a failed copy; anything else
        stays undefused and crashes the run."""
        src_dn.active_repl_streams -= 1
        if proc._ok:
            self.counters.incr("replications_completed")
        elif isinstance(proc._value, RECEIVE_FAILURES):
            info.pending_targets.pop(target, None)
            self.counters.incr("replications_failed")
            bid = info.block.block_id
            if bid in self._blocks and \
                    info.live_replica_count < self._replication_target(bid):
                self._needed[bid] = None
                self._queue_replication(bid, info)

    def _is_usable_source(self, host: str) -> bool:
        desc = self._nodes.get(host)
        return (desc is not None and desc.alive
                and desc.member.state == Datanode.RUNNING)

    def _can_host_store(self, host: str, nbytes: float) -> bool:
        desc = self._nodes.get(host)
        return desc is not None and desc.alive and desc.member.can_store(nbytes)

    def choose_write_targets(self, writer: Optional[str], size: float,
                             count: int, existing: Optional[Set[str]] = None) -> List[str]:
        """Pick datanodes for a new block's replica pipeline.

        O(replicas chosen), not O(live datanodes): the per-site grouping
        comes from the event-maintained
        :class:`~repro.hdfs.placement.LiveHostIndex`."""
        return self.placement.choose_targets(
            writer, count, set(existing or ()),
            lambda h: self._can_host_store(h, size), self._live_index)

    # -- queries ------------------------------------------------------------------
    def live_datanode_hosts(self) -> List[str]:
        """Hosts the namenode currently *believes* are alive (includes
        zombies — that is the point of §IV-D1).  O(live), via the index
        maintained on register/heartbeat/death events."""
        return list(self.liveness.live)

    def num_live_datanodes(self) -> int:
        """Count of believed-alive datanodes (O(1))."""
        return len(self.liveness.live)

    def datanode(self, host: str) -> Datanode:
        """The datanode object registered at ``host``."""
        return self._nodes[host].member

    def locate(self, block_id: int) -> List[str]:
        """Believed replica locations of a block (alive descriptors only)."""
        info = self._blocks.get(block_id)
        if info is None:
            raise HdfsError(f"unknown block {block_id}")
        return [h for h in info.replicas
                if h in self._nodes and self._nodes[h].alive]

    def block_info(self, block_id: int) -> BlockInfo:
        """Namenode-side record for a block."""
        return self._blocks[block_id]

    def under_replicated_count(self) -> int:
        """Blocks currently below their replication target (repairable —
        the terminal lost-set is tracked separately)."""
        return len(self._needed)

    def lost_block_count(self) -> int:
        """Blocks in the terminal lost-set (zero believed replicas after
        having had at least one); O(1)."""
        return len(self._lost_blocks)

    def deferred_replication_count(self) -> int:
        """Blocks parked on the replication retry backoff."""
        return len(self._repl_deferred)

    def pending_invalidation_count(self) -> int:
        """Replica delete commands queued but not yet dispatched."""
        return sum(len(q) for q in self._invalidate_queue.values())

    def total_block_count(self) -> int:
        """All blocks in the namespace."""
        return len(self._blocks)

    # -- namespace ops ---------------------------------------------------------------
    def create_file(self, name: str, size: float,
                    replication: Optional[int] = None) -> FileInfo:
        """Create ``name`` of ``size`` bytes, split into fixed-size blocks.

        Replica placement happens when blocks are written (see
        :class:`~repro.hdfs.client.HdfsClient`) or preloaded.
        """
        if name in self._files:
            raise HdfsError(f"file exists: {name}")
        if size < 0:
            raise ValueError("file size cannot be negative")
        fi = FileInfo(name, replication or self.config.replication)
        remaining = float(size)
        index = 0
        while remaining > 0 or index == 0:
            bsize = min(self.config.block_size, remaining) if size > 0 else 0.0
            block = Block(self._next_block_id, name, bsize, index)
            self._next_block_id += 1
            fi.blocks.append(block)
            self._blocks[block.block_id] = BlockInfo(block)
            self._block_file[block.block_id] = name
            remaining -= bsize
            index += 1
            if size == 0:
                break
        self._files[name] = fi
        return fi

    def get_file(self, name: str) -> FileInfo:
        """Look up a file; raises :class:`HdfsError` if absent."""
        fi = self._files.get(name)
        if fi is None:
            raise HdfsError(f"no such file: {name}")
        return fi

    def exists(self, name: str) -> bool:
        """True if ``name`` is in the namespace."""
        return name in self._files

    def delete_file(self, name: str) -> None:
        """Remove a file: invalidate all its replicas, free namespace."""
        fi = self._files.pop(name, None)
        if fi is None:
            return
        for block in fi.blocks:
            info = self._blocks.pop(block.block_id, None)
            self._block_file.pop(block.block_id, None)
            self._needed.pop(block.block_id, None)
            self._repl_prio.pop(block.block_id, None)
            self._lost_blocks.pop(block.block_id, None)
            self._repl_deferred.pop(block.block_id, None)
            if info is None:
                continue
            for host in list(info.replicas):
                desc = self._nodes.get(host)
                if desc is not None and desc.member.state == Datanode.RUNNING:
                    desc.member.remove_block(block.block_id)
                self._host_blocks.get(host, {}).pop(block.block_id, None)

    def __repr__(self) -> str:
        return (f"<Namenode files={len(self._files)} blocks={len(self._blocks)} "
                f"datanodes={self.num_live_datanodes()}/{len(self._nodes)}>")
