"""The simulated HDFS Datanode daemon.

A datanode stores finalized block replicas on its node-local disk, sends
periodic heartbeats to the namenode, and (in HOG) runs the §IV-D1 zombie
fix: a periodic working-directory probe that shuts the daemon down when a
preempting site has deleted its files.

Failure modes
-------------
``shutdown()``
    Clean stop (graceful daemon exit): heartbeats cease immediately.
``kill()``
    Abrupt death *with* the process tree (the fixed HOG behaviour): the
    daemon stops silently; the namenode only notices when heartbeats time
    out.
``make_zombie()``
    The double-fork bug: the site killed the wrapper and wiped the working
    directory, but the daemon escaped the process tree.  It keeps
    heartbeating — so the namenode still counts its replicas — while every
    read and write against it fails.  Only the disk self-check (if
    enabled) eventually notices and shuts it down.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Optional

from ..net.fabric import NetworkFabric, TransferFailed
from ..sim.engine import Simulator
from ..sim.events import Process
from ..sim.liveness import HeartbeatClock
from ..sim.util import expected_failure
from ..storage.disk import Disk, DiskFullError, DiskIOError
from .block import Block
from .config import HdfsConfig

if TYPE_CHECKING:  # pragma: no cover
    from .namenode import Namenode

__all__ = ["Datanode", "BlockReadError", "RECEIVE_FAILURES"]

#: Disk-usage label for HDFS block data.
HDFS_LABEL = "hdfs"
#: A parked datanode wakes this many heartbeat floors before its block
#: report falls due.  Irrational, so the wake instant stays off the grid
#: that sums of floors and adaptive periods (``live / rate``) step on: a
#: beat landing exactly on it would be an ordering tie.
REPORT_WAKE_LEAD = math.sqrt(0.5)


class BlockReadError(Exception):
    """A replica could not be served (missing block / dead or zombie node)."""


#: What :meth:`Datanode.receive_block` fails with; its waiters catch
#: exactly these, so anything else raised inside a receive crashes the run.
RECEIVE_FAILURES = (DiskFullError, DiskIOError, TransferFailed)


class Datanode:
    """One HDFS worker daemon bound to a host and its local disk."""

    RUNNING = "running"
    ZOMBIE = "zombie"
    DEAD = "dead"

    def __init__(self, sim: Simulator, host: str, disk: Disk,
                 fabric: NetworkFabric, namenode: "Namenode",
                 config: Optional[HdfsConfig] = None) -> None:
        if disk.channel is not fabric.channel:
            raise ValueError(f"datanode {host}: the disk must drain through "
                             "the fabric's channel")
        self.sim = sim
        self.host = host
        self.disk = disk
        self.fabric = fabric
        self.namenode = namenode
        self.config = config or HdfsConfig()
        self.state = Datanode.DEAD  # not started yet
        self._blocks: Dict[int, Block] = {}
        self._hb_epoch = 0
        self._hb_seq = 0
        self._dc_epoch = 0
        self._next_report: Optional[float] = None
        #: Instant a pre-report wake is armed for while parked.
        self._report_watch: Optional[float] = None
        #: Outbound re-replication streams currently running.
        self.active_repl_streams = 0

    # -- lifecycle --------------------------------------------------------------
    def start(self) -> None:
        """Register with the namenode and start daemon loops."""
        if self.state != Datanode.DEAD:
            raise RuntimeError(f"datanode {self.host} already started")
        self.state = Datanode.RUNNING
        self.namenode.register_datanode(self)
        interval = self.config.block_report_interval
        self._next_report = (
            None if interval is None
            else self.sim.now + self.config.block_report_initial_delay)
        self._report_watch = None
        self._hb_seq = HeartbeatClock.of(self.sim).enroll()
        self._hb_epoch += 1
        self.sim.call_soon(self._hb_tick, self._hb_epoch)
        if self.config.disk_check_interval is not None:
            self._dc_epoch += 1
            self.sim.call_soon(self._dc_arm, self._dc_epoch)

    def shutdown(self) -> None:
        """Clean daemon exit: stop loops; namenode learns via timeout."""
        self._stop_loops()
        self.state = Datanode.DEAD

    def kill(self) -> None:
        """Abrupt death together with the process tree (preemption with the
        zombie fix in place).  In-flight I/O is aborted."""
        self._stop_loops()
        self.state = Datanode.DEAD
        self.fabric.abort_host_flows(self.host)

    def make_zombie(self) -> None:
        """Enter the double-fork zombie state: working directory wiped,
        daemon still alive and heartbeating (§IV-D1)."""
        if self.state != Datanode.RUNNING:
            return
        self.state = Datanode.ZOMBIE
        self.disk.wipe()
        self._blocks.clear()
        liveness = self.namenode.liveness
        desc = liveness.parked_desc(self)
        if desc is not None:
            liveness.wake(desc, self.sim._now)

    def _stop_loops(self) -> None:
        liveness = self.namenode.liveness
        desc = liveness.parked_desc(self)
        if desc is not None:
            liveness.drop(desc, self.sim._now)
        # Invalidate both cadences: ticks already on the heap fire as
        # no-ops against the stale epoch tokens.
        self._hb_epoch += 1
        self._dc_epoch += 1

    @property
    def is_alive(self) -> bool:
        """True while the daemon process exists (running or zombie)."""
        return self.state in (Datanode.RUNNING, Datanode.ZOMBIE)

    # -- daemon loops -------------------------------------------------------------
    def _hb_tick(self, epoch: int) -> None:
        """Periodic status report; zombies keep reporting (the bug).

        The cadence also carries the hourly full block report (Hadoop's
        ``dfs.blockreport.intervalMsec``), piggybacked on the heartbeat
        so it costs no extra simulator events: the first report goes
        ``block_report_initial_delay`` after startup, then every
        ``block_report_interval``.  A zombie's report is empty — and
        since the namenode's report processing is additive-only, that
        does NOT clear its believed replicas, preserving the §IV-D1
        zombie semantics (the namenode keeps crediting a zombie's
        blocks until the disk self-check shuts the daemon down).

        Each tick re-arms on the heartbeat clock (one shared entry per
        instant with the node's tasktracker) carrying the epoch token
        captured at :meth:`start`; ``_stop_loops`` bumps the epoch so
        stale ticks no-op.  When the namenode says the following beats
        carry nothing, the chain parks instead (:mod:`repro.sim.liveness`)
        with a wake armed just ahead of its next block report.
        """
        if epoch != self._hb_epoch or not self.is_alive:
            return
        namenode = self.namenode
        park = namenode.heartbeat(self)
        sim = self.sim
        now = sim._now
        next_report = self._next_report
        if next_report is not None and now >= next_report:
            namenode.process_block_report(self.host, self.block_report())
            next_report = self._next_report = (
                now + self.config.block_report_interval)
        # Ask per beat: the period adapts to cluster size.
        liveness = namenode.liveness
        nxt = now + liveness.interval()
        if park and next_report is not None:
            # The beat carrying the report must be real: wake a little
            # ahead of the due time (a beat chain rarely lands exactly on
            # that instant), and stay awake from then on.
            wake_at = next_report - (REPORT_WAKE_LEAD
                                     * self.config.heartbeat_interval)
            park = now < wake_at
        if park and liveness.park(liveness.members[self.host], nxt):
            if next_report is not None and self._report_watch != wake_at:
                self._report_watch = wake_at
                sim.call_at(wake_at, self._report_due, epoch)
            return
        liveness.clock.arm(nxt, self)

    def _report_due(self, epoch: int) -> None:
        """The block report is about to fall due: a parked chain beats
        for real until it has sent it."""
        if epoch != self._hb_epoch:
            return
        self._report_watch = None
        liveness = self.namenode.liveness
        desc = liveness.parked_desc(self)
        if desc is not None:
            liveness.wake(desc, self.sim._now)

    def _dc_arm(self, epoch: int) -> None:
        """Arm the first disk probe one full interval out (the generator
        version slept before its first probe)."""
        if epoch != self._dc_epoch or not self.is_alive:
            return
        self.sim.call_after(
            self.config.disk_check_interval, self._dc_tick, epoch)

    def _dc_tick(self, epoch: int) -> None:
        """The §IV-D1 fix: probe the working directory every
        ``disk_check_interval`` seconds; shut down when it is gone."""
        if epoch != self._dc_epoch or not self.is_alive:
            return
        if not self.disk.probe():
            liveness = self.namenode.liveness
            desc = liveness.parked_desc(self)
            if desc is not None:
                # This probe was armed a full check interval ago; when
                # beats come faster, any beat due now was armed later
                # and runs after it: a parked beat now never ran.
                liveness.drop(desc, self.sim._now, ambiguous=(
                    self.config.disk_check_interval <= liveness.interval()))
            self.shutdown()
            return
        self.sim.call_after(
            self.config.disk_check_interval, self._dc_tick, epoch)

    # -- block storage --------------------------------------------------------------
    @property
    def block_ids(self):
        """IDs of locally stored replicas."""
        return set(self._blocks)

    def block_report(self):
        """The (re-)registration block report: stored replica ids in
        deterministic insertion order, without copying into a set."""
        return self._blocks.keys()

    def num_blocks(self) -> int:
        """Number of stored replicas."""
        return len(self._blocks)

    def usable_space(self) -> float:
        """Free bytes the datanode is willing to fill with block data."""
        if self.state != Datanode.RUNNING:
            return 0.0
        reserve = self.disk.capacity * self.config.disk_reserve_fraction
        return max(0.0, self.disk.free - reserve)

    def can_store(self, nbytes: float) -> bool:
        """Capacity test used by placement policies."""
        return self.usable_space() >= nbytes

    def add_block_instant(self, block: Block) -> None:
        """Place a replica without simulating I/O (experiment preload)."""
        if self.state != Datanode.RUNNING:
            raise DiskIOError(f"datanode {self.host} is not running")
        if block.block_id in self._blocks:
            return
        self.disk.allocate(block.size, HDFS_LABEL)
        self._blocks[block.block_id] = block
        self.namenode.block_received(block.block_id, self.host)

    def receive_block(self, block: Block, source: str,
                      source_disk: Optional[Disk] = None) -> Process:
        """Receive a replica from ``source`` over the network and persist it.

        ``source_disk`` (when given) joins the stream's constraint set
        with its *read* bandwidth: the move is then one demand rated
        end-to-end over source disk read, the network path, and our disk
        write — what a balancer migration or re-replication physically
        is.  Without it only our write side and the network are modelled.

        Returns the receiving process: it succeeds with the block once
        the replica is finalized and reported, or fails (defused) with
        one of :data:`RECEIVE_FAILURES`.
        """
        return self.sim.process(
            self._receive_block_proc(block, source, source_disk),
            name=f"dn-recv:{self.host}:{block.block_id}")

    def _receive_block_proc(self, block: Block, source: str,
                            source_disk: Optional[Disk]):
        if self.state != Datanode.RUNNING:
            raise expected_failure(
                self.sim, DiskIOError(f"datanode {self.host} not running"))
        try:
            self.disk.allocate(block.size, HDFS_LABEL)
        except (DiskFullError, DiskIOError) as exc:
            raise expected_failure(self.sim, exc)
        start = self.sim.now
        # Streaming receive: one demand jointly constrained by the network
        # path (source NIC, WAN legs, our NIC) and our disk write bandwidth
        # — data is persisted as it arrives, like a real pipelined block
        # write.  A source disk adds its read side, so the move competes
        # with live shuffle serves and HDFS reads at the source.
        extras = [self.disk.write_constraint]
        if source_disk is not None:
            extras.insert(0, source_disk.read_constraint)
        try:
            yield self.fabric.transfer(
                source, self.host, block.size,
                extra_constraints=extras,
                validate=lambda: self.disk.alive and (
                    source_disk is None or source_disk.alive))
        except (TransferFailed, DiskIOError) as exc:
            if self.disk.alive:
                self.disk.release(block.size, HDFS_LABEL)
            raise expected_failure(self.sim, exc)
        if self.state != Datanode.RUNNING:
            raise expected_failure(self.sim, DiskIOError(
                f"datanode {self.host} died finalizing block"))
        self._blocks[block.block_id] = block
        tr = self.namenode.tracer
        if tr is not None:
            tr.span("hdfs", f"recv-b{block.block_id}", start, self.sim.now,
                    track=self.host, args={"from": source,
                                           "bytes": block.size})
        self.namenode.block_received(block.block_id, self.host)
        return block

    def serve_read(self, block_id: int, reader: str) -> Process:
        """Stream a replica to ``reader``: local disk read + network transfer.

        Returns the serving process: it succeeds with the block, or fails
        (defused) with :class:`BlockReadError` when the replica is absent,
        the daemon is a zombie (working directory wiped), or the stream
        breaks.
        """
        return self.sim.process(self._serve_read_proc(block_id, reader),
                                name=f"dn-read:{self.host}:{block_id}")

    def _serve_read_proc(self, block_id: int, reader: str):
        if self.state != Datanode.RUNNING or block_id not in self._blocks:
            raise expected_failure(self.sim, BlockReadError(
                f"{self.host} cannot serve block {block_id} (state={self.state})"))
        block = self._blocks[block_id]
        start = self.sim.now
        try:
            # Streaming read: jointly constrained by our disk read
            # bandwidth and the network path to the reader.
            yield self.fabric.serve_stream(self.host, reader, block.size,
                                           self.disk)
        except (DiskIOError, TransferFailed) as exc:
            raise expected_failure(self.sim, BlockReadError(str(exc)))
        tr = self.namenode.tracer
        if tr is not None:
            tr.span("hdfs", f"read-b{block_id}", start, self.sim.now,
                    track=self.host, args={"to": reader,
                                           "bytes": block.size})
        return block

    def remove_block(self, block_id: int) -> None:
        """Invalidate a replica (namenode command): free its disk space."""
        block = self._blocks.pop(block_id, None)
        if block is not None and self.disk.alive:
            self.disk.release(block.size, HDFS_LABEL)

    def __repr__(self) -> str:
        return f"<Datanode {self.host} {self.state} blocks={len(self._blocks)}>"
