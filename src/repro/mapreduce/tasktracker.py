"""The simulated TaskTracker daemon.

"When the grid job begins, it starts the tasktracker on the remote worker
node.  The tasktracker is in charge of managing the execution of Map and
Reduce tasks on the worker node.  When it begins, it contacts the
jobtracker on the central server which marks the node available for
processing." (§III-B2)

Each tracker owns a fixed number of map and reduce slots (HOG workers: 1+1,
§IV-A; the dedicated cluster: 4+1 or 2+1, Table III).  It heartbeats to the
jobtracker; task assignment happens on heartbeat receipt.

The tracker shares its node's local disk with the datanode.  A preempting
site that kills only the wrapper's process tree leaves the tracker running
as a *zombie* over a wiped working directory: it keeps heartbeating and
accepting tasks, and every task "would fail immediately as it was unable
to save the input data to disk" (§IV-D1) — reproduced here by the
disk-liveness check at attempt start.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..hdfs.client import BlockUnavailableError, HdfsClient
from ..hdfs.namenode import HdfsError, Namenode
from ..net.fabric import NetworkFabric, TransferFailed
from ..sim.engine import Simulator
from ..sim.events import Interrupt
from ..sim.liveness import HeartbeatClock
from ..sim.util import gather_safe
from ..storage.disk import Disk, DiskFullError, DiskIOError
from .config import MRConfig
from .job import Job, MapOutput, Task, TaskAttempt, TaskStatus, TaskType

if TYPE_CHECKING:  # pragma: no cover
    from .jobtracker import JobTracker

__all__ = ["TaskTracker", "TaskExecutionError"]


class TaskExecutionError(Exception):
    """An attempt failed for a reason worth reporting to the jobtracker."""


class TaskTracker:
    """One MapReduce worker daemon bound to a host, slots, and a disk."""

    RUNNING = "running"
    ZOMBIE = "zombie"
    DEAD = "dead"

    def __init__(self, sim: Simulator, host: str, disk: Disk,
                 fabric: NetworkFabric, namenode: Namenode,
                 jobtracker: "JobTracker", map_slots: int = 1,
                 reduce_slots: int = 1, speed: float = 1.0,
                 config: Optional[MRConfig] = None) -> None:
        if map_slots < 0 or reduce_slots < 0:
            raise ValueError("slot counts cannot be negative")
        if speed <= 0:
            raise ValueError("node speed must be positive")
        if disk.channel is not fabric.channel:
            raise ValueError(f"tasktracker {host}: the disk must drain "
                             "through the fabric's channel")
        self.sim = sim
        self.host = host
        self.disk = disk
        self.fabric = fabric
        self.namenode = namenode
        self.jobtracker = jobtracker
        self.map_slots = map_slots
        self.reduce_slots = reduce_slots
        #: Relative CPU speed (task compute time divides by this).
        self.speed = speed
        self.config = config or jobtracker.config
        self.state = TaskTracker.DEAD
        self.hdfs = HdfsClient(sim, namenode, fabric, host)
        self._running: List[TaskAttempt] = []
        # Slot occupancy as plain counters: the scheduler reads free
        # slots on every heartbeat, so these must be O(1), not a sweep
        # over ``_running``.
        self._n_running_maps = 0
        self._n_running_reduces = 0
        self._hb_epoch = 0
        self._hb_seq = 0

    # -- lifecycle --------------------------------------------------------------
    def start(self) -> None:
        """Contact the jobtracker and begin heartbeating."""
        if self.state != TaskTracker.DEAD:
            raise RuntimeError(f"tasktracker {self.host} already started")
        self.state = TaskTracker.RUNNING
        self.jobtracker.register_tracker(self)
        self._hb_seq = HeartbeatClock.of(self.sim).enroll()
        self._hb_epoch += 1
        self.sim.call_soon(self._hb_tick, self._hb_epoch)

    def shutdown(self) -> None:
        """Clean daemon exit (running attempts are abandoned)."""
        jt = self.jobtracker
        desc = jt.liveness.parked_desc(self)
        if desc is not None:
            jt.liveness.drop(desc, self.sim._now)
        self._kill_all_attempts()
        # Invalidate the heartbeat cadence: a tick already on the heap
        # fires as a no-op against the stale epoch token.
        self._hb_epoch += 1
        self.state = TaskTracker.DEAD
        # Work may have been waiting on this tracker's next beat.
        jt._wake_for_work()

    def kill(self) -> None:
        """Abrupt death with the process tree (fixed-HOG preemption)."""
        self.shutdown()
        self.fabric.abort_host_flows(self.host)

    def make_zombie(self) -> None:
        """Enter the double-fork zombie state (§IV-D1): keeps heartbeating
        and accepting tasks over a wiped working directory.

        Note: the working-directory wipe itself is done by whoever owns the
        node (the disk is shared with the datanode); this only flips the
        tracker's state.
        """
        if self.state == TaskTracker.RUNNING:
            self.state = TaskTracker.ZOMBIE
            liveness = self.jobtracker.liveness
            desc = liveness.parked_desc(self)
            if desc is not None:
                liveness.wake(desc, self.sim._now)

    @property
    def is_alive(self) -> bool:
        """True while the daemon process exists (running or zombie)."""
        return self.state in (TaskTracker.RUNNING, TaskTracker.ZOMBIE)

    # -- slots --------------------------------------------------------------------
    @property
    def running_maps(self) -> int:
        """Occupied map slots."""
        return self._n_running_maps

    @property
    def running_reduces(self) -> int:
        """Occupied reduce slots."""
        return self._n_running_reduces

    def _untrack(self, attempt: TaskAttempt) -> None:
        """Drop an attempt from the running set (idempotent)."""
        try:
            self._running.remove(attempt)
        except ValueError:
            return
        if attempt.task.type == TaskType.MAP:
            self._n_running_maps -= 1
        else:
            self._n_running_reduces -= 1
        jt = self.jobtracker
        desc = jt.liveness.parked_desc(self)
        if desc is not None:
            jt._slot_freed(self, desc, attempt.task.type)

    @property
    def free_map_slots(self) -> int:
        """Map slots available for assignment."""
        return max(0, self.map_slots - self._n_running_maps)

    @property
    def free_reduce_slots(self) -> int:
        """Reduce slots available for assignment."""
        return max(0, self.reduce_slots - self._n_running_reduces)

    # -- heartbeat -----------------------------------------------------------------
    def _hb_tick(self, epoch: int) -> None:
        """One heartbeat.

        The cadence is a chain of beats on the heartbeat clock (one
        shared entry per instant with the node's datanode) carrying the
        epoch token captured at :meth:`start`; ``shutdown`` bumps the
        epoch, so a tick from a dead incarnation lands here and does
        nothing.  When the jobtracker says the following beats would do
        nothing, the chain parks instead (:mod:`repro.sim.liveness`).
        """
        if epoch != self._hb_epoch or not self.is_alive:
            return
        jt = self.jobtracker
        park = jt.heartbeat(self)
        # Ask per beat: the period adapts to cluster size.
        nxt = self.sim._now + jt.liveness.interval()
        if park and jt.park_tracker(self, nxt):
            return
        jt.liveness.clock.arm(nxt, self)

    # -- attempt execution -------------------------------------------------------------
    def launch(self, attempt: TaskAttempt) -> None:
        """Start executing an assigned attempt."""
        self._running.append(attempt)
        if attempt.task.type == TaskType.MAP:
            self._n_running_maps += 1
        else:
            self._n_running_reduces += 1
        attempt.process = self.sim.process(
            self._run_attempt(attempt),
            name=f"attempt:{attempt.attempt_id}@{self.host}")

    def kill_attempt(self, attempt: TaskAttempt) -> None:
        """Abort a running attempt (speculation lost / task obsolete /
        node death)."""
        self._untrack(attempt)
        if attempt.process is not None and attempt.process.is_alive:
            if self.sim.active_process is not attempt.process:
                attempt.process.interrupt("killed")
        if attempt.status == TaskStatus.RUNNING:
            # Every kill path funnels through here, so this is the one
            # spot that closes the attempt's causal span.
            self.jobtracker.trace_attempt(attempt, "killed")
            attempt.status = TaskStatus.FAILED

    def _kill_all_attempts(self) -> None:
        for attempt in list(self._running):
            self.kill_attempt(attempt)

    def cleanup_job(self, job: Job) -> None:
        """Release the job's intermediate map output held on this node —
        "Hadoop will not delete map intermediate data until the entire job
        is done" (§IV-D2), so this is the *only* point it is freed."""
        if self.disk.alive:
            self.disk.release_all(f"intermediate:j{job.job_id}")

    def _run_attempt(self, attempt: TaskAttempt):
        """Wrapper: dispatch, report outcome, keep slot accounting exact."""
        try:
            if attempt.task.type == TaskType.MAP:
                output = yield from self._run_map(attempt)
                attempt.status = TaskStatus.COMPLETED
                self._untrack(attempt)
                self.jobtracker.map_attempt_completed(attempt, output)
            else:
                yield from self._run_reduce(attempt)
                attempt.status = TaskStatus.COMPLETED
                self._untrack(attempt)
                self.jobtracker.reduce_attempt_completed(attempt)
        except Interrupt:
            self._untrack(attempt)
            return
        except (TaskExecutionError, DiskFullError, DiskIOError,
                BlockUnavailableError, TransferFailed) as exc:
            attempt.status = TaskStatus.FAILED
            self._untrack(attempt)
            self.jobtracker.attempt_failed(attempt, str(exc))

    # -- map ------------------------------------------------------------------------
    def _run_map(self, attempt: TaskAttempt):
        """Read one input block, compute, spill intermediate to local disk."""
        task = attempt.task
        job = task.job
        if not self.disk.alive:
            raise TaskExecutionError(
                f"map on {self.host}: cannot write to working directory")
        blocks = self.jobtracker.input_blocks(job)
        block = blocks[task.index]

        # 1. Read the input block (local replica if we have one).
        yield self.hdfs.read_block(block.block_id)

        # 2. User map function CPU time.
        cpu = job.spec.map_cpu_per_block / self.speed
        if cpu > 0:
            yield self.sim.timeout(cpu)

        # 3. Spill intermediate output to the node-local disk, retained
        #    until the job completes.
        inter_bytes = block.size * job.spec.map_output_ratio
        if inter_bytes > 0:
            self.disk.allocate(inter_bytes, f"intermediate:j{job.job_id}")
            yield self.disk.write(inter_bytes)

        partition = (inter_bytes / job.spec.num_reduces
                     if job.spec.num_reduces else 0.0)
        return MapOutput(task.index, self.host, partition, tracker=self)

    def serve_map_output(self, nbytes: float, dest: str):
        """Stream ``nbytes`` of map output to a reducer at ``dest``.

        Models the tasktracker's HTTP shuffle server: a dead tracker
        refuses the connection; a zombie tracker's files are gone
        (working directory wiped), so the fetch fails either way.

        The stream is ONE jointly-constrained demand over source disk
        read, NICs, and (cross-site) the WAN legs — it drains at the
        max-min share of the slowest of them at every instant, exactly
        like a streaming HTTP response reading from disk.
        """
        if self.state != TaskTracker.RUNNING or not self.disk.alive:
            done = self.sim.event()
            done.fail(TaskExecutionError(
                f"shuffle server on {self.host} unavailable ({self.state})"))
            done.defused()
            return done
        # The stream event itself: the reducer reads only whether the
        # fetch succeeded, so no relay event is needed.
        return self.fabric.serve_stream(self.host, dest, nbytes, self.disk)

    # -- reduce --------------------------------------------------------------------
    def _run_reduce(self, attempt: TaskAttempt):
        """Shuffle this reduce's partition from every map, merge, reduce,
        and write the output partition to HDFS."""
        task = attempt.task
        job = task.job
        spec = job.spec
        if not self.disk.alive:
            raise TaskExecutionError(
                f"reduce on {self.host}: cannot write to working directory")
        label = f"shuffle:a{attempt.attempt_id}"
        ridx = task.index
        fetched = set()
        total_bytes = 0.0
        shuffle_start = self.sim.now
        wake = [None]

        def on_output(_output: MapOutput) -> None:
            ev = wake[0]
            if ev is not None and not ev.triggered:
                ev.succeed(None)

        job.subscribe_map_completed(on_output)
        try:
            # --- shuffle phase: "many-to-many communications" (§II-A) ---
            while len(fetched) < spec.num_maps:
                avail = [mo for i, mo in job.map_outputs.items()
                         if i not in fetched]
                if not avail:
                    wake[0] = self.sim.event()
                    yield wake[0]
                    wake[0] = None
                    continue
                batch = avail[:self.config.parallel_shuffle_copies]
                flows = [(mo, mo.tracker.serve_map_output(mo.partition_size,
                                                          self.host))
                         for mo in batch]
                outcomes = yield gather_safe(self.sim, [f for _, f in flows])
                for (mo, _), out in zip(flows, outcomes):
                    if mo.map_index in fetched:
                        continue
                    if out.ok and mo is job.map_outputs.get(mo.map_index):
                        if mo.partition_size > 0:
                            self.disk.allocate(mo.partition_size, label)
                            yield self.disk.write(mo.partition_size)
                        fetched.add(mo.map_index)
                        total_bytes += mo.partition_size
                        mo.fetched_by.add(ridx)
                    else:
                        self.jobtracker.report_fetch_failure(
                            job, mo.map_index, mo.host)

            tr = self.jobtracker.tracer
            if tr is not None:
                tr.span("shuffle", f"shuffle-r{ridx}", shuffle_start,
                        self.sim.now, track=self.host,
                        span_id=f"sh-a{attempt.attempt_id}",
                        parent=f"a{attempt.attempt_id}",
                        args={"maps": spec.num_maps,
                              "bytes": round(total_bytes, 1)})

            # --- merge/sort phase ---
            if total_bytes > 0:
                yield self.sim.timeout(total_bytes / self.config.sort_rate)

            # --- user reduce function ---
            cpu = spec.reduce_cpu / self.speed
            if cpu > 0:
                yield self.sim.timeout(cpu)

            # --- write the output partition to HDFS ---
            out_bytes = total_bytes * spec.reduce_output_ratio
            out_name = (f"{spec.input_file}.out/j{job.job_id}/"
                        f"part-{ridx:05d}-a{attempt.attempt_id}")
            try:
                yield self.hdfs.write_file(
                    out_name, out_bytes,
                    replication=self.config.output_replication)
            except (HdfsError, ValueError) as exc:
                raise TaskExecutionError(f"output write failed: {exc}") from exc
        finally:
            job.unsubscribe_map_completed(on_output)
            if self.disk.alive:
                self.disk.release_all(label)

    def __repr__(self) -> str:
        return (f"<TaskTracker {self.host} {self.state} "
                f"m{self.running_maps}/{self.map_slots} "
                f"r{self.running_reduces}/{self.reduce_slots}>")
