"""Job and task state: the jobtracker's view of submitted work.

A :class:`JobSpec` describes a loadgen-style synthetic job (the paper's
evaluation workload): ``num_maps`` maps — one per 64 MB input block — and
``num_reduces`` reduces, with data volumes derived from the input size via
the ``map_output_ratio`` / ``reduce_output_ratio`` knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional, Set, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .tasktracker import TaskTracker

__all__ = [
    "JobSpec", "Job", "Task", "TaskAttempt", "MapOutput",
    "TaskType", "TaskStatus", "JobStatus",
]


class TaskType:
    """Task kinds: ``MAP`` / ``REDUCE``."""

    MAP = "map"
    REDUCE = "reduce"


class TaskStatus:
    """Task/attempt lifecycle states."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


class JobStatus:
    """Job lifecycle states."""

    WAITING = "waiting"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"


@dataclass
class JobSpec:
    """Static description of one MapReduce job.

    Parameters mirror the evaluation's loadgen jobs: the input file has
    ``num_maps`` blocks; each map reads one block, burns
    ``map_cpu_per_block`` seconds of CPU (scaled by node speed), and emits
    ``map_output_ratio`` × input bytes of intermediate data, partitioned
    evenly over the reduces.  Each reduce shuffles its partition, merges at
    the configured sort rate, burns ``reduce_cpu`` seconds, and writes
    ``reduce_output_ratio`` × its shuffled bytes to HDFS.
    """

    name: str
    num_maps: int
    num_reduces: int
    input_file: str
    #: CPU seconds per map at unit node speed.
    map_cpu_per_block: float = 10.0
    #: CPU seconds per reduce at unit node speed (post-shuffle).
    reduce_cpu: float = 10.0
    #: Intermediate bytes produced per input byte.
    map_output_ratio: float = 1.0
    #: Output bytes per shuffled byte at each reduce.
    reduce_output_ratio: float = 0.3

    def validate(self) -> None:
        """Raise ``ValueError`` on nonsensical parameters."""
        if self.num_maps < 1:
            raise ValueError("a job needs at least one map")
        if self.num_reduces < 0:
            raise ValueError("num_reduces cannot be negative")
        if self.map_cpu_per_block < 0 or self.reduce_cpu < 0:
            raise ValueError("CPU costs cannot be negative")
        if self.map_output_ratio < 0 or self.reduce_output_ratio < 0:
            raise ValueError("data ratios cannot be negative")


class MapOutput:
    """Record of one completed map's intermediate output."""

    __slots__ = ("map_index", "host", "tracker", "partition_size", "fetched_by")

    def __init__(self, map_index: int, host: str, partition_size: float,
                 tracker: "TaskTracker" = None) -> None:
        self.map_index = map_index
        #: Tasktracker host holding the output (on local disk, §IV-D2).
        self.host = host
        #: The tracker daemon that serves this output over HTTP; fetches
        #: fail when it is dead or a zombie.
        self.tracker = tracker
        #: Bytes destined for *each* reduce partition.
        self.partition_size = partition_size
        #: Reduce indices that have successfully fetched this output.
        self.fetched_by: Set[int] = set()


class TaskAttempt:
    """One execution of a task on one tasktracker."""

    _ids = 0

    __slots__ = ("attempt_id", "task", "tracker", "start_time", "process",
                 "status", "speculative")

    def __init__(self, task: "Task", tracker: "TaskTracker", start_time: float,
                 speculative: bool = False) -> None:
        TaskAttempt._ids += 1
        self.attempt_id = TaskAttempt._ids
        self.task = task
        self.tracker = tracker
        self.start_time = start_time
        self.process = None  # set by the tasktracker
        self.status = TaskStatus.RUNNING
        #: True if this is a backup (speculative) copy.
        self.speculative = speculative

    def __repr__(self) -> str:
        return (f"<Attempt #{self.attempt_id} {self.task} on "
                f"{self.tracker.host} {self.status}>")


class Task:
    """One map or reduce task of a job."""

    __slots__ = ("job", "type", "index", "status", "attempts", "failures",
                 "finish_time", "completed_on", "failed_on")

    def __init__(self, job: "Job", task_type: str, index: int) -> None:
        self.job = job
        self.type = task_type
        self.index = index
        self.status = TaskStatus.PENDING
        self.attempts: List[TaskAttempt] = []
        self.failures = 0
        self.finish_time: Optional[float] = None
        #: Host the winning attempt ran on.
        self.completed_on: Optional[str] = None
        #: Hosts an attempt of this task failed on (None until one does).
        self.failed_on: Optional[Set[str]] = None

    def may_run_on(self, host: str, live_trackers: int) -> bool:
        """Hadoop 1.x ``TaskInProgress.hasFailedOnMachine``: a task is
        not offered to a host it already failed on, unless it has failed
        on at least as many hosts as there are live trackers."""
        failed = self.failed_on
        return failed is None or host not in failed \
            or len(failed) >= live_trackers

    def set_status(self, new_status: str) -> None:
        """Transition status, keeping the job's progress counters exact.

        All status changes must go through here — the scheduler relies on
        the job-level counters/sets being O(1)-fresh.
        """
        old = self.status
        if new_status == old:
            return
        self.status = new_status
        self.job._on_task_transition(self, old, new_status)

    @property
    def running_attempts(self) -> List[TaskAttempt]:
        """Attempts currently executing."""
        return [a for a in self.attempts if a.status == TaskStatus.RUNNING]

    def __repr__(self) -> str:
        return f"<{self.type}-{self.job.job_id}-{self.index} {self.status}>"


class Job:
    """Dynamic state of a submitted job."""

    __slots__ = (
        "job_id", "spec", "submit_time", "start_time", "finish_time",
        "status", "maps", "reduces", "map_outputs", "blacklist",
        "locality_counters", "_map_completed_listeners",
        "_transition_listeners",
        "pending_map_tasks", "pending_reduce_tasks",
        "running_map_tasks", "running_reduce_tasks",
        "_n_completed_maps", "_n_completed_reduces",
        "_dur_sum", "_dur_count", "_attempt_heaps", "spec_gate",
    )

    def __init__(self, job_id: int, spec: JobSpec, submit_time: float) -> None:
        self.job_id = job_id
        self.spec = spec
        self.submit_time = submit_time
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.status = JobStatus.WAITING
        self.maps = [Task(self, TaskType.MAP, i) for i in range(spec.num_maps)]
        self.reduces = [Task(self, TaskType.REDUCE, i)
                        for i in range(spec.num_reduces)]
        #: map_index → MapOutput of the winning attempt.
        self.map_outputs: Dict[int, MapOutput] = {}
        #: Trackers blacklisted for this job (too many failures).
        self.blacklist: Set[str] = set()
        #: data_local / site_local / remote map-launch counts.
        self.locality_counters: Dict[str, int] = {
            "data_local": 0, "site_local": 0, "remote": 0}
        self._map_completed_listeners: List = []
        #: Fired with ``(task, old, new)`` on *every* status transition,
        #: after the per-status sets/counters above are current.  The
        #: cluster-wide scheduler index hangs off this: indexes update on
        #: task-state events, never by rescanning.
        self._transition_listeners: List = []
        # O(1) progress bookkeeping (kept exact by Task.set_status).
        # Insertion-ordered dicts used as sets: scheduler scans iterate
        # these, and hash-order iteration over *objects* would make runs
        # irreproducible (id()-dependent).  Initial order = task index.
        self.pending_map_tasks: Dict[Task, None] = dict.fromkeys(self.maps)
        self.pending_reduce_tasks: Dict[Task, None] = dict.fromkeys(self.reduces)
        self.running_map_tasks: Dict[Task, None] = {}
        self.running_reduce_tasks: Dict[Task, None] = {}
        self._n_completed_maps = 0
        self._n_completed_reduces = 0
        self._dur_sum = {TaskType.MAP: 0.0, TaskType.REDUCE: 0.0}
        self._dur_count = {TaskType.MAP: 0, TaskType.REDUCE: 0}
        # Min-heaps of (start_time, attempt) per type, pruned lazily —
        # lets the scheduler find the oldest still-running attempt in O(1)
        # and skip the speculation scan when nothing can be slow enough.
        self._attempt_heaps = {TaskType.MAP: [], TaskType.REDUCE: []}
        #: Earliest sim time at which a speculation scan could possibly
        #: find a candidate, per task type (0 = unknown, must scan).  Set
        #: by the scheduler from the oldest-running-attempt bound; reset
        #: whenever the average-duration baseline moves (completions),
        #: since a lower average lowers the slowness threshold.
        self.spec_gate = {TaskType.MAP: 0.0, TaskType.REDUCE: 0.0}

    def _on_task_transition(self, task: Task, old: str, new: str) -> None:
        """Maintain the per-status sets and counters (see Task.set_status)."""
        if task.type == TaskType.MAP:
            pending, running = self.pending_map_tasks, self.running_map_tasks
        else:
            pending, running = self.pending_reduce_tasks, self.running_reduce_tasks
        if old == TaskStatus.PENDING:
            pending.pop(task, None)
        elif old == TaskStatus.RUNNING:
            running.pop(task, None)
        elif old == TaskStatus.COMPLETED:
            if task.type == TaskType.MAP:
                self._n_completed_maps -= 1
            else:
                self._n_completed_reduces -= 1
        if new == TaskStatus.PENDING:
            pending[task] = None
        elif new == TaskStatus.RUNNING:
            running[task] = None
        elif new == TaskStatus.COMPLETED:
            if task.type == TaskType.MAP:
                self._n_completed_maps += 1
            else:
                self._n_completed_reduces += 1
        for cb in self._transition_listeners:
            cb(task, old, new)

    def note_task_duration(self, task_type: str, duration: float) -> None:
        """Record a winning attempt's duration (speculation baseline)."""
        self._dur_sum[task_type] += duration
        self._dur_count[task_type] += 1
        self.spec_gate[task_type] = 0.0  # threshold moved: re-evaluate

    def note_attempt_launched(self, attempt: "TaskAttempt") -> None:
        """Index a fresh attempt for the oldest-running-attempt query."""
        heappush(self._attempt_heaps[attempt.task.type],
                 (attempt.start_time, attempt.attempt_id, attempt))

    def oldest_running_attempt_start(self, task_type: str) -> Optional[float]:
        """Start time of the oldest attempt still running, or ``None``.

        The answer upper-bounds every task's elapsed time, so the
        speculation scan can be skipped entirely when even the oldest
        attempt is younger than the slowness threshold."""
        heap = self._attempt_heaps[task_type]
        while heap and heap[0][2].status != TaskStatus.RUNNING:
            heappop(heap)
        return heap[0][0] if heap else None

    # -- progress -----------------------------------------------------------------
    @property
    def completed_maps(self) -> int:
        """Number of finished map tasks."""
        return self._n_completed_maps

    @property
    def completed_reduces(self) -> int:
        """Number of finished reduce tasks."""
        return self._n_completed_reduces

    @property
    def is_complete(self) -> bool:
        """True once every map and reduce has completed."""
        return (self.completed_maps == len(self.maps)
                and self.completed_reduces == len(self.reduces))

    @property
    def response_time(self) -> Optional[float]:
        """Submit-to-finish latency, once finished."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time

    def reduces_schedulable(self, slowstart: float) -> bool:
        """True when enough maps are done to start reduces."""
        if not self.reduces:
            return False
        return self.completed_maps >= slowstart * len(self.maps)

    def subscribe_task_transition(self, callback) -> None:
        """Register a callback fired with ``(task, old, new)`` on every
        task status transition, after the job's own pending/running sets
        have been updated (so listeners see consistent state)."""
        self._transition_listeners.append(callback)

    # -- map-output pub/sub (drives the shuffle) -------------------------------------
    def subscribe_map_completed(self, callback) -> None:
        """Register a callback fired whenever a map output becomes available
        (reduces use this to wake their fetchers)."""
        self._map_completed_listeners.append(callback)

    def unsubscribe_map_completed(self, callback) -> None:
        """Remove a shuffle wake-up callback."""
        if callback in self._map_completed_listeners:
            self._map_completed_listeners.remove(callback)

    def publish_map_output(self, output: MapOutput) -> None:
        """Record a completed map's output and wake waiting reducers."""
        self.map_outputs[output.map_index] = output
        for cb in list(self._map_completed_listeners):
            cb(output)

    def retract_map_output(self, map_index: int) -> Optional[MapOutput]:
        """Remove a map output (its node was lost); returns the old record."""
        return self.map_outputs.pop(map_index, None)

    def average_completed_duration(self, task_type: str) -> Optional[float]:
        """Mean winning-attempt duration over completed tasks of
        ``task_type`` (the baseline for the 1/3-slower speculation rule)."""
        n = self._dur_count[task_type]
        if n == 0:
            return None
        return self._dur_sum[task_type] / n

    def __repr__(self) -> str:
        return (f"<Job {self.job_id} {self.spec.name!r} {self.status} "
                f"maps={self.completed_maps}/{len(self.maps)} "
                f"reduces={self.completed_reduces}/{len(self.reduces)}>")
