"""Task scheduling: FIFO job order, locality-aware map assignment, and
speculative execution.

"In the current version of HOG, we follow Apache Hadoop's FIFO job
scheduling policy with speculative execution enabled.  At any time, a task
has at most two copies of execution in the system." (§III-B2)

"The default Hadoop scheduler will attempt to schedule Map tasks on nodes
that have the input data.  If it is unable to find a data local node, it
will attempt to schedule the Map task in the same site as the input data."
(§III-B2) — the locality ladder implemented by :meth:`FifoScheduler._try_map`.

Like Hadoop 0.20, a heartbeat is answered with at most one map and one
reduce: each picker runs once, so no pick has to skip a task chosen
earlier in the same beat.  Every picker skips a task on a host it has
already failed on (:meth:`~repro.mapreduce.job.Task.may_run_on`).

Scheduling is *index-driven*: the cluster-wide
:class:`~repro.mapreduce.pending_index.ClusterPendingIndex` is updated on
task-state events, and a heartbeat walks only the jobs that can actually
yield work (pending work present, or a speculation gate passed).  The
steady-state heartbeat — no pending work, all gates in the future — costs
O(1).  The per-job decision bodies are written so that skipping a job
the index leaves out cannot change the assignment stream:
``tests/test_scheduler_equivalence.py`` runs them over every schedulable
job instead and asserts bit-identical streams.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from .job import Job, Task, TaskType
from .pending_index import ClusterPendingIndex

if TYPE_CHECKING:  # pragma: no cover
    from .jobtracker import JobTracker
    from .tasktracker import TaskTracker

__all__ = ["FifoScheduler"]


class FifoScheduler:
    """Hadoop 0.20's default scheduler, as used by HOG."""

    def __init__(self, jobtracker: "JobTracker") -> None:
        self.jobtracker = jobtracker
        self.config = jobtracker.config
        self.index = ClusterPendingIndex(jobtracker,
                                         on_job_removed=self._job_removed)

    # -- lifecycle hooks -----------------------------------------------------
    def _job_removed(self, job: Job) -> None:
        """Hook: ``job`` left the schedulable set (finished/failed)."""

    def _idle_heartbeat(self, tracker, free_maps: int) -> None:
        """Hook: the empty-index gate skipped both picks for ``tracker``.
        A subclass whose map pick has a side effect even when it finds
        nothing replays that effect here."""

    # -- parking predicate (see repro.sim.liveness) ---------------------------
    def waiting_work(self) -> Tuple[bool, bool]:
        """Whether a heartbeat now from a tracker with a free map slot /
        a free reduce slot would do more than bookkeeping.

        A beat acts when jobs exist and the index is behind the job list
        (``sync`` would run), a snoozed speculation gate is due
        (``pull_spec`` would arm it), or a candidate list its free slot
        reads is non-empty.  Changes nothing a decision reads (stale
        speculation-gate heap tops are dropped, as ``pull_spec`` would)."""
        jt = self.jobtracker
        if not jt.schedulable_jobs():
            return False, False
        index = self.index
        if index.synced_version != jt.jobs_version or \
                index.next_gate() <= jt.sim._now:
            return True, True
        speculative = self.config.speculative_execution
        # A scheduler whose empty map pick has a side effect (it
        # overrides ``_idle_heartbeat``) acts on every beat of a tracker
        # with a free map slot.
        idle_acts = (type(self)._idle_heartbeat
                     is not FifoScheduler._idle_heartbeat)
        return (idle_acts or bool(index.map_candidates(speculative)),
                bool(index.reduce_candidates(speculative)))

    def idle(self, tracker) -> bool:
        """True when ``tracker``'s next beats would only be bookkeeping
        until a wake trigger (work appearing, a slot freeing, a gate
        falling due)."""
        free_maps = tracker.free_map_slots
        free_reduces = tracker.free_reduce_slots
        if free_maps <= 0 and free_reduces <= 0:
            return True
        maps, reduces = self.waiting_work()
        return not ((maps and free_maps > 0)
                    or (reduces and free_reduces > 0))

    # -- assignment ----------------------------------------------------------
    def assign(self, tracker: "TaskTracker") -> List[Tuple[Task, bool, str]]:
        """Return ``(task, speculative, locality)`` assignments for one
        heartbeat from ``tracker``.  ``locality`` is one of ``data_local``,
        ``site_local``, ``remote`` for maps and ``n/a`` for reduces."""
        out: List[Tuple[Task, bool, str]] = []
        free_maps = tracker.free_map_slots
        free_reduces = tracker.free_reduce_slots
        if free_maps <= 0 and free_reduces <= 0:
            return out  # fully busy worker: nothing to decide
        jobs = self.jobtracker.schedulable_jobs()
        if not jobs:
            return out
        # O(1) unless the job list changed (version-gated sync) or a
        # snoozed speculation gate passed (lazy heap top).
        index = self.index
        index.sync(jobs)
        index.pull_spec(self.jobtracker.sim._now)
        # Empty-index gate, after the refresh (a gate passing at this
        # instant arms its job first): with no candidate job for either
        # picker, both would return None.
        speculative = self.config.speculative_execution
        if not (index.map_candidates(speculative)
                or index.reduce_candidates(speculative)):
            self._idle_heartbeat(tracker, free_maps)
            return out

        if free_maps > 0:
            pick = self._pick_map(tracker)
            if pick is not None:
                out.append(pick)
        if free_reduces > 0:
            pick = self._pick_reduce(tracker)
            if pick is not None:
                out.append(pick)
        return out

    # -- map selection -------------------------------------------------------
    def _pick_map(self, tracker) -> Optional[Tuple[Task, bool, str]]:
        speculative = self.config.speculative_execution
        for job in self.index.map_candidates(speculative):
            pick = self._try_map(job, tracker)
            if pick is not None:
                return pick
        return None

    def _try_map(self, job: Job, tracker) -> Optional[Tuple[Task, bool, str]]:
        """The per-job map decision body.

        Must be side-effect-free and ``None`` for any job with neither a
        pending nor a probe-worthy running map — that is what lets the
        index skip such jobs without changing the stream."""
        if tracker.host in job.blacklist:
            return None
        if job.pending_map_tasks:
            pick = self._most_local(job, tracker)
            if pick is not None:
                return pick[0], False, pick[1]
        if self.config.speculative_execution:
            cand = self._probe_speculation(job, TaskType.MAP, tracker)
            if cand is not None:
                return cand, True, self._locality_of(job, cand, tracker)
        return None

    def _runnable(self, tasks, host: str) -> Optional[Task]:
        """The first of ``tasks`` that may run on ``host`` (None if none
        may): the first task itself unless some task failed there."""
        live = -1
        for task in tasks:
            if task.failed_on is None:
                return task
            if live < 0:
                live = self.jobtracker.live_tracker_count()
            if task.may_run_on(host, live):
                return task
        return None

    def _most_local(self, job: Job, tracker) -> Optional[Tuple[Task, str]]:
        """Locality ladder: node-local block → site-local block → any.

        Called only for a job with a pending map.  The per-host/per-site
        lists hold exactly the PENDING tasks (the cluster index maintains
        them on transitions), so each rung is a first-entry lookup — no
        status checks, no pruning — unless a task on it failed on this
        host.  None when every pending map failed on this host."""
        host = tracker.host
        idx = self.index.locality(job)
        task = self._runnable(idx.host_maps.get(host, ()), host)
        if task is not None:
            return task, "data_local"
        site = self.jobtracker.topology.site_of(host)
        task = self._runnable(idx.site_maps.get(site, ()), host)
        if task is not None:
            return task, "site_local"
        task = self._runnable(job.pending_map_tasks, host)
        if task is not None:
            return task, "remote"
        return None

    def _locality_of(self, job: Job, task: Task, tracker) -> str:
        # Answer from the build-time location snapshot, NOT the pending
        # lists: this is asked about *running* tasks (speculative copies).
        loc = self.index.locality(job).locations.get(task)
        if loc is None:
            return "remote"
        hosts, sites = loc
        if tracker.host in hosts:
            return "data_local"
        if self.jobtracker.topology.site_of(tracker.host) in sites:
            return "site_local"
        return "remote"

    # -- reduce selection ----------------------------------------------------
    def _pick_reduce(self, tracker) -> Optional[Tuple[Task, bool, str]]:
        speculative = self.config.speculative_execution
        for job in self.index.reduce_candidates(speculative):
            pick = self._try_reduce(job, tracker)
            if pick is not None:
                return pick
        return None

    def _try_reduce(self, job: Job, tracker) -> Optional[Tuple[Task, bool, str]]:
        """Per-job reduce decision body."""
        if tracker.host in job.blacklist:
            return None
        if not job.reduces_schedulable(self.config.reduce_slowstart):
            return None
        pending = job.pending_reduce_tasks
        if pending:
            host = tracker.host
            best = min(pending, key=lambda t: t.index)
            if best.failed_on is not None:
                live = self.jobtracker.live_tracker_count()
                best = min((t for t in pending if t.may_run_on(host, live)),
                           key=lambda t: t.index, default=None)
            if best is not None:
                return best, False, "n/a"
        if self.config.speculative_execution:
            cand = self._probe_speculation(job, TaskType.REDUCE, tracker)
            if cand is not None:
                return cand, True, "n/a"
        return None

    # -- speculation -----------------------------------------------------------
    def _probe_speculation(self, job: Job, task_type: str,
                           tracker) -> Optional[Task]:
        """Probe + arming maintenance: an empty-handed probe that pushed
        the job's gate into the future snoozes it in the cluster index, so
        the picks stop visiting it until the gate passes (or a completion
        re-arms it)."""
        # Gate-still-closed is the overwhelmingly common probe outcome
        # (completions re-arm jobs constantly): answer it with one float
        # compare instead of entering the candidate scan.
        gate = job.spec_gate[task_type]
        if self.jobtracker.sim.now < gate:
            self.index.spec[task_type].snooze(job, gate)
            return None
        if job.average_completed_duration(task_type) is None:
            # No completed task of this type yet ⇒ no slowness baseline ⇒
            # no probe can succeed until the first completion — which
            # re-arms the job through the transition hooks (arm on
            # completion with survivors, drop+track otherwise).  Snoozing
            # until then is exact and stops every tracker from probing
            # the job each heartbeat while its first wave runs.
            self.index.spec[task_type].snooze(job, float("inf"))
            return None
        cand = self._speculation_candidate(job, task_type, tracker)
        if cand is None:
            gate = job.spec_gate[task_type]
            if gate > self.jobtracker.sim.now:
                self.index.spec[task_type].snooze(job, gate)
        return cand

    def _speculation_candidate(self, job: Job, task_type: str,
                               tracker) -> Optional[Task]:
        """A running task whose attempt is 1/3 slower than the job average,
        eligible for one more copy, and not already running on this node."""
        now = self.jobtracker.sim.now
        # Time gate: a previous probe proved nothing can qualify before
        # this instant (oldest attempt + threshold).  The gate is reset
        # whenever a completion moves the average-duration baseline, so
        # skipping is exact — and turns the per-heartbeat, per-job scan
        # into a single float compare on the hot path.
        if now < job.spec_gate[task_type]:
            return None
        avg = job.average_completed_duration(task_type)
        if avg is None:
            return None
        running_set = (job.running_map_tasks if task_type == TaskType.MAP
                       else job.running_reduce_tasks)
        if not running_set:
            return None
        threshold = max(self.config.speculation_min_elapsed,
                        self.config.speculation_slowness_factor * avg)
        # O(1) prune: if even the oldest running attempt is younger than
        # the slowness threshold, no task can qualify — skip the scan and
        # remember when that could first change.
        oldest = job.oldest_running_attempt_start(task_type)
        if oldest is None or now - oldest < threshold:
            job.spec_gate[task_type] = (
                now + threshold if oldest is None else oldest + threshold)
            return None
        best: Optional[Task] = None
        best_elapsed = threshold
        host = tracker.host
        live = self.jobtracker.live_tracker_count()
        for task in running_set:
            running = task.running_attempts
            if not running or len(running) >= self.config.max_task_copies:
                continue
            if any(a.tracker.host == host for a in running):
                continue
            if not task.may_run_on(host, live):
                continue
            elapsed = now - min(a.start_time for a in running)
            if elapsed >= best_elapsed:
                best = task
                best_elapsed = elapsed
        return best
