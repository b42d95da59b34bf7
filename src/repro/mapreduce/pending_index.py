"""Cluster-wide, event-maintained scheduler indexes.

The schedulers' original hot path rescanned every queued job (and probed
every job's locality index) on *every* heartbeat — O(jobs × probes) per
message, the dominant control-plane cost at 1000 nodes and a wall at 10k.
This module inverts that: per-job locality lists and cluster-wide
presence maps are updated on task-state *events* (PENDING↔RUNNING/DONE,
requeue), so a heartbeat touches only jobs that can actually yield work.

Invariants (all maintained by :meth:`ClusterPendingIndex._on_transition`):

- ``JobLocalityIndex.host_maps[h]`` / ``site_maps[s]`` contain exactly the
  job's *PENDING* map tasks with a replica on ``h`` / in ``s``, in
  deterministic order (build order; requeued tasks re-append at the end).
- ``host_jobs[h]`` / ``site_jobs[s]`` contain exactly the registered jobs
  whose corresponding per-job list is non-empty.
- ``map_jobs`` contains exactly the jobs with ≥ 1 pending map task;
  ``reduce_jobs`` the jobs with ≥ 1 pending reduce *and* the reduce
  slowstart threshold met, ``reduce_wait`` the rest (visiting a
  pre-slowstart job every heartbeat is pure waste — the decision body
  rejects it unconditionally).
- every job with a running task of type T is *tracked* by the type-T
  :class:`_SpecArming`: either armed (a speculation probe might succeed
  now) or snoozed behind its ``spec_gate`` in a lazy heap.

All job collections are keyed by ``job_id`` and walked in ascending-id
order, which is exactly the jobtracker's FIFO submit order — so the
schedulers visit candidates in the order an all-jobs scan would.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..hdfs.namenode import HdfsError
from .job import Job, Task, TaskStatus, TaskType

if TYPE_CHECKING:  # pragma: no cover
    from .jobtracker import JobTracker

__all__ = ["JobLocalityIndex", "ClusterPendingIndex"]


class JobLocalityIndex:
    """Host → pending maps and site → pending maps for one job.

    Built once from the namenode's block locations; thereafter maintained
    event-driven by the owning :class:`ClusterPendingIndex` so the lists
    always hold exactly the PENDING tasks (no lazy pruning, no status
    checks during scheduling scans).
    """

    __slots__ = ("host_maps", "site_maps", "locations")

    def __init__(self, job: Job, jobtracker: "JobTracker") -> None:
        self.host_maps: Dict[str, Dict[Task, None]] = {}
        self.site_maps: Dict[str, Dict[Task, None]] = {}
        #: task → (hosts, sites) snapshot for event-driven re-admission
        #: and for locality classification of running (speculative) tasks.
        self.locations: Dict[Task, tuple] = {}
        blocks = jobtracker.input_blocks(job)
        topo = jobtracker.topology
        pending = job.pending_map_tasks
        for task in job.maps:
            try:
                located = jobtracker.namenode.locate(blocks[task.index].block_id)
            except HdfsError:
                # The one *expected* failure: the input block vanished
                # (e.g. every replica lost before the job started).  The
                # map still runs — just with no locality preference.  Any
                # other error is a bug and propagates.
                located = []
                jobtracker.counters.incr("map_input_blocks_unlocatable")
            if not located:
                continue
            sites = []
            for host in located:
                site = topo.site_of(host)
                if site not in sites:
                    sites.append(site)
            self.locations[task] = (tuple(located), tuple(sites))
            if task in pending:
                for host in located:
                    self.host_maps.setdefault(host, {})[task] = None
                for site in sites:
                    self.site_maps.setdefault(site, {})[task] = None


class _SpecArming:
    """Which jobs are worth a speculation probe, per task type.

    A job with running tasks is *armed* when its ``spec_gate`` may have
    passed (a probe could find a candidate) and *snoozed* into a lazy
    heap when a probe proved nothing can qualify before a future instant.
    Gate semantics guarantee a snoozed job's probe would return ``None``,
    so skipping it cannot change the assignment stream.
    """

    __slots__ = ("armed", "version", "_heap", "_gates")

    def __init__(self) -> None:
        #: job_id → Job whose next probe might succeed.
        self.armed: Dict[int, Job] = {}
        #: Bumped whenever the armed set changes — the candidate-list
        #: caches key on it, so reads between changes cost O(1).
        self.version = 0
        #: (gate, job_id, Job) lazy min-heap of snoozed jobs.
        self._heap: List[Tuple[float, int, Job]] = []
        #: job_id → gate of its one *live* heap entry (stale-entry filter).
        self._gates: Dict[int, float] = {}

    def track(self, job: Job) -> None:
        """A task of this type started running: ensure the job is tracked."""
        jid = job.job_id
        if jid not in self.armed and jid not in self._gates:
            self.armed[jid] = job
            self.version += 1

    def arm(self, job: Job) -> None:
        """Force re-evaluation (a completion reset the job's gate)."""
        jid = job.job_id
        self._gates.pop(jid, None)
        if jid not in self.armed:
            self.armed[jid] = job
            self.version += 1

    def snooze(self, job: Job, gate: float) -> None:
        """A probe proved nothing qualifies before ``gate``.

        Re-snoozing with an unchanged gate is a no-op: a job visited via
        the pending path can report the same closed gate every heartbeat,
        and pushing a duplicate heap entry each time is pure waste."""
        jid = job.job_id
        if jid in self.armed:
            del self.armed[jid]
            self.version += 1
        if self._gates.get(jid) != gate:
            self._gates[jid] = gate
            heappush(self._heap, (gate, jid, job))

    def drop(self, job: Job) -> None:
        """Stop tracking (no running tasks left, or job finished)."""
        if self.armed.pop(job.job_id, None) is not None:
            self.version += 1
        self._gates.pop(job.job_id, None)

    def next_gate(self) -> float:
        """The earliest live snoozed gate (``inf`` when none); drops stale
        heap tops, which :meth:`pull` would skip anyway."""
        heap = self._heap
        gates = self._gates
        while heap:
            gate, jid, _ = heap[0]
            if gates.get(jid) == gate:
                return gate
            heappop(heap)
        return float("inf")

    def pull(self, now: float) -> None:
        """Move every snoozed job whose gate has passed back to armed."""
        heap = self._heap
        while heap and heap[0][0] <= now:
            gate, jid, job = heappop(heap)
            if self._gates.get(jid) == gate:  # live entry, not stale
                del self._gates[jid]
                self.armed[jid] = job
                self.version += 1


class ClusterPendingIndex:
    """The merged, cluster-wide view of every schedulable job's work.

    Owned by the scheduler; reconciled against the jobtracker's job list
    only when ``jobs_version`` changes (submit/finish), and updated on
    task transitions in between.  The heartbeat path reads presence maps
    and per-job lists — it never iterates the all-jobs list.
    """

    def __init__(self, jobtracker: "JobTracker",
                 on_job_removed: Optional[Callable[[Job], None]] = None) -> None:
        self.jobtracker = jobtracker
        self._on_job_removed = on_job_removed
        #: host → {job_id → Job} with ≥1 pending map local to the host.
        self.host_jobs: Dict[str, Dict[int, Job]] = {}
        #: site → {job_id → Job} with ≥1 pending map in the site.
        self.site_jobs: Dict[str, Dict[int, Job]] = {}
        #: job_id → Job with ≥1 pending map.
        self.map_jobs: Dict[int, Job] = {}
        #: job_id → Job with ≥1 pending reduce *and* slowstart met.  Jobs
        #: whose reduces exist but cannot launch yet (not enough maps
        #: done) wait in ``reduce_wait`` — the reduce pick would reject
        #: them anyway, so visiting them every heartbeat is pure waste.
        #: Reclassified on map-completion deltas (both directions: map
        #: re-runs after node loss can *lower* completed_maps).
        self.reduce_jobs: Dict[int, Job] = {}
        #: job_id → Job with ≥1 pending reduce, slowstart not yet met.
        self.reduce_wait: Dict[int, Job] = {}
        self.spec = {TaskType.MAP: _SpecArming(), TaskType.REDUCE: _SpecArming()}
        self._jobs: Dict[int, Job] = {}
        self._indexes: Dict[int, JobLocalityIndex] = {}
        self.synced_version = -1
        #: Bumped on every ``map_jobs`` / ``reduce_jobs`` mutation; the
        #: candidate-list caches below key on (pending, armed) versions so
        #: the per-pick sorted merge happens only when something changed —
        #: picks vastly outnumber membership changes.
        self._map_version = 0
        self._reduce_version = 0
        self._map_cands: Tuple[Tuple[int, int], List[Job]] = ((-1, -1), [])
        self._reduce_cands: Tuple[Tuple[int, int], List[Job]] = ((-1, -1), [])
        #: Index maintenance operations since construction (perf counter:
        #: total work the event-driven path does *instead of* rescanning).
        self.updates = 0

    # -- job registry -------------------------------------------------------
    def locality(self, job: Job) -> JobLocalityIndex:
        """The per-job locality index (job must be registered)."""
        return self._indexes[job.job_id]

    def sync(self, jobs: List[Job]) -> None:
        """Reconcile with the schedulable-job list.  O(1) when the
        jobtracker's ``jobs_version`` is unchanged; O(jobs) on change."""
        version = self.jobtracker.jobs_version
        if version == self.synced_version:
            return
        self.synced_version = version
        known = self._jobs
        for job in jobs:
            if job.job_id not in known:
                self._register(job)
        if len(known) != len(jobs):
            live = {job.job_id: None for job in jobs}
            for jid in [jid for jid in known if jid not in live]:
                self._remove(known[jid])

    def _register(self, job: Job) -> None:
        jid = job.job_id
        self._jobs[jid] = job
        idx = self._indexes[jid] = JobLocalityIndex(job, self.jobtracker)
        for host in idx.host_maps:
            self.host_jobs.setdefault(host, {})[jid] = job
        for site in idx.site_maps:
            self.site_jobs.setdefault(site, {})[jid] = job
        if job.pending_map_tasks:
            self.map_jobs[jid] = job
            self._map_version += 1
        if job.pending_reduce_tasks:
            self._admit_reduces(job)
        if job.running_map_tasks:
            self.spec[TaskType.MAP].track(job)
        if job.running_reduce_tasks:
            self.spec[TaskType.REDUCE].track(job)
        self.updates += 1
        job.subscribe_task_transition(self._on_transition)

    def _remove(self, job: Job) -> None:
        jid = job.job_id
        del self._jobs[jid]
        idx = self._indexes.pop(jid)
        for host in idx.host_maps:
            jobs = self.host_jobs.get(host)
            if jobs is not None:
                jobs.pop(jid, None)
                if not jobs:
                    del self.host_jobs[host]
        for site in idx.site_maps:
            jobs = self.site_jobs.get(site)
            if jobs is not None:
                jobs.pop(jid, None)
                if not jobs:
                    del self.site_jobs[site]
        self.map_jobs.pop(jid, None)
        self.reduce_jobs.pop(jid, None)
        self.reduce_wait.pop(jid, None)
        self._map_version += 1
        self._reduce_version += 1
        self.spec[TaskType.MAP].drop(job)
        self.spec[TaskType.REDUCE].drop(job)
        self.updates += 1
        if self._on_job_removed is not None:
            self._on_job_removed(job)

    # -- event maintenance --------------------------------------------------
    def _on_transition(self, task: Task, old: str, new: str) -> None:
        job = task.job
        if job.job_id not in self._jobs:
            return  # post-finish straggler event (job already deindexed)
        self.updates += 1
        arming = self.spec[task.type]
        if task.type == TaskType.MAP:
            if old == TaskStatus.PENDING:
                self._map_left_pending(job, task)
            if new == TaskStatus.PENDING:
                self._map_entered_pending(job, task)
            elif new == TaskStatus.RUNNING:
                arming.track(job)
            elif new == TaskStatus.COMPLETED:
                # The completion is about to reset the job's map spec gate
                # (note_task_duration): force a re-probe.
                if job.running_map_tasks:
                    arming.arm(job)
            if old == TaskStatus.RUNNING and not job.running_map_tasks:
                arming.drop(job)
            if (new == TaskStatus.COMPLETED or old == TaskStatus.COMPLETED) \
                    and job.pending_reduce_tasks:
                # The completed-map count moved: the job may have crossed
                # the reduce-slowstart threshold (either direction).
                self._admit_reduces(job)
        else:
            jid = job.job_id
            if old == TaskStatus.PENDING and not job.pending_reduce_tasks:
                self.reduce_jobs.pop(jid, None)
                self.reduce_wait.pop(jid, None)
                self._reduce_version += 1
            if new == TaskStatus.PENDING:
                self._admit_reduces(job)
            elif new == TaskStatus.RUNNING:
                arming.track(job)
            elif new == TaskStatus.COMPLETED:
                if job.running_reduce_tasks:
                    arming.arm(job)
            if old == TaskStatus.RUNNING and not job.running_reduce_tasks:
                arming.drop(job)
        # Candidates may have appeared: parked trackers may have work.
        self.jobtracker._wake_for_work()

    def _admit_reduces(self, job: Job) -> None:
        """Bucket a job with pending reduces by slowstart readiness.

        ``reduce_jobs`` holds exactly the jobs a reduce pick could serve;
        the rest wait in ``reduce_wait`` until enough maps complete.  The
        decision body re-checks ``reduces_schedulable`` itself, so the
        split is a pure visit filter — skipping a waiting job cannot
        change the assignment stream."""
        jid = job.job_id
        if job.reduces_schedulable(self.jobtracker.config.reduce_slowstart):
            if jid not in self.reduce_jobs:
                self.reduce_wait.pop(jid, None)
                self.reduce_jobs[jid] = job
                self._reduce_version += 1
        elif jid in self.reduce_jobs:
            del self.reduce_jobs[jid]
            self.reduce_wait[jid] = job
            self._reduce_version += 1
        else:
            self.reduce_wait[jid] = job

    def _map_left_pending(self, job: Job, task: Task) -> None:
        jid = job.job_id
        idx = self._indexes[jid]
        loc = idx.locations.get(task)
        if loc is not None:
            hosts, sites = loc
            for host in hosts:
                tasks = idx.host_maps.get(host)
                if tasks is None:
                    continue
                tasks.pop(task, None)
                if not tasks:
                    del idx.host_maps[host]
                    jobs = self.host_jobs[host]
                    del jobs[jid]
                    if not jobs:
                        del self.host_jobs[host]
            for site in sites:
                tasks = idx.site_maps.get(site)
                if tasks is None:
                    continue
                tasks.pop(task, None)
                if not tasks:
                    del idx.site_maps[site]
                    jobs = self.site_jobs[site]
                    del jobs[jid]
                    if not jobs:
                        del self.site_jobs[site]
            self.updates += len(hosts) + len(sites)
        if not job.pending_map_tasks:
            self.map_jobs.pop(jid, None)
            self._map_version += 1

    def _map_entered_pending(self, job: Job, task: Task) -> None:
        jid = job.job_id
        idx = self._indexes[jid]
        loc = idx.locations.get(task)
        if loc is not None:
            hosts, sites = loc
            for host in hosts:
                tasks = idx.host_maps.setdefault(host, {})
                if not tasks:
                    self.host_jobs.setdefault(host, {})[jid] = job
                tasks[task] = None
            for site in sites:
                tasks = idx.site_maps.setdefault(site, {})
                if not tasks:
                    self.site_jobs.setdefault(site, {})[jid] = job
                tasks[task] = None
            self.updates += len(hosts) + len(sites)
        if jid not in self.map_jobs:
            self.map_jobs[jid] = job
            self._map_version += 1

    # -- heartbeat-path queries ----------------------------------------------
    def next_gate(self) -> float:
        """The earliest live snoozed speculation gate, or ``inf``."""
        return min(arming.next_gate() for arming in self.spec.values())

    def pull_spec(self, now: float) -> None:
        """Promote snoozed jobs whose speculation gates have passed."""
        self.spec[TaskType.MAP].pull(now)
        self.spec[TaskType.REDUCE].pull(now)

    def map_candidates(self, speculative: bool) -> List[Job]:
        """Jobs worth visiting for a map pick, ascending job id: every job
        with a pending map, plus (with speculation on) every armed job.

        The sorted merge is cached on (pending, armed) version counters:
        picks run several times per heartbeat while membership changes
        only on task transitions, so the common call is two int compares."""
        spec = self.spec[TaskType.MAP]
        key = (self._map_version, spec.version if speculative else -1)
        cached = self._map_cands
        if cached[0] == key:
            return cached[1]
        out = self._merge_candidates(self.map_jobs,
                                     spec.armed if speculative else ())
        self._map_cands = (key, out)
        return out

    def reduce_candidates(self, speculative: bool) -> List[Job]:
        """Jobs worth visiting for a reduce pick, ascending job id:
        every job with a pending reduce *and* slowstart met, plus (with
        speculation on) every armed job.  Cached like map_candidates."""
        spec = self.spec[TaskType.REDUCE]
        key = (self._reduce_version, spec.version if speculative else -1)
        cached = self._reduce_cands
        if cached[0] == key:
            return cached[1]
        out = self._merge_candidates(self.reduce_jobs,
                                     spec.armed if speculative else ())
        self._reduce_cands = (key, out)
        return out

    @staticmethod
    def _merge_candidates(pending: Dict[int, Job], armed) -> List[Job]:
        if not armed:
            if not pending:
                return _EMPTY
            return [pending[jid] for jid in sorted(pending)]
        merged = dict(pending)
        merged.update(armed)
        return [merged[jid] for jid in sorted(merged)]

    def jobs_with_local_maps(self, host: str) -> List[Job]:
        """Jobs holding a pending map whose input lives on ``host``,
        ascending job id (matchmaking pass 1)."""
        jobs = self.host_jobs.get(host)
        if not jobs:
            return _EMPTY
        return [jobs[jid] for jid in sorted(jobs)]

    def jobs_with_site_maps(self, site: str) -> List[Job]:
        """Jobs holding a pending map with a replica in ``site``,
        ascending job id (matchmaking pass 2)."""
        jobs = self.site_jobs.get(site)
        if not jobs:
            return _EMPTY
        return [jobs[jid] for jid in sorted(jobs)]


#: Shared empty result (the overwhelmingly common steady-state answer).
_EMPTY: List[Job] = []
