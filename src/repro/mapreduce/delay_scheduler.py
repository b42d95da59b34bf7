"""Delay scheduling (Zaharia et al., EuroSys 2010 — the paper's ref [3]).

The HOG evaluation workload is taken from the delay-scheduling paper, and
HOG's own future work contemplates better schedulers.  Delay scheduling
fixes FIFO's locality problem: when the job at the head of the queue has
no *local* task for the heartbeating node, it is skipped — for up to a
bounded wait — instead of immediately launching a non-local task.

We implement the standard two-level variant: a job waits up to
``node_local_delay`` seconds for a node-local slot before accepting a
site-local one, and up to ``site_local_delay`` further seconds before
accepting an arbitrary (cross-site) slot.

Only the per-job decision body differs from FIFO, so the index-driven
candidate walk comes straight from
:class:`~repro.mapreduce.scheduler.FifoScheduler`.
"""

from __future__ import annotations

from typing import Dict, Optional

from .job import Job, Task, TaskType

from .scheduler import FifoScheduler

__all__ = ["DelayScheduler"]


class DelayScheduler(FifoScheduler):
    """FIFO order with bounded waiting for locality."""

    #: Seconds a job will wait for a node-local launch opportunity.
    node_local_delay: float = 15.0
    #: Additional seconds it will wait for a site-local one.
    site_local_delay: float = 30.0

    def __init__(self, jobtracker) -> None:
        super().__init__(jobtracker)
        #: job_id → time the job last launched a task (or started waiting).
        self._wait_start: Dict[int, float] = {}

    def _job_removed(self, job: Job) -> None:
        self._wait_start.pop(job.job_id, None)

    def _allowed_locality(self, job: Job) -> str:
        """How far from its data this job may currently launch."""
        now = self.jobtracker.sim.now
        waited = now - self._wait_start.setdefault(job.job_id, now)
        if waited < self.node_local_delay:
            return "data_local"
        if waited < self.node_local_delay + self.site_local_delay:
            return "site_local"
        return "remote"

    def _note_launch(self, job: Job, locality: str) -> None:
        # A local launch resets the job's patience; a forced remote launch
        # also resets it (it got its turn), matching the published
        # algorithm's skip-count reset.
        self._wait_start[job.job_id] = self.jobtracker.sim.now

    def _try_map(self, job: Job, tracker):
        if tracker.host in job.blacklist:
            return None
        pick = self._most_local(job, tracker) if job.pending_map_tasks \
            else None
        if pick is not None:
            task, locality = pick
            allowed = self._allowed_locality(job)
            if locality == "data_local" or allowed == "remote" or \
                    (locality == "site_local" and allowed == "site_local"):
                self._note_launch(job, locality)
                return task, False, locality
            # Not local enough yet: skip this job (the caller moves on).
            return None
        cand: Optional[Task] = None
        if self.config.speculative_execution:
            cand = self._probe_speculation(job, TaskType.MAP, tracker)
        if cand is not None:
            return cand, True, self._locality_of(job, cand, tracker)
        return None
