"""Matchmaking scheduling (He, Lu, Swanson, CloudCom 2011 — ref [20]).

The HOG authors' own locality technique, used alongside delay scheduling
to evaluate Hadoop schedulers on the same loadgen workload.  The rule:

1. On a heartbeat, every queued job (not just the head) gets a chance to
   offer a *node-local* map task for this node.
2. If none of the jobs has a local task, the node is given a non-local
   task only if it has already been passed over once since the last new
   job arrived — tracked with a per-node *locality marker*.  Markers are
   cleared whenever a new job is enqueued, giving fresh jobs a fair shot
   at locality everywhere.

Index-driven: passes 1 and 2 walk only the jobs the cluster index says
have a pending map on this host / in this site (ascending job id — FIFO
order), so the common "no local work anywhere" heartbeat is O(1), not
O(jobs).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .job import Task, TaskType
from .scheduler import FifoScheduler

__all__ = ["MatchmakingScheduler"]


class MatchmakingScheduler(FifoScheduler):
    """All-jobs local matching with one-heartbeat patience per node."""

    def __init__(self, jobtracker) -> None:
        super().__init__(jobtracker)
        #: host → True once the node has been refused a task this round.
        self._marker: Dict[str, bool] = {}
        self._submits_seen = 0

    def _maybe_reset_markers(self) -> None:
        # Keyed off the monotonic submit counter, NOT len(jobs): a job
        # *finishing* must leave markers alone, and a submit + a finish
        # landing at the same instant (len unchanged) must still clear.
        seq = self.jobtracker.jobs_submitted_seq
        if seq != self._submits_seen:
            self._marker.clear()
            self._submits_seen = seq

    def _idle_heartbeat(self, tracker, free_maps: int) -> None:
        # The skipped map pick would have refused the node: mark it.
        if free_maps > 0:
            self._maybe_reset_markers()
            self._marker[tracker.host] = True

    def _pick_map(self, tracker) -> Optional[Tuple[Task, bool, str]]:
        self._maybe_reset_markers()
        host = tracker.host

        # Pass 1: any job with a node-local pending map for this tracker.
        for job in self.index.jobs_with_local_maps(host):
            if host in job.blacklist:
                continue
            task = self._runnable(
                self.index.locality(job).host_maps.get(host, ()), host)
            if task is not None:
                self._marker.pop(host, None)
                return task, False, "data_local"

        # Pass 2: site-local, same shape.
        site = self.jobtracker.topology.site_of(host)
        for job in self.index.jobs_with_site_maps(site):
            if host in job.blacklist:
                continue
            task = self._runnable(
                self.index.locality(job).site_maps.get(site, ()), host)
            if task is not None:
                self._marker.pop(host, None)
                return task, False, "site_local"

        # Pass 3: non-local — only for a node already marked (it waited
        # one round), and only from the head-of-queue job (FIFO fairness).
        if self._marker.get(host):
            speculative = self.config.speculative_execution
            for job in self.index.map_candidates(speculative):
                if host in job.blacklist:
                    continue
                task = self._runnable(job.pending_map_tasks, host)
                if task is not None:
                    self._marker.pop(host, None)
                    return task, False, "remote"
                if speculative:
                    cand = self._probe_speculation(job, TaskType.MAP, tracker)
                    if cand is not None:
                        return cand, True, self._locality_of(job, cand, tracker)
            return None
        # First refusal: mark the node and send it away empty-handed.
        self._marker[host] = True
        return None
