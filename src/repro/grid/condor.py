"""Condor submission machinery: submit files, the schedd, and matchmaking.

"Grid submission and execution is managed by Condor and GlideinWMS ...
Condor is used to manage the submission and execution of the Hadoop worker
nodes." (§III-A)  :class:`SubmissionFile` models Listing 1 — including a
renderer/parser for the submit-file syntax — and :class:`CondorSchedd`
holds the job queue and runs the negotiation cycle that matches idle
glidein jobs to sites named in the ``requirements`` expression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = ["SubmissionFile", "CondorJobState", "CondorSchedd"]


@dataclass
class SubmissionFile:
    """A Condor submit description for HOG worker-node jobs (Listing 1)."""

    universe: str = "vanilla"
    #: Sites the job may run at (``GLIDEIN_ResourceName =?= ...`` clauses).
    requirements: Sequence[str] = ()
    executable: str = "wrapper.sh"
    output: str = "condor_out/out.$(CLUSTER).$(PROCESS)"
    error: str = "condor_out/err.$(CLUSTER).$(PROCESS)"
    log: str = "hadoop-grid.log"
    should_transfer_files: bool = True
    when_to_transfer_output: str = "ON_EXIT_OR_EVICT"
    on_exit_remove: bool = False
    periodic_hold: bool = False
    x509userproxy: str = "/tmp/x509up_u1384"
    #: Number of worker-node jobs to queue.
    queue: int = 1

    def validate(self) -> None:
        """Raise ``ValueError`` on unusable settings."""
        if self.queue < 0:
            raise ValueError("queue count cannot be negative")
        if not self.requirements:
            raise ValueError(
                "HOG requires a site whitelist: worker nodes must have "
                "public IPs (§III-B), so requirements cannot be empty")

    # -- submit-file syntax ------------------------------------------------------
    def render(self) -> str:
        """Produce the Condor submit-file text (Listing 1 format)."""
        req = " || ".join(
            f'GLIDEIN_ResourceName =?= "{site}"' for site in self.requirements)
        lines = [
            f"universe = {self.universe}",
            f"requirements = {req}",
            f"executable = {self.executable}",
            f"output = {self.output}",
            f"error = {self.error}",
            f"log = {self.log}",
            f"should_transfer_files = {'YES' if self.should_transfer_files else 'NO'}",
            f"when_to_transfer_output = {self.when_to_transfer_output}",
            f"OnExitRemove = {'TRUE' if self.on_exit_remove else 'FALSE'}",
            f"PeriodicHold = {'true' if self.periodic_hold else 'false'}",
            f"x509userproxy = {self.x509userproxy}",
            f"queue {self.queue}",
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "SubmissionFile":
        """Parse submit-file text produced by :meth:`render` (or
        hand-written in the same subset of Condor syntax)."""
        kwargs: Dict[str, object] = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.lower().startswith("queue"):
                parts = line.split()
                kwargs["queue"] = int(parts[1]) if len(parts) > 1 else 1
                continue
            if "=" not in line:
                raise ValueError(f"unparseable submit line: {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key == "universe":
                kwargs["universe"] = value
            elif key == "requirements":
                sites = []
                for clause in value.split("||"):
                    clause = clause.strip()
                    if "GLIDEIN_ResourceName" in clause and '"' in clause:
                        sites.append(clause.split('"')[1])
                kwargs["requirements"] = tuple(sites)
            elif key == "executable":
                kwargs["executable"] = value
            elif key == "output":
                kwargs["output"] = value
            elif key == "error":
                kwargs["error"] = value
            elif key == "log":
                kwargs["log"] = value
            elif key == "should_transfer_files":
                kwargs["should_transfer_files"] = value.upper() == "YES"
            elif key == "when_to_transfer_output":
                kwargs["when_to_transfer_output"] = value
            elif key == "onexitremove":
                kwargs["on_exit_remove"] = value.upper() == "TRUE"
            elif key == "periodichold":
                kwargs["periodic_hold"] = value.lower() == "true"
            elif key == "x509userproxy":
                kwargs["x509userproxy"] = value
        return cls(**kwargs)


class CondorJobState:
    """Condor queue states for glidein pilot jobs."""

    IDLE = "idle"
    RUNNING = "running"
    REMOVED = "removed"
    COMPLETED = "completed"


class CondorSchedd:
    """The submit-side Condor daemon: a queue of glidein pilot jobs.

    The negotiation cycle itself lives in
    :class:`~repro.grid.glidein.GlideinFactory`, which plays the combined
    role of the Condor negotiator and the GlideinWMS frontend.
    """

    def __init__(self) -> None:
        #: Jobs in the grid (idle, starting or running), keyed by object
        #: identity in submission order; departures leave through
        #: :meth:`job_changed`.
        self._queue: Dict[int, object] = {}
        #: Submission-ordered view of the idle jobs, maintained the same
        #: way, so each negotiation cycle costs O(idle), not O(every job
        #: ever queued).
        self._idle: Dict[int, object] = {}
        self._cluster_seq = 0

    def submit(self, submission: SubmissionFile, glideins: List) -> int:
        """Queue ``glideins`` under a new cluster id; returns the id."""
        submission.validate()
        self._cluster_seq += 1
        for g in glideins:
            g.cluster_id = self._cluster_seq
            self._queue[id(g)] = g
            if g.state == CondorJobState.IDLE:
                self._idle[id(g)] = g
        return self._cluster_seq

    def job_changed(self, glidein, gone: bool) -> None:
        """A queued job stopped being idle, or left the grid (``gone``:
        preempted, failed or removed).  States never return to idle, so
        dropping it here keeps ``idle_jobs`` exact.  Safe to call for
        jobs that were never queued."""
        self._idle.pop(id(glidein), None)
        if gone:
            self._queue.pop(id(glidein), None)

    def idle_jobs(self) -> List:
        """Jobs waiting to be matched (submission order)."""
        return list(self._idle.values())

    def running_jobs(self) -> List:
        """Jobs currently executing on some site."""
        return [g for g in self._queue.values()
                if g.state == CondorJobState.RUNNING]

    def remove(self, glidein) -> None:
        """``condor_rm``: drop a job from the queue (kills it if running)."""
        if self._queue.pop(id(glidein), None) is not None:
            glidein.removed()

    def __repr__(self) -> str:
        return (f"<CondorSchedd idle={len(self.idle_jobs())} "
                f"running={len(self.running_jobs())}>")
