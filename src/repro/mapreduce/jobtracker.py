"""The simulated JobTracker: job lifecycle, tracker tracking, failure
handling.

The jobtracker lives on the stable central server next to the namenode
(§III-B).  Tasktrackers "report their status to the jobtracker and accept
task assignments from it"; assignment happens when a heartbeat arrives
from a tracker with free slots, mirroring MR1.

Grid failure handling implemented here:

- tracker expiry (no heartbeat for ``tracker_expiry`` seconds → lost):
  running attempts are re-queued, and completed *map* outputs on the lost
  node are re-executed if any unfinished reduce still needs them;
- shuffle fetch failures: reported by reducers; the map re-runs when its
  output host is gone;
- per-job tracker blacklisting after repeated failures (which is what
  eventually sidelines §IV-D1 zombie tasktrackers);
- a failed task is not offered again to a host it failed on
  (:meth:`~repro.mapreduce.job.Task.may_run_on`), so one tracker whose
  disk died cannot use up all of a task's attempts.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heapify, heappop, heappush, heapreplace
from typing import Callable, Dict, List, Optional

from ..hdfs.block import Block
from ..hdfs.namenode import Namenode
from ..net.topology import NetworkTopology
from ..sim.engine import Simulator
from ..sim.events import Event
from ..sim.liveness import Descriptor, HeartbeatClock, LivenessTable
from ..sim.monitor import CounterSet
from .config import MRConfig
from .job import (
    Job,
    JobSpec,
    JobStatus,
    MapOutput,
    Task,
    TaskAttempt,
    TaskStatus,
    TaskType,
)
from .tasktracker import TaskTracker

__all__ = ["JobTracker"]

#: Round-instant entries kept before a prune (see ``_round_instants``).
ROUND_INSTANTS_MAX = 16384


class _WakeOrder:
    """Parked trackers with a free slot of one type, in wake order.

    A lazy heap of ``(next beat, chain order, park id, descriptor)``;
    entries go stale when their tracker unparks (or re-parks: a new park
    id), and their keys lag when a resolve moves the chain.  A push that
    finds the heap past :meth:`bound` drops the stale entries.
    ``sentinel`` is the tracker last woken from here, ``(beat instant,
    tracker, epoch)``: until that beat, no parked entry beats before it
    — a push with an earlier beat clears it — so work that waits needs
    no further wake."""

    __slots__ = ("liveness", "heap", "sentinel")

    def __init__(self, liveness: LivenessTable) -> None:
        self.liveness = liveness
        self.heap: List[tuple] = []
        self.sentinel: Optional[tuple] = None

    def bound(self) -> int:
        """Most entries the heap holds: twice the trackers, plus slack
        (each parked tracker has at most one live entry)."""
        return 64 + 2 * len(self.liveness.members)

    def push(self, tracker: TaskTracker, desc: Descriptor) -> None:
        heap = self.heap
        if len(heap) >= self.bound():
            heap[:] = [(d.next_beat, seq, park_id, d)
                       for _, seq, park_id, d in heap
                       if d.park_id == park_id and d.next_beat is not None]
            heapify(heap)
        nxt = desc.next_beat
        heappush(heap, (nxt, tracker._hb_seq, desc.park_id, desc))
        if self.sentinel is not None and nxt < self.sentinel[0]:
            self.sentinel = None

    def wake_first(self, now: float) -> None:
        """Wake the parked tracker that beats first, unless the last one
        woken has yet to beat."""
        liveness = self.liveness
        sentinel = self.sentinel
        if sentinel is not None:
            at, tracker, epoch = sentinel
            if at > now and tracker._hb_epoch == epoch and \
                    liveness.parked_desc(tracker) is None:
                return
            self.sentinel = None
        heap = self.heap
        while heap:
            key, seq, park_id, desc = heap[0]
            if desc.park_id != park_id or desc.next_beat is None:
                heappop(heap)  # unparked since
                continue
            if desc.next_beat < now:
                liveness.resolve(desc, now)
            if desc.next_beat != key:
                heapreplace(heap, (desc.next_beat, seq, park_id, desc))
                continue
            tracker = desc.member
            at = liveness.wake(desc, now)
            self.sentinel = (at, tracker, tracker._hb_epoch)
            return


class JobTracker:
    """Master scheduler for the simulated MapReduce framework."""

    def __init__(self, sim: Simulator, namenode: Namenode,
                 topology: NetworkTopology,
                 config: Optional[MRConfig] = None,
                 scheduler_factory: Optional[Callable] = None) -> None:
        self.sim = sim
        self.namenode = namenode
        self.topology = topology
        self.config = config or MRConfig()
        self.config.validate()
        if scheduler_factory is None:
            scheduler_factory = self._resolve_scheduler(self.config.scheduler)
        #: Bumped whenever the schedulable-job list changes (submit or
        #: finish).  The scheduler's cluster index reconciles only when
        #: this moves, making its per-heartbeat sync O(1).
        self.jobs_version = 0
        #: Monotonic submit counter.  Unlike ``len(active_jobs())`` it
        #: never moves on job *completion* — matchmaking's marker reset
        #: keys off it (a finish must not clear markers; a submit plus a
        #: finish at one instant must).
        self.jobs_submitted_seq = 0
        #: Heartbeats processed / distinct heartbeat rounds started.  A
        #: *round* is one (sim instant, jobs_version) pair: every tracker
        #: heartbeating at that instant shares the round's snapshots.
        self.heartbeats = 0
        self.heartbeat_rounds = 0
        self._round_key: Optional[tuple] = None
        #: Tasktracker heartbeats and the expiry verdicts (§III-B).
        self.liveness = LivenessTable(self.config.heartbeat_interval,
                                      self.config.heartbeats_per_second,
                                      self.config.tracker_expiry,
                                      HeartbeatClock.of(sim))
        self.liveness.on_replay = self._replayed
        #: instant → jobs_version of the last round counted there.
        #: Chains can beat in lockstep (trackers started at one instant,
        #: or at instants a whole number of periods apart), so a replayed
        #: beat counts a round only if no beat at its instant and version
        #: did.  Pruned once no replay can land before now.
        self._round_instants: Dict[float, int] = {}
        #: Parked trackers with a free map / reduce slot, in the order
        #: they wake when work appears.
        self._wake_maps = _WakeOrder(self.liveness)
        self._wake_reduces = _WakeOrder(self.liveness)
        #: Speculation gate a wake timer is armed for, if any.
        self._gate_watch: Optional[float] = None
        #: True while a real beat runs its assignment (wake checks wait
        #: for the beat's own end).
        self._beating = False
        #: host → descriptor (the liveness table's member map).
        self._trackers: Dict[str, Descriptor] = self.liveness.members
        #: Set when a live tracker is replaced in place (its running
        #: attempts are orphaned with no failure report); gates the
        #: monitor's requeue safety-net scan so steady-state ticks skip it.
        self._needs_orphan_scan = False
        self._jobs: List[Job] = []
        self._next_job_id = 0
        self.scheduler = scheduler_factory(self)
        self._input_blocks: Dict[int, List[Block]] = {}
        #: Fetch-failure strikes per (job_id, map_index).
        self._fetch_failures: Dict[tuple, int] = {}
        #: Per-job, per-tracker attempt failures (drives blacklisting).
        self._tracker_failures: Dict[tuple, int] = {}
        self.counters = CounterSet()
        #: Optional :class:`~repro.obs.trace.Tracer` for job/attempt spans
        #: and heartbeat-round marks; ``None`` disables all emission.
        self.tracer = None
        #: Fired with the Job whenever one finishes (success or failure).
        self.job_done_listeners: List[Callable[[Job], None]] = []
        #: Fired with the live-tracker count whenever it changes (the
        #: "believed" node count of Figure 5 — recorded change-driven
        #: instead of being polled on a 5 s grid).
        self.tracker_count_listeners: List[Callable[[int], None]] = []
        #: Cached active-job list; invalidated on submit and job finish.
        #: The scheduler asks for it on every heartbeat.
        self._active_jobs_cache: Optional[List[Job]] = None
        #: when_jobs_done event → its job_done listener (for cancel_wait).
        self._job_waiters: Dict[Event, Callable[[Job], None]] = {}
        self._monitor_started = False

    @staticmethod
    def _resolve_scheduler(name: str):
        """Map a config scheduler name to its class (import-cycle safe)."""
        from .delay_scheduler import DelayScheduler
        from .matchmaking import MatchmakingScheduler
        from .scheduler import FifoScheduler
        return {"fifo": FifoScheduler, "delay": DelayScheduler,
                "matchmaking": MatchmakingScheduler}[name]

    # -- lifecycle --------------------------------------------------------------
    def start(self) -> None:
        """Start the tracker-expiry monitor."""
        if self._monitor_started:
            return
        self._monitor_started = True
        self.sim.call_soon(self._arm_expiry_monitor)

    def _arm_expiry_monitor(self, _arg=None) -> None:
        self.sim.call_after(self.config.expiry_check_period,
                            self._expiry_monitor)

    def _expiry_monitor(self, _arg) -> None:
        for desc in self.liveness.expire(self.sim.now):
            self._lost_tracker(desc)
        # Safety net: a task whose every attempt died without a failure
        # report (a live tracker replaced in place) must return to the
        # pending queue.  Only that replacement path orphans attempts
        # silently, so the scan is gated on it.
        if self._needs_orphan_scan:
            self._needs_orphan_scan = False
            for job in self.active_jobs():
                for task in list(job.running_map_tasks):
                    self._requeue_if_needed(task)
                for task in list(job.running_reduce_tasks):
                    self._requeue_if_needed(task)
        self._arm_expiry_monitor()

    # -- tracker protocol ------------------------------------------------------------
    def _tracker_count_changed(self) -> None:
        live = self.live_tracker_count()
        for cb in self.tracker_count_listeners:
            cb(live)

    def register_tracker(self, tracker: TaskTracker) -> None:
        """First contact from a tasktracker; resolves its site."""
        self.topology.add_host(tracker.host)
        old = self.liveness.register(tracker, self.sim.now)
        self.counters.incr("trackers_registered")
        if old is None or not old.alive:
            self._tracker_count_changed()
        elif old.member is not tracker:
            # A live tracker replaced in place: its running attempts die
            # without any failure report.  Flag the monitor's safety net.
            self._needs_orphan_scan = True

    def heartbeat(self, tracker: TaskTracker) -> bool:
        """Tracker status report; schedules tasks onto its free slots.

        Returns True when the tracker may park: this beat launched
        nothing and the scheduler says its next beats would do nothing
        but bookkeeping (:meth:`FifoScheduler.idle`)."""
        now = self.sim._now
        desc = self._trackers.get(tracker.host)
        if desc is None or desc.member is not tracker:
            self.register_tracker(tracker)
            desc = self._trackers[tracker.host]
        desc.last_heartbeat = now
        if not desc.alive:
            self.liveness.revive(desc)
            self.counters.incr("trackers_reregistered")
            self._tracker_count_changed()
        self.heartbeats += 1
        version = self.jobs_version
        round_key = (now, version)
        if round_key != self._round_key:
            # First heartbeat of this (instant, job-list) round: counted
            # (and traced) only — the scheduler's index refresh is lazy and
            # runs inside ``assign`` for trackers with free slots.
            self._round_key = round_key
            rounds = self._round_instants
            if rounds.get(now) != version:
                rounds[now] = version
                if len(rounds) > ROUND_INSTANTS_MAX:
                    self._prune_round_instants()
                self.heartbeat_rounds += 1
                tr = self.tracer
                if tr is not None:
                    tr.instant("control", "heartbeat-round", now,
                               "jobtracker",
                               args={"round": self.heartbeat_rounds,
                                     "trackers": self.live_tracker_count()})
        launched = False
        self._beating = True
        for task, speculative, locality in self.scheduler.assign(tracker):
            self._launch(task, tracker, speculative, locality)
            launched = True
        self._beating = False
        self._wake_for_work()
        return not launched and self.scheduler.idle(tracker)

    # -- parked trackers (see repro.sim.liveness) ------------------------------------
    def park_tracker(self, tracker: TaskTracker, next_beat: float) -> bool:
        """Park ``tracker`` after a beat :meth:`heartbeat` said may park;
        returns False when the liveness table does not park (the caller
        arms ``next_beat``)."""
        desc = self._trackers[tracker.host]
        if not self.liveness.park(desc, next_beat):
            return False
        free = False
        if tracker.free_map_slots > 0:
            self._wake_maps.push(tracker, desc)
            free = True
        if tracker.free_reduce_slots > 0:
            self._wake_reduces.push(tracker, desc)
            free = True
        if free:
            self._watch_gates()
        return True

    def _replayed(self, desc: Descriptor, instants: List[float]) -> None:
        """Bookkeeping of replayed beats: a round per (instant, version)
        no other beat counted.  Each beat reads its version from the
        ``jobs_version`` marks (:meth:`_jobs_changed`)."""
        self.heartbeats += len(instants)
        rounds = self._round_instants
        version_t = self.liveness.marks
        versions = self.liveness.mark_values
        i = bisect_left(version_t, instants[0])
        new = 0
        if i == len(version_t) or version_t[i] >= instants[-1]:
            # One jobs_version throughout (the common case).
            version = versions[i - 1] if i else 0
            for t in instants:
                if rounds.get(t) != version:
                    rounds[t] = version
                    new += 1
        else:
            for t in instants:
                i = bisect_left(version_t, t, i)
                version = versions[i - 1] if i else 0
                if rounds.get(t) != version:
                    rounds[t] = version
                    new += 1
        self.heartbeat_rounds += new

    def _prune_round_instants(self) -> None:
        """Resolve every parked tracker to now, after which no replay
        can land before now: only this instant's entry stays useful."""
        now = self.sim._now
        self.liveness.resolve_all(now)
        rounds = self._round_instants
        keep = rounds.get(now)
        rounds.clear()
        if keep is not None:
            rounds[now] = keep

    def _parked_idle(self) -> bool:
        return bool(self._wake_maps.heap or self._wake_reduces.heap)

    def _wake_for_work(self) -> None:
        """Make sure the first parked beat that would act on the work now
        waiting is real: wake the parked tracker (in chain order) that
        beats first, unless one woken earlier beats before it.

        Every real beat runs this again, so while work waits the parked
        trackers wake one at a time in chain order until it clears."""
        if self._beating or not self._parked_idle():
            return
        maps, reduces = self.scheduler.waiting_work()
        now = self.sim._now
        if maps:
            self._wake_maps.wake_first(now)
        if reduces:
            self._wake_reduces.wake_first(now)
        self._watch_gates()

    def _slot_freed(self, tracker: TaskTracker, desc: Descriptor,
                    task_type: str) -> None:
        """A parked tracker's slot freed: wake it if its next beat would
        act, else queue it for the wake order."""
        maps, reduces = self.scheduler.waiting_work()
        free_maps = tracker.free_map_slots
        free_reduces = tracker.free_reduce_slots
        if (maps and free_maps > 0) or (reduces and free_reduces > 0):
            self.liveness.wake(desc, self.sim._now)
            return
        if task_type == TaskType.MAP:
            if free_maps == 1:
                self._wake_maps.push(tracker, desc)
        elif free_reduces == 1:
            self._wake_reduces.push(tracker, desc)
        self._watch_gates()

    def _watch_gates(self) -> None:
        """Arm a wake at the next speculation gate while trackers with a
        free slot are parked: the first beat at or after it pulls the
        gate, so it must be real."""
        if not self._parked_idle():
            return
        gate = self.scheduler.index.next_gate()
        watch = self._gate_watch
        if gate <= self.sim._now or (watch is not None and watch <= gate) \
                or gate == float("inf"):
            return
        self._gate_watch = gate
        self.sim.call_at(gate, self._gate_due, gate)

    def _gate_due(self, gate: float) -> None:
        if self._gate_watch != gate:
            return  # superseded by an earlier gate
        self._gate_watch = None
        self._wake_for_work()

    def _jobs_changed(self) -> None:
        """The schedulable-job list changed (submit or finish): a mark
        replayed beats read their round's version from, and must not
        land on."""
        self.jobs_version += 1
        self.liveness.mark(self.sim._now, self.jobs_version)
        self._wake_for_work()

    def _lost_tracker(self, desc: Descriptor) -> None:
        """Heartbeat expiry (the liveness table has already marked the
        tracker lost): recover the node's work."""
        self._tracker_count_changed()
        host = desc.host
        self.counters.incr("trackers_lost")
        # 1. Re-queue attempts that were running there.  Attempts may
        #    already be marked failed (the kill happened before expiry);
        #    what matters is returning their tasks to the pending queue.
        for job in self.active_jobs():
            for task in list(job.running_map_tasks) + list(job.running_reduce_tasks):
                for attempt in task.running_attempts:
                    if attempt.tracker.host == host:
                        self.trace_attempt(attempt, "lost")
                        attempt.status = TaskStatus.FAILED
                self._requeue_if_needed(task)
            # 2. Re-execute completed maps whose output lived on the lost
            #    node and is still needed by an unfinished reduce.
            for idx, output in list(job.map_outputs.items()):
                if output.host != host:
                    continue
                if self._output_still_needed(job, output):
                    job.retract_map_output(idx)
                    task = job.maps[idx]
                    if task.status == TaskStatus.COMPLETED:
                        task.set_status(TaskStatus.PENDING)
                        task.finish_time = None
                        task.completed_on = None
                        self.counters.incr("maps_reexecuted")

    @staticmethod
    def _output_still_needed(job: Job, output: MapOutput) -> bool:
        for reduce in job.reduces:
            if reduce.status != TaskStatus.COMPLETED and \
                    reduce.index not in output.fetched_by:
                return True
        return False

    def _requeue_if_needed(self, task: Task) -> None:
        if task.status == TaskStatus.RUNNING and not task.running_attempts:
            task.set_status(TaskStatus.PENDING)

    def live_tracker_count(self) -> int:
        """Trackers the jobtracker currently believes alive (O(1))."""
        return len(self.liveness.live)

    def tracker(self, host: str) -> TaskTracker:
        """The tracker object registered at ``host``."""
        return self._trackers[host].member

    # -- job lifecycle ----------------------------------------------------------------
    def submit_job(self, spec: JobSpec) -> Job:
        """Accept a job whose input file already exists in HDFS."""
        spec.validate()
        fi = self.namenode.get_file(spec.input_file)
        data_blocks = [b for b in fi.blocks if b.size > 0]
        if len(data_blocks) < spec.num_maps:
            raise ValueError(
                f"input {spec.input_file} has {len(data_blocks)} blocks, "
                f"job wants {spec.num_maps} maps")
        job = Job(self._next_job_id, spec, self.sim.now)
        self._next_job_id += 1
        self._jobs.append(job)
        self._input_blocks[job.job_id] = data_blocks[:spec.num_maps]
        self._active_jobs_cache = None
        self._jobs_changed()
        self.jobs_submitted_seq += 1
        self.counters.incr("jobs_submitted")
        return job

    def input_blocks(self, job: Job) -> List[Block]:
        """The input blocks (one per map task) of a job."""
        return self._input_blocks[job.job_id]

    def jobs(self) -> List[Job]:
        """All jobs ever submitted, in submit order."""
        return list(self._jobs)

    def active_jobs(self) -> List[Job]:
        """Jobs not yet finished, in FIFO order (cached between changes)."""
        cache = self._active_jobs_cache
        if cache is None:
            cache = self._active_jobs_cache = [
                j for j in self._jobs
                if j.status in (JobStatus.WAITING, JobStatus.RUNNING)]
        return cache

    def schedulable_jobs(self) -> List[Job]:
        """FIFO view the scheduler iterates."""
        return self.active_jobs()

    def when_jobs_done(self, jobs: List[Job]) -> Event:
        """An event firing the instant every job in ``jobs`` has finished
        (succeeded or failed).

        This is the event-driven replacement for polling job states on a
        fixed time grid: ``sim.run_until(jt.when_jobs_done(jobs))`` stops
        at the exact finish timestamp of the last job.  A caller that
        abandons the wait (timeout) should pass the event to
        :meth:`cancel_wait` so the listener is released."""
        done = self.sim.event()
        waiting = {j.job_id for j in jobs if j.finish_time is None}
        if not waiting:
            done.succeed(self.sim.now)
            return done

        def on_job_done(job: Job) -> None:
            waiting.discard(job.job_id)
            if not waiting and not done.triggered:
                self.cancel_wait(done)
                done.succeed(self.sim.now)

        self.job_done_listeners.append(on_job_done)
        self._job_waiters[done] = on_job_done
        return done

    def cancel_wait(self, event: Event) -> None:
        """Release the listener behind an abandoned :meth:`when_jobs_done`
        event (timeout paths).  Idempotent."""
        listener = self._job_waiters.pop(event, None)
        if listener is not None:
            try:
                self.job_done_listeners.remove(listener)
            except ValueError:
                pass

    # -- task events --------------------------------------------------------------------
    def _launch(self, task: Task, tracker: TaskTracker, speculative: bool,
                locality: str) -> None:
        job = task.job
        if job.status == JobStatus.WAITING:
            job.status = JobStatus.RUNNING
            job.start_time = self.sim.now
        attempt = TaskAttempt(task, tracker, self.sim.now, speculative)
        task.attempts.append(attempt)
        job.note_attempt_launched(attempt)
        if task.status == TaskStatus.PENDING:
            task.set_status(TaskStatus.RUNNING)
        if task.type == TaskType.MAP and not speculative:
            job.locality_counters[locality] += 1
        if speculative:
            self.counters.incr("speculative_attempts")
        self.counters.incr(f"{task.type}_attempts_launched")
        tracker.launch(attempt)

    def trace_attempt(self, attempt: TaskAttempt, outcome: str) -> None:
        """Emit the attempt's causal span (``task`` category).

        The span covers launch → report on the executing tracker's lane,
        parented to the owning job's span id, so Perfetto shows the full
        job → attempt → shuffle chain.
        """
        tr = self.tracer
        if tr is None:
            return
        task = attempt.task
        tr.span("task", f"{task.type}-{task.index}",
                attempt.start_time, self.sim.now,
                track=attempt.tracker.host,
                span_id=f"a{attempt.attempt_id}",
                parent=f"j{task.job.job_id}",
                args={"outcome": outcome,
                      "speculative": attempt.speculative})

    def _trace_job(self, job: Job) -> None:
        """Emit the job's submit → finish span (``job`` category)."""
        tr = self.tracer
        if tr is None:
            return
        tr.span("job", f"job-{job.job_id}", job.submit_time, self.sim.now,
                track="jobtracker", span_id=f"j{job.job_id}",
                args={"status": str(job.status),
                      "maps": job.spec.num_maps,
                      "reduces": job.spec.num_reduces})

    def map_attempt_completed(self, attempt: TaskAttempt,
                              output: MapOutput) -> None:
        """A map attempt finished; first winner completes the task."""
        self.trace_attempt(attempt, "completed")
        task = attempt.task
        job = task.job
        if task.status == TaskStatus.COMPLETED or job.status != JobStatus.RUNNING:
            return  # lost the speculation race (or job already over)
        task.set_status(TaskStatus.COMPLETED)
        task.finish_time = self.sim.now
        task.completed_on = attempt.tracker.host
        job.note_task_duration(task.type, self.sim.now - attempt.start_time)
        self._kill_other_attempts(task, attempt)
        job.publish_map_output(output)
        self.counters.incr("maps_completed")
        self._maybe_finish_job(job)

    def reduce_attempt_completed(self, attempt: TaskAttempt) -> None:
        """A reduce attempt finished; first winner completes the task."""
        self.trace_attempt(attempt, "completed")
        task = attempt.task
        job = task.job
        if task.status == TaskStatus.COMPLETED or job.status != JobStatus.RUNNING:
            return
        task.set_status(TaskStatus.COMPLETED)
        task.finish_time = self.sim.now
        task.completed_on = attempt.tracker.host
        job.note_task_duration(task.type, self.sim.now - attempt.start_time)
        self._kill_other_attempts(task, attempt)
        self.counters.incr("reduces_completed")
        self._maybe_finish_job(job)

    def _kill_other_attempts(self, task: Task, winner: TaskAttempt) -> None:
        for attempt in list(task.running_attempts):
            if attempt is not winner:
                attempt.tracker.kill_attempt(attempt)
                self.counters.incr("speculative_attempts_killed")

    def attempt_failed(self, attempt: TaskAttempt, reason: str) -> None:
        """An attempt reported failure: count, maybe blacklist, re-queue."""
        self.trace_attempt(attempt, "failed")
        task = attempt.task
        job = task.job
        if task.status == TaskStatus.COMPLETED or job.status != JobStatus.RUNNING:
            return
        task.failures += 1
        if task.failed_on is None:
            task.failed_on = set()
        task.failed_on.add(attempt.tracker.host)
        self.counters.incr("attempts_failed")
        key = (job.job_id, attempt.tracker.host)
        self._tracker_failures[key] = self._tracker_failures.get(key, 0) + 1
        if self._tracker_failures[key] >= self.config.tracker_blacklist_failures:
            if attempt.tracker.host not in job.blacklist:
                job.blacklist.add(attempt.tracker.host)
                self.counters.incr("trackers_blacklisted")
        if task.failures >= self.config.max_attempts:
            self._fail_job(job, f"{task!r} failed {task.failures} times: {reason}")
            return
        self._requeue_if_needed(task)

    def report_fetch_failure(self, job: Job, map_index: int, host: str) -> None:
        """A reducer could not fetch a map output from ``host``.

        The map re-runs immediately when the host is known-lost, or after
        three strikes otherwise (transient network trouble)."""
        self.counters.incr("fetch_failures")
        desc = self._trackers.get(host)
        key = (job.job_id, map_index)
        self._fetch_failures[key] = self._fetch_failures.get(key, 0) + 1
        host_gone = desc is None or not desc.alive or not desc.member.is_alive
        if host_gone or self._fetch_failures[key] >= 3:
            self._fetch_failures[key] = 0
            output = job.map_outputs.get(map_index)
            if output is not None and output.host == host:
                job.retract_map_output(map_index)
                task = job.maps[map_index]
                if task.status == TaskStatus.COMPLETED:
                    task.set_status(TaskStatus.PENDING)
                    task.finish_time = None
                    task.completed_on = None
                    self.counters.incr("maps_reexecuted")

    # -- job completion --------------------------------------------------------------------
    def _maybe_finish_job(self, job: Job) -> None:
        if not job.is_complete:
            return
        job.status = JobStatus.SUCCEEDED
        job.finish_time = self.sim.now
        self._active_jobs_cache = None
        self._jobs_changed()
        self.counters.incr("jobs_succeeded")
        self._trace_job(job)
        self._cleanup_job(job)

    def _fail_job(self, job: Job, reason: str) -> None:
        job.status = JobStatus.FAILED
        job.finish_time = self.sim.now
        self._active_jobs_cache = None
        self._jobs_changed()
        self.counters.incr("jobs_failed")
        self._trace_job(job)
        for task in list(job.maps) + list(job.reduces):
            for attempt in task.running_attempts:
                attempt.tracker.kill_attempt(attempt)
        self._cleanup_job(job)

    def _cleanup_job(self, job: Job) -> None:
        """Free intermediate map output everywhere — only now, because
        "Hadoop will not delete map intermediate data until the entire job
        is done" (§IV-D2)."""
        for desc in self._trackers.values():
            if desc.member.is_alive:
                desc.member.cleanup_job(job)
        # Iterate a copy: when_jobs_done listeners remove themselves on
        # their final job, which would otherwise skip the next listener.
        for listener in list(self.job_done_listeners):
            listener(job)

    def __repr__(self) -> str:
        return (f"<JobTracker trackers={self.live_tracker_count()}/"
                f"{len(self._trackers)} jobs={len(self._jobs)}>")
