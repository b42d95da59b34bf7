"""The unified scenario runner.

One code path stands up ANY scenario — fig4-style sweeps, churn studies,
WAN-staging stress, heterogeneous disk tiers, rebalancing under load —
from its declarative :class:`~repro.scenarios.spec.ScenarioSpec`:

1. build the :class:`~repro.core.hog.HOGSystem` (per-site hardware tiers
   and WAN caps applied),
2. ramp to the node target (event-driven, §IV-A protocol),
3. arm the fault model (pinned fault plan and/or stochastic policy),
4. preload the workload inputs,
5. optionally grow the cluster elastically and start a concurrent HDFS
   balancer run (§IV-C),
6. replay the submission schedule to completion,
7. emit a structured, JSON-ready :class:`ScenarioResult` — makespan,
   per-phase wall/sim time, channel-core pass statistics, locality and
   preemption counters.

The experiment drivers (fig4/fig5) and the scale-sweep benchmark are thin
consumers of this runner; they carry no private setup code.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from ..core.config import HOGConfig
from ..core.hog import PARK_KEYS, HOGSystem
from ..faults.injector import Injector
from ..faults.invariants import InvariantChecker
from ..grid.glidein import WrapperConfig
from ..grid.site import SitePolicy, sites_with_policy
from ..hdfs.balancer import Balancer
from ..hdfs.config import hog_config
from ..mapreduce.config import hog_mr_config
from ..metrics.report import WorkloadResult
from ..obs.memory import MemoryMeter
from ..obs.probes import ProbeSet
from ..obs.trace import Tracer
from ..sim.engine import Simulator
from ..sim.events import EngineProfile
from ..sim.monitor import StepSeries
from ..workload.schedule import SubmissionSchedule, build_facebook_schedule
from . import calibration
from .spec import ScenarioSpec

__all__ = ["PhaseStat", "ScenarioResult", "ScenarioRunner",
           "drive_workload", "collect_result"]


# -- shared workload-driving helpers (the single copy in the codebase) ----
def _submission_process(sim, system, schedule: SubmissionSchedule, jobs: list):
    """Replay the schedule: sleep each exponential gap, submit; then wait
    (event-driven) for every submitted job to finish."""
    last = 0.0
    for item in schedule.jobs:
        gap = item.submit_time - last
        if gap > 0:
            yield sim.timeout(gap)
        last = item.submit_time
        jobs.append((system.submit(item.spec), item.bin_id))
    if jobs:
        yield system.jobtracker.when_jobs_done([j for j, _ in jobs])


def drive_workload(sim, system, schedule: SubmissionSchedule, jobs: list,
                   timeout: float) -> None:
    """Run the submission replay to completion (or ``timeout`` sim-seconds).

    The driver process finishes at the exact instant the last job does;
    the engine advances straight through real events instead of polling
    job states."""
    driver = sim.process(_submission_process(sim, system, schedule, jobs),
                         name="workload-submitter")
    sim.run_until(driver, sim.now + timeout)


def collect_result(system_name: str, nodes: int, jobs, start: float,
                   end: float, series: Optional[StepSeries],
                   jobtracker) -> WorkloadResult:
    """Fold per-job outcomes into one :class:`WorkloadResult`."""
    bin_responses: Dict[int, List[float]] = {}
    failed = 0
    locality = {"data_local": 0, "site_local": 0, "remote": 0}
    for job, bin_id in jobs:
        if job.response_time is None or job.status != "succeeded":
            failed += 1
            continue
        bin_responses.setdefault(bin_id, []).append(job.response_time)
        for k, v in job.locality_counters.items():
            locality[k] += v
    area = series.integrate(start, end) if series is not None else None
    return WorkloadResult(
        system=system_name, nodes=nodes, start_time=start, end_time=end,
        bin_responses=bin_responses, failed_jobs=failed, node_area=area,
        locality=locality, counters=jobtracker.counters.as_dict())


# -- results ---------------------------------------------------------------
@dataclass
class PhaseStat:
    """Wall/sim cost of one runner phase."""

    name: str
    wall_seconds: float
    sim_seconds: float

    def to_dict(self) -> dict:
        return {"name": self.name,
                "wall_seconds": round(self.wall_seconds, 3),
                "sim_seconds": round(self.sim_seconds, 1)}


@dataclass
class ScenarioResult:
    """Structured outcome of one scenario run (JSON-ready).

    ``payload()`` strips the wall-clock fields, leaving only
    simulation-determined values — two runs of the same spec and seed must
    produce identical payloads (the determinism guard asserts this).
    """

    #: Result-record schema version (bump on key layout changes so the
    #: obs diff tooling can evolve safely).  v2 added the registry-fed
    #: sections, per-phase timelines, and the engine profile; v3 the
    #: fault-injection section and the obs-only invariant roll-up.
    SCHEMA_VERSION = 3

    scenario: str
    nodes: int
    seed: int
    scale: float
    #: Workload response time: first submission → last completion (§IV-A).
    makespan_seconds: float
    #: Simulated span of the whole run (ramp through drain).
    sim_seconds: float
    wall_seconds: float
    events: int
    phases: List[PhaseStat] = field(default_factory=list)
    #: Channel-core pass statistics plus the fabric's peak flow count
    #: (the registry's ``channel`` namespace).
    channel: Dict[str, int] = field(default_factory=dict)
    #: Control-plane counters (heartbeat rounds, scheduler index updates,
    #: namenode block-report aggregates) — the delta-driven path's cost
    #: (the registry's ``control`` namespace).  The heartbeat-parking
    #: keys (``PARK_KEYS``) are obs-only: :meth:`payload` drops them.
    control: Dict[str, int] = field(default_factory=dict)
    #: The namenode's full counter bag (the registry's ``hdfs``
    #: namespace).  Recovery-health leaves (``blocks_all_replicas_lost``,
    #: ``replication_retries_deferred``, ``replicas_trashed``...) surface
    #: in EVERY record — fault scenario or not — so the run-diff gate can
    #: flag a fault metric appearing in a scenario that should never lose
    #: data.
    hdfs: Dict[str, int] = field(default_factory=dict)
    #: Map-launch locality histogram summed over jobs.
    locality: Dict[str, int] = field(default_factory=dict)
    #: Glidein provisioning/preemption counters (the registry's ``grid``
    #: namespace).
    preemptions: Dict[str, int] = field(default_factory=dict)
    failed_jobs: int = 0
    jobs_completed: int = 0
    #: Area beneath the believed-node curve over the workload (Table IV).
    node_area: Optional[float] = None
    #: Concurrent-balancer outcome, when the scenario ran one.
    balancer: Optional[Dict[str, object]] = None
    #: Fault-injection outcome when the scenario scheduled a
    #: :class:`~repro.faults.plan.FaultPlan`: injector counters plus the
    #: post-settle recovery convergence finals.  Simulation-determined,
    #: so it IS part of :meth:`payload`.
    faults: Optional[Dict[str, object]] = None
    #: Per-phase gauge timelines ``{phase: {gauge: {"t": [...],
    #: "v": [...]}}}`` when probes were enabled; presence varies with the
    #: sampling cadence, so the section is NOT part of :meth:`payload`.
    timelines: Optional[Dict[str, dict]] = None
    #: Engine self-profile (dispatch mix, heap high-water); obs-only.
    engine: Optional[dict] = None
    #: Tracer roll-up (recorded/kept/dropped, per-category); obs-only.
    trace: Optional[dict] = None
    #: Invariant-checker roll-up (checks run, violations by invariant);
    #: obs-only — stripped from :meth:`payload` so the checker being
    #: on/off cannot change the determinism payload.
    invariants: Optional[dict] = None
    #: Per-phase garbage-collector runs and peak RSS
    #: (:class:`~repro.obs.memory.MemoryMeter`); obs-only.
    memory: Optional[dict] = None

    @property
    def events_per_second(self) -> Optional[int]:
        """Engine throughput over the whole run (wall-derived)."""
        if self.wall_seconds <= 0:
            return None
        return round(self.events / self.wall_seconds)

    def to_dict(self) -> dict:
        """Full JSON-ready record (wall-clock fields included)."""
        return {
            "schema_version": self.SCHEMA_VERSION,
            "scenario": self.scenario,
            "nodes": self.nodes,
            "seed": self.seed,
            "scale": self.scale,
            "makespan_seconds": round(self.makespan_seconds, 1),
            "sim_seconds": round(self.sim_seconds, 1),
            "wall_seconds": round(self.wall_seconds, 3),
            "events": self.events,
            "events_per_second": self.events_per_second,
            "phases": [p.to_dict() for p in self.phases],
            "channel": dict(self.channel),
            "control": dict(self.control),
            "hdfs": dict(self.hdfs),
            "locality": dict(self.locality),
            "preemptions": dict(self.preemptions),
            "failed_jobs": self.failed_jobs,
            "jobs_completed": self.jobs_completed,
            "node_area": (None if self.node_area is None
                          else round(self.node_area, 1)),
            "balancer": self.balancer,
            "faults": self.faults,
            "timelines": self.timelines,
            "engine": self.engine,
            "trace": self.trace,
            "invariants": self.invariants,
            "memory": self.memory,
        }

    def payload(self) -> dict:
        """Simulation-determined subset of :meth:`to_dict` (no wall
        clocks) — identical across same-seed runs.

        Telemetry sections whose *presence or shape* depends on obs
        settings (timelines, engine profile, tracer stats) are stripped
        too: the payload must be byte-identical with telemetry off, on,
        and at any sampling cadence.
        """
        return self.payload_of(self.to_dict())

    @staticmethod
    def payload_of(record: dict) -> dict:
        """:meth:`payload` of a :meth:`to_dict` record (e.g. one shipped
        back by a worker process)."""
        d = dict(record)
        d.pop("wall_seconds")
        d.pop("events_per_second")
        d.pop("timelines")
        d.pop("engine")
        d.pop("trace")
        d.pop("invariants")
        d.pop("memory", None)
        # Heartbeat parking counts how beats were dispatched, not what
        # the simulation did: obs-only.
        d["control"] = {k: v for k, v in d["control"].items()
                        if k not in PARK_KEYS}
        d["phases"] = [{"name": p["name"], "sim_seconds": p["sim_seconds"]}
                       for p in d["phases"]]
        return d

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize the full record to JSON."""
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        """One human-readable line."""
        return (f"{self.scenario}[{self.nodes}]: makespan="
                f"{self.makespan_seconds:.0f}s sim={self.sim_seconds:.0f}s "
                f"wall={self.wall_seconds:.2f}s events={self.events} "
                f"failed={self.failed_jobs}")


# -- the runner ------------------------------------------------------------
class ScenarioRunner:
    """Builds, runs, and measures one :class:`ScenarioSpec`.

    After :meth:`run`, ``self.system`` (the live
    :class:`~repro.core.hog.HOGSystem`) and ``self.workload`` (the
    :class:`~repro.metrics.report.WorkloadResult`) stay available for
    consumers that need more than the :class:`ScenarioResult` — fig5 reads
    the believed-node series, fig4 the per-bin responses.
    """

    def __init__(self, spec: ScenarioSpec) -> None:
        spec.validate()
        self.spec = spec
        self.sim: Optional[Simulator] = None
        self.system: Optional[HOGSystem] = None
        self.workload: Optional[WorkloadResult] = None
        self.result: Optional[ScenarioResult] = None
        #: Live tracer after :meth:`run` when ``spec.obs.trace`` was set —
        #: consumers export Chrome trace JSON via ``runner.tracer.write()``.
        self.tracer: Optional[Tracer] = None
        self.probes: Optional[ProbeSet] = None
        #: Live fault injector after :meth:`run` when the spec had a plan.
        self.injector: Optional[Injector] = None
        #: Live invariant checker when ``spec.obs.check_invariants`` was
        #: set (or an ``invariant_interval`` given).
        self.checker: Optional[InvariantChecker] = None

    # -- construction ------------------------------------------------------
    def build_config(self) -> HOGConfig:
        """Resolve the spec (``None`` → calibrated defaults) into a
        concrete :class:`~repro.core.config.HOGConfig`."""
        spec = self.spec
        c = spec.cluster
        policy = spec.faults.policy
        if policy is None:
            if spec.faults.plan is not None:
                # A pinned plan with no stochastic policy: churn-free
                # sites, the pinned events are the only fault source.
                policy = SitePolicy()
            else:
                policy = calibration.default_grid_policy()
        capacity_target = max(c.n_nodes, spec.grow_to or 0)
        sites = sites_with_policy(policy, capacity_target, c.n_sites,
                                  headroom=c.capacity_headroom)
        fabric = c.fabric or calibration.grid_fabric()
        if c.uplink_caps:
            fabric = replace(fabric, site_uplink_overrides={
                **fabric.site_uplink_overrides, **c.uplink_caps})
        mr = c.mr or hog_mr_config()
        if mr.scheduler != spec.scheduler:
            mr = replace(mr, scheduler=spec.scheduler)
        return HOGConfig(
            sites=sites,
            hdfs=c.hdfs or hog_config(),
            mr=mr,
            fabric=fabric,
            wrapper=c.wrapper or WrapperConfig(),
            node=c.node or calibration.grid_node_config(),
            site_nodes=dict(c.site_tiers),
            site_awareness=c.site_awareness,
            seed=spec.seed,
        )

    def build_schedule(self) -> SubmissionSchedule:
        """The submission schedule this scenario replays."""
        w = self.spec.workload
        if w.schedule is not None:
            return w.schedule
        rng = np.random.default_rng(self.spec.seed + 77)
        return build_facebook_schedule(
            rng, w.loadgen or calibration.default_loadgen(),
            mean_interarrival=w.mean_interarrival, scale=w.scale)

    # -- execution ---------------------------------------------------------
    def run(self) -> ScenarioResult:
        """Execute the scenario end-to-end; returns its result record."""
        spec = self.spec
        c = spec.cluster
        sim = Simulator()
        hog = HOGSystem(sim, self.build_config())
        self.sim, self.system = sim, hog

        # Telemetry (all off by default; none of it may change outcomes).
        obs = spec.obs
        if obs.trace:
            self.tracer = Tracer(capacity=obs.trace_capacity,
                                 categories=obs.trace_categories)
            hog.attach_tracer(self.tracer)
        if obs.profile_engine:
            sim.profile = EngineProfile()
        if obs.sample_interval is not None:
            self.probes = ProbeSet(sim, hog.registry.gauges(),
                                   obs.sample_interval)
            self.probes.start()
        if obs.check_invariants or obs.invariant_interval is not None:
            self.checker = InvariantChecker(sim, hog,
                                            interval=obs.invariant_interval)
            self.checker.start()

        phases: List[PhaseStat] = []
        #: (name, sim start, sim end) per phase, for timeline slicing.
        phase_bounds: List[tuple] = []
        memory = MemoryMeter()
        wall_start = time.perf_counter()

        def phase(name: str, t0: float, s0: float) -> None:
            memory.mark(name)
            phases.append(PhaseStat(name, time.perf_counter() - t0,
                                    sim.now - s0))
            phase_bounds.append((name, s0, sim.now))
            hog.resolve_heartbeats()
            if self.checker is not None:
                self.checker.check(name)

        # 1. Ramp: wait for the node target (§IV-A).
        t0, s0 = time.perf_counter(), sim.now
        hog.start(c.n_nodes)
        ramp_target = max(1, math.ceil(c.n_nodes * c.ramp_fraction))
        hog.run_until_nodes(ramp_target, timeout=spec.timeout)
        phase("ramp", t0, s0)

        # 2. The pinned fault plan arms once the cluster is up: its event
        # times count from the end of the ramp.
        if spec.faults.plan is not None:
            self.injector = Injector(sim, hog, spec.faults.plan)
            self.injector.start()

        # 3. Preload the workload inputs (the §IV-A data upload).
        t0, s0 = time.perf_counter(), sim.now
        schedule = self.build_schedule()
        for input_file, n_blocks in schedule.inputs.items():
            hog.preload_input(input_file, n_blocks)
        phase("preload", t0, s0)

        # 4. Optional elastic growth (§IV-C): fresh nodes join empty.
        if spec.grow_to is not None and spec.grow_to > c.n_nodes:
            t0, s0 = time.perf_counter(), sim.now
            hog.set_target(spec.grow_to)
            grow_target = max(1, math.ceil(spec.grow_to * c.ramp_fraction))
            hog.run_until_nodes(grow_target, timeout=spec.timeout)
            phase("grow", t0, s0)

        # 5. Optional concurrent balancer run.
        balance_ev = None
        if spec.balance_during_run:
            balance_ev = Balancer(
                sim, hog.namenode,
                threshold=spec.balancer_threshold).run()

        # 6. The workload itself.
        t0, s0 = time.perf_counter(), sim.now
        jobs: list = []
        start = sim.now
        drive_workload(sim, hog, schedule, jobs, spec.timeout)
        end = sim.now
        phase("workload", t0, s0)

        # 7. Settle: after a fault plan, keep the clock running until
        # recovery converges (every repairable block back at target, the
        # trash queue drained) — the long-horizon correctness window.
        if self.injector is not None:
            t0, s0 = time.perf_counter(), sim.now
            self._settle(sim, hog, spec.timeout)
            phase("settle", t0, s0)

        # 8. Drain the balancer if it is still moving blocks.
        balancer_info: Optional[Dict[str, object]] = None
        if balance_ev is not None:
            if not balance_ev.triggered:
                t0, s0 = time.perf_counter(), sim.now
                sim.run_until(balance_ev, sim.now + spec.timeout)
                phase("drain", t0, s0)
            if balance_ev.triggered:
                report = balance_ev.value
                balancer_info = {
                    "completed": True,
                    "converged": report.converged,
                    "moved_blocks": report.moved_blocks,
                    "moved_bytes": round(report.moved_bytes, 1),
                    "iterations": report.iterations,
                }
            else:
                balancer_info = {"completed": False}

        faults_info: Optional[Dict[str, object]] = None
        if self.injector is not None:
            nn = hog.namenode
            faults_info = {
                "injected": self.injector.summary(),
                "convergence": {
                    "under_replicated_final": nn.under_replicated_count(),
                    "lost_blocks_final": nn.lost_block_count(),
                    "deferred_final": nn.deferred_replication_count(),
                    "invalidation_backlog_final":
                        nn.pending_invalidation_count(),
                    "block_map_size": nn.total_block_count(),
                    "repl_heap_final": len(nn._repl_heap),
                },
            }

        wall = time.perf_counter() - wall_start
        self.workload = collect_result(
            "HOG", c.n_nodes, jobs, start, end, hog.believed_series,
            hog.jobtracker)

        if self.probes is not None:
            self.probes.stop()
        # One registry snapshot replaces the old per-section hand-plucking;
        # the sections below are its namespaces verbatim.
        snap = hog.registry.snapshot()
        # Fired probe/checker ticks are engine events too; subtract them
        # so the reported event count is identical at any cadence.
        events = sim.events_processed
        if self.probes is not None:
            events -= self.probes.events_injected
        if self.checker is not None:
            self.checker.stop()
            events -= self.checker.events_injected

        self.result = ScenarioResult(
            scenario=spec.name,
            nodes=c.n_nodes,
            seed=spec.seed,
            scale=spec.workload.scale,
            makespan_seconds=self.workload.response_time,
            sim_seconds=sim.now,
            wall_seconds=wall,
            events=events,
            phases=phases,
            channel=snap["channel"],
            control=snap["control"],
            hdfs=snap["hdfs"],
            locality=self.workload.locality,
            preemptions=snap["grid"],
            failed_jobs=self.workload.failed_jobs,
            jobs_completed=sum(len(v) for v in
                               self.workload.bin_responses.values()),
            node_area=self.workload.node_area,
            balancer=balancer_info,
            faults=faults_info,
            timelines=self._phase_timelines(phase_bounds),
            engine=(sim.profile.as_dict() if sim.profile is not None
                    else None),
            trace=(self.tracer.stats() if self.tracer is not None else None),
            invariants=(self.checker.summary() if self.checker is not None
                        else None),
            memory=memory.as_dict(),
        )
        return self.result

    def _settle(self, sim: Simulator, hog: HOGSystem,
                timeout: float) -> None:
        """Advance until HDFS recovery converges (or wedges stably).

        Converged: nothing under-replicated, nothing deferred, the trash
        queue drained — the block map is back at steady state.  A cluster
        that genuinely cannot repair (capacity lost for good) reaches a
        *stable* non-converged state instead; the loop exits once the
        recovery gauges stop changing, and the result's ``faults``
        section records the finals either way."""
        nn = hog.namenode
        period = hog.config.hdfs.replication_monitor_period
        deadline = sim.now + timeout
        last = None
        stable = 0
        while sim.now < deadline:
            state = (nn.under_replicated_count(),
                     nn.deferred_replication_count(),
                     nn.pending_invalidation_count(),
                     nn.lost_block_count())
            if state[0] == 0 and state[1] == 0 and state[2] == 0:
                return
            stable = stable + 1 if state == last else 0
            last = state
            # ~3 backoff windows with no movement on any gauge = wedged.
            if stable * period > 3 * hog.config.hdfs.replication_retry_backoff:
                return
            sim.run(until=sim.now + period)

    def _phase_timelines(self, phase_bounds: List[tuple]
                         ) -> Optional[Dict[str, dict]]:
        """Slice the probe series into per-phase timelines.

        Each phase gets the samples taken during it (``s0 <= t < s1``;
        the final phase keeps its right boundary), downsampled to the
        spec's ``timeline_max_points``.  ``None`` when probes were off.
        """
        if self.probes is None:
            return None
        max_points = self.spec.obs.timeline_max_points
        out: Dict[str, dict] = {}
        for i, (name, s0, s1) in enumerate(phase_bounds):
            last = i == len(phase_bounds) - 1
            gauges: Dict[str, dict] = {}
            for gname, series in self.probes.series.items():
                sliced = StepSeries(gname)
                for t, v in zip(series.times, series.values):
                    if t < s0 or t > s1 or (t == s1 and not last):
                        continue
                    sliced.record(float(t), float(v))
                if len(sliced) == 0:
                    continue
                times, values = sliced.downsample(max(2, max_points))
                gauges[gname] = {"t": [round(t, 3) for t in times],
                                 "v": values}
            if gauges:
                out[name] = gauges
        return out
