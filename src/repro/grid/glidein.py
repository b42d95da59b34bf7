"""Glidein lifecycle and the GlideinWMS-style factory.

"GlideinWMS is used to allocate nodes on remote sites transparently to the
user ... The number of nodes can grow and shrink elastically by submitting
and removing the worker node jobs." (§III-A)

A :class:`Glidein` is one pilot job.  Once matched to a site it executes
the wrapper script's five steps (§III-A):

1. initialize the OSG operating environment,
2. download the Hadoop worker-node package (75 MB in the evaluation) from
   the central repository,
3. extract and set late-binding configuration (trivial time, per the paper),
4. start the Hadoop daemons (datanode + tasktracker),
5. clean up on shutdown.

The :class:`GlideinFactory` combines the Condor negotiator and the
GlideinWMS frontend: it matches idle pilots to whitelisted sites with free
slots, maintains an elastic node-count target (resubmitting after
preemptions — "the HOG system will automatically request more nodes from
the OSG to compensate", §IV-B), and drives per-site preemption clocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Callable, Dict, List, Optional

import numpy as np

from ..net.fabric import NetworkFabric, TransferFailed
from ..sim.engine import Simulator
from ..sim.events import Interrupt
from ..sim.monitor import CounterSet
from .condor import CondorJobState, CondorSchedd, SubmissionFile
from .site import GridSite

__all__ = ["WrapperConfig", "Glidein", "GlideinFactory"]


@dataclass
class WrapperConfig:
    """Parameters of the worker-node wrapper script (§III-A)."""

    #: Size of the Hadoop executables package ("compressed to 75MB").
    package_bytes: float = 75 * 1024 * 1024
    #: Host serving the package (the central web server).
    package_host: str = "hog-central.unl.edu"
    #: Step 1: OSG environment initialization time, seconds.
    init_env_time: float = 2.0
    #: Step 4: daemon startup time, seconds.
    daemon_start_time: float = 3.0
    #: True = daemons stay in the wrapper's process tree (the §IV-D1 fix),
    #: so preemption kills them.  False = the original double-fork bug:
    #: preemption leaves zombie daemons over a wiped working directory.
    zombie_fix: bool = True

    def validate(self) -> None:
        """Raise ``ValueError`` on non-physical settings."""
        if self.package_bytes < 0:
            raise ValueError("package_bytes cannot be negative")
        if self.init_env_time < 0 or self.daemon_start_time < 0:
            raise ValueError("wrapper step times cannot be negative")


class Glidein:
    """One pilot job through its life: idle → starting → running → gone."""

    IDLE = CondorJobState.IDLE
    STARTING = "starting"
    RUNNING = CondorJobState.RUNNING
    PREEMPTED = "preempted"
    REMOVED = CondorJobState.REMOVED
    FAILED = "failed"

    _seq = 0

    def __init__(self, factory: "GlideinFactory",
                 requirements: tuple) -> None:
        Glidein._seq += 1
        self.glidein_id = Glidein._seq
        self.factory = factory
        #: Site names this pilot may run at (submit-file requirements).
        self.requirements = requirements
        self.cluster_id: Optional[int] = None
        self._state = None
        self.state = Glidein.IDLE
        self.site: Optional[GridSite] = None
        self.hostname: Optional[str] = None
        #: Opaque worker-node handle from the node factory.
        self.node = None
        self._startup_proc = None

    @property
    def state(self) -> str:
        return self._state

    @state.setter
    def state(self, new: str) -> None:
        # Single funnel for every lifecycle transition: the factory keeps
        # O(1) running/pending tallies instead of rescanning the pilot
        # list on each count query.
        old = self._state
        self._state = new
        self.factory._state_changed(self, old, new)

    # -- lifecycle -----------------------------------------------------------------
    def match(self, site: GridSite) -> None:
        """Negotiator matched this pilot to ``site``: begin startup."""
        if self.state != Glidein.IDLE:
            raise RuntimeError(f"cannot match glidein in state {self.state}")
        self.state = Glidein.STARTING
        self.site = site
        site.attach(self)
        sim = self.factory.sim
        self._startup_proc = sim.process(self._startup(),
                                         name=f"glidein-start:{self.glidein_id}")

    def _startup(self):
        sim = self.factory.sim
        wrapper = self.factory.wrapper
        policy = self.site.config.policy
        try:
            # Remote batch scheduler queueing delay.
            if policy.scheduling_delay_mean > 0:
                delay = self.factory.rng.exponential(policy.scheduling_delay_mean)
                yield sim.timeout(delay)
            self.hostname = self.site.next_hostname()
            # Wrapper step 1: initialize the OSG environment.
            if wrapper.init_env_time > 0:
                yield sim.timeout(wrapper.init_env_time)
            # Step 2: download the Hadoop package from the central server.
            if wrapper.package_bytes > 0:
                yield self.factory.fabric.transfer(
                    wrapper.package_host, self.hostname, wrapper.package_bytes)
            # Steps 3-4: extract (trivial) and start the daemons.
            if wrapper.daemon_start_time > 0:
                yield sim.timeout(wrapper.daemon_start_time)
        except Interrupt:
            self._abort_startup()
            return
        except TransferFailed:
            self.state = Glidein.FAILED
            self.site.detach(self)
            return
        self.node = self.factory.node_start(self.hostname, self.site)
        self.state = Glidein.RUNNING
        self.factory.counters.incr("glideins_started")
        self.factory._node_count_changed()
        # Arm this node's preemption clock.
        if policy.preempt_rate > 0:
            sim.call_soon(self._lifetime)

    def _abort_startup(self) -> None:
        if self.site is not None:
            self.site.detach(self)

    def _lifetime(self, _arg) -> None:
        """Exponential per-node preemption clock (§III-B1's per-node
        hazard: over-allocated time or owner demand).  The clock is
        drawn even for a pilot that left in this instant, so the RNG
        stream does not depend on it; a pilot that left before its clock
        fires makes the fire a no-op (``preempt`` only evicts running
        pilots, and no pilot returns to running)."""
        factory = self.factory
        delay = factory.rng.exponential(
            1.0 / self.site.config.policy.preempt_rate)
        if self.state == Glidein.RUNNING:
            factory.sim.call_after(delay, self.preempt)

    def preempt(self, zombie: Optional[bool] = None) -> None:
        """The site evicts this pilot: kill the process tree, wipe the
        working directory.  With the zombie fix the daemons die with the
        tree; without it they linger as zombies (§IV-D1).  ``zombie``
        overrides the wrapper's ``zombie_fix`` setting when given."""
        if self.state == Glidein.STARTING:
            if self._startup_proc is not None and self._startup_proc.is_alive:
                self._startup_proc.interrupt("preempted during startup")
            self.state = Glidein.PREEMPTED
            self.factory.counters.incr("glideins_preempted_starting")
            return
        if self.state != Glidein.RUNNING:
            return
        self.state = Glidein.PREEMPTED
        self.site.detach(self)
        if zombie is None:
            zombie = not self.factory.wrapper.zombie_fix
        self.factory.node_preempt(self.node, zombie=zombie)
        self.factory.counters.incr("glideins_preempted")
        self.factory._node_count_changed()

    def removed(self) -> None:
        """``condor_rm``: graceful removal (elastic shrink)."""
        if self.state == Glidein.STARTING:
            if self._startup_proc is not None and self._startup_proc.is_alive:
                self._startup_proc.interrupt("removed")
        elif self.state == Glidein.RUNNING:
            self.site.detach(self)
            self.factory.node_shutdown(self.node)
            self.factory._node_count_changed()
        self.state = Glidein.REMOVED

    def __repr__(self) -> str:
        where = f"@{self.site.name}" if self.site else ""
        return f"<Glidein #{self.glidein_id} {self.state}{where}>"


class GlideinFactory:
    """Negotiator + GlideinWMS frontend: elastic worker-node provisioning.

    Parameters
    ----------
    node_start:
        ``(hostname, site) -> handle`` — build and start the Hadoop worker
        daemons on a fresh node.
    node_preempt:
        ``(handle, zombie) -> None`` — site preemption reached the node.
    node_shutdown:
        ``handle -> None`` — graceful stop (elastic shrink).
    """

    def __init__(self, sim: Simulator, schedd: CondorSchedd,
                 sites: List[GridSite], fabric: NetworkFabric,
                 rng: np.random.Generator,
                 node_start: Callable,
                 node_preempt: Callable,
                 node_shutdown: Callable,
                 wrapper: Optional[WrapperConfig] = None,
                 negotiation_interval: float = 20.0) -> None:
        if negotiation_interval <= 0:
            raise ValueError("negotiation_interval must be positive")
        self.sim = sim
        self.schedd = schedd
        self.sites = list(sites)
        self.fabric = fabric
        self.rng = rng
        self.node_start = node_start
        self.node_preempt = node_preempt
        self.node_shutdown = node_shutdown
        self.wrapper = wrapper or WrapperConfig()
        self.wrapper.validate()
        self.negotiation_interval = negotiation_interval
        self._target = 0
        #: Live pilots, submission-ordered (keyed by glidein id so
        #: departures are O(1), not a list scan).
        self._glideins: Dict[int, Glidein] = {}
        #: Event-maintained state tallies (updated by ``Glidein.state``'s
        #: setter) so count queries never scan the pilot list.
        self._n_running = 0
        self._n_pending = 0
        self.counters = CounterSet()
        #: Optional :class:`~repro.obs.trace.Tracer` for grid lifecycle
        #: marks (preemption bursts); ``None`` disables emission.
        self.tracer = None
        #: Called with the current running-node count whenever it changes.
        self.node_count_listeners: List[Callable[[int], None]] = []
        #: (threshold, event) pairs resolved as the count crosses them.
        self._count_waiters: List = []
        self._started = False
        self._site_by_name: Dict[str, GridSite] = {s.name: s for s in self.sites}

    # -- control ---------------------------------------------------------------
    def start(self) -> None:
        """Start the negotiation cycle and the per-site burst clocks."""
        if self._started:
            return
        self._started = True
        self.sim.call_soon(self._negotiation_cycle)
        for site in self.sites:
            if site.config.policy.burst_rate > 0:
                self.sim.call_soon(self._arm_burst, site)

    def set_target(self, n: int) -> None:
        """Elastically grow/shrink the requested worker-node count."""
        if n < 0:
            raise ValueError("target cannot be negative")
        self._target = n

    @property
    def target(self) -> int:
        """Currently requested node count."""
        return self._target

    # -- state -------------------------------------------------------------------
    def _state_changed(self, glidein: "Glidein",
                       old: Optional[str], new: str) -> None:
        """Keep the running/pending tallies in step with one pilot's
        lifecycle transition (called from ``Glidein.state``'s setter)."""
        pending = (Glidein.IDLE, Glidein.STARTING)
        if old == Glidein.RUNNING:
            self._n_running -= 1
        elif old in pending:
            self._n_pending -= 1
        if new == Glidein.RUNNING:
            self._n_running += 1
        elif new in pending:
            self._n_pending += 1
        gone = new in (Glidein.PREEMPTED, Glidein.FAILED, Glidein.REMOVED)
        if gone:
            # A departed pilot leaves the bookkeeping; the next cycle
            # resubmits.
            self._glideins.pop(glidein.glidein_id, None)
        if old == Glidein.IDLE or gone:
            self.schedd.job_changed(glidein, gone)

    def running_count(self) -> int:
        """Glideins whose Hadoop daemons are up (O(1))."""
        return self._n_running

    def pending_count(self) -> int:
        """Glideins submitted or starting but not yet running (O(1))."""
        return self._n_pending

    def glideins(self) -> List[Glidein]:
        """All live pilots (idle/starting/running)."""
        return [g for g in self._glideins.values()
                if g.state in (Glidein.IDLE, Glidein.STARTING, Glidein.RUNNING)]

    def find_by_hostname(self, hostname: str) -> Optional[Glidein]:
        """The running pilot whose worker node is ``hostname``, if any."""
        for g in self._glideins.values():
            if g.hostname == hostname and g.state == Glidein.RUNNING:
                return g
        return None

    def when_running(self, n: int):
        """An event firing the instant ``n`` workers are running.

        Fires immediately if the count is already at or above ``n``; the
        event-driven replacement for polling :meth:`running_count` on a
        fixed time grid."""
        ev = self.sim.event()
        if self.running_count() >= n:
            ev.succeed(self.sim.now)
        else:
            self._count_waiters.append((n, ev))
        return ev

    def cancel_wait(self, ev) -> None:
        """Forget an unfired :meth:`when_running` event (timeout paths)."""
        self._count_waiters = [(n, e) for n, e in self._count_waiters
                               if e is not ev]

    # -- internals -------------------------------------------------------------------
    def _negotiation_cycle(self, _arg) -> None:
        self._reconcile()
        self._negotiate()
        self.sim.call_after(self.negotiation_interval, self._negotiation_cycle)

    def _reconcile(self) -> None:
        """Submit or remove pilots to track the target."""
        # O(1) via the state tallies; the (rare) shrink path below is the
        # only one that needs the actual pilot list.
        deficit = self._target - (self._n_pending + self._n_running)
        if deficit > 0:
            submission = SubmissionFile(
                requirements=tuple(s.name for s in self.sites),
                queue=deficit)
            new = [Glidein(self, submission.requirements)
                   for _ in range(deficit)]
            self.schedd.submit(submission, new)
            for g in new:
                self._glideins[g.glidein_id] = g
            self.counters.incr("glideins_submitted", deficit)
        elif deficit < 0:
            # Shrink: remove idle pilots first, then running ones.
            excess = -deficit
            victims = sorted(self.glideins(),
                             key=lambda g: g.state != Glidein.IDLE)
            for g in victims[:excess]:
                self.schedd.remove(g)
            self.counters.incr("glideins_removed", excess)
            self._node_count_changed()

    def _negotiate(self) -> None:
        """Match idle pilots to whitelisted sites with free slots."""
        for glidein in self.schedd.idle_jobs():
            candidates = [self._site_by_name[name]
                          for name in glidein.requirements
                          if name in self._site_by_name
                          and self._site_by_name[name].free_slots > 0]
            if not candidates:
                break  # grid is full for us this cycle
            weights = np.array([float(s.free_slots) for s in candidates])
            pick = candidates[int(self.rng.choice(len(candidates),
                                                  p=weights / weights.sum()))]
            glidein.match(pick)
            self.counters.incr("glideins_matched")

    def _arm_burst(self, site: GridSite) -> None:
        policy = site.config.policy
        self.sim.call_after(self.rng.exponential(1.0 / policy.burst_rate),
                            self._burst, site)

    def _burst(self, site: GridSite) -> None:
        """Site-wide simultaneous preemptions (higher-priority users)."""
        running = site.running_glideins()
        if running:
            k = max(1, ceil(site.config.policy.burst_fraction * len(running)))
            idx = self.rng.choice(len(running), size=min(k, len(running)),
                                  replace=False)
            self.counters.incr("preemption_bursts")
            tr = self.tracer
            if tr is not None:
                tr.instant("grid", "preemption-burst", self.sim.now,
                           track=site.name, args={"evicted": len(idx)})
            for i in idx:
                running[int(i)].preempt()
        self._arm_burst(site)

    def _node_count_changed(self) -> None:
        count = self.running_count()
        if self._count_waiters:
            still_waiting = []
            for n, ev in self._count_waiters:
                if count >= n and not ev.triggered:
                    ev.succeed(self.sim.now)
                elif not ev.triggered:
                    still_waiting.append((n, ev))
            self._count_waiters = still_waiting
        for cb in self.node_count_listeners:
            cb(count)

    def __repr__(self) -> str:
        return (f"<GlideinFactory target={self._target} "
                f"running={self.running_count()} pending={self.pending_count()}>")
