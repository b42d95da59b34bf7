"""Finished operations are freed by reference counting.

A finished transfer or disk I/O must not sit in a reference cycle (its
completion event pointing back at it), or every one of them waits for
the cyclic collector; the fabric and the topology keep no state per host
pair, since a many-to-many shuffle meets almost every pair only once;
and a process that runs scenarios in-line loads neither the process pool
nor numpy.
"""

import contextlib
import gc
import os
import subprocess
import sys
import types
import weakref

import repro
from repro.net import FabricConfig, NetworkFabric, NetworkTopology
from repro.scenarios import ScenarioRunner, registry
from repro.scenarios import runner as runner_mod
from repro.sim import Simulator
from repro.storage import Disk

SMOKE = dict(n_nodes=24, scale=0.04)


@contextlib.contextmanager
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def make_fabric():
    cfg = FabricConfig(nic_bandwidth=100.0, site_uplink_bandwidth=150.0,
                       intra_site_latency=0.0, inter_site_latency=0.0)
    sim = Simulator()
    return sim, NetworkFabric(sim, NetworkTopology(), cfg)


def wait_and_drop(sim, event):
    """Run a process that waits on ``event`` and then returns; the
    caller keeps no reference to the event."""
    def waiter(ev):
        yield ev
    proc = sim.process(waiter(event))
    sim.run(until=proc)
    return proc


class TestFinishedOperationsFreed:
    def test_finished_flow_is_freed_without_the_collector(self):
        with collector_off():
            sim, fabric = make_fabric()
            src, dst = "a.unl.edu", "b.mit.edu"
            done = fabric.transfer(src, dst, 500.0)
            flow = weakref.ref(next(iter(fabric._pending_by_host[src])))
            proc = wait_and_drop(sim, done)
            del done
            assert proc.ok and sim.now == 5.0
            assert fabric.active_flows == 0
            assert flow() is None

    def test_finished_disk_read_is_freed_without_the_collector(self):
        with collector_off():
            sim = Simulator()
            disk = Disk(sim, "n1.unl.edu", 1000.0, 100.0, 50.0)
            done = disk.read(300.0)
            demand = weakref.ref(next(iter(disk.read_constraint.demands)))
            proc = wait_and_drop(sim, done)
            del done
            assert proc.ok and sim.now == 3.0
            assert demand() is None


def owned_objects(owner, shared=()) -> int:
    """gc-tracked objects reachable from ``owner``'s own state, not
    counting the ``shared`` objects or code (classes, functions,
    modules)."""
    shared = {id(obj) for obj in shared}
    code = (type, types.FunctionType, types.ModuleType)
    seen = set()
    stack = list(vars(owner).values())
    while stack:
        obj = stack.pop()
        key = id(obj)
        if key in seen or key in shared or not gc.is_tracked(obj) \
                or isinstance(obj, code):
            continue
        seen.add(key)
        stack.extend(gc.get_referents(obj))
    return len(seen)


def fabric_objects(fabric) -> int:
    """Objects owned by the fabric alone: the simulator, topology,
    config and channel it shares are not counted."""
    return owned_objects(fabric, (fabric.sim, fabric.topology,
                                  fabric.config, fabric.channel))


class TestNoPerPairState:
    def test_new_host_pairs_leave_fabric_and_topology_state_flat(self):
        # With the collector off, no container a pair memo would fill
        # (its key tuples, say) is untracked mid-test and missed.
        with collector_off():
            sim, fabric = make_fabric()
            topology = fabric.topology
            hosts = [f"n{i}.site{i % 3}.edu" for i in range(12)]
            pairs = [(a, b) for a in hosts for b in hosts if a != b]
            # Warm-up: every host is known, and every NIC and every
            # site's WAN legs exist afterwards.
            warm = [(hosts[i], hosts[(i + k) % len(hosts)])
                    for i in range(len(hosts)) for k in (1, 3)]
            for src, dst in warm:
                sim.run(until=fabric.transfer(src, dst, 100.0))
            before = fabric_objects(fabric), owned_objects(topology)
            fresh = [p for p in pairs if p not in warm][:60]
            for src, dst in fresh:
                sim.run(until=fabric.transfer(src, dst, 100.0))
                topology.distance(src, dst)
            assert fabric.active_flows == 0
            assert (fabric_objects(fabric), owned_objects(topology)) \
                == before


class TestScenarioProcessImports:
    @staticmethod
    def loaded_after(code: str, watched) -> str:
        """Run ``code`` in a fresh interpreter; the printed sorted list of
        the ``watched`` modules it leaves loaded."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code += (f"\nimport sys\nprint(sorted(m for m in {tuple(watched)!r}"
                 " if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        return out.stdout.strip().splitlines()[-1]

    def test_importing_scenarios_leaves_the_process_pool_unloaded(self):
        """Only ``run_specs_parallel``'s pool branch needs the pool; a
        benchmark worker or CLI run that imports the scenarios package
        must not carry ``multiprocessing`` for it."""
        assert self.loaded_after(
            "import repro.scenarios",
            ("concurrent.futures.process", "multiprocessing")) == "[]"

    def test_importing_scenarios_leaves_numpy_unloaded(self):
        """The simulation draws from ``repro.sim.rng.RandomStream``;
        numpy is a test and plotting dependency only."""
        assert self.loaded_after("import repro.scenarios",
                                 ("numpy",)) == "[]"

    def test_a_scenario_run_leaves_numpy_unloaded(self):
        """A lazy import that fires during a run counts too: probes and
        the invariant checker are on."""
        code = ("from repro.scenarios import ScenarioRunner, registry\n"
                "spec = registry.build('blackout', n_nodes=24, scale=0.02,"
                " seed=1)\n"
                "spec.obs.sample_interval = 5.0\n"
                "spec.obs.check_invariants = True\n"
                "spec.obs.invariant_interval = 60.0\n"
                "result = ScenarioRunner(spec).run()\n"
                "assert result.jobs_completed > 0\n"
                "assert result.timelines\n")
        assert self.loaded_after(code, ("numpy",)) == "[]"


class TestScenarioGarbage:
    def test_workload_phase_makes_almost_no_cyclic_garbage(self,
                                                           monkeypatch):
        """Every object the collector finds unreachable during the
        workload phase is kept (``DEBUG_SAVEALL``) and counted.  With
        a cycle per finished demand this count is in the thousands."""
        drive = runner_mod.drive_workload
        found = []

        def saving_drive(*args, **kwargs):
            gc.collect()
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                return drive(*args, **kwargs)
            finally:
                gc.collect()
                gc.set_debug(0)
                found.append(len(gc.garbage))
                gc.garbage.clear()

        monkeypatch.setattr(runner_mod, "drive_workload", saving_drive)
        result = ScenarioRunner(
            registry.build("baseline", seed=42, **SMOKE)).run()
        assert result.jobs_completed > 0
        assert len(found) == 1
        assert found[0] < 1000
