"""Heartbeat parking is exact: every run matches the run that never parks.

Parked daemons arm no timer; their skipped beats are replayed from the
liveness table (:mod:`repro.sim.liveness`).  The contract is that this
changes only how many engine events a run takes: the result payload —
heartbeat counters, scheduler index updates, every decision — is
byte-identical to the same run under :func:`helpers.no_parking`, and no
replay meets an ambiguous tie.

- fast tier: every registry scenario under every scheduler, plus
  scripted shutdown / pause-resume / zombie while parked;
- slow tier: the benchmark's gated workloads at their cluster seeds and
  the chaos harness's fuzzed fault plans.
"""

import json
from contextlib import nullcontext

import pytest

from repro.core.hog import PARK_KEYS
from repro.mapreduce import MRConfig
from repro.scenarios import registry
from repro.scenarios.runner import ScenarioRunner

from helpers import MRHarness, no_parking


def _run(make_spec, parking: bool):
    """(payload JSON without ``events``, events, park counters)."""
    with nullcontext() if parking else no_parking():
        result = ScenarioRunner(make_spec()).run()
    payload = result.payload()
    events = payload.pop("events")
    park = {k: result.control[k] for k in PARK_KEYS}
    return json.dumps(payload, sort_keys=True), events, park, result


def assert_exact(make_spec):
    parked, events, park, result = _run(make_spec, True)
    plain, plain_events, plain_park, _ = _run(make_spec, False)
    assert parked == plain
    assert park["park_ties"] == 0
    assert park["parked_beats"] > 0
    assert plain_park == {"parked_beats": 0, "park_wakes": 0,
                          "park_ties": 0}
    assert events < plain_events
    if result.invariants is not None:
        assert result.invariants["violations"] == 0
    return park


class TestRegistryScenarios:
    @pytest.mark.parametrize("scheduler", ["fifo", "delay", "matchmaking"])
    @pytest.mark.parametrize("name", registry.names())
    def test_payload_matches_no_parking(self, name, scheduler):
        def make():
            spec = registry.build(name, n_nodes=40, scale=0.02, seed=3)
            spec.scheduler = scheduler
            spec.obs.check_invariants = True
            return spec
        assert_exact(make)


def _harness_run(parking: bool, script):
    """Run ``script(h, parking)`` on a 6-node cluster; return everything
    a replay could get wrong, read after resolving every parked chain."""
    with nullcontext() if parking else no_parking():
        h = MRHarness(n_nodes=6, n_sites=2,
                      mr_config=MRConfig(speculation_min_elapsed=20.0))
    # Off-grid task times: a job finishing exactly on a beat instant of
    # the 3 s grid would be an ordering tie.
    for i, host in enumerate(h.hosts()):
        h.tasktrackers[host].speed = 1.0 + 0.0137 * (i + 1)
    script(h, parking)
    jt, nn = h.jobtracker, h.namenode
    jt.liveness.resolve_all(h.sim.now)
    nn.liveness.resolve_all(h.sim.now)
    beats = {name: {host: (d.last_heartbeat, d.alive)
                    for host, d in table.members.items()}
             for name, table in (("jt", jt.liveness), ("nn", nn.liveness))}
    jobs = [(j.job_id, j.status, j.finish_time) for j in jt.jobs()]
    ties = jt.liveness.clock.ties
    parked = jt.liveness.replayed + nn.liveness.replayed
    return (jt.heartbeats, jt.heartbeat_rounds,
            jt.scheduler.index.updates, beats, jobs), ties, parked


def _compare(script):
    parked, ties, replayed = _harness_run(True, script)
    plain, _, none = _harness_run(False, script)
    assert parked == plain
    assert ties == 0
    assert replayed > 0 and none == 0


class TestLifecycleWhileParked:
    """Off-grid instants throughout: a read exactly on a beat instant
    resolves beats strictly before it."""

    def test_shutdown_while_parked(self):
        def script(h, parking):
            h.run(until=40.3)
            host = h.hosts()[0]
            assert (host in h.jobtracker.liveness.parked) == parking
            h.tasktrackers[host].shutdown()
            h.datanodes[host].shutdown()
            job = h.submit("after", num_maps=4, num_reduces=1)
            h.run_to_completion([job])
            h.run(until=h.sim.now + 41.7)
        _compare(script)

    def test_pause_and_resume_while_parked(self):
        def script(h, parking):
            h.run(until=40.3)
            host = h.hosts()[1]
            tt, dn = h.tasktrackers[host], h.datanodes[host]
            tt.kill()
            dn.kill()
            h.run(until=h.sim.now + 50.9)
            dn.start()
            tt.start()
            job = h.submit("resumed", num_maps=6, num_reduces=2)
            h.run_to_completion([job])
            h.run(until=h.sim.now + 33.1)
        _compare(script)

    def test_zombie_while_parked(self):
        def script(h, parking):
            h.run(until=40.3)
            host = h.hosts()[2]
            assert (host in h.namenode.liveness.parked) == parking
            h.preempt_node(host, zombie=True)
            h.run(until=h.sim.now + 7.7)
            job = h.submit("zombie", num_maps=6, num_reduces=1)
            h.run_to_completion([job])
            h.run(until=h.sim.now + 29.3)
        _compare(script)

    def test_busy_cluster_with_speculation(self):
        def script(h, parking):
            h.tasktrackers[h.hosts()[3]].speed = 0.1037
            jobs = [h.submit(f"j{i}", num_maps=5, num_reduces=2,
                             map_cpu_per_block=12.0) for i in range(3)]
            h.run_to_completion(jobs)
            h.run(until=h.sim.now + 25.1)
        _compare(script)


def _gated_spec(scenario, n_nodes, scale, ramp, base_seed, seed):
    """The benchmark's workload shape: cluster ``seed``, the job schedule
    drawn for ``base_seed``."""
    def build(s):
        spec = registry.build(scenario, n_nodes=n_nodes, scale=scale,
                              seed=s)
        if ramp is not None:
            spec.cluster.ramp_fraction = ramp
        return spec
    spec = build(seed)
    spec.workload.schedule = ScenarioRunner(build(base_seed)).build_schedule()
    return spec


@pytest.mark.slow
class TestGatedWorkloads:
    @pytest.mark.parametrize("seed", range(1000, 1005))
    def test_baseline_1k(self, seed):
        assert_exact(lambda: _gated_spec("baseline", 1000, 0.25, 0.98,
                                         1000, seed))

    @pytest.mark.parametrize("seed", range(5))
    def test_blackout_200(self, seed):
        def make():
            spec = _gated_spec("blackout", 200, 0.25, None, 0, seed)
            spec.obs.check_invariants = True
            return spec
        assert_exact(make)

    @pytest.mark.parametrize("seed", [3, 7, 11, 42])
    def test_chaos_plans(self, seed):
        from test_chaos import chaos_spec
        assert_exact(lambda: chaos_spec(seed))
