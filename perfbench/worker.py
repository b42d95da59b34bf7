"""One scenario run in a fresh process; prints one JSON record.

Run by ``perfbench/run.py``, one process per run, serially::

    python3 perfbench/worker.py --root . --workload baseline_1k \
        --cluster-seed 1000 --mode full

Modes:

``full``
    The whole scenario through ``ScenarioRunner(spec).run()``, untraced.
``setup``
    Stops when the workload phase would start: import, system build,
    ramp, preload and (where present) grow — a set-up time sample.
``traced``
    ``full`` with layer spans (see ``tracer.py``) and the engine's
    ``EngineProfile`` on.

Wall time runs from before ``import repro`` to the returned
``ScenarioResult``; the host-speed reference spins run just before and
just after it, outside the timed region.
"""

import argparse
import gc
import hashlib
import heapq
import json
import os
import resource
import statistics
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)

#: Size of the host-speed reference spin: ``call_after`` timer chains ×
#: ticks each, the shape of ``benchmarks/bench_engine.py``'s
#: ``callback_timer``, but on the benchmark's own heap so program changes
#: cannot move it.
HOST_REF_CHAINS = 200
HOST_REF_TICKS = 500
#: Spins on each side of the timed region.  The record keeps their mean:
#: the host's slow bursts last from a fraction of a second up, and the
#: scenario pays for them on average, not at its fastest instant.
HOST_REF_SPINS = 4


class SetupDone(Exception):
    """Raised in ``setup`` mode where the workload phase would start."""


def host_reference() -> float:
    """Seconds for a fixed pure-Python timer-chain spin."""
    periods = [1.0 + i * 1e-3 for i in range(HOST_REF_CHAINS)]
    counts = [0] * HOST_REF_CHAINS

    def tick(i):
        counts[i] += 1
        return counts[i] < HOST_REF_TICKS

    t0 = time.perf_counter()
    heap = [(periods[i], i, i) for i in range(HOST_REF_CHAINS)]
    heapq.heapify(heap)
    seq = HOST_REF_CHAINS
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        when, _, i = pop(heap)
        if tick(i):
            seq += 1
            push(heap, (when + periods[i], seq, i))
    elapsed = time.perf_counter() - t0
    if sum(counts) != HOST_REF_CHAINS * HOST_REF_TICKS:
        raise RuntimeError("host reference spin miscounted")
    return elapsed


def host_speed_sample() -> list:
    """``HOST_REF_SPINS`` reference spins with the collector off, so the
    scenario's heap left behind cannot slow the later sample."""
    gc.disable()
    try:
        return [host_reference() for _ in range(HOST_REF_SPINS)]
    finally:
        gc.enable()


def payload_digest(result) -> str:
    blob = json.dumps(result.payload(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _import_repro(root: str, recorder=None) -> None:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    if recorder is None:
        import repro.scenarios  # noqa: F401
    else:
        import importlib

        from tracer import IMPORT_ORDER
        for layer, module in IMPORT_ORDER:
            frame = recorder.enter((layer, f"import {module}"))
            try:
                importlib.import_module(module)
            finally:
                recorder.leave(frame)
    import repro
    if not os.path.abspath(repro.__file__).startswith(
            os.path.abspath(src) + os.sep):
        raise RuntimeError(f"imported repro from {repro.__file__}, "
                           f"not from {src}")


def run(root: str, workload_name: str, cluster_seed: int, mode: str,
        spans_out: str = "", tiny: bool = False) -> dict:
    t_start = time.perf_counter()
    from workloads import WORKLOADS, build_spec

    workload = WORKLOADS[workload_name]
    if tiny:
        workload = workload.tiny()
    recorder = instr = None
    if mode == "traced":
        from tracer import Instrumentation, SpanRecorder
        recorder = SpanRecorder()
        recorder.calibrate()
        # Spans start where the untraced wall clock does.
        recorder.origin = t_start
    _import_repro(root, recorder)

    from repro.scenarios import ScenarioRunner
    from repro.scenarios import runner as runner_mod

    marks = {}
    drive = runner_mod.drive_workload

    def timed_drive(*args, **kwargs):
        marks["workload_start"] = time.perf_counter()
        if mode == "setup":
            raise SetupDone()
        return drive(*args, **kwargs)

    runner_mod.drive_workload = timed_drive
    if recorder is not None:
        instr = Instrumentation(recorder)
        instr.install()

    spec = build_spec(workload, cluster_seed)
    if mode == "traced":
        spec.obs.profile_engine = True
    runner = ScenarioRunner(spec)
    try:
        result = runner.run()
    except SetupDone:
        return {"mode": mode, "setup_s": marks["workload_start"] - t_start}
    wall = time.perf_counter() - t_start
    if instr is not None:
        instr.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    responses = [r for rs in runner.workload.bin_responses.values()
                 for r in rs]
    rec = {
        "mode": mode,
        "wall_s": wall,
        "setup_s": marks["workload_start"] - t_start,
        "peak_rss_mb": rss_mb,
        "sim_makespan_s": result.makespan_seconds,
        "sim_job_p50_s": statistics.median(responses) if responses else None,
        "jobs_scheduled": len(spec.workload.schedule.jobs),
        "jobs_completed": result.jobs_completed,
        "failed_jobs": result.failed_jobs,
        "events": result.events,
        "digest": payload_digest(result),
        "phases": {p.name: p.wall_seconds for p in result.phases},
        "channel": result.channel,
        "control": result.control,
        "hdfs": result.hdfs,
        "grid": result.preemptions,
        "faults": result.faults,
        "invariants": result.invariants,
    }
    if recorder is not None:
        rec["engine"] = result.engine
        rec["layer_self_s"] = recorder.self_by_layer()
        rec["outside_spans_s"] = wall - recorder.root_s
        rec["span_count"] = recorder.span_count
        rec["span_cost_s"] = [recorder.cost_inside, recorder.cost_outside]
        rec["span_stats"] = {f"{k[0]}:{k[1]}": st
                             for k, st in recorder.stats.items()}
        if spans_out:
            os.makedirs(os.path.dirname(spans_out) or ".", exist_ok=True)
            with open(spans_out, "w") as fh:
                json.dump(recorder.export(), fh)
    return rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True,
                        help="checkout root holding src/repro")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--cluster-seed", type=int, required=True,
                        help="scenario seed of this one run")
    parser.add_argument("--mode", choices=("full", "setup", "traced"),
                        default="full")
    parser.add_argument("--spans-out", default="",
                        help="traced mode: where to write the spans")
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to a smoke size")
    args = parser.parse_args(argv)
    before = host_speed_sample()
    rec = run(args.root, args.workload, args.cluster_seed, args.mode,
              args.spans_out, args.tiny)
    rec["host_ref_s"] = statistics.fmean(before + host_speed_sample())
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
