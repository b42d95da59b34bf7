"""The repository benchmark: registry scenarios, one fresh process per run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload baseline_1k --seed 0 --seconds 20 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

The benchmark is a closed loop with one client: it starts one scenario
process, waits for its result, then starts the next (``worker.py``).
With ``--trace 0`` it takes set-up samples, then runs whole scenarios
until ``--seconds`` have passed (at least one per cluster seed of the
run) and reports the end-to-end metrics of ``BENCHMARK.json``, host times
scaled to a nominal host speed (``HOST_REF_NOMINAL_S``).  With
``--trace 1`` it runs the first cluster seed once untraced and once with
layer spans, and reports the per-layer metrics.

Every scenario run is checked: no failed job, every scheduled job done,
one payload digest per cluster seed across all runs (traced included),
and on fault workloads every recovery gauge back at 0 with no invariant
violation.  The last stdout line is the JSON result; the exit code is 1
when a check failed and 2 when nothing could be measured (no program
under ``src/``, or a malformed ``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from contract import result_line, validate_benchmark  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS, run_seeds  # noqa: E402

#: Every run must be over well inside the three minutes allowed.
RUN_DEADLINE_S = 170.0
#: Set-up-only processes per ``--trace 0`` run; every whole run adds one
#: more set-up sample.
SETUP_SAMPLES = 3
#: Seconds the worker's host-speed reference spin (``host_ref_s``) takes
#: on the 2-core Xeon VM the benchmark was tuned on, in its usual state.
#: ``wall_s`` and ``setup_s`` are reported at this host speed: each
#: process's time is scaled by this over its own reference time, raised
#: to ``HOST_SLOWDOWN_EXPONENT``.
HOST_REF_NOMINAL_S = 0.07
#: How a scenario's time follows the reference spin's when the host
#: slows: the tight spin suffers more from the neighbours' contention
#: than the simulation does.  Ten runs on each of the two gated
#: workloads (host reference 68 to 126 ms) put the exponent that leaves
#: the least spread at 0.5 to 0.75; 1.0 over-corrected (see
#: reasoning.json).
HOST_SLOWDOWN_EXPONENT = 0.6
#: Faults-section recovery gauges that must end at 0.
CONVERGENCE_FINALS = ("under_replicated_final", "lost_blocks_final",
                      "deferred_final", "invalidation_backlog_final",
                      "repl_heap_final")
#: Count sections that must repeat exactly for one cluster seed.
COUNT_SECTIONS = ("events", "channel", "control", "hdfs", "grid")


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", flush=True)


class WorkerFailed(Exception):
    pass


class Run:
    """One workload's measurement: spawns workers, checks their results."""

    def __init__(self, root: str, workload: str, seed: int, tiny: bool,
                 deadline: float) -> None:
        self.root = root
        self.workload = WORKLOADS[workload]
        if tiny:
            self.workload = self.workload.tiny()
        self.seed = seed
        self.tiny = tiny
        self.deadline = deadline
        self.seeds = run_seeds(self.workload, seed)
        self.digests: Dict[int, str] = {}
        self.counts: Dict[int, dict] = {}
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        #: ``--trace 0``: metric → samples, and the first whole run of
        #: each cluster seed.
        self.samples: Dict[str, List[float]] = {}
        self.by_seed: Dict[int, dict] = {}

    def spawn(self, cluster_seed: int, mode: str,
              spans_out: str = "") -> dict:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--root", self.root, "--workload", self.workload.name,
               "--cluster-seed", str(cluster_seed), "--mode", mode]
        if spans_out:
            cmd += ["--spans-out", spans_out]
        if self.tiny:
            cmd.append("--tiny")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise WorkerFailed("out of time before the run started")
        try:
            proc = subprocess.run(cmd, cwd=self.root, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"{mode} run of seed {cluster_seed} timed "
                               f"out") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-3:]
            raise WorkerFailed(f"{mode} run of seed {cluster_seed} exited "
                               f"{proc.returncode}: {' | '.join(tail)}")
        return json.loads(lines[-1])

    def check(self, cluster_seed: int, rec: dict) -> None:
        """Correctness of one whole scenario run; folds it into the job
        tallies."""
        problems = []
        if rec["failed_jobs"]:
            problems.append(f"{rec['failed_jobs']} failed jobs")
        if rec["jobs_completed"] != rec["jobs_scheduled"]:
            problems.append(f"{rec['jobs_completed']} of "
                            f"{rec['jobs_scheduled']} jobs completed")
        first = self.digests.setdefault(cluster_seed, rec["digest"])
        if rec["digest"] != first:
            problems.append(f"payload digest {rec['digest']} != {first}")
        counts = {k: rec[k] for k in COUNT_SECTIONS}
        if self.counts.setdefault(cluster_seed, counts) != counts:
            problems.append("counts differ from an earlier run of the "
                            "same seed")
        if self.workload.fault_checks:
            conv = (rec["faults"] or {}).get("convergence", {})
            for key in CONVERGENCE_FINALS:
                if conv.get(key, -1) != 0:
                    problems.append(f"faults.convergence.{key} = "
                                    f"{conv.get(key)}")
            violations = (rec["invariants"] or {}).get("violations", -1)
            if violations != 0:
                problems.append(f"invariants.violations = {violations}")
        self.attempted += rec["jobs_scheduled"]
        self.failed += rec["failed_jobs"] + (1 if problems else 0)
        for p in problems:
            self.problems.append(f"{rec['mode']} run, seed {cluster_seed}: "
                                 f"{p}")

    @staticmethod
    def at_nominal(rec: dict, key: str) -> float:
        """``rec[key]`` in seconds at the nominal host speed."""
        return rec[key] * (HOST_REF_NOMINAL_S
                           / rec["host_ref_s"]) ** HOST_SLOWDOWN_EXPONENT

    def crashed(self, exc: WorkerFailed) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(str(exc))

    @property
    def correct(self) -> bool:
        return not self.problems

    # -- trace 0 -----------------------------------------------------------
    def measure(self, seconds: float) -> Dict[str, float]:
        """Set-up samples, then whole runs while they fit in ``seconds``,
        at least one per cluster seed of the run."""
        t0 = time.monotonic()
        setups: List[float] = []
        fulls: List[dict] = []
        walls: Dict[int, List[float]] = {}
        by_seed = self.by_seed
        try:
            for i in range(SETUP_SAMPLES):
                rec = self.spawn(self.seeds[i % len(self.seeds)], "setup")
                setups.append(self.at_nominal(rec, "setup_s"))
            i = 0
            took: List[float] = []
            # Start another whole run only while it should end inside
            # the window, so slow host spells do not stretch the run.
            while i < len(self.seeds) or (
                    time.monotonic() - t0 + statistics.median(took)
                    <= seconds):
                cs = self.seeds[i % len(self.seeds)]
                started = time.monotonic()
                rec = self.spawn(cs, "full")
                took.append(time.monotonic() - started)
                self.check(cs, rec)
                fulls.append(rec)
                by_seed.setdefault(cs, rec)
                walls.setdefault(cs, []).append(self.at_nominal(rec, "wall_s"))
                setups.append(self.at_nominal(rec, "setup_s"))
                log(f"run {i + 1}: seed {cs} wall {rec['wall_s']:.3f}s "
                    f"({walls[cs][-1]:.3f}s nominal) setup "
                    f"{rec['setup_s']:.3f}s host ref "
                    f"{rec['host_ref_s'] * 1e3:.1f}ms events {rec['events']} "
                    f"digest {rec['digest']}")
                i += 1
        except WorkerFailed as exc:
            self.crashed(exc)
        if not fulls:
            return {}
        samples = {
            "wall_s": [w for ws in walls.values() for w in ws],
            "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_mb"] for r in fulls],
            "sim_makespan_s": [r["sim_makespan_s"] for r in by_seed.values()],
            "sim_job_p50_s": [r["sim_job_p50_s"] for r in by_seed.values()],
            "host.ref_s": [r["host_ref_s"] for r in fulls],
        }
        self.samples = samples
        # Host times are scaled to the nominal host speed (see
        # HOST_REF_NOMINAL_S): this host's speed drifts by up to 2x over
        # minutes, and the reference spins beside each run follow that
        # drift.  Bursts the spins miss are left; the window's mean
        # averages them out, each cluster seed weighted alike.  Set-up,
        # with many more samples, takes the median.  Simulated times are
        # exact per cluster seed and often two-valued across seeds (a late
        # straggler hits the last job or not), so they take the mean over
        # the seeds.
        values = {k: statistics.median(v) for k, v in samples.items()}
        values["wall_s"] = statistics.fmean(
            statistics.fmean(ws) for ws in walls.values())
        for k in ("sim_makespan_s", "sim_job_p50_s"):
            values[k] = statistics.fmean(samples[k])
        values["job_success_frac"] = 1.0 - self.failed / self.attempted
        return values

    # -- trace 1 -----------------------------------------------------------
    def measure_traced(self, spans_dir: str) -> Dict[str, float]:
        cs = self.seeds[0]
        spans_out = os.path.join(
            spans_dir, f"spans-{self.workload.name}-seed{cs}.json")
        try:
            base = self.spawn(cs, "full")
            self.check(cs, base)
            traced = self.spawn(cs, "traced", spans_out)
            self.check(cs, traced)
        except WorkerFailed as exc:
            self.crashed(exc)
            return {}
        log(f"untraced wall {base['wall_s']:.3f}s, traced wall "
            f"{traced['wall_s']:.3f}s, {traced['span_count']} spans "
            f"(written to {os.path.relpath(spans_out, self.root)})")
        return layer_metrics(base, traced)


def pass_stats(hist: List[int]) -> tuple:
    """``(passes, mean demands per pass)`` from the channel's power-of-two
    pass-size histogram (bucket ``i`` counts passes over
    ``[2**(i-1), 2**i)`` demands).  The mean takes each bucket at the
    mean of its integer range, so it is an estimate to within a bucket."""
    passes = sum(hist)
    if not passes:
        return 0, 0.0
    total = 0.0
    for i, n in enumerate(hist):
        if i and n:
            lo, hi = 2 ** (i - 1), 2 ** i - 1
            total += n * (lo + hi) / 2.0
    return passes, total / passes


def layer_metrics(base: dict, traced: dict) -> Dict[str, float]:
    """Per-layer values from an untraced and a traced run of one seed."""
    wall = traced["wall_s"]
    self_s = dict(traced["layer_self_s"])
    # Time outside every span (the benchmark's own glue between calls)
    # is the harness's: charge it to the runner.
    self_s["runner"] += traced["outside_spans_s"]
    # Self times are net of the calibrated tracer cost; shares are taken
    # of their sum (trace.self_sum_ratio shows how close that sum comes
    # to the untraced wall time).
    total = sum(self_s.values())
    v: Dict[str, float] = {}
    for layer in LAYERS:
        v[f"{layer}.self_s"] = self_s[layer]
        v[f"{layer}.share"] = self_s[layer] / total

    ch = traced["channel"]
    passes, mean_demands = pass_stats(ch["pass_size_hist"])
    fast = (ch["arrival_fast_paths"] + ch["departure_fast_paths"]
            + ch["completion_fast_paths"])
    v["channel.passes"] = passes
    v["channel.pass_demands_mean"] = mean_demands
    # Rate changes settled without a pass, over all rate changes.
    v["channel.fastpath_ratio"] = fast / (fast + passes) if fast + passes \
        else 0.0
    for key in ("uniform_joins", "uniform_pins", "departure_fast_paths",
                "cross_partition_passes"):
        v[f"channel.{key}"] = ch[key]

    eng = traced["engine"]
    v["engine.events"] = traced["events"]
    v["engine.events_per_s"] = traced["events"] / base["wall_s"]
    v["engine.timer_pool_reuses"] = eng["timer_pool_reuses"]
    v["engine.batch_mean"] = eng["dispatched"] / eng["batches"]

    ctl = traced["control"]
    v["mapreduce.heartbeats"] = ctl["heartbeats"]
    v["mapreduce.heartbeats_per_round"] = (ctl["heartbeats"]
                                           / ctl["heartbeat_rounds"])
    calls, inclusive, _ = traced["span_stats"][
        "mapreduce:repro.mapreduce.jobtracker.JobTracker.heartbeat"]
    v["mapreduce.heartbeat_us"] = inclusive / calls * 1e6
    v["mapreduce.sched_index_updates"] = ctl["sched_index_updates"]

    hdfs = traced["hdfs"]
    v["hdfs.block_reports"] = hdfs["block_reports"]
    started = hdfs.get("replications_started", 0)
    v["hdfs.replications_started"] = started
    v["hdfs.replication_success_ratio"] = (
        hdfs.get("replications_completed", 0) / started if started else 1.0)

    grid = traced["grid"]
    v["grid.glidein_start_ratio"] = (grid["glideins_started"]
                                     / grid["glideins_submitted"])
    v["faults.invariant_checks"] = (traced["invariants"] or {}).get(
        "checks_run", 0)

    for phase in ("ramp", "preload", "workload"):
        v[f"runner.{phase}_s"] = base["phases"][phase]
    v["trace.overhead_ratio"] = wall / base["wall_s"]
    # How well the cost compensation recovers the untraced wall (1.0 is
    # exact).
    v["trace.self_sum_ratio"] = total / base["wall_s"]
    v["trace.spans"] = traced["span_count"]
    v["host.ref_s"] = statistics.median([base["host_ref_s"],
                                         traced["host_ref_s"]])
    return v


def tail_percentile(samples: List[float]) -> Optional[tuple]:
    """The highest of p50/p90/p99/p99.9 with at least ten samples above
    it, as ``(p, value)``; ``None`` below twenty samples."""
    xs = sorted(samples)
    n = len(xs)
    for p in (99.9, 99.0, 90.0, 50.0):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return None


def report_end_to_end(run: Run, values: Dict[str, float],
                      specs: List[dict]) -> None:
    log(f"{run.workload.name}: seed {run.seed}, cluster seeds {run.seeds}")
    log(f"{'metric':<18} {'unit':<7} {'n':>3} {'median':>12} "
        f"{'reported':>12}  tail")
    for m in specs + [{"name": "host.ref_s", "unit": "s"}]:
        xs = run.samples.get(m["name"])
        if m["name"] == "job_success_frac" and run.attempted:
            xs = [values[m["name"]]]
        if not xs:
            continue
        tail = tail_percentile(xs)
        tail_s = (f"p{tail[0]:g} {tail[1]:.6g}" if tail
                  else "none (under 20 samples)")
        log(f"{m['name']:<18} {m['unit']:<7} {len(xs):>3} "
            f"{statistics.median(xs):>12.6g} {values[m['name']]:>12.6g}  "
            f"{tail_s}")
    for cs, rec in run.by_seed.items():
        log(f"seed {cs}: digest {rec['digest']}, {rec['jobs_scheduled']} "
            f"jobs, {rec['events']} events")


def report_layers(run: Run, values: Dict[str, float],
                  cprofile: Dict[str, Dict[str, float]]) -> None:
    ref = cprofile.get(run.workload.name, {})
    log(f"{run.workload.name}: layer self time (traced run)")
    log(f"{'layer':<10} {'self_s':>9} {'share %':>8} {'cProfile %':>11}")
    for layer in LAYERS:
        share = 100.0 * values[f"{layer}.share"]
        cp = ref.get(layer)
        log(f"{layer:<10} {values[f'{layer}.self_s']:>9.3f} {share:>8.1f} "
            f"{'' if cp is None else f'{cp:g}':>11}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke sizes (self-tests)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(f"perfbench: no program under {root}/src/repro",
              file=sys.stderr)
        return 2
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}",
              file=sys.stderr)
        return 2
    problems = validate_benchmark(bench)
    if problems:
        print("perfbench: malformed BENCHMARK.json: " + "; ".join(problems),
              file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2

    with open(os.path.join(HERE, "reasoning.json")) as fh:
        cprofile = json.load(fh)["cprofile_shares"]
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    names = ([w["name"] for w in bench["workloads"]]
             if args.workload == "all" else [args.workload])
    deadline = time.monotonic() + RUN_DEADLINE_S * len(names)
    correct, attempted, failed = True, 0, 0
    metrics: Dict[str, dict] = {}
    for name in names:
        run = Run(root, name, args.seed, args.tiny, deadline)
        if args.trace:
            values = run.measure_traced(os.path.join(root, ".perfbench"))
            if values:
                report_layers(run, values, cprofile)
        else:
            values = run.measure(bench["run_seconds"] if args.seconds is None
                                 else args.seconds)
            if values:
                report_end_to_end(run, values, specs)
        for p in run.problems:
            log(f"CHECK FAILED {name}: {p}")
        missing = [m["name"] for m in specs if m["name"] not in values]
        if values and missing:
            log(f"CHECK FAILED {name}: metrics not produced: {missing}")
        correct = correct and run.correct and bool(values) and not missing
        attempted += run.attempted
        failed += run.failed
        prefix = f"{name}." if len(names) > 1 else ""
        for m in specs:
            if m["name"] in values:
                metrics[prefix + m["name"]] = {"value": values[m["name"]],
                                               "unit": m["unit"]}
    print(json.dumps(result_line(correct, max(attempted, 1), failed,
                                 metrics)))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
