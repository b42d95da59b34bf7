"""Scale-sweep benchmark: fig4-style Facebook workload at 100-1000 nodes.

The perf trajectory anchor for the repo: runs the Table II workload on HOG
deployments of increasing size and records wall-clock, simulated time,
events processed, events/second of wall time, peak concurrent flow count,
and channel-core pass statistics, then writes everything to
``BENCH_scale.json`` next to this script.

All setup comes from the scenario registry
(:mod:`repro.scenarios.registry`); this script owns no cluster/workload
construction of its own.  Two scenarios sweep per node count:

- ``baseline`` — the paper's Table II cost model (what PR 1 recorded);
- ``contended`` — a shuffle-heavy variant (double the intermediate data)
  on slow disks, so shuffle serves and replication streams are genuinely
  *disk*-bottlenecked, exercising the joint disk+network demands.

A third section runs EVERY registry scenario at a small fixed size and
records the full :class:`~repro.scenarios.runner.ScenarioResult` — the
model-coverage anchor keeping wan_staging / hetero_tiers /
rebalance_under_load / churn_heavy measured between releases.

Every sweep point, frontier point and scenario record is the fastest of
three runs of one spec (one run under ``--smoke``), and the runs must
agree on everything but their wall clocks: a single run's wall time
varies more than the events/s floor of ``--check-against`` allows.

The report records a host reference time (``host_ref_s``: the fastest
of a few runs of a fixed pure-Python heap loop).  ``--check-against``
scales the baseline's wall-derived values by the ratio of the two
reports' reference times before judging them, so a baseline recorded
on a faster or slower day is compared at this host's speed; a baseline
without the field is compared unscaled, and the sweep says so.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale_sweep.py              # 100..1000 + 10k frontier
    PYTHONPATH=src python benchmarks/bench_scale_sweep.py --nodes 100 250
    PYTHONPATH=src python benchmarks/bench_scale_sweep.py --smoke      # CI-fast
    PYTHONPATH=src python benchmarks/bench_scale_sweep.py --smoke-100k # 100k survival check
    REPRO_SCALE=0.1 PYTHONPATH=src python benchmarks/bench_scale_sweep.py

Workload scale follows ``REPRO_SCALE`` (default 0.25, like the other
benches); ``--scale`` overrides.  ``--smoke`` shrinks the sweep (one small
node count, tiny scale, every scenario) to a few wall seconds so the
fast test tier can keep the harness itself from rotting.
"""

from __future__ import annotations

import argparse
import copy
import heapq
import json
import os
import sys
import time
from pathlib import Path
from typing import List

if __package__ in (None, ""):
    # Allow running as a plain script without PYTHONPATH set.
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.obs.diff import Thresholds, diff_reports
from repro.scenarios import (ScenarioResult, ScenarioRunner, calibration,
                             registry)
from repro.scenarios.parallel import run_specs_parallel

DEFAULT_NODE_COUNTS = (100, 250, 500, 1000)
DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_scale.json"
#: The 10k-node frontier point.  At this scale the single central package
#: server becomes the physical limit: preempted workers re-download the
#: 75 MB package through one NIC (~1.67 replacements/s), so under the
#: baseline churn policy (~1/4000 per node-second) the sustainable
#: running count tops out near 6.7k nodes regardless of how many pilots
#: are submitted.  The frontier point therefore ramps to 50% — the honest
#: achievable target — and then drives the workload.
FRONTIER_NODES = 10_000
FRONTIER_SCALE = 0.02
FRONTIER_RAMP_FRACTION = 0.5
#: ``--smoke-100k``: a control-plane survival check, not a perf anchor.
#: Same physics as the frontier point, an order of magnitude more pilots:
#: the ramp download alone spans ~60k simulated seconds, and the
#: sustainable running count is still ~6.7k, hence the 5% ramp target.
SMOKE_100K_NODES = 100_000
SMOKE_100K_SCALE = 0.01
SMOKE_100K_RAMP_FRACTION = 0.05
#: Sizing of the every-scenario coverage section (kept small: it is a
#: model-coverage anchor, not a scaling anchor).
SCENARIO_SECTION_NODES = 40
SCENARIO_SECTION_SCALE = 0.05
#: Gauge-sampling cadence for sweep points (sim-seconds).  Probe ticks
#: are subtracted from the reported event count and never influence
#: decisions, so the perf keys stay comparable with pre-obs baselines.
BENCH_SAMPLE_INTERVAL = 60.0
BENCH_TIMELINE_POINTS = 128
#: Runs of the host reference loop; the fastest is recorded.
HOST_REF_SPINS = 5
#: Sections whose records carry top-level wall-derived values.
_POINT_SECTIONS = ("points", "contended_points", "frontier_points")


def host_reference_s(spins: int = HOST_REF_SPINS) -> float:
    """Seconds this host takes, at best of ``spins``, for a fixed
    pure-Python heap loop: the pop/push-and-call shape of the engine's
    dispatch, so its time follows the host's speed at simulator work."""
    best = float("inf")
    for _ in range(spins):
        t0 = time.perf_counter()
        heap = [(float(i % 97), i) for i in range(2048)]
        heapq.heapify(heap)
        pop, push = heapq.heappop, heapq.heappush
        for _ in range(100_000):
            when, i = pop(heap)
            push(heap, (when + 1.0 + (i % 7), i))
        best = min(best, time.perf_counter() - t0)
    return best


def scale_to_host(baseline: dict, factor: float) -> dict:
    """A copy of a bench report as if recorded on a host ``factor`` times
    slower: every record's ``wall_seconds`` times ``factor``, its
    ``events_per_second`` divided by it."""
    scaled = copy.deepcopy(baseline)
    records = [rec for section in _POINT_SECTIONS
               for rec in scaled.get(section) or []]
    records += list((scaled.get("scenarios") or {}).values())
    for rec in records:
        if rec.get("wall_seconds") is not None:
            rec["wall_seconds"] = rec["wall_seconds"] * factor
        if rec.get("events_per_second") is not None:
            rec["events_per_second"] = rec["events_per_second"] / factor
    return scaled


def contended_loadgen():
    """The ``contended`` registry scenario's loadgen (2x intermediate
    data) — exposed for tests."""
    return registry.build("contended").workload.loadgen


def contended_node():
    """The ``contended`` registry scenario's half-speed-disk node config —
    exposed for tests."""
    return registry.build("contended").cluster.node


def _fastest(label: str, group: List[dict], payload_of) -> dict:
    """The fastest of ``group``'s runs of one spec, which must agree on
    ``payload_of`` (everything but their wall clocks)."""
    payload = payload_of(group[0])
    if any(payload_of(r) != payload for r in group[1:]):
        raise RuntimeError(f"{label}: {len(group)} runs of one spec "
                           f"produced different payloads")
    return min(group, key=lambda r: r["wall_seconds"])


def _point_payload(record: dict) -> dict:
    """A sweep-point record without its wall-clock and memory fields."""
    return {k: v for k, v in record.items()
            if k not in ("wall_seconds", "events_per_second", "memory")}


def run_point(n_nodes: int, scale: float, seed: int,
              scenario: str = "baseline",
              ramp_fraction: float = 0.98, runs: int = 1) -> dict:
    """One sweep point: run the registry scenario ``runs`` times, return
    the perf record of the fastest run."""
    records = [_run_once(n_nodes, scale, seed, scenario, ramp_fraction)
               for _ in range(runs)]
    return _fastest(f"{scenario}@{n_nodes}", records, _point_payload)


def _run_once(n_nodes: int, scale: float, seed: int, scenario: str,
              ramp_fraction: float) -> dict:
    """One run of a sweep point's spec: its perf record."""
    spec = registry.build(scenario, n_nodes=n_nodes, scale=scale,
                          seed=seed + n_nodes)
    # Under churn the running count hovers just below the target while
    # replacements re-download the worker package; waiting for a 100%
    # lull at 1000 nodes costs simulated *hours*.  98% matches the
    # paper's fluctuation-tolerant reading of "reaches this number".
    # (Frontier points pass a lower fraction: beyond ~6.7k nodes the
    # central package server caps the sustainable count itself.)
    spec.cluster.ramp_fraction = ramp_fraction
    spec.obs.sample_interval = BENCH_SAMPLE_INTERVAL
    spec.obs.timeline_max_points = BENCH_TIMELINE_POINTS
    # Engine self-profile (dispatch mix, pool reuses, batch sizes):
    # observational only, and the evidence for where dispatch work goes.
    spec.obs.profile_engine = True
    runner = ScenarioRunner(spec)
    result = runner.run()
    return {
        "nodes": n_nodes,
        "scenario": scenario,
        "scale": scale,
        "ramp_fraction": ramp_fraction,
        "seed": spec.seed,
        "wall_seconds": round(result.wall_seconds, 3),
        "sim_seconds": round(result.sim_seconds, 1),
        "events": result.events,
        "events_per_second": result.events_per_second,
        "peak_flows": result.channel["peak_flows"],
        "peak_demands": result.channel["peak_demands"],
        "fabric_rebalances": result.channel["rebalances"],
        "uniform_groups": result.channel["uniform_groups"],
        "uniform_completions": result.channel["uniform_completions"],
        "uniform_joins": result.channel["uniform_joins"],
        "cross_partition_passes": result.channel["cross_partition_passes"],
        "arrival_fast_paths": result.channel["arrival_fast_paths"],
        "departure_fast_paths": result.channel["departure_fast_paths"],
        "completion_fast_paths": result.channel["completion_fast_paths"],
        "timer_reaims": result.channel["timer_reaims"],
        # Region-pass rounds that grew the region, and passes that pinned
        # a live uniform group.
        "region_expansions": result.channel["region_expansions"],
        "uniform_pins": result.channel["uniform_pins"],
        # Power-of-two histogram of filling-pass component sizes (bucket i
        # counts passes over [2^(i-1), 2^i) demands; trailing zeros trimmed).
        "pass_size_hist": result.channel["pass_size_hist"],
        "starvation_rescues": result.channel["starvation_rescues"],
        "workload_response_seconds": round(result.makespan_seconds, 1),
        "failed_jobs": result.failed_jobs,
        # Control-plane counters: heartbeat rounds vs. raw heartbeats and
        # the index-update totals (the work the delta-driven path does
        # *instead of* rescanning every job per heartbeat).
        "control": dict(result.control),
        # The full registry snapshot and the sampled per-phase gauge
        # timelines — the obs sections the diff/inspect tooling reads.
        "registry": runner.system.registry.snapshot(),
        "timelines": result.timelines,
        # Dispatch-loop self-profile: event mix, callback-timer fires,
        # free-list reuses, and same-instant batch sizes.
        "engine": result.engine,
        # Per-phase collector runs and peak RSS (obs-only).
        "memory": result.memory,
    }


def run_scenario_section(nodes: int, scale: float, seed: int,
                         skip=(), workers: int = 1, runs: int = 3) -> dict:
    """Every registry scenario at one small size: full results.

    Each scenario runs ``runs`` times and keeps the record of its
    fastest run; the runs must produce identical simulation payloads.
    ``workers > 1`` fans the runs out over a process pool (payloads are
    identical to a serial run; only wall-clock fields differ)."""
    names = [n for n in registry.names() if n not in skip]
    specs = [registry.build(n, n_nodes=nodes, scale=scale, seed=seed)
             for n in names for _ in range(runs)]
    print(f"[scale-sweep] {len(names)} scenarios x {runs} run(s) @ "
          f"{nodes} nodes, scale {scale}, {max(1, workers)} worker(s) ...",
          flush=True)
    records = run_specs_parallel(specs, workers)
    section = {}
    for k, name in enumerate(names):
        section[name] = _fastest(f"scenario {name!r}",
                                 records[k * runs:(k + 1) * runs],
                                 ScenarioResult.payload_of)
    for name, rec in section.items():
        print(f"[scale-sweep]   {name}[{rec['nodes']}]: "
              f"makespan={rec['makespan_seconds']:.0f}s "
              f"wall={rec['wall_seconds']:.2f}s events={rec['events']} "
              f"failed={rec['failed_jobs']}", flush=True)
    return section


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, nargs="+",
                        default=list(DEFAULT_NODE_COUNTS),
                        help="HOG node counts to sweep (default: %(default)s)")
    parser.add_argument("--scale", type=float,
                        default=float(os.environ.get("REPRO_SCALE", "0.25")),
                        help="workload scale in (0, 1] (default: REPRO_SCALE or 0.25)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scenarios", nargs="+",
                        default=["baseline", "contended"],
                        choices=["baseline", "contended"],
                        help="which workload scenarios to sweep over node "
                             "counts (the coverage section always runs all)")
    parser.add_argument("--no-scenario-section", action="store_true",
                        help="skip the every-scenario coverage section")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sweep (one small point per scenario) for "
                             "the fast test tier")
    parser.add_argument("--no-frontier", action="store_true",
                        help="skip the 10k-node frontier point")
    parser.add_argument("--parallel", type=int, default=1, metavar="N",
                        help="worker processes for the every-scenario "
                             "coverage section (default: serial)")
    parser.add_argument("--smoke-100k", action="store_true",
                        help="run ONLY the 100k-node control-plane survival "
                             "check (writes BENCH_scale_100k.json unless "
                             "--output is given)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write the JSON report")
    parser.add_argument("--check-against", type=Path, default=None,
                        metavar="BASELINE",
                        help="diff the fresh report against this older "
                             "BENCH_scale.json and exit 1 on any "
                             "threshold-flagged regression (wall "
                             "tolerance, events/s floor, fast-path-rate "
                             "floor, behaviour shifts)")
    parser.add_argument("--check-wall-tolerance", type=float, default=None,
                        help="allowed fractional wall growth for "
                             "--check-against (default 0.5)")
    parser.add_argument("--check-eps-floor", type=float, default=None,
                        help="events/s floor as a fraction of the "
                             "baseline (default 0.8)")
    parser.add_argument("--check-fastpath-drop", type=float, default=None,
                        help="allowed absolute fast-path-rate drop "
                             "(default 0.05)")
    args = parser.parse_args(argv)
    host_ref = round(host_reference_s(), 4)
    print(f"[scale-sweep] host reference spin {host_ref:.3f}s", flush=True)

    if args.smoke_100k:
        if args.output == DEFAULT_OUTPUT:
            args.output = DEFAULT_OUTPUT.with_name("BENCH_scale_100k.json")
        print(f"[scale-sweep] 100k smoke: {SMOKE_100K_NODES} nodes @ scale "
              f"{SMOKE_100K_SCALE}, ramp to "
              f"{SMOKE_100K_RAMP_FRACTION:.0%} ...", flush=True)
        record = run_point(SMOKE_100K_NODES, SMOKE_100K_SCALE, args.seed,
                           ramp_fraction=SMOKE_100K_RAMP_FRACTION)
        _report(record)
        report = {
            "benchmark": "bench_scale_sweep --smoke-100k",
            "description": "100k-pilot control-plane survival check "
                           "(ramp capped by the central package server)",
            "python": sys.version.split()[0],
            "host_ref_s": host_ref,
            "points": [record],
        }
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"[scale-sweep] wrote {args.output}")
        tied = _check_parking(report)
        return _check_against(args, report) or tied

    nodes = args.nodes
    scale = args.scale
    # The contended scenario is a model-coverage anchor, not a scaling
    # anchor: run it at the two smallest node counts only.
    contended_nodes = sorted(nodes)[:2]
    section_nodes, section_scale = SCENARIO_SECTION_NODES, SCENARIO_SECTION_SCALE
    section_skip = ()
    if args.smoke:
        nodes = [30]
        contended_nodes = [30]
        scale = 0.04
        # The sweep points above already cover baseline and contended at
        # this exact size; re-running them in the section buys nothing.
        section_nodes, section_scale = 30, 0.04
        section_skip = ("baseline", "contended")
    runs = 1 if args.smoke else 3

    points = []
    contended_points = []
    for n in nodes:
        if "baseline" in args.scenarios:
            print(f"[scale-sweep] running {n} nodes @ scale {scale} x "
                  f"{runs} run(s) ...", flush=True)
            record = run_point(n, scale, args.seed, runs=runs)
            points.append(record)
            _report(record)
    for n in contended_nodes:
        if "contended" in args.scenarios:
            print(f"[scale-sweep] running {n} nodes @ scale {scale} x "
                  f"{runs} run(s) (shuffle-heavy, slow disks) ...",
                  flush=True)
            record = run_point(n, scale, args.seed, scenario="contended",
                               runs=runs)
            contended_points.append(record)
            _report(record)

    frontier_points = []
    if not args.smoke and not args.no_frontier and "baseline" in args.scenarios:
        print(f"[scale-sweep] frontier: {FRONTIER_NODES} nodes @ scale "
              f"{FRONTIER_SCALE}, ramp to {FRONTIER_RAMP_FRACTION:.0%} x "
              f"{runs} run(s) ...", flush=True)
        record = run_point(FRONTIER_NODES, FRONTIER_SCALE, args.seed,
                           ramp_fraction=FRONTIER_RAMP_FRACTION, runs=runs)
        frontier_points.append(record)
        _report(record)

    scenario_section = {}
    if not args.no_scenario_section:
        scenario_section = run_scenario_section(
            section_nodes, section_scale, args.seed, skip=section_skip,
            workers=args.parallel, runs=runs)

    report = {
        "benchmark": "bench_scale_sweep",
        "description": "fig4-style Facebook workload on HOG at increasing "
                       "node counts (unified max-min channel core with "
                       "arrival/completion fast paths and pass-size "
                       "telemetry), plus every registry scenario; each "
                       "record is the fastest of its runs",
        "python": sys.version.split()[0],
        "host_ref_s": host_ref,
        "points": points,
        "contended_points": contended_points,
        "frontier_points": frontier_points,
        "scenarios": scenario_section,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[scale-sweep] wrote {args.output}")
    tied = _check_parking(report)
    return _check_against(args, report) or tied


def _check_parking(report: dict) -> int:
    """Heartbeat parking met no ambiguous tie at any point: a tie marks a
    run whose result may differ from the same run without parking
    (:mod:`repro.sim.liveness`).  Non-zero on any."""
    records = [rec for section in ("points", "contended_points",
                                   "frontier_points")
               for rec in report.get(section, ())]
    records += list(report.get("scenarios", {}).values())
    tied = [rec for rec in records if rec["control"].get("park_ties")]
    for rec in tied:
        print(f"[scale-sweep] PARKING TIES {rec['scenario']}@"
              f"{rec['nodes']}: {rec['control']['park_ties']}")
    return 1 if tied else 0


def _check_against(args, report: dict) -> int:
    """The CI regression gate: diff the fresh report against a baseline
    through :mod:`repro.obs.diff`; non-zero exit on any flagged entry."""
    if args.check_against is None:
        return 0
    baseline = json.loads(args.check_against.read_text())
    thresholds = Thresholds()
    if args.check_wall_tolerance is not None:
        thresholds.wall_tolerance = args.check_wall_tolerance
    if args.check_eps_floor is not None:
        thresholds.eps_floor = args.check_eps_floor
    if args.check_fastpath_drop is not None:
        thresholds.fastpath_drop = args.check_fastpath_drop
    old_ref, new_ref = baseline.get("host_ref_s"), report.get("host_ref_s")
    if old_ref and new_ref:
        factor = new_ref / old_ref
        baseline = scale_to_host(baseline, factor)
        print(f"[scale-sweep] host reference {old_ref:.3f}s -> "
              f"{new_ref:.3f}s: baseline wall values scaled x{factor:.2f}")
    else:
        print("[scale-sweep] baseline or report has no host_ref_s: "
              "wall values compared unscaled")
    entries, notes = diff_reports(baseline, report, thresholds)
    for note in notes:
        print(f"[scale-sweep] note: {note}")
    flagged = [e for e in entries if e.flag]
    for entry in flagged:
        print(f"[scale-sweep] REGRESSION {entry.format()}")
    print(f"[scale-sweep] check-against {args.check_against}: "
          f"{len(entries)} changed value(s), {len(flagged)} flagged")
    return 1 if flagged else 0


def _report(record: dict) -> None:
    print(f"[scale-sweep]   {record['wall_seconds']:.2f}s wall, "
          f"{record['events']} events "
          f"({record['events_per_second']}/s), "
          f"peak {record['peak_flows']} flows, "
          f"response {record['workload_response_seconds']}s",
          flush=True)


if __name__ == "__main__":
    raise SystemExit(main())
