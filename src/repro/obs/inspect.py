"""Result-file inspector and run-diff CLI.

Usage::

    python -m repro.obs.inspect result.json
    python -m repro.obs.inspect result.json --no-plots
    python -m repro.obs.inspect new.json --diff old.json

Without ``--diff``, renders one ``ScenarioResult`` JSON (or a
``BENCH_scale.json`` report) for terminal reading: the registry-fed
counter sections, the engine self-profile, the tracer roll-up, the
per-phase memory table (collector runs, peak RSS), and — when the run
sampled gauges — per-phase timeline plots drawn with
:mod:`repro.metrics.ascii_plot`.

With ``--diff BASELINE``, compares BASELINE (old) against the
positional file (new) through :func:`repro.obs.diff.diff_reports` and
exits 1 when any threshold-flagged regression is found — the same
engine that backs ``benchmarks/bench_scale_sweep.py --check-against``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from ..metrics.ascii_plot import plot_series
from .diff import Thresholds, diff_reports

__all__ = ["main"]

#: ScenarioResult sections rendered as counter tables, in display order.
_COUNTER_SECTIONS = ("channel", "control", "hdfs", "locality",
                     "preemptions", "balancer", "faults", "invariants",
                     "engine", "trace")


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return f"{value:,.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, list):
        return "[" + ", ".join(str(v) for v in value) + "]"
    return str(value)


def _print_section(name: str, section: dict, out: List[str]) -> None:
    out.append(f"\n[{name}]")
    width = max((len(k) for k in section), default=0)
    for key, value in section.items():
        if isinstance(value, dict):
            out.append(f"  {key}:")
            for k2, v2 in value.items():
                out.append(f"    {k2:{width}s} {_fmt_value(v2)}")
        else:
            out.append(f"  {key:{width}s} {_fmt_value(value)}")


def _fmt_rss(rss: Optional[float]) -> str:
    return "?" if rss is None else f"{rss:.1f}MiB"


def _memory_totals(memory: Optional[dict]) -> str:
    """``gc=[g0, g1, g2] maxrss=X MiB`` over a record's memory phases."""
    phases = (memory or {}).get("phases") or []
    if not phases:
        return ""
    totals = [sum(col) for col in zip(*(p["gc_collections"] for p in phases))]
    return (f"gc={_fmt_value(totals)} "
            f"maxrss={_fmt_rss(phases[-1].get('maxrss_mb'))}")


def _render_memory(memory: Optional[dict], out: List[str]) -> None:
    phases = (memory or {}).get("phases") or []
    if not phases:
        return
    out.append("\n[memory]  collector runs per generation, peak RSS so far")
    for p in phases:
        gen = p["gc_collections"]
        out.append(f"  {p['name']:10s} gc0={gen[0]:>5} gc1={gen[1]:>4} "
                   f"gc2={gen[2]:>3}  "
                   f"maxrss={_fmt_rss(p.get('maxrss_mb'))}")
    out.append(f"  {'total':10s} {_memory_totals(memory)}")


def _render_result(record: dict, width: int, plots: bool) -> str:
    out: List[str] = []
    out.append(f"scenario {record.get('scenario', '?')!r}  "
               f"nodes={record.get('nodes')}  seed={record.get('seed')}  "
               f"scale={record.get('scale')}  "
               f"schema=v{record.get('schema_version', 1)}")
    out.append(f"  makespan={record.get('makespan_seconds')}s  "
               f"sim={record.get('sim_seconds')}s  "
               f"wall={record.get('wall_seconds')}s  "
               f"events={_fmt_value(record.get('events', 0))}  "
               f"events/s={_fmt_value(record.get('events_per_second') or 0)}")
    out.append(f"  jobs_completed={record.get('jobs_completed')}  "
               f"failed_jobs={record.get('failed_jobs')}")
    phases = record.get("phases") or []
    if phases:
        out.append("\n[phases]")
        for p in phases:
            out.append(f"  {p['name']:10s} sim={p['sim_seconds']:>10.1f}s  "
                       f"wall={p.get('wall_seconds', 0):.3f}s")
    for name in _COUNTER_SECTIONS:
        section = record.get(name)
        if section:
            _print_section(name, section, out)
    _render_memory(record.get("memory"), out)
    timelines = record.get("timelines")
    if timelines and plots:
        for phase, gauges in timelines.items():
            for gname, series in gauges.items():
                ts, vs = series["t"], series["v"]
                if len(ts) < 2:
                    continue
                out.append("")
                out.append(plot_series(
                    ts, vs, width=width,
                    title=f"{phase}: {gname} "
                          f"(n={len(ts)}, max={max(vs):g})"))
    elif timelines:
        n = sum(len(g["t"]) for gauges in timelines.values()
                for g in gauges.values())
        out.append(f"\n[timelines] {len(timelines)} phase(s), "
                   f"{n} samples (re-run without --no-plots to draw)")
    return "\n".join(out)


def _render_bench(report: dict, out: List[str]) -> None:
    out.append(f"benchmark report: {report.get('benchmark', '?')}")
    if report.get("host_ref_s") is not None:
        out.append(f"  host reference spin {report['host_ref_s']:.3f}s")
    for section in ("points", "contended_points", "frontier_points"):
        recs = report.get(section) or []
        if not recs:
            continue
        out.append(f"\n[{section}]")
        for rec in recs:
            line = (
                f"  {rec.get('scenario', '?'):18s}@{rec.get('nodes'):>6}: "
                f"wall={rec.get('wall_seconds', 0):.2f}s  "
                f"events/s={_fmt_value(rec.get('events_per_second') or 0)}  "
                f"makespan={rec.get('makespan_seconds')}s")
            control = rec.get("control") or {}
            if "parked_beats" in control:
                line += (f"  parked={control['parked_beats']} "
                         f"wakes={control['park_wakes']} "
                         f"ties={control['park_ties']}")
            memory = _memory_totals(rec.get("memory"))
            if memory:
                line += f"  {memory}"
            out.append(line)


def _run_diff(old: dict, new: dict, t: Thresholds) -> int:
    entries, notes = diff_reports(old, new, t)
    for note in notes:
        print(f"note: {note}")
    if not entries and not notes:
        print("no numeric differences")
        return 0
    flagged = [e for e in entries if e.flag]
    for entry in entries:
        print(entry.format())
    print(f"\n{len(entries)} changed value(s), {len(flagged)} flagged")
    return 1 if flagged else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.inspect", description=__doc__.splitlines()[0])
    parser.add_argument("result", type=Path,
                        help="ScenarioResult or BENCH_scale.json file")
    parser.add_argument("--diff", type=Path, default=None, metavar="OLD",
                        help="baseline file: report threshold-flagged "
                             "regressions of RESULT vs OLD, exit 1 on any")
    parser.add_argument("--no-plots", action="store_true",
                        help="skip the ascii timeline plots")
    parser.add_argument("--width", type=int, default=72,
                        help="plot width in columns (default 72)")
    parser.add_argument("--wall-tolerance", type=float, default=None,
                        help="allowed fractional wall-clock growth "
                             "(default 0.5)")
    parser.add_argument("--eps-floor", type=float, default=None,
                        help="events/s floor as a fraction of old "
                             "(default 0.8)")
    parser.add_argument("--fastpath-drop", type=float, default=None,
                        help="allowed absolute fast-path-rate drop "
                             "(default 0.05)")
    parser.add_argument("--behaviour-tolerance", type=float, default=None,
                        help="allowed fractional behaviour-metric change "
                             "(default 0.05)")
    parser.add_argument("--noise-floor", type=float, default=None,
                        help="omit changes smaller than this fraction")
    args = parser.parse_args(argv)

    record = json.loads(args.result.read_text())
    if args.diff is not None:
        baseline = json.loads(args.diff.read_text())
        t = Thresholds()
        for name in ("wall_tolerance", "eps_floor", "fastpath_drop",
                     "behaviour_tolerance", "noise_floor"):
            value = getattr(args, name)
            if value is not None:
                setattr(t, name, value)
        return _run_diff(baseline, record, t)

    out: List[str] = []
    if "benchmark" in record or "points" in record:
        _render_bench(record, out)
        print("\n".join(out))
    else:
        print(_render_result(record, args.width, not args.no_plots))
    return 0


if __name__ == "__main__":
    sys.exit(main())
