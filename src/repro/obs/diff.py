"""Run-diff engine: threshold-flagged comparison of result records.

Compares two :class:`~repro.scenarios.runner.ScenarioResult` JSON records
or two ``BENCH_scale.json`` reports and classifies every numeric change.
Three kinds of key get dedicated regression rules; everything else is
reported as informational drift:

- **wall clock** (``wall_seconds``): noisy by nature (background load) —
  flagged only when the new value exceeds the old by more than
  ``wall_tolerance`` (fractional, default ±50%);
- **throughput** (``events_per_second``): flagged when the new value
  falls below ``eps_floor`` × old (default 0.8), only if both records
  count the same ``events`` (else the wall rule judges alone);
- **fast-path rate** (derived: fast-path hits / (hits + filling
  passes)): flagged when it drops more than ``fastpath_drop`` absolute
  points (default 0.05) — the PR 7 frontier must not silently erode;
- **behaviour** (``makespan_seconds`` / ``workload_response_seconds``,
  ``failed_jobs``): any change beyond ``behaviour_tolerance`` flags,
  in *either* direction — a simulation-determined value moving means
  the model changed, which a perf PR must own explicitly;
- **fault metrics** (``blocks_all_replicas_lost``,
  ``lost_blocks_final``, ``under_replicated_final``...): recovery-health
  leaves that are zero in a converged run.  Any *increase* flags —
  in particular data loss appearing in a scenario whose baseline never
  lost a block is always a regression, with no tolerance knob.

Consumers: ``python -m repro.obs.inspect --diff`` and
``benchmarks/bench_scale_sweep.py --check-against`` (the CI gate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["Thresholds", "DiffEntry", "flatten_numeric", "fast_path_rate",
           "diff_records", "diff_reports"]

#: Channel counters that constitute "a rate change that skipped the pass".
_FAST_PATH_KEYS = ("arrival_fast_paths", "departure_fast_paths",
                   "completion_fast_paths")
#: Wall-derived keys: never part of the determinism payload, compared
#: only under the loose wall tolerance.
_WALL_SUFFIXES = ("wall_seconds",)
_BEHAVIOUR_SUFFIXES = ("makespan_seconds", "workload_response_seconds")
#: Recovery-health leaves: zero in any converged fault-free run, so any
#: increase is a correctness regression — flagged unconditionally, and a
#: key appearing only on the new side is compared against implicit zero.
_FAULT_SUFFIXES = ("blocks_all_replicas_lost", "lost_blocks_final",
                   "under_replicated_final", "deferred_final",
                   "invalidation_backlog_final", "invariant_violations")


@dataclass
class Thresholds:
    """Flagging knobs for one diff run (fractions, not percents)."""

    #: Allowed fractional wall-clock growth before flagging.
    wall_tolerance: float = 0.50
    #: New events/s must be at least this fraction of the old.
    eps_floor: float = 0.80
    #: Allowed absolute drop in the channel fast-path rate.
    fastpath_drop: float = 0.05
    #: Allowed fractional change of behaviour metrics (makespan etc.).
    behaviour_tolerance: float = 0.05
    #: Informational-drift threshold: numeric changes smaller than this
    #: fraction are omitted from the report entirely.
    noise_floor: float = 0.0


@dataclass
class DiffEntry:
    """One compared value; ``flag`` is ``None`` or the regression rule."""

    key: str
    old: Optional[float]
    new: Optional[float]
    flag: Optional[str] = None

    @property
    def delta(self) -> Optional[float]:
        if self.old is None or self.new is None:
            return None
        return self.new - self.old

    @property
    def pct(self) -> Optional[float]:
        """Fractional change vs. old (None when old is 0 or missing)."""
        if self.old in (None, 0) or self.new is None:
            return None
        return (self.new - self.old) / abs(self.old)

    def format(self) -> str:
        old = "-" if self.old is None else f"{self.old:g}"
        new = "-" if self.new is None else f"{self.new:g}"
        pct = "" if self.pct is None else f" ({self.pct:+.1%})"
        mark = f"  << {self.flag}" if self.flag else ""
        return f"{self.key}: {old} -> {new}{pct}{mark}"


def flatten_numeric(record: dict, prefix: str = "") -> Dict[str, float]:
    """Dot-keyed numeric leaves of a nested record.

    Lists are skipped (histograms and timelines diff poorly element-wise;
    their scalar roll-ups — counts, totals — are already leaves).
    """
    out: Dict[str, float] = {}
    for key, value in record.items():
        path = f"{prefix}{key}"
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[path] = value
        elif isinstance(value, dict):
            out.update(flatten_numeric(value, path + "."))
    return out


def fast_path_rate(flat: Dict[str, float], prefix: str = "") -> Optional[float]:
    """Fraction of channel rate changes resolved without a filling pass.

    Looks for the channel counters under any of the record layouts in
    the wild (``channel.*`` in a ScenarioResult, bare keys in a bench
    point record).
    """
    for ns in (prefix + "channel.", prefix + "registry.channel.", prefix):
        passes = flat.get(ns + "rebalances",
                          flat.get(ns + "fabric_rebalances"))
        if passes is None:
            continue
        hits = sum(flat.get(ns + k, 0) for k in _FAST_PATH_KEYS)
        if hits + passes <= 0:
            return None
        return hits / (hits + passes)
    return None


def _classify(key: str, old: float, new: float, t: Thresholds,
              same_work: bool = True) -> Optional[str]:
    """The regression rule (or None) for one changed value
    (``same_work``: the records' sibling ``events`` counts match)."""
    leaf = key.rsplit(".", 1)[-1]
    if leaf in _FAULT_SUFFIXES:
        if new > old:
            return "fault metric increased (recovery regression)"
        return None
    if leaf in _WALL_SUFFIXES:
        if old > 0 and new > old * (1.0 + t.wall_tolerance):
            return f"wall regression (> +{t.wall_tolerance:.0%})"
        return None
    if leaf == "events_per_second":
        if same_work and old > 0 and new < old * t.eps_floor:
            return f"events/s below {t.eps_floor:.0%} floor"
        return None
    if leaf in _BEHAVIOUR_SUFFIXES:
        if old != 0 and abs(new - old) / abs(old) > t.behaviour_tolerance:
            return (f"behaviour shift (> ±{t.behaviour_tolerance:.0%})")
        if old == 0 and new != 0:
            return "behaviour shift (from zero)"
        return None
    if leaf == "failed_jobs" and new > old:
        return "new job failures"
    return None


def diff_records(old: dict, new: dict,
                 thresholds: Optional[Thresholds] = None,
                 prefix: str = "") -> List[DiffEntry]:
    """Compare two flat-comparable records; flagged entries first.

    Adds the derived ``fast_path_rate`` metric when both sides carry
    channel pass counters.
    """
    t = thresholds or Thresholds()
    fa, fb = flatten_numeric(old), flatten_numeric(new)
    entries: List[DiffEntry] = []
    for key in list(fa) + [k for k in fb if k not in fa]:
        a, b = fa.get(key), fb.get(key)
        if a == b:
            continue
        if a is None or b is None:
            # A fault metric materialising on the new side (old record
            # predates the counter, or the scenario never trashed a
            # replica before) is still data loss: compare against zero.
            flag = None
            if key.rsplit(".", 1)[-1] in _FAULT_SUFFIXES and (b or 0) > (a or 0):
                flag = "fault metric increased (recovery regression)"
            entries.append(DiffEntry(prefix + key, a, b, flag=flag))
            continue
        if a != 0 and abs(b - a) / abs(a) < t.noise_floor:
            continue
        same_work = True
        if key.endswith("events_per_second"):
            events_key = key[:-len("_per_second")]
            same_work = fa.get(events_key) == fb.get(events_key)
        entries.append(DiffEntry(prefix + key, a, b,
                                 flag=_classify(key, a, b, t, same_work)))
    ra, rb = fast_path_rate(fa), fast_path_rate(fb)
    if ra is not None and rb is not None and ra != rb:
        flag = (f"fast-path rate dropped > {t.fastpath_drop:.0%} abs"
                if rb < ra - t.fastpath_drop else None)
        entries.append(DiffEntry(prefix + "fast_path_rate",
                                 round(ra, 4), round(rb, 4), flag=flag))
    entries.sort(key=lambda e: e.flag is None)
    return entries


def _bench_sections(report: dict) -> Dict[str, dict]:
    """Key every record of a BENCH_scale.json report for matching.

    Points are keyed ``points[scenario@nodes]``; the coverage section's
    full ScenarioResults are keyed ``scenarios[name]``.
    """
    out: Dict[str, dict] = {}
    for section in ("points", "contended_points", "frontier_points"):
        for rec in report.get(section) or []:
            out[f"{section}[{rec.get('scenario', '?')}@{rec.get('nodes')}]"] = rec
    for name, rec in (report.get("scenarios") or {}).items():
        out[f"scenarios[{name}]"] = rec
    return out


def diff_reports(old: dict, new: dict,
                 thresholds: Optional[Thresholds] = None
                 ) -> Tuple[List[DiffEntry], List[str]]:
    """Diff two result files of either supported shape.

    Returns ``(entries, notes)`` where ``notes`` lists structural
    differences (records present on only one side).  Accepts a pair of
    ScenarioResult records or a pair of BENCH_scale.json reports; a
    bench report is recognised by its ``benchmark``/``points`` keys.
    """
    notes: List[str] = []
    if "benchmark" in old or "points" in old:
        a, b = _bench_sections(old), _bench_sections(new)
        entries: List[DiffEntry] = []
        for key in list(a) + [k for k in b if k not in a]:
            if key not in a:
                notes.append(f"only in new: {key}")
                continue
            if key not in b:
                notes.append(f"only in old: {key}")
                continue
            entries.extend(diff_records(a[key], b[key], thresholds,
                                        prefix=key + "."))
        entries.sort(key=lambda e: e.flag is None)
        return entries, notes
    return diff_records(old, new, thresholds), notes
