#!/usr/bin/env python3
"""Payload digests over the behaviour matrix: is a change byte-identical?

Runs the matrix every behaviour-preserving change is checked on and
prints, per run, the sha256 of the result payload JSON without
``events``, the same digest also without ``channel``, ``events``,
``channel.departure_fast_paths``, ``control.park_ties`` and the runtime
invariant violations:

- ``baseline_1k``: ``baseline``, 1000 nodes, scale 0.25, ramp 0.98,
  cluster seeds 1000–1004;
- ``blackout_200``: ``blackout``, 200 nodes, scale 0.25, cluster seeds
  0–4 (both with the job schedule drawn for the first seed, as the
  repository benchmark runs them);
- every registry scenario × {fifo, delay, matchmaking} at 40 nodes,
  seed 3, scale 0.1.

Every run checks the runtime invariants (payloads do not depend on it).

Usage::

    python tools/payload_digests.py                      # this tree
    python tools/payload_digests.py --against OTHER/src  # compare trees
    python tools/payload_digests.py --smoke              # tiny self-check

``--against`` runs both trees (this one and ``OTHER/src``) in two child
processes and exits 1 when any run's payload without ``events`` differs;
``--ignore-channel`` compares the digest without ``channel`` instead,
for changes that move channel counters on purpose.  ``--smoke`` runs one
tiny scenario twice on one tree and exits 1 unless both digests match.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from typing import Dict, List, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEDULERS = ("fifo", "delay", "matchmaking")
#: (label, scenario, nodes, scale, ramp fraction, schedule seed, seeds).
GATED = (("baseline_1k", "baseline", 1000, 0.25, 0.98, 1000,
          range(1000, 1005)),
         ("blackout_200", "blackout", 200, 0.25, None, 0, range(5)))


def _import_repro(src: str) -> None:
    sys.path.insert(0, src)
    import repro
    if not os.path.abspath(repro.__file__).startswith(
            os.path.abspath(src) + os.sep):
        raise RuntimeError(f"imported repro from {repro.__file__}, "
                           f"not from {src}")


def _matrix(smoke: bool) -> List[Tuple[str, object]]:
    """(run label, zero-argument spec builder) for every matrix run."""
    from repro.scenarios import ScenarioRunner, registry

    def gated(scenario, nodes, scale, ramp, base_seed, seed):
        def build(s):
            spec = registry.build(scenario, n_nodes=nodes, scale=scale,
                                  seed=s)
            if ramp is not None:
                spec.cluster.ramp_fraction = ramp
            return spec

        def make():
            spec = build(seed)
            spec.workload.schedule = ScenarioRunner(
                build(base_seed)).build_schedule()
            return spec
        return make

    def scenario(name, scheduler, nodes, scale):
        def make():
            spec = registry.build(name, n_nodes=nodes, scale=scale, seed=3)
            spec.scheduler = scheduler
            return spec
        return make

    if smoke:
        return [("smoke/baseline/fifo", scenario("baseline", "fifo", 24,
                                                 0.02))]
    runs = []
    for label, name, nodes, scale, ramp, base, seeds in GATED:
        for seed in seeds:
            runs.append((f"{label}/{seed}",
                         gated(name, nodes, scale, ramp, base, seed)))
    for name in registry.names():
        for scheduler in SCHEDULERS:
            runs.append((f"{name}/{scheduler}",
                         scenario(name, scheduler, 40, 0.1)))
    return runs


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def digest_runs(smoke: bool) -> List[Dict[str, object]]:
    """Run the matrix in this process (``repro`` already importable)."""
    from repro.scenarios import ScenarioRunner

    rows = []
    for label, make in _matrix(smoke):
        spec = make()
        spec.obs.check_invariants = True
        result = ScenarioRunner(spec).run()
        payload = result.payload()
        events = payload.pop("events")
        digest = _digest(payload)
        channel = payload.pop("channel")
        rows.append({
            "run": label,
            "digest": digest,
            "digest_no_channel": _digest(payload),
            "events": events,
            "departure_fast_paths": channel.get("departure_fast_paths"),
            "park_ties": result.control.get("park_ties"),
            "violations": (result.invariants or {}).get("violations"),
        })
    return rows


def _child(src: str, smoke: bool) -> subprocess.Popen:
    cmd = [sys.executable, os.path.abspath(__file__), "--emit", "--src",
           src] + (["--smoke"] if smoke else [])
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=REPO)


def _collect(proc: subprocess.Popen, src: str) -> List[Dict[str, object]]:
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"digest run on {src} failed "
                         f"(exit {proc.returncode})")
    return json.loads(out)


def _print_rows(rows: List[Dict[str, object]]) -> None:
    print(f"{'run':34} {'payload-events':16} {'-channel':16} "
          f"{'events':>8} {'dep_fp':>6} {'ties':>4} {'viol':>4}")
    for r in rows:
        print(f"{r['run']:34} {r['digest'][:16]} "
              f"{r['digest_no_channel'][:16]} {r['events']:>8} "
              f"{r['departure_fast_paths']!s:>6} {r['park_ties']!s:>4} "
              f"{r['violations']!s:>4}")


def compare(new: List[Dict[str, object]], old: List[Dict[str, object]],
            key: str) -> int:
    """Print the per-run comparison; returns the number of mismatches
    on ``key`` (``digest`` or ``digest_no_channel``)."""
    old_by_run = {r["run"]: r for r in old}
    bad = 0
    print(f"{'run':34} {'payload-events':14} {'-channel':8} "
          f"{'events old -> new':>22} {'dep_fp':>9} {'ties':>4} "
          f"{'viol':>4}")
    for r in new:
        o = old_by_run.get(r["run"])
        if o is None:
            print(f"{r['run']:34} missing in the other tree")
            bad += 1
            continue
        same = r["digest"] == o["digest"]
        same_nc = r["digest_no_channel"] == o["digest_no_channel"]
        if not (same if key == "digest" else same_nc):
            bad += 1
        delta = r["events"] - o["events"]
        print(f"{r['run']:34} {'same' if same else 'DIFF':14} "
              f"{'same' if same_nc else 'DIFF':8} "
              f"{o['events']:>9} -> {r['events']:>9} ({delta:+d}) "
              f"{o['departure_fast_paths']!s:>4}/"
              f"{r['departure_fast_paths']!s:<4} {r['park_ties']!s:>4} "
              f"{r['violations']!s:>4}")
    extra = set(old_by_run) - {r["run"] for r in new}
    for run in sorted(extra):
        print(f"{run:34} missing in this tree")
        bad += 1
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(REPO, "src"),
                        help="source tree to run (default: this repo's)")
    parser.add_argument("--against", metavar="OTHER_SRC",
                        help="compare with the tree at OTHER_SRC")
    parser.add_argument("--ignore-channel", action="store_true",
                        help="compare payloads without `channel` too")
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny scenario, this tree run twice")
    parser.add_argument("--emit", action="store_true",
                        help=argparse.SUPPRESS)  # child: print JSON rows
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)

    if args.emit:
        _import_repro(src)
        json.dump(digest_runs(args.smoke), sys.stdout)
        return 0
    other = os.path.abspath(args.against) if args.against else (
        src if args.smoke else None)
    if other is None:
        _print_rows(_collect(_child(src, args.smoke), src))
        return 0
    # The two trees run side by side, one child process each.
    procs = [_child(src, args.smoke), _child(other, args.smoke)]
    new = _collect(procs[0], src)
    old = _collect(procs[1], other)
    key = "digest_no_channel" if args.ignore_channel else "digest"
    bad = compare(new, old, key)
    print(f"{bad} of {len(new)} runs differ "
          f"(payload without events{' and channel' if args.ignore_channel else ''})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
