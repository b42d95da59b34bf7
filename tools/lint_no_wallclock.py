#!/usr/bin/env python3
"""AST lint: forbid wall-clock reads in the decision-path modules.

The observability contract (ISSUE 8) extends the determinism rule: no
module under
``src/repro/{sim,net,mapreduce,hdfs,grid,storage,faults,core,baselines}``
may read the host's wall clock.  Simulated components must take time from
``sim.now`` only — a stray ``time.time()`` or ``perf_counter()`` in a
decision path silently couples outcomes to host speed and breaks the
byte-identical determinism guard.  Wall-clock measurement belongs in the
harness layers (``scenarios/``, ``benchmarks/``, ``experiments/``), which
this lint deliberately does not scan.

Flagged calls (as ``module.name`` or bare names imported from those
modules):

- ``time.time``, ``time.monotonic``, ``time.perf_counter``,
  ``time.process_time``, ``time.time_ns`` (and the ``_ns`` variants),
- ``datetime.now``, ``datetime.utcnow``, ``datetime.today``
  (via ``datetime.datetime`` or a bare ``datetime`` name).

A line may carry a ``# wallclock-ok`` comment to waive a finding whose
harmlessness has been audited (say why in a nearby comment).

Usage: ``python tools/lint_no_wallclock.py [src-root]`` — prints
findings, exits 1 if any.  The fast test tier runs this via
``tests/test_lint.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List, Tuple

CHECKED_PACKAGES = ("sim", "net", "mapreduce", "hdfs", "grid", "storage", "faults",
                    "core", "baselines")
WAIVER = "wallclock-ok"

#: ``time`` module functions that read the host clock.
_TIME_FUNCS = {"time", "monotonic", "perf_counter", "process_time",
               "time_ns", "monotonic_ns", "perf_counter_ns",
               "process_time_ns"}
#: ``datetime``/``date`` constructors that read the host clock.
_DATETIME_FUNCS = {"now", "utcnow", "today"}


def _call_name(func: ast.expr) -> Tuple[str, str]:
    """``(qualifier, name)`` of a call target; qualifier may be ''."""
    if isinstance(func, ast.Name):
        return "", func.id
    if isinstance(func, ast.Attribute):
        value = func.value
        if isinstance(value, ast.Name):
            return value.id, func.attr
        if isinstance(value, ast.Attribute):
            # e.g. datetime.datetime.now — keep the innermost qualifier.
            return value.attr, func.attr
    return "", ""


def _is_wallclock(qualifier: str, name: str) -> bool:
    if qualifier == "time" and name in _TIME_FUNCS:
        return True
    if qualifier in ("datetime", "date") and name in _DATETIME_FUNCS:
        return True
    # Bare names cover ``from time import perf_counter`` style imports;
    # ``time`` alone is too generic (sim code says ``sim.now`` anyway,
    # and a local helper called ``time()`` would be a finding only if
    # imported from the stdlib — conservatively flag the known names).
    if qualifier == "" and name in ("perf_counter", "monotonic",
                                    "process_time", "time_ns",
                                    "perf_counter_ns", "monotonic_ns",
                                    "process_time_ns", "utcnow"):
        return True
    return False


def lint_file(path: Path) -> List[Tuple[int, str]]:
    """All wall-clock findings in one file as (line, message)."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    findings: List[Tuple[int, str]] = []

    def waived(lineno: int) -> bool:
        return 0 < lineno <= len(lines) and WAIVER in lines[lineno - 1]

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        qualifier, name = _call_name(node.func)
        if _is_wallclock(qualifier, name) and not waived(node.lineno):
            shown = f"{qualifier}.{name}" if qualifier else name
            findings.append(
                (node.lineno,
                 f"wall-clock read ({shown}()) in a decision-path module "
                 f"— simulated components must use sim.now"))
    return findings


def lint_tree(src_root: Path) -> List[str]:
    """Lint every checked package below ``src_root``; returns messages."""
    messages: List[str] = []
    for pkg in CHECKED_PACKAGES:
        pkg_dir = src_root / "repro" / pkg
        for path in sorted(pkg_dir.rglob("*.py")):
            for lineno, msg in lint_file(path):
                rel = path.relative_to(src_root)
                messages.append(f"{rel}:{lineno}: {msg}")
    return messages


def main(argv: List[str]) -> int:
    src_root = Path(argv[1]) if len(argv) > 1 else \
        Path(__file__).resolve().parent.parent / "src"
    messages = lint_tree(src_root)
    for msg in messages:
        print(msg)
    if messages:
        print(f"{len(messages)} wall-clock finding(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
