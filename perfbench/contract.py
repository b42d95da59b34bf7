"""Shape rules for ``BENCHMARK.json`` and for the result line.

``validate_benchmark`` returns a list of problems (empty when the file
is well formed); ``run.py`` refuses to measure anything while it is not.
"""

from __future__ import annotations

import math
import re
from typing import List

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH_RE = re.compile(r"[A-Za-z0-9_./-]{1,200}")

TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
MAX_PATHS = 16
MAX_COMMAND = 32
MAX_ARG_LEN = 200
MIN_WORKLOADS, MAX_WORKLOADS = 2, 8
MAX_END_TO_END = 16
MAX_PER_LAYER = 128
MAX_BOUND = 0.25
MAX_WHY = 200
MAX_RUN_SECONDS = 60


def valid_name(name: object) -> bool:
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def valid_unit(unit: object) -> bool:
    return isinstance(unit, str) and UNIT_RE.fullmatch(unit) is not None


def _check_metrics(kind: str, metrics: object, limit: int, bounded: bool,
                   problems: List[str]) -> None:
    if not isinstance(metrics, list) or not 1 <= len(metrics) <= limit:
        problems.append(f"{kind}: need a list of 1 to {limit} metrics")
        return
    keys = {"name", "unit", "better"} | ({"bound"} if bounded else set())
    for m in metrics:
        if not isinstance(m, dict) or set(m) != keys:
            problems.append(f"{kind}: each metric has exactly {sorted(keys)}")
            continue
        if not valid_name(m["name"]):
            problems.append(f"{kind}: bad name {m['name']!r}")
        if not valid_unit(m["unit"]):
            problems.append(f"{kind}: bad unit {m['unit']!r}")
        if m["better"] not in ("higher", "lower"):
            problems.append(f"{kind}: {m['name']}: better must be "
                            f"'higher' or 'lower'")
        if bounded:
            b = m["bound"]
            if (not isinstance(b, (int, float)) or isinstance(b, bool)
                    or not 0 < b <= MAX_BOUND):
                problems.append(f"{kind}: {m['name']}: bound must be in "
                                f"(0, {MAX_BOUND}]")


def validate_benchmark(doc: object) -> List[str]:
    """Every way ``doc`` breaks the benchmark contract."""
    problems: List[str] = []
    if not isinstance(doc, dict) or set(doc) != TOP_KEYS:
        return [f"top level must have exactly the keys {sorted(TOP_KEYS)}"]

    cmd = doc["command"]
    if (not isinstance(cmd, list) or not 1 <= len(cmd) <= MAX_COMMAND
            or not all(isinstance(a, str) and len(a) <= MAX_ARG_LEN
                       for a in cmd)):
        problems.append("command: 1 to 32 strings of at most 200 chars")
    else:
        for arg in cmd:
            if arg.startswith("/") or ".." in arg.split("/"):
                problems.append(f"command: {arg!r} leaves the checkout")

    paths = doc["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= MAX_PATHS:
        problems.append("paths: 1 to 16 directories")
    else:
        for p in paths:
            if (not isinstance(p, str) or PATH_RE.fullmatch(p) is None
                    or p.startswith("/") or ".." in p.split("/")):
                problems.append(f"paths: bad path {p!r}")

    rs = doc["run_seconds"]
    if (not isinstance(rs, int) or isinstance(rs, bool)
            or not 1 <= rs <= MAX_RUN_SECONDS):
        problems.append("run_seconds: a whole number from 1 to 60")

    wl = doc["workloads"]
    if (not isinstance(wl, list)
            or not MIN_WORKLOADS <= len(wl) <= MAX_WORKLOADS):
        problems.append("workloads: 2 to 8 entries")
    else:
        for w in wl:
            if not isinstance(w, dict) or set(w) != {"name", "why"}:
                problems.append("workloads: each has exactly name and why")
                continue
            if not valid_name(w["name"]):
                problems.append(f"workloads: bad name {w['name']!r}")
            why = w["why"]
            if (not isinstance(why, str) or not why or len(why) > MAX_WHY
                    or "\n" in why):
                problems.append(f"workloads: {w['name']}: why is one line "
                                f"of at most {MAX_WHY} chars")

    _check_metrics("end_to_end", doc["end_to_end"], MAX_END_TO_END, True,
                   problems)
    _check_metrics("per_layer", doc["per_layer"], MAX_PER_LAYER, False,
                   problems)
    if not problems:
        names = ([w["name"] for w in wl]
                 + [m["name"] for m in doc["end_to_end"]]
                 + [m["name"] for m in doc["per_layer"]])
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            problems.append(f"names used twice: {dupes}")
        setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
        if not setup or setup[0]["unit"] != "s" \
                or setup[0]["better"] != "lower":
            problems.append("end_to_end needs setup_s in s, better lower")
    return problems


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> dict:
    """The last stdout line; every value must be a finite number."""
    for name, m in metrics.items():
        v = m["value"]
        if (not isinstance(v, (int, float)) or isinstance(v, bool)
                or not math.isfinite(v)):
            raise ValueError(f"metric {name} is not a finite number: {v!r}")
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}
