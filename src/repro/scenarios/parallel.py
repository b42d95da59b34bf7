"""Multiprocessing fan-out for scenario runs.

Workers receive only a **serialized** :class:`~repro.scenarios.spec.ScenarioSpec`
(its JSON form) — never a live simulator or system object — rebuild it
with :meth:`ScenarioSpec.from_json`, run the ordinary
:class:`~repro.scenarios.runner.ScenarioRunner`, and ship the JSON-ready
result dict back to the parent.  Because a run is fully determined by its
spec (seed included) and the engine is hash-seed independent (the
no-set-iteration lint guards this), a parallel sweep's simulation
payloads are byte-identical to the serial ones — the determinism guard
test in ``tests/test_scenarios.py`` asserts exactly that.

Consumers: ``python -m repro.scenarios.run all --parallel N`` and the
scale-sweep benchmark's every-scenario coverage section.
"""

from __future__ import annotations

from typing import List, Sequence, Union

from .runner import ScenarioRunner
from .spec import ScenarioSpec

__all__ = ["run_spec_json", "run_specs_parallel"]


def run_spec_json(spec_json: str) -> dict:
    """Worker entry point: run one serialized spec end-to-end.

    Importable at module top level so process pools can resolve it by
    reference; usable inline too (the serial fallback calls it directly).
    """
    spec = ScenarioSpec.from_json(spec_json)
    return ScenarioRunner(spec).run().to_dict()


def run_specs_parallel(specs: Sequence[Union[ScenarioSpec, str]],
                       workers: int) -> List[dict]:
    """Run scenario specs across ``workers`` processes.

    ``specs`` may mix live :class:`ScenarioSpec` objects and pre-serialized
    JSON strings.  Results come back in input order regardless of which
    worker finished first.  ``workers <= 1`` (or a single spec) degrades
    to an in-process serial loop — same code path, no pool overhead.
    """
    payloads = [s.to_json(indent=None) if isinstance(s, ScenarioSpec) else s
                for s in specs]
    if workers <= 1 or len(payloads) <= 1:
        return [run_spec_json(p) for p in payloads]
    # Imported here, not at module level: the pool pulls in
    # ``multiprocessing`` (with ``socket`` and ``queue``), which a process
    # that only runs scenarios in-line would carry for nothing.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
        return list(pool.map(run_spec_json, payloads))
