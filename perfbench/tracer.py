"""Layer spans for the traced benchmark run.

The benchmark attributes host time to the simulator's layers without
touching the program: it wraps, from the outside, the public entry
points of each layer and every callable a layer hands to the engine's
public scheduling calls (``process``, ``call_at``, ``call_after``,
``call_soon``).  Each wrapped call opens a span (name, start, end,
parent); a span's *self* time is its duration minus the time its child
spans cover, and a layer's self time is the sum over its spans.

Wrapping scheduled callables matters: without it a channel pass fired
from a bottleneck timer, or a task attempt resumed by a timeout, would
be charged to the engine that dispatched it.  What the engine does
between those calls (heap pops, batching, event bookkeeping) stays in
the ``Simulator.run``/``run_until`` spans and is the engine's self time.

Spans stay in memory (aggregates for every span, raw records for the
first ``span_cap``) and are written out by the caller when the run ends.
"""

from __future__ import annotations

import inspect
import time
from typing import Callable, Dict, List, Optional, Tuple

#: The simulator's layers, in report order.  ``runner`` is everything
#: around them: the scenario runner's phases, HOGSystem wiring, the
#: workload schedule, result collection, and the benchmark's own glue.
LAYERS = ("engine", "channel", "net", "storage", "mapreduce", "hdfs",
          "grid", "faults", "obs", "runner")

#: Module prefix → layer; the longest matching prefix wins.
_PREFIX_LAYER = (
    ("repro.sim.channel", "channel"),
    ("repro.sim", "engine"),
    ("repro.net", "net"),
    ("repro.storage", "storage"),
    ("repro.mapreduce", "mapreduce"),
    ("repro.hdfs", "hdfs"),
    ("repro.grid", "grid"),
    ("repro.faults", "faults"),
    ("repro.obs", "obs"),
    ("repro", "runner"),
)

#: Layer → modules imported (in this order) under that layer's import
#: span, so import time — part of every run's wall time — is attributed
#: too.  Leaves first: importing a package pulls in its dependencies.
IMPORT_ORDER = (
    ("runner", "numpy"),
    ("engine", "repro.sim.engine"),
    ("channel", "repro.sim.channel"),
    ("engine", "repro.sim"),
    ("storage", "repro.storage"),
    ("net", "repro.net"),
    ("hdfs", "repro.hdfs"),
    ("mapreduce", "repro.mapreduce"),
    ("grid", "repro.grid"),
    ("obs", "repro.obs"),
    ("faults", "repro.faults"),
    ("runner", "repro.scenarios"),
)

#: Public entry points wrapped per layer: ``(module, class, methods)``.
ENTRY_POINTS = (
    ("repro.sim.engine", "Simulator", ("run", "run_until", "step")),
    ("repro.sim.channel", "Demand", ("__init__",)),
    ("repro.sim.channel", "FairQueue",
     ("start", "remove", "abort", "abort_constraint", "submit", "request",
      "ensure_progress")),
    ("repro.net.fabric", "NetworkFabric",
     ("transfer", "serve_stream", "abort_host_flows", "set_site_uplink",
      "partition_site", "heal_site")),
    ("repro.storage.disk", "Disk",
     ("read", "write", "allocate", "release", "release_all", "wipe",
      "probe")),
    ("repro.mapreduce.jobtracker", "JobTracker",
     ("heartbeat", "submit_job", "register_tracker", "map_attempt_completed",
      "reduce_attempt_completed", "attempt_failed", "report_fetch_failure",
      "when_jobs_done")),
    ("repro.mapreduce.tasktracker", "TaskTracker",
     ("start", "shutdown", "kill", "launch", "kill_attempt", "cleanup_job",
      "serve_map_output")),
    ("repro.hdfs.namenode", "Namenode",
     ("heartbeat", "process_block_report", "block_received",
      "register_datanode", "report_bad_replica", "choose_write_targets",
      "create_file", "delete_file", "locate")),
    ("repro.hdfs.datanode", "Datanode",
     ("start", "shutdown", "kill", "receive_block", "serve_read",
      "add_block_instant", "remove_block")),
    ("repro.hdfs.client", "HdfsClient",
     ("write_file", "read_block", "preload_file")),
    ("repro.grid.glidein", "GlideinFactory",
     ("start", "set_target", "when_running")),
    ("repro.grid.glidein", "Glidein", ("match", "preempt", "removed")),
    ("repro.grid.condor", "CondorSchedd", ("submit", "remove")),
    ("repro.faults.invariants", "InvariantChecker", ("start", "check")),
    ("repro.faults.injector", "Injector", ("start",)),
    ("repro.obs.registry", "Registry", ("snapshot", "read_gauges")),
    ("repro.obs.probes", "ProbeSet", ("start",)),
    ("repro.scenarios.runner", "ScenarioRunner", ("run",)),
)

#: Engine scheduling calls whose callables are wrapped.
SCHEDULING_CALLS = ("call_at", "call_after", "call_soon")


def layer_of_module(module: Optional[str]) -> str:
    """The layer a module belongs to (``engine`` for anything outside
    ``repro``: builtins handed to the engine run as dispatch work)."""
    if module:
        for prefix, layer in _PREFIX_LAYER:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "engine"


class SpanRecorder:
    """Nested spans with per-span self time, kept in memory.

    ``enter(key)`` returns a frame; ``leave(frame)`` closes it.  Keys are
    ``(layer, name)`` tuples.  Aggregates (calls, total, self) cover
    every span; raw ``(id, key, start, end, parent)`` records are kept
    for the first ``span_cap`` spans only, so a long run cannot grow
    memory without bound.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 span_cap: int = 50_000) -> None:
        self.clock = clock
        self.span_cap = span_cap
        self.origin = clock()
        self._stack: List[list] = []
        self._next_id = 0
        #: Wrapper cost per span inside / outside its clock reads (see
        #: :meth:`calibrate`); zero until calibrated.
        self.cost_inside = 0.0
        self.cost_outside = 0.0
        #: Summed duration of the outermost spans.
        self.root_s = 0.0
        #: key → [calls, total seconds, self seconds]
        self.stats: Dict[Tuple[str, str], list] = {}
        #: (id, key, start, end, parent id or -1), start/end relative to
        #: ``origin``.
        self.spans: List[tuple] = []

    def enter(self, key: Tuple[str, str]) -> list:
        stack = self._stack
        sid = self._next_id
        self._next_id = sid + 1
        frame = [key, self.clock(), 0.0, 0, sid,
                 stack[-1][4] if stack else -1]
        stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        key, start, child, n_child, sid, parent = frame
        dur = end - start
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        # Self time net of the tracer's own cost: the part of this span's
        # wrapper that runs between its clock reads, and the part of each
        # child's wrapper that runs outside the child's clock reads.
        st[2] += dur - child - self.cost_inside - n_child * self.cost_outside
        if stack:
            top = stack[-1]
            top[2] += dur
            top[3] += 1
        else:
            self.root_s += dur
        if sid < self.span_cap:
            origin = self.origin
            self.spans.append((sid, key, start - origin, end - origin, parent))

    def calibrate(self, calls: int = 5000, rounds: int = 5) -> None:
        """Measure the wrapper's cost per span, inside and outside its
        clock reads (the fastest of ``rounds`` rounds), so ``leave`` can
        take it out of every self time."""
        def noop():
            return None

        wrapped = wrap_call(self, ("engine", "calibration"), noop)
        best_raw = best_wrapped = best_inside = float("inf")
        for _ in range(rounds):
            t0 = self.clock()
            for _ in range(calls):
                noop()
            best_raw = min(best_raw, self.clock() - t0)
            self.stats.clear()
            t0 = self.clock()
            for _ in range(calls):
                wrapped()
            best_wrapped = min(best_wrapped, self.clock() - t0)
            best_inside = min(best_inside, self.stats[
                ("engine", "calibration")][1])
        per_call_raw = best_raw / calls
        self.cost_inside = max(0.0, best_inside / calls - per_call_raw)
        self.cost_outside = max(0.0, (best_wrapped - best_raw) / calls
                                - self.cost_inside)
        self.stats.clear()
        self.spans.clear()
        self._next_id = 0
        self.root_s = 0.0

    @property
    def span_count(self) -> int:
        return self._next_id

    def self_by_layer(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for (layer, _), st in self.stats.items():
            out[layer] += st[2]
        return out

    def export(self) -> dict:
        """JSON-ready dump: aggregates for every span name, raw spans for
        the first ``span_cap``."""
        names = {key: i for i, key in enumerate(self.stats)}
        return {
            "span_count": self._next_id,
            "span_cap": self.span_cap,
            "cost_inside_s": self.cost_inside,
            "cost_outside_s": self.cost_outside,
            "names": [{"layer": k[0], "name": k[1], "calls": st[0],
                       "total_s": st[1], "self_s": st[2]}
                      for k, st in self.stats.items()],
            "spans": [[sid, names[key], start, end, parent]
                      for sid, key, start, end, parent in self.spans],
        }


def wrap_call(recorder: SpanRecorder, key: Tuple[str, str], fn):
    """``fn`` with every call timed as one ``key`` span."""
    enter, leave = recorder.enter, recorder.leave

    def wrapper(*args, **kwargs):
        frame = enter(key)
        try:
            return fn(*args, **kwargs)
        finally:
            leave(frame)
    return wrapper


class TracedGenerator:
    """Generator proxy timing every resume as one span.

    Forwards ``send``/``throw``/``close`` (and iteration, for
    ``yield from``) unchanged, so the simulation cannot tell it apart
    from the generator it wraps.
    """

    def __init__(self, recorder: SpanRecorder, key: Tuple[str, str],
                 gen) -> None:
        self._rec = recorder
        self._key = key
        self._gen = gen
        self.__name__ = getattr(gen, "__name__", "process")

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        rec = self._rec
        frame = rec.enter(self._key)
        try:
            return self._gen.send(value)
        finally:
            rec.leave(frame)

    def throw(self, *args):
        rec = self._rec
        frame = rec.enter(self._key)
        try:
            return self._gen.throw(*args)
        finally:
            rec.leave(frame)

    def close(self):
        return self._gen.close()


def _key_of(obj) -> Tuple[str, str]:
    """``(layer, qualified name)`` for a function, method or generator."""
    code = getattr(obj, "gi_code", None)
    if code is not None:
        module = obj.gi_frame.f_globals.get("__name__") if obj.gi_frame \
            else None
        name = code.co_qualname
    else:
        fn = getattr(obj, "__func__", obj)
        module = getattr(fn, "__module__", None)
        name = getattr(fn, "__qualname__", type(fn).__name__)
    return layer_of_module(module), f"{module}.{name}" if module else name


class Instrumentation:
    """Installs the span wrappers on the program's classes and removes
    them again.  Install before the simulation objects are built."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.rec = recorder
        self._saved: List[tuple] = []
        self._keys: Dict[object, Tuple[str, str]] = {}

    def _wrap_function(self, fn, key: Tuple[str, str]):
        rec = self.rec
        if not inspect.isgeneratorfunction(fn):
            return wrap_call(rec, key, fn)

        def wrapper(*args, **kwargs):
            return TracedGenerator(rec, key, fn(*args, **kwargs))
        return wrapper

    def _patch(self, cls, name: str, new) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, new)

    def _key(self, obj) -> Tuple[str, str]:
        """Span key of a scheduled callable or generator, cached by code
        object (closures made per call share one)."""
        target = getattr(obj, "__func__", obj)
        code = getattr(target, "__code__", None) or getattr(obj, "gi_code",
                                                            None)
        cache = code if code is not None else type(target)
        key = self._keys.get(cache)
        if key is None:
            key = self._keys[cache] = _key_of(obj)
        return key

    def install(self) -> None:
        import importlib

        for module, cls_name, methods in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            layer = layer_of_module(module)
            for meth in methods:
                fn = cls.__dict__[meth]
                key = (layer, f"{module}.{cls_name}.{meth}")
                self._patch(cls, meth, self._wrap_function(fn, key))
        self._install_scheduling()

    def _install_scheduling(self) -> None:
        from repro.sim.engine import Simulator

        rec = self.rec
        key_of = self._key

        orig_process = Simulator.__dict__["process"]

        def process(sim, generator, name: str = ""):
            if not isinstance(generator, TracedGenerator):
                name = name or getattr(generator, "__name__", "process")
                generator = TracedGenerator(rec, key_of(generator),
                                            generator)
            return orig_process(sim, generator, name)

        self._patch(Simulator, "process", process)

        stack = rec._stack

        def traced(fn):
            # This wrapper's own cost lands in the scheduling caller's
            # span; count it there like a child's outside cost.
            if stack:
                stack[-1][3] += 1
            return wrap_call(rec, key_of(fn), fn)

        for call in SCHEDULING_CALLS:
            orig = Simulator.__dict__[call]
            if call == "call_soon":
                def sched(sim, fn, arg=None, _orig=orig):
                    return _orig(sim, traced(fn), arg)
            else:
                def sched(sim, when, fn, arg=None, _orig=orig):
                    return _orig(sim, when, traced(fn), arg)
            self._patch(Simulator, call, sched)

    def uninstall(self) -> None:
        while self._saved:
            cls, name, orig = self._saved.pop()
            setattr(cls, name, orig)
