"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps public functions of each layer (class attributes,
so every caller — and every worker process forked afterwards — goes
through the wrapper) and records one span per call: name, layer, start,
duration, parent span and a few call-specific facts.  Spans stay in memory;
each process writes its own at the end (the parent on :meth:`uninstall`,
forked pool workers when they exit), and :meth:`collect` reads them back.

A layer's self time is the duration of its spans minus the part their
child spans (of any layer) cover.  Calls nested inside a span of the *same
name* fold into that span — ``Scheduler.admit`` reads ``Scheduler.depth``,
and both are scheduler time, counted once.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
import weakref
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from .stats import Metric, median, percentile

#: (module, class, attribute, span name); a span's layer is the name's
#: first part.  ``Scheduler.depth`` is a property.
WRAPPED: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.backends", "Session", "register", "backends.register"),
    ("repro.backends", "Session", "launch", "backends.launch"),
    ("repro.backends", "SerpensEngine", "build_payload", "preprocess.build"),
    ("repro.serpens", "SerpensAccelerator", "run", "serpens.launch"),
    ("repro.serpens", "SerpensSimulator", "__init__", "serpens.sim_init"),
    ("repro.serpens", "SerpensSimulator", "run", "serpens.sim_run"),
    ("repro.parallel", "WorkerPool", "start", "parallel.start"),
    ("repro.parallel", "WorkerPool", "register", "parallel.register"),
    ("repro.parallel", "WorkerPool", "run_trace", "parallel.run_trace"),
    ("repro.serve", "SpMVService", "register", "serve.register"),
    ("repro.serve", "SpMVService", "drain", "serve.drain"),
    ("repro.serve", "Scheduler", "admit", "serve.scheduler"),
    ("repro.serve", "Scheduler", "depth", "serve.scheduler"),
    ("repro.serve", "Scheduler", "next_batch", "serve.scheduler"),
    ("repro.serve", "Scheduler", "expire", "serve.scheduler"),
    ("repro.serve", "ProgramCache", "get_or_build", "serve.cache_get"),
)

#: Called 128 times per launch on Serpens-A16: timed into the enclosing
#: span's ``pe_reset_s`` instead of getting spans of its own.
PE_RESET = ("repro.serpens", "ProcessingEngine", "reset_accumulator")

LAYERS = ("backends", "preprocess", "serpens", "parallel", "serve")

# Span tuple fields.
NAME, LAYER, START, DUR, PARENT, EXTRA = range(6)


def _owner(module: str, cls: str):
    return getattr(importlib.import_module(module), cls)


class LayerTracer:
    """Wraps the layer functions in :data:`WRAPPED` while installed."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.spans: List[list] = []
        self._pid = os.getpid()
        self._local = threading.local()
        self._originals: List[Tuple[Any, str, Any]] = []
        self._seen_programs: "weakref.WeakSet" = weakref.WeakSet()

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        for module, cls, attr, name in WRAPPED:
            owner = _owner(module, cls)
            original = owner.__dict__[attr]
            if isinstance(original, property):
                wrapped = property(self._wrap(original.fget, name))
            else:
                wrapped = self._wrap(original, name)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        owner = _owner(*PE_RESET[:2])
        original = owner.__dict__[PE_RESET[2]]
        self._originals.append((owner, PE_RESET[2], original))
        setattr(owner, PE_RESET[2], self._wrap_reset(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()
        self._dump("parent")

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        if os.getpid() != self._pid:
            # First call in a forked pool worker: drop the parent's spans
            # and write this process's own when it exits.
            self._pid = os.getpid()
            self.spans = []
            self._local = threading.local()
            mp_util.Finalize(None, self._dump, args=(f"pid{self._pid}",), exitpriority=100)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self
        layer = name.split(".")[0]

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and tracer.spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            index = len(tracer.spans)
            tracer.spans.append(span)
            stack.append(index)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[DUR] = time.perf_counter() - started
                span[START] = started
                stack.pop()
            extra = tracer._facts(name, args, kwargs, result)
            if extra:
                span[EXTRA] = {**(span[EXTRA] or {}), **extra}
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_reset(self, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if stack:
                    span = tracer.spans[stack[-1]]
                    extra = span[EXTRA] = span[EXTRA] or {}
                    extra["pe_reset_s"] = extra.get("pe_reset_s", 0.0) + (
                        time.perf_counter() - started
                    )

        traced.__wrapped__ = fn
        return traced

    def _facts(self, name: str, args, kwargs, result) -> Optional[Dict[str, Any]]:
        """Counts recorded where the work happens."""
        if name == "preprocess.build":
            return {"nnz": int(args[1].nnz)}
        if name == "serpens.launch":
            program = kwargs.get("program")
            if program is None or program in self._seen_programs:
                return None
            self._seen_programs.add(program)
            return {"first": True}
        if name == "serpens.sim_run":
            program = args[1]
            return {
                "key": f"{program.num_rows}x{program.num_cols}:{program.nnz}",
                "cycles": int(result.total_cycles),
                "compute_cycles": int(result.cycles.compute_cycles),
                "bytes": int(result.bytes_moved),
                "pe_utilisation": float(result.pe_utilisation),
                "hazard_violations": int(result.hazard_violations),
            }
        return None

    def _dump(self, tag: str) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(self.out_dir / f"spans-{tag}.json", "w") as handle:
            json.dump(self.spans, handle)

    # ------------------------------------------------------------------
    # Reading back
    # ------------------------------------------------------------------
    def collect(self) -> List[List[list]]:
        """Every process's spans, one list per process."""
        return [json.loads(path.read_text()) for path in sorted(self.out_dir.glob("spans-*.json"))]


def self_times(processes: List[List[list]]) -> Dict[str, float]:
    """Seconds of self time per layer, summed over processes."""
    totals = {layer: 0.0 for layer in LAYERS}
    for spans in processes:
        child = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[DUR]
        for index, span in enumerate(spans):
            totals[span[LAYER]] += max(0.0, span[DUR] - child[index])
    return totals


def layer_metrics(processes: List[List[list]], setups: int, drains: int) -> List[Metric]:
    """Per-layer metrics over the spans of every process.

    ``setups`` and ``drains`` normalise totals that scale with how many
    set-ups and service drains the traced run happened to fit in.
    """
    spans = [span for process in processes for span in process]

    def durations(name: str) -> List[float]:
        return [span[DUR] for span in spans if span[NAME] == name]

    def total(name: str) -> float:
        return sum(durations(name))

    def per_setup(metric: str, name: str) -> Metric:
        # Set-up calls only: run_trace re-registers (a no-op) and register
        # re-starts (idempotent) from inside other spans.
        own = [span[DUR] for span in spans if span[NAME] == name and span[PARENT] < 0]
        return Metric(metric, sum(own) / setups, "s", len(own))

    def ms_pct(values: List[float], q: float) -> float:
        return percentile(values, q) * 1e3 if values else 0.0

    setups = max(1, setups)
    drains = max(1, drains)
    metrics: List[Metric] = []

    # serpens: one simulator launch and its fixed PE set-up (constructing the
    # simulator, then resetting every PE's accumulator inside its run).
    pe_setup: List[float] = []
    for process in processes:
        per_launch = {
            index: (span[EXTRA] or {}).get("pe_reset_s", 0.0)
            for index, span in enumerate(process)
            if span[NAME] == "serpens.launch"
        }
        for span in process:
            if span[PARENT] not in per_launch:
                continue
            if span[NAME] == "serpens.sim_init":
                per_launch[span[PARENT]] += span[DUR]
            elif span[NAME] == "serpens.sim_run":
                per_launch[span[PARENT]] += (span[EXTRA] or {}).get("pe_reset_s", 0.0)
        pe_setup += per_launch.values()
    launches = [s for s in spans if s[NAME] == "serpens.launch"]
    launch_s = [s[DUR] for s in launches]
    first_s = [s[DUR] for s in launches if (s[EXTRA] or {}).get("first")]
    metrics += [
        Metric("serpens.pe_setup_ms", median(pe_setup) * 1e3 if pe_setup else 0.0, "ms", len(pe_setup)),
        Metric("serpens.launch_ms_p50", ms_pct(launch_s, 50), "ms", len(launch_s)),
        Metric("serpens.launch_ms_p95", ms_pct(launch_s, 95), "ms", len(launch_s)),
        Metric("serpens.sim_run_ms_p50", ms_pct(durations("serpens.sim_run"), 50), "ms",
               len(durations("serpens.sim_run"))),
        Metric("serpens.first_launch_ms", median(first_s) * 1e3 if first_s else 0.0, "ms", len(first_s)),
    ]

    # serpens + hbm modelled counts: one launch of each distinct program, so
    # the totals do not depend on how many launches the run fitted in.
    distinct: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        if span[NAME] == "serpens.sim_run" and span[EXTRA]:
            distinct.setdefault(span[EXTRA]["key"], span[EXTRA])
    cycles = sum(d["cycles"] for d in distinct.values())
    metrics += [
        Metric("serpens.cycles_total", float(cycles), "cycles", len(distinct)),
        Metric(
            "serpens.compute_cycles_share",
            sum(d["compute_cycles"] for d in distinct.values()) / cycles if cycles else 0.0,
            "frac",
            len(distinct),
        ),
        Metric(
            "serpens.pe_utilisation",
            sum(d["pe_utilisation"] for d in distinct.values()) / len(distinct) if distinct else 0.0,
            "frac",
            len(distinct),
        ),
        Metric("serpens.hazard_violations", float(sum(d["hazard_violations"] for d in distinct.values())),
               "count", len(distinct)),
        Metric("hbm.bytes_moved_total", float(sum(d["bytes"] for d in distinct.values())), "B", len(distinct)),
    ]

    # backends
    metrics += [
        Metric("backends.launch_ms_p50", ms_pct(durations("backends.launch"), 50), "ms",
               len(durations("backends.launch"))),
        per_setup("backends.register_s", "backends.register"),
    ]

    # preprocess (program builder)
    builds = [s for s in spans if s[NAME] == "preprocess.build"]
    build_s = sum(s[DUR] for s in builds)
    build_nnz = sum((s[EXTRA] or {}).get("nnz", 0) for s in builds)
    metrics += [
        Metric("preprocess.build_s", build_s / setups, "s", len(builds)),
        Metric("preprocess.builds", len(builds) / setups, "count", len(builds)),
        Metric("preprocess.build_mnnz_per_s", build_nnz / build_s / 1e6 if build_s else 0.0, "Mnnz/s",
               len(builds)),
    ]

    # parallel (parent side; worker-side figures come from the event shards)
    metrics += [
        per_setup("parallel.start_s", "parallel.start"),
        per_setup("parallel.register_s", "parallel.register"),
    ]

    # serve
    drain_s = durations("serve.drain")
    metrics += [
        per_setup("serve.register_s", "serve.register"),
        Metric("serve.drain_s", median(drain_s) if drain_s else 0.0, "s", len(drain_s)),
        Metric("serve.scheduler_s", total("serve.scheduler") / drains, "s", len(durations("serve.scheduler"))),
        Metric("serve.cache_get_s", total("serve.cache_get") / drains, "s", len(durations("serve.cache_get"))),
    ]

    for layer, seconds in self_times(processes).items():
        metrics.append(Metric(f"{layer}.self_s", seconds, "s", sum(1 for s in spans if s[LAYER] == layer)))
    return metrics
