"""The engine worker process behind the wall-clock serving pool.

One worker owns one :class:`~repro.backends.SpMVEngine` and
serves batches against matrices it was handed over shared memory.  The
protocol is deliberately small — five task tuples in, five reply tuples out —
because everything bulky (the matrix, the preprocessed program) arrives as an
:class:`~repro.parallel.shm.ShmDescriptor` and is mapped, not copied:

===========================  =================================================
task (on the worker's queue)  reply (on the shared results queue)
===========================  =================================================
``("register", key, name,     ``("registered", worker_id, key)``
descriptor, prog_descriptor)``
``("execute", WorkBatch)``    ``("result", worker_id, BatchResult)``
``("ping", token)``           ``("pong", worker_id, token)``
``("stop",)``                 ``("stopped", worker_id, results_path)``
any failure                   ``("error", worker_id, batch_id, message)``
===========================  =================================================

On ``stop`` the worker writes its own shard
:class:`~repro.obs.ResultsStore` (when configured with a path) so the pool
can fold per-worker measurements into one database with
:meth:`~repro.obs.ResultsStore.merge` afterwards.

Fault injection is declarative: ``WorkerConfig.faults`` carries the resolved
:class:`~repro.resilience.faults.FaultSpec` tuple for this worker (crash,
hang, slowdown, shm attach failure, reply drop) and ``generation`` its
respawn count, from which the worker builds a
:class:`~repro.resilience.WorkerFaultInjector` and honours it at three
install points — before each registration's attach, around each execute, and
between computing a batch and replying (the window in which a crash would
otherwise lose work).
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..backends import DEFAULT_ENGINE, PreparedMatrix, create
from ..spmv import spmv
from .shm import ShmBlock, ShmDescriptor, coo_from_block, program_from_block

__all__ = ["BatchResult", "WorkBatch", "WorkerConfig", "worker_main"]


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker process needs to build its engine and report."""

    worker_id: int
    engine: str = DEFAULT_ENGINE
    #: "simulate" runs the engine datapath, "reference" the golden numpy
    #: kernel, "none" skips numerics (transport/scheduling overhead only).
    compute: str = "simulate"
    #: Shard results database written at ``stop`` (None = don't record).
    results_path: Optional[str] = None
    scenario: str = "adhoc"
    #: Resolved ``repro.resilience`` fault specs for this worker.
    faults: Tuple[Any, ...] = ()
    #: Respawn count of this incarnation (0 = original process); the
    #: injector uses it to decide which specs apply (``on_respawn``).
    generation: int = 0
    #: Event shard written beside the results shard (None = no tracing).
    events_path: Optional[str] = None


@dataclass(frozen=True)
class WorkBatch:
    """One batch of launches against a single registered matrix."""

    batch_id: int
    matrix_key: str
    request_ids: Tuple[int, ...]
    xs: Tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.request_ids)


@dataclass
class BatchResult:
    """What one executed batch measured."""

    batch_id: int
    worker_id: int
    matrix_key: str
    request_ids: Tuple[int, ...]
    ys: List[Optional[np.ndarray]]
    wall_seconds: float
    engine_cycles: float = 0.0
    prepared: bool = False


@dataclass
class _Served:
    """A matrix resident in this worker: mapped blocks plus prepared form."""

    prepared: PreparedMatrix
    blocks: List[ShmBlock] = field(default_factory=list)


def _register(
    config: WorkerConfig,
    engine,
    served: Dict[str, _Served],
    key: str,
    name: str,
    coo_descriptor: ShmDescriptor,
    program_descriptor: Optional[ShmDescriptor],
) -> bool:
    """Map a matrix (and optional prebuilt program) into this worker.

    Returns whether registration did payload work (a build or a program
    attach) rather than finding the matrix already resident.
    """
    if key in served:
        return False
    blocks = [coo_descriptor.attach()]
    matrix = coo_from_block(blocks[0])
    if program_descriptor is not None:
        blocks.append(program_descriptor.attach())
        payload = program_from_block(blocks[-1])
    elif config.compute == "simulate":
        payload = engine.build_payload(matrix)
    else:
        # Reference/none numerics never touch the payload; skip the build.
        payload = None
    served[key] = _Served(
        prepared=PreparedMatrix(
            engine=engine.name,
            matrix=matrix,
            name=name,
            fingerprint=key,
            payload=payload,
        ),
        blocks=blocks,
    )
    return True


class _WorkerObs:
    """This worker's observability kit: tracer + metrics + event shard.

    Built lazily (only when ``WorkerConfig.events_path`` is set) so the
    parallel layer's obs dependency stays optional.  The worker owns a real
    :class:`~repro.obs.Tracer` — spans are recorded against a private
    ``perf_counter`` epoch and flushed to the event shard as *completed*
    span records with true wall-clock end times, so a crash loses at most
    the batch in flight, never an already-flushed span (the chaos tests'
    contract).
    """

    #: Flush a metrics snapshot at least every this many executed batches.
    METRICS_EVERY = 8

    def __init__(self, config: WorkerConfig, engine_name: str) -> None:
        from ..obs.events import EventLog
        from ..obs.metrics import MetricsRegistry
        from ..obs.tracing import Tracer

        self.worker_id = config.worker_id
        self.source = f"worker-{config.worker_id}"
        self.generation = config.generation
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        # One instant shared between the two clocks: wall time at the perf
        # epoch lets flushed spans carry absolute end times.
        self._perf_epoch = time.perf_counter()
        self._wall0 = time.time()
        self._flushed_spans = 0
        self._engine = engine_name
        self.log = EventLog(
            config.events_path,
            source=self.source,
            meta={
                "engine": engine_name,
                "worker": config.worker_id,
                "generation": config.generation,
                "scenario": config.scenario,
            },
        )

    def record_span(self, name: str, started: float, ended: float, **args: Any) -> None:
        """Record one wall-clock span (perf_counter endpoints) in the tracer."""
        self.tracer.span(
            name,
            started - self._perf_epoch,
            max(0.0, ended - started),
            track=self.source,
            category="worker",
            **args,
        )

    def flush_spans(self) -> None:
        """Write tracer spans recorded since the last flush to the shard."""
        new = self.tracer.spans[self._flushed_spans:]
        self._flushed_spans = len(self.tracer.spans)
        for span in new:
            end_s = (span.start_us + span.duration_us) / 1e6
            self.log.span(
                span.name,
                span.duration_us / 1e6,
                track=span.track,
                _wall=self._wall0 + end_s,
                **span.args,
            )

    def record_launch(self, seconds: float, report: Any) -> None:
        """Publish one launch into the registry, Session metric names."""
        engine = self._engine
        self.metrics.counter(
            "engine_launches_total", "launches executed per engine"
        ).inc(1, engine=engine)
        self.metrics.histogram(
            "engine_launch_seconds", "measured per-launch wall latency"
        ).observe(seconds, engine=engine)
        if report is None:
            return
        self.metrics.counter(
            "engine_cycles_total", "simulated accelerator cycles"
        ).inc(float(getattr(report, "cycles", 0.0)), engine=engine)
        self.metrics.counter(
            "engine_bytes_moved_total", "simulated off-chip traffic"
        ).inc(float(getattr(report, "bytes_moved", 0.0)), engine=engine)
        bandwidth = float(getattr(report, "effective_bandwidth_gbps", 0.0) or 0.0)
        if bandwidth:
            self.metrics.gauge(
                "engine_effective_bandwidth_gbps", "bytes moved / simulated seconds"
            ).set(bandwidth, engine=engine)

    def flush_metrics(self, **fields: Any) -> None:
        """Write a point-in-time snapshot of the registry to the shard."""
        snapshot = self.metrics.snapshot()
        if snapshot:
            self.log.metrics(snapshot, **fields)

    def on_fault(self, spec: Any, ordinal: int) -> None:
        """Injector observer: make the injected fault visible *pre-firing*.

        Flushes pending spans first, then emits the instant — for a crash
        spec both lines are on disk before ``os._exit`` fires.
        """
        self.flush_spans()
        self.log.emit(
            "fault_injected",
            fault=getattr(spec, "kind", "?"),
            name=getattr(spec, "name", ""),
            worker=self.worker_id,
            generation=self.generation,
            ordinal=ordinal,
        )

    def close(self) -> None:
        self.flush_spans()
        self.flush_metrics(final=True)
        self.log.close()


def _execute(
    config: WorkerConfig,
    engine,
    entry: _Served,
    batch: WorkBatch,
    obs: Optional[_WorkerObs] = None,
) -> BatchResult:
    """Run every launch of a batch, measuring wall time and engine cycles."""
    started = time.perf_counter()
    ys: List[Optional[np.ndarray]] = []
    cycles = 0.0
    for x in batch.xs:
        launch_started = time.perf_counter() if obs is not None else 0.0
        report = None
        if config.compute == "reference":
            ys.append(spmv(entry.prepared.matrix, x))
        elif config.compute == "simulate":
            result = engine.execute(entry.prepared, x)
            ys.append(result.y)
            report = result.report
            cycles += float(report.cycles)
        else:
            ys.append(None)
        if obs is not None:
            obs.record_launch(time.perf_counter() - launch_started, report)
    if obs is not None:
        obs.record_span(
            "execute",
            started,
            time.perf_counter(),
            batch=batch.batch_id,
            matrix=batch.matrix_key,
            requests=len(batch),
        )
    return BatchResult(
        batch_id=batch.batch_id,
        worker_id=config.worker_id,
        matrix_key=batch.matrix_key,
        request_ids=batch.request_ids,
        ys=ys,
        wall_seconds=time.perf_counter() - started,
        engine_cycles=cycles,
    )


def _write_shard_store(
    config: WorkerConfig, engine_name: str, totals: Dict[str, float]
) -> None:
    """Record this worker's lifetime totals into its shard results store."""
    if config.results_path is None:
        return
    # Imported here so the worker process pays for sqlite only when asked to.
    from ..obs.results import ResultsStore

    with ResultsStore(config.results_path) as store:
        store.record(
            topic="serve-wallclock-shard",
            scenario=config.scenario,
            engine=engine_name,
            config={
                "worker_id": config.worker_id,
                "engine": config.engine,
                "compute": config.compute,
            },
            metrics=totals,
        )


def worker_main(config: WorkerConfig, tasks, results) -> None:
    """Worker process entry point: serve tasks until ``stop``.

    ``tasks`` is this worker's private queue; ``results`` is the pool-wide
    reply queue (every reply is tagged with the worker id).
    """
    engine = create(config.engine)
    served: Dict[str, _Served] = {}
    totals = {
        "batches": 0.0,
        "requests": 0.0,
        "busy_seconds": 0.0,
        "engine_cycles": 0.0,
        "registered_matrices": 0.0,
        "faults_injected": 0.0,
    }
    executed = 0
    registrations = 0
    obs = _WorkerObs(config, engine.name) if config.events_path else None
    injector = None
    if config.faults:
        # Lazy, inside the worker process: the parallel layer only reaches
        # resilience when a fault plan is actually installed.
        from ..resilience.faults import WorkerFaultInjector

        injector = WorkerFaultInjector(
            specs=tuple(config.faults), generation=config.generation
        )
        if obs is not None:
            injector.observer = obs.on_fault
    results.put(("ready", config.worker_id))
    try:
        while True:
            task: Tuple[Any, ...] = tasks.get()
            kind = task[0]
            if kind == "stop":
                totals["registered_matrices"] = float(len(served))
                if injector is not None:
                    totals["faults_injected"] = float(injector.injected)
                _write_shard_store(config, engine.name, totals)
                if obs is not None:
                    obs.close()
                results.put(("stopped", config.worker_id, config.results_path))
                return
            if kind == "ping":
                if obs is not None:
                    # Heartbeat ack = incremental flush point: the pool's
                    # health pass makes metrics land on disk periodically,
                    # not only at a clean stop.
                    obs.flush_spans()
                    obs.flush_metrics(on="ping")
                results.put(("pong", config.worker_id, task[1]))
                continue
            if kind == "register":
                _, key, name, coo_descriptor, program_descriptor = task
                prepare_started = time.perf_counter()
                try:
                    if injector is not None:
                        injector.on_register(registrations)
                    did_work = _register(
                        config, engine, served, key, name,
                        coo_descriptor, program_descriptor,
                    )
                except Exception:  # noqa: BLE001 - reported to the pool
                    results.put(
                        ("error", config.worker_id, None, traceback.format_exc())
                    )
                else:
                    if obs is not None:
                        obs.record_span(
                            "prepare",
                            prepare_started,
                            time.perf_counter(),
                            matrix=name,
                            key=key,
                            built=did_work,
                        )
                        obs.log.emit(
                            "prepare",
                            matrix=name,
                            key=key,
                            ordinal=registrations,
                            built=did_work,
                        )
                        obs.flush_spans()
                    results.put(("registered", config.worker_id, key))
                registrations += 1
                continue
            if kind == "execute":
                batch: WorkBatch = task[1]
                batch_started = time.perf_counter()
                try:
                    entry = served[batch.matrix_key]
                    result = _execute(config, engine, entry, batch, obs)
                except Exception:  # noqa: BLE001 - reported to the pool
                    results.put(
                        ("error", config.worker_id, batch.batch_id, traceback.format_exc())
                    )
                    continue
                send_reply = True
                if injector is not None:
                    factor = injector.execute_factor(executed)
                    if factor > 1.0:
                        # A sick-but-alive worker: stretch the measured wall
                        # time for real so schedulers and breakers see it.
                        extra = (factor - 1.0) * max(result.wall_seconds, 1e-4)
                        time.sleep(min(extra, 5.0))
                        result.wall_seconds *= factor
                if obs is not None:
                    # The batch span (compute + injected stretch) and the
                    # execute event are flushed BEFORE the reply window —
                    # an injected crash/hang below never loses them.
                    obs.record_span(
                        "batch",
                        batch_started,
                        time.perf_counter(),
                        batch=batch.batch_id,
                        matrix=batch.matrix_key,
                        requests=len(batch),
                    )
                    obs.log.emit(
                        "execute",
                        batch=batch.batch_id,
                        matrix=batch.matrix_key,
                        requests=len(batch),
                        wall_seconds=result.wall_seconds,
                        engine_cycles=result.engine_cycles,
                        ordinal=executed,
                    )
                    obs.flush_spans()
                    if (executed + 1) % _WorkerObs.METRICS_EVERY == 0:
                        obs.flush_metrics(on="periodic")
                if injector is not None:
                    # Crash/hang/drop between computing and replying — the
                    # exact window the pool's retry logic has to cover
                    # without losing or duplicating the requests.
                    send_reply = injector.before_reply(executed)
                executed += 1
                totals["batches"] += 1.0
                totals["requests"] += float(len(batch))
                totals["busy_seconds"] += result.wall_seconds
                totals["engine_cycles"] += result.engine_cycles
                if send_reply:
                    results.put(("result", config.worker_id, result))
                continue
            results.put(
                ("error", config.worker_id, None, f"unknown task {kind!r}")
            )
    finally:
        if obs is not None:
            obs.close()
        for entry in served.values():
            for block in entry.blocks:
                block.close()
