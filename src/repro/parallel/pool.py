"""Wall-clock concurrent serving over a pool of engine worker processes.

Where :class:`~repro.serve.SpMVService` answers *modelled* capacity questions
in virtual time, :class:`WorkerPool` measures the real thing: it fans a load
trace out to N :mod:`repro.parallel.worker` processes, ships matrices and
prebuilt programs over shared memory (:mod:`repro.parallel.shm`), and reports
measured wall-clock latency percentiles and aggregate throughput next to the
modelled numbers.

Both clocks batch with one policy.  Each request enters a FIFO
:class:`~repro.serve.Scheduler` when it falls due, and whenever a worker has
a free inflight slot the scheduler pops the oldest queued request together
with up to ``max_batch - 1`` more queued requests for the same matrix.
Wall-clock mode drives load two ways.  The default is a *saturation*
benchmark: every request is due at the run start, and a request's latency is
measured from its batch's dispatch to its reply, so makespan and throughput
measure the pool at full load, the regime the paper's bandwidth argument is
about.  ``run_trace(..., open_loop=True)`` instead admits each request at
its recorded arrival time (stretchable via ``arrival_scale``) and measures
its latency from that due time, so queueing, deadlines and shedding reflect
the trace's arrival process.

Robustness, because real processes die:

* each worker is health-checked (liveness + a ping heartbeat on spawn and
  respawn) and every inflight batch carries a deadline,
* a dead or wedged worker is respawned and its matrices re-registered; each
  batch it lost is re-dispatched once, to whichever worker frees a slot
  first,
* repeated failures trip a per-worker
  :class:`~repro.resilience.CircuitBreaker` (closed/open/half-open with
  probe re-admission) consulted at dispatch, so the pool routes around sick
  workers instead of feeding them,
* a batch lost on both of its attempts, a batch a worker reports an error
  for, and every batch of a pool that failed to start run inline in the
  parent, so no request is ever lost,
* a late reply for a batch that was already answered (a worker that replied
  and was declared dead anyway) is dropped by batch id, so no request is
  ever double-counted,
* requests whose deadline (``run_trace(..., deadline_s=...)``) passes while
  they are queued are shed explicitly rather than served late.

Fault injection is declarative: pass a
:class:`~repro.resilience.FaultPlan` (``fault_plan=``) and each worker gets
its resolved share of the plan's crash/hang/slow/attach-failure/reply-drop
specs.  All resilience types are reached lazily (function-scoped imports),
keeping the layer DAG acyclic.

Per-worker shard :class:`~repro.obs.ResultsStore` databases are merged into
one store on shutdown via :meth:`~repro.obs.ResultsStore.merge`.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..backends import DEFAULT_ENGINE, PreparedMatrix, SpMVEngine, create
from ..formats import COOMatrix
from ..preprocess import SerpensProgram
from ..serve.cache import matrix_fingerprint
from ..serve.loadgen import LoadTrace
from ..serve.scheduler import Request, Scheduler
from ..spmv import spmv
from .shm import ShmBlock, share_coo, share_program
from .worker import BatchResult, WorkBatch, WorkerConfig, worker_main

__all__ = ["WallClockReport", "WallClockResult", "WorkerPool", "install_monitor"]

#: Dispatches one batch may take: the first and one retry after its worker
#: died or wedged.  A batch lost on both runs inline in the parent.
MAX_ATTEMPTS = 2

#: Optional concurrency monitor (duck-typed: ``wait_started``/``wait_finished``,
#: ``section``, ``reader_loop_started``/``reader_pumped``).  The sanitizer in
#: repro.analysis installs itself here; this module never imports analysis.
_MONITOR = None


def install_monitor(monitor) -> None:
    """Install (or with ``None`` remove) the pool concurrency monitor."""
    global _MONITOR
    _MONITOR = monitor


class _NullSection:
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None


_NULL_SECTION = _NullSection()


def _mon_section(name: str):
    return _NULL_SECTION if _MONITOR is None else _MONITOR.section(name)


def _mon_wait_start(kind: str, timeout: float):
    return None if _MONITOR is None else _MONITOR.wait_started(kind, timeout)


def _mon_wait_end(token) -> None:
    if token is not None and _MONITOR is not None:
        _MONITOR.wait_finished(token)


@dataclass
class WallClockResult:
    """One request's measured outcome."""

    request_id: int
    matrix_name: str
    tenant: str
    worker_id: int  # -1 when executed inline in the parent
    y: Optional[np.ndarray]
    latency_seconds: float
    batch_size: int
    #: Shed (deadline expired before dispatch): ``y`` is None and the
    #: latency is the age at the shed decision, not a service time.
    shed: bool = False
    shed_reason: str = ""


@dataclass
class WallClockReport:
    """Everything one wall-clock run measured."""

    scenario: str
    num_workers: int
    compute: str
    engine: str
    results: List[WallClockResult]
    makespan_seconds: float
    engine_cycles: float
    traversed_edges: float
    batches: int
    retries: int
    respawns: int
    inline_requests: int
    prepare_count: int
    #: Batches that fell back to inline execution in the parent (retry
    #: attempts exhausted, worker error, or breaker starvation guard).
    degraded_batches: int = 0
    #: Requests shed because their deadline expired before dispatch.
    deadline_misses: int = 0
    shed_requests: int = 0
    #: Always 0, since the pool does not hedge stragglers; kept for the
    #: snapshot readers that still list it.
    hedges: int = 0
    #: Fault specs in the installed plan (0 = fault-free run).
    faults_planned: int = 0

    def latencies(self) -> List[float]:
        return [r.latency_seconds for r in self.results if not r.shed]

    @property
    def completed(self) -> List[WallClockResult]:
        return [r for r in self.results if not r.shed]

    def snapshot(self) -> Dict[str, float]:
        """Measured metrics under the telemetry snapshot's names.

        Mirrors :meth:`repro.serve.ServiceTelemetry.snapshot` keys where the
        quantities correspond, so modelled and measured runs land in the same
        columns of a results store.
        """
        completed = self.completed
        latencies_ms = sorted(r.latency_seconds * 1e3 for r in completed)
        span = max(self.makespan_seconds, 1e-12)

        def percentile(fraction: float) -> float:
            if not latencies_ms:
                return 0.0
            return float(np.percentile(latencies_ms, fraction))

        return {
            "completed": float(len(completed)),
            "latency_p50_ms": percentile(50),
            "latency_p95_ms": percentile(95),
            "latency_p99_ms": percentile(99),
            "throughput_rps": len(completed) / span,
            "aggregate_mteps": self.traversed_edges / span / 1e6,
            "makespan_seconds": self.makespan_seconds,
            "mean_batch_size": (
                len(completed) / self.batches if self.batches else 0.0
            ),
            "engine_cycles_total": self.engine_cycles,
            "workers": float(self.num_workers),
            "retries": float(self.retries),
            "respawns": float(self.respawns),
            "inline_requests": float(self.inline_requests),
            "prepare_count": float(self.prepare_count),
            "degraded_batches": float(self.degraded_batches),
            "deadline_misses": float(self.deadline_misses),
            "shed_requests": float(self.shed_requests),
            "hedges": float(self.hedges),
            "faults_planned": float(self.faults_planned),
        }


@dataclass
class _Registered:
    """Parent-side record of one matrix shared with the workers."""

    key: str
    name: str
    matrix: COOMatrix
    coo_block: Optional[ShmBlock]
    #: engine name -> shared prebuilt program (Serpens engines only).
    program_blocks: Dict[str, ShmBlock] = field(default_factory=dict)
    #: engine name -> parent-side payload for inline fallback execution.
    payloads: Dict[str, Any] = field(default_factory=dict)


@dataclass
class _Slot:
    """One worker slot; the process in it may be respawned."""

    worker_id: int
    engine: str
    process: Optional[multiprocessing.Process] = None
    tasks: Any = None
    reply: Any = None
    reader: Optional[threading.Thread] = None
    respawns: int = 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


@dataclass
class _BatchState:
    """Lifecycle of one batch popped from the scheduler."""

    batch: WorkBatch
    #: The scheduler requests; ``arrival_time`` is each one's due time in
    #: seconds after the run start.
    requests: List[Request]
    matrix: _Registered
    #: Worker of the latest dispatch; -1 before the first.
    worker_id: int = -1
    #: ``perf_counter`` of the latest dispatch (or of the inline run).
    enqueued_at: float = 0.0
    #: Dispatches so far, at most :data:`MAX_ATTEMPTS`.
    attempts: int = 0


def _pump_replies(source, sink: "queue_module.Queue", worker_id: int = -1) -> None:
    """Drain one worker's reply queue into the pool's in-process queue.

    Runs as a daemon thread.  When the worker dies the queue either raises
    (pipe closed) or blocks forever on a truncated message; either way the
    thread is simply abandoned and the pool keeps running.
    """
    if _MONITOR is not None:
        _MONITOR.reader_loop_started(worker_id)
    while True:
        try:
            sink.put(source.get())
        except (EOFError, OSError):  # pragma: no cover - pipe torn down
            return
        if _MONITOR is not None:
            _MONITOR.reader_pumped(worker_id)


class WorkerPool:
    """Shards SpMV requests across engine worker processes.

    Parameters
    ----------
    num_workers:
        Worker process count; ``0`` serves everything inline in the parent
        (the degraded mode the pool also falls back to on repeated failure).
    engines:
        One engine registry name for the whole pool, or one per worker
        (cycled when shorter than ``num_workers``).  Workers build each
        engine from its name with the registry defaults (the fast paths).
    compute:
        ``"simulate"`` (engine datapath, default), ``"reference"`` (golden
        numpy kernel) or ``"none"``; the same modes the virtual-time service
        takes, so measured and modelled runs compute identical numerics.
    max_batch / max_inflight:
        Largest same-matrix batch, and the bound on batches queued per
        worker at once (backpressure, so a slow worker does not hoard work).
    batch_timeout:
        Seconds after which an unanswered batch declares its worker wedged.
        A ``fault_plan`` carrying its own ``batch_timeout`` hint tightens
        this (the plan pins the experiment, not every invocation).
    results_path:
        Merged results database; per-worker shards are written next to it as
        ``<path>.shard<N>`` and folded in on :meth:`shutdown`.
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan`; each worker receives
        its resolved share of the plan's specs.
    breaker:
        ``"default"`` gives every worker a
        :class:`~repro.resilience.CircuitBreaker`; ``None`` disables
        breaking; a mapping ``{worker_id: CircuitBreaker}`` installs custom
        ones.
    events_path:
        Prefix for the run's event shards (see :mod:`repro.obs.events`).
        The pool writes ``<prefix>.pool.jsonl``; each worker incarnation
        writes ``<prefix>.worker<N>.g<G>.jsonl`` beside it.  Every batch
        lifecycle step and resilience decision (retry/breaker
        transition/shed/respawn/injected fault) becomes a structured
        event; :class:`repro.obs.MergedEvents` aligns the shards into one
        timeline afterwards.  ``None`` (default) disables event logging —
        the obs layer is then never imported from here.
    """

    def __init__(
        self,
        num_workers: int = 2,
        engines: Optional[Sequence[str]] = None,
        compute: str = "simulate",
        max_batch: int = 8,
        max_inflight: int = 2,
        batch_timeout: float = 120.0,
        spawn_timeout: float = 60.0,
        results_path: Optional[str] = None,
        scenario: str = "adhoc",
        start_method: Optional[str] = None,
        fault_plan=None,
        breaker="default",
        events_path: Optional[str] = None,
    ) -> None:
        if num_workers < 0:
            raise ValueError("num_workers must be non-negative")
        if compute not in ("simulate", "reference", "none"):
            raise ValueError(f"unknown compute mode {compute!r}")
        if isinstance(engines, str):
            engines = [engines]
        names = list(engines) if engines else [DEFAULT_ENGINE]
        # Function-scoped import: the parallel layer reaches resilience only
        # through this lazy edge (see analysis/layers.toml).
        from ..resilience.policy import CircuitBreaker

        self._plan = fault_plan
        if fault_plan is not None and fault_plan.batch_timeout is not None:
            batch_timeout = min(batch_timeout, fault_plan.batch_timeout)
        self.num_workers = num_workers
        self.compute = compute
        self.max_batch = max(1, max_batch)
        self.max_inflight = max(1, max_inflight)
        self.batch_timeout = batch_timeout
        self.spawn_timeout = spawn_timeout
        self.results_path = results_path
        self.scenario = scenario
        if breaker == "default":
            self._breakers = {
                i: CircuitBreaker(
                    failure_threshold=3, cooldown_seconds=2.0, name=f"worker-{i}"
                )
                for i in range(num_workers)
            }
        else:
            self._breakers = dict(breaker or {})
        self.events_path = events_path
        self._events = None
        # Breaker transitions become first-class events via the breakers'
        # duck-typed observer hook (resilience never imports obs for this).
        for worker_id, brk in self._breakers.items():
            if getattr(brk, "observer", None) is None:
                brk.observer = self._breaker_observer(worker_id)
        self._ctx = multiprocessing.get_context(
            start_method
            or ("fork" if "fork" in multiprocessing.get_all_start_methods() else None)
        )
        self._slots = [
            _Slot(worker_id=i, engine=names[i % len(names)])
            for i in range(num_workers)
        ]
        # Replies flow: worker -> its own mp queue -> a daemon reader thread
        # -> this in-process queue.  The main thread only ever blocks here,
        # so a worker dying mid-reply (truncating a pickled message on its
        # pipe) wedges at most its abandoned reader thread, never the pool.
        self._replies: "queue_module.Queue" = queue_module.Queue()
        self._registered: Dict[str, _Registered] = {}
        self._inline_engines: Dict[str, SpMVEngine] = {}
        self._pending: Dict[str, List[Tuple[Any, ...]]] = {}
        self._started = False
        self._closed = False
        self.retries = 0
        self.respawns = 0
        self.inline_requests = 0
        self.degraded_batches = 0
        self.deadline_misses = 0
        self.shed_requests = 0

    # ------------------------------------------------------------------
    # Event logging (lazy obs edge)
    # ------------------------------------------------------------------
    def _open_events(self) -> None:
        if self._events is not None or self.events_path is None:
            return
        # Function-scoped import: obs is only reached when event logging
        # was actually requested (see analysis/layers.toml).
        from ..obs.events import EventLog

        self._events = EventLog(
            f"{self.events_path}.pool.jsonl",
            source="pool",
            meta={
                "scenario": self.scenario,
                "workers": self.num_workers,
                "compute": self.compute,
            },
        )

    def _emit(self, kind: str, **fields) -> None:
        if self._events is not None:
            self._events.emit(kind, **fields)

    def _breaker_observer(self, worker_id: int):
        kinds = {"open": "breaker_open", "half-open": "breaker_half_open",
                 "closed": "breaker_close"}

        def observe(breaker, old_state: str, new_state: str) -> None:
            self._emit(
                kinds.get(new_state, "breaker_open"),
                worker=worker_id,
                old_state=old_state,
                consecutive_failures=breaker.consecutive_failures,
                trips=breaker.trips,
            )

        return observe

    def _worker_events_path(self, worker_id: int, generation: int) -> Optional[str]:
        """Shard path for one worker incarnation.

        The generation is part of the name so a respawned worker never
        truncates its dead predecessor's shard — the pre-crash records are
        evidence the merged timeline must keep.
        """
        if self.events_path is None:
            return None
        return f"{self.events_path}.worker{worker_id}.g{generation}.jsonl"

    def event_shard_paths(self) -> List[Path]:
        """Every event shard this run has written so far (pool + workers)."""
        if self.events_path is None:
            return []
        prefix = Path(self.events_path)
        return sorted(prefix.parent.glob(f"{prefix.name}.*.jsonl"))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn and health-check every worker (idempotent)."""
        self._open_events()
        if self._started or not self.num_workers:
            self._started = True
            return
        # The resource tracker must exist BEFORE the first fork: children
        # then inherit the parent's tracker instead of lazily starting their
        # own on first shm attach.  A worker-private tracker is a time bomb —
        # when that worker dies, its tracker treats every segment the worker
        # ever attached as leaked and unlinks them out from under the pool.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - private API drift
            pass
        for slot in self._slots:
            self._spawn(slot)
        self._started = True

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _shard_path(self, worker_id: int) -> Optional[str]:
        if self.results_path is None:
            return None
        return f"{self.results_path}.shard{worker_id}"

    def _spawn(self, slot: _Slot) -> None:
        """Start (or restart) the process in a slot and wait until healthy."""
        faults: Tuple[Any, ...] = ()
        if self._plan is not None:
            faults = self._plan.faults_for_worker(slot.worker_id, self.num_workers)
        config = WorkerConfig(
            worker_id=slot.worker_id,
            engine=slot.engine,
            compute=self.compute,
            results_path=self._shard_path(slot.worker_id),
            scenario=self.scenario,
            faults=faults,
            generation=slot.respawns,
            events_path=self._worker_events_path(slot.worker_id, slot.respawns),
        )
        slot.tasks = self._ctx.Queue()
        slot.reply = self._ctx.Queue()
        slot.process = self._ctx.Process(
            target=worker_main,
            args=(config, slot.tasks, slot.reply),
            daemon=True,
            name=f"repro-worker-{slot.worker_id}",
        )
        slot.process.start()
        slot.reader = threading.Thread(
            target=_pump_replies,
            args=(slot.reply, self._replies, slot.worker_id),
            daemon=True,
            name=f"repro-reader-{slot.worker_id}",
        )
        slot.reader.start()
        self._wait_for(
            "ready", lambda msg: msg[1] == slot.worker_id, self.spawn_timeout
        )
        self.ping(slot.worker_id)

    def ping(self, worker_id: int, timeout: Optional[float] = None) -> bool:
        """Heartbeat one worker; raises ``TimeoutError`` when it is gone."""
        slot = self._slots[worker_id]
        token = uuid.uuid4().hex
        with _mon_section("tasks"):
            slot.tasks.put(("ping", token))
        self._wait_for(
            "pong",
            lambda msg: msg[1] == worker_id and msg[2] == token,
            timeout if timeout is not None else self.spawn_timeout,
        )
        return True

    def shutdown(self, timeout: float = 30.0) -> None:
        """Stop workers, merge shard result stores, release shared memory."""
        if self._closed:
            return
        self._closed = True
        shard_paths: List[str] = []
        if self._started and self.num_workers:
            waiting = []
            for slot in self._slots:
                if slot.alive:
                    with _mon_section("tasks"):
                        slot.tasks.put(("stop",))
                    waiting.append(slot.worker_id)
            deadline = time.monotonic() + timeout
            for worker_id in waiting:
                try:
                    msg = self._wait_for(
                        "stopped",
                        lambda m, w=worker_id: m[1] == w,
                        max(0.1, deadline - time.monotonic()),
                    )
                    if msg[2]:
                        shard_paths.append(msg[2])
                except TimeoutError:
                    pass
            for slot in self._slots:
                if slot.process is not None:
                    # Joins share the caller's overall deadline: shutdown of
                    # a pool of N hung workers must cost ~`timeout`, not 5*N.
                    slot.process.join(
                        timeout=min(5.0, max(0.1, deadline - time.monotonic()))
                    )
                    if slot.process.is_alive():  # pragma: no cover - stragglers
                        slot.process.terminate()
                        slot.process.join(
                            timeout=min(5.0, max(0.1, deadline - time.monotonic()))
                        )
                if slot.tasks is not None:
                    # Never block interpreter exit on flushing tasks to a
                    # worker that is no longer reading them.
                    slot.tasks.cancel_join_thread()
                    slot.tasks.close()
        self._merge_shards(shard_paths)
        if self._events is not None:
            self._events.close()
        for entry in self._registered.values():
            entry.coo_block.unlink()
            for block in entry.program_blocks.values():
                block.unlink()
        self._registered.clear()

    def _merge_shards(self, shard_paths: List[str]) -> None:
        if self.results_path is None:
            return
        from ..obs.results import ResultsStore

        with ResultsStore(self.results_path) as store:
            for shard in sorted(shard_paths):
                if Path(shard).exists():
                    store.merge(shard)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, matrix: COOMatrix, name: str) -> str:
        """Share a matrix (and prebuilt programs) with every worker.

        Returns the matrix key used by :meth:`run_trace` internals.
        """
        self.start()
        key = matrix_fingerprint(matrix)
        if key in self._registered:
            return key
        prepare_started = time.perf_counter()
        entry = _Registered(
            key=key, name=name, matrix=matrix, coo_block=share_coo(matrix)
        )
        if self.compute == "simulate":
            for engine_name in {slot.engine for slot in self._slots} or {""}:
                if not engine_name:
                    continue
                payload = self._inline_engine(engine_name).build_payload(matrix)
                entry.payloads[engine_name] = payload
                if isinstance(payload, SerpensProgram):
                    entry.program_blocks[engine_name] = share_program(payload)
        self._registered[key] = entry
        for slot in self._slots:
            self._register_with_worker(slot, entry)
        if self._events is not None:
            # Pool-side prepare: sharing the matrix + building the parent
            # payloads + fanning registration out to every worker.
            self._events.span(
                "prepare",
                time.perf_counter() - prepare_started,
                matrix=name,
                key=key,
            )
        return key

    def _register_with_worker(self, slot: _Slot, entry: _Registered) -> bool:
        """Register one matrix with one worker; retry once on a reported error.

        A registration error (e.g. an shm attach failure on a respawned
        worker) is retried once — transient attach failures usually clear —
        and a second failure marks the worker sick on its breaker so
        dispatch routes around it.  Returns whether the worker holds the
        matrix.
        """
        program_block = entry.program_blocks.get(slot.engine)
        task = (
            "register",
            entry.key,
            entry.name,
            entry.coo_block.descriptor,
            None if program_block is None else program_block.descriptor,
        )
        for _attempt in range(2):
            with _mon_section("tasks"):
                slot.tasks.put(task)
            try:
                msg = self._wait_for_any(
                    ("registered", "error"),
                    lambda m: m[1] == slot.worker_id
                    and (m[2] == entry.key if m[0] == "registered" else m[2] is None),
                    self.spawn_timeout,
                )
            except TimeoutError:
                # Crashed (or wedged) during prepare: no reply will ever
                # come.  Mark it sick and move on — the run loop's health
                # pass respawns the worker and re-registers everything.
                break
            if msg[0] == "registered":
                return True
        self._record_worker_failure(slot.worker_id)
        return False

    # ------------------------------------------------------------------
    # Circuit breakers
    # ------------------------------------------------------------------
    def _record_worker_failure(self, worker_id: int) -> None:
        breaker = self._breakers.get(worker_id)
        if breaker is not None:
            breaker.record_failure(time.monotonic())

    def _record_worker_success(self, worker_id: int) -> None:
        breaker = self._breakers.get(worker_id)
        if breaker is not None:
            breaker.record_success()

    def breaker_state(self, worker_id: int) -> Optional[str]:
        """The breaker state of one worker (``None`` when breaking is off)."""
        breaker = self._breakers.get(worker_id)
        return None if breaker is None else breaker.state

    # ------------------------------------------------------------------
    # Control-plane message routing
    # ------------------------------------------------------------------
    def _wait_for(self, kind: str, predicate, timeout: float) -> Tuple[Any, ...]:
        """Next control message of ``kind`` matching ``predicate``.

        Non-matching messages are buffered for their own consumers, so acks
        and results can interleave freely on the one reply queue.
        """
        return self._wait_for_any((kind,), predicate, timeout)

    def _wait_for_any(
        self, kinds: Tuple[str, ...], predicate, timeout: float
    ) -> Tuple[Any, ...]:
        """Next control message whose kind is in ``kinds`` and matches."""
        for kind in kinds:
            buffered = self._pending.get(kind, [])
            for index, msg in enumerate(buffered):
                if predicate(msg):
                    return buffered.pop(index)
        deadline = time.monotonic() + timeout
        token = _mon_wait_start("/".join(kinds), timeout)
        try:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"timed out waiting for {'/'.join(kinds)!r} from worker"
                    )
                try:
                    msg = self._replies.get(timeout=min(remaining, 0.25))
                except queue_module.Empty:
                    continue
                if msg[0] in kinds and predicate(msg):
                    return msg
                self._pending.setdefault(msg[0], []).append(msg)
        finally:
            _mon_wait_end(token)

    def _next_message(self, timeout: float) -> Optional[Tuple[Any, ...]]:
        """Next buffered or queued message of any kind (None on timeout)."""
        for kind in ("result", "error"):
            buffered = self._pending.get(kind)
            if buffered:
                return buffered.pop(0)
        token = _mon_wait_start("message", timeout) if timeout else None
        try:
            return self._replies.get(timeout=timeout) if timeout else self._replies.get_nowait()
        except queue_module.Empty:
            return None
        finally:
            _mon_wait_end(token)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_trace(
        self,
        trace: LoadTrace,
        *,
        open_loop: bool = False,
        arrival_scale: float = 1.0,
        deadline_s: Optional[float] = None,
    ) -> WallClockReport:
        """Serve a load trace and measure it on the wall clock.

        Every request is due at the run start (saturation) unless
        ``open_loop=True``, which makes it due at its recorded arrival time
        stretched by ``arrival_scale`` and measures its latency from then.
        ``deadline_s`` gives every request that budget from its due time; a
        request still queued past it is shed (``y=None``,
        ``shed_reason="deadline"``) instead of served late.
        """
        if self._closed:
            raise RuntimeError("pool is shut down")
        if arrival_scale <= 0:
            raise ValueError("arrival_scale must be positive")
        pooled = self.num_workers > 0
        if pooled:
            try:
                self.start()
            except (TimeoutError, OSError):  # pragma: no cover - spawn failure
                pooled = False
        entries = [
            self._registered[self.register(w.matrix, w.name)]
            if pooled
            else _Registered(
                key=matrix_fingerprint(w.matrix),
                name=w.name,
                matrix=w.matrix,
                coo_block=None,  # inline-only: nothing is shared
            )
            for w in trace.matrices
        ]
        matrices: Dict[str, _Registered] = {}
        for entry in entries:
            matrices.setdefault(entry.key, entry)
        # Trace requests are in arrival order, so this list is in due order.
        requests: List[Request] = []
        for index, request in enumerate(trace.requests):
            entry = entries[request.matrix_id]
            due = request.arrival_time * arrival_scale if open_loop else 0.0
            requests.append(
                Request(
                    request_id=index,
                    tenant=request.tenant,
                    fingerprint=entry.key,
                    x=trace.x_vector(request, entry.matrix.num_cols),
                    arrival_time=due,
                    deadline=None if deadline_s is None else due + deadline_s,
                )
            )
        run_started = time.perf_counter()
        results, batches, cycles, edges = self._serve(
            requests, matrices, pooled, open_loop, run_started
        )
        makespan = time.perf_counter() - run_started
        results.sort(key=lambda r: r.request_id)
        report = WallClockReport(
            scenario=trace.scenario,
            num_workers=self.num_workers,
            compute=self.compute,
            engine="+".join(sorted({s.engine for s in self._slots}))
            or next(iter(self._inline_engines), "inline"),
            results=results,
            makespan_seconds=makespan,
            engine_cycles=cycles,
            traversed_edges=edges,
            batches=batches,
            retries=self.retries,
            respawns=self.respawns,
            inline_requests=self.inline_requests,
            prepare_count=sum(
                max(1, len(e.payloads)) for e in self._registered.values()
            )
            if self._registered
            else len(matrices),
            degraded_batches=self.degraded_batches,
            deadline_misses=self.deadline_misses,
            shed_requests=self.shed_requests,
            faults_planned=len(self._plan.faults) if self._plan is not None else 0,
        )
        if self._events is not None:
            self._events.metrics(report.snapshot(), on="run_end")
        return report

    def _serve(
        self,
        requests: List[Request],
        matrices: Dict[str, _Registered],
        pooled: bool,
        open_loop: bool,
        run_started: float,
    ) -> Tuple[List[WallClockResult], int, float, float]:
        """Admit requests as they fall due and serve the scheduler's batches.

        Batches go to the workers, or with ``pooled=False`` run inline one
        at a time.  Returns the results, the batch count, the engine cycles
        and the traversed edges.
        """
        scheduler = Scheduler(policy="fifo", max_batch=self.max_batch)
        inflight: Dict[int, _BatchState] = {}
        #: Batches a dead worker lost, waiting for their second dispatch.
        lost: Deque[_BatchState] = deque()
        results: List[WallClockResult] = []
        cycles = edges = 0.0
        admitted = 0

        def due_at(index: int) -> float:
            return run_started + requests[index].arrival_time

        def admit(now: float) -> None:
            nonlocal admitted
            while admitted < len(requests) and due_at(admitted) <= now:
                scheduler.admit(requests[admitted])
                admitted += 1
            expired = scheduler.expire(now - run_started)
            if not expired:
                return
            self.shed_requests += len(expired)
            self.deadline_misses += len(expired)
            self._emit(
                "deadline_shed",
                requests=len(expired),
                request_ids=[r.request_id for r in expired],
                reason="deadline",
            )
            for request in expired:
                results.append(
                    WallClockResult(
                        request_id=request.request_id,
                        matrix_name=matrices[request.fingerprint].name,
                        tenant=request.tenant,
                        worker_id=-1,
                        y=None,
                        latency_seconds=now - run_started - request.arrival_time,
                        batch_size=0,
                        shed=True,
                        shed_reason="deadline",
                    )
                )

        def form() -> _BatchState:
            """Pop the scheduler's next batch (some request must be queued)."""
            queued = scheduler.next_batch()
            entry = matrices[queued[0].fingerprint]
            batch = WorkBatch(
                batch_id=scheduler.batches - 1,
                matrix_key=entry.key,
                request_ids=tuple(r.request_id for r in queued),
                xs=tuple(r.x for r in queued),
            )
            self._emit(
                "enqueue", batch=batch.batch_id, matrix=entry.name, requests=len(queued)
            )
            return _BatchState(batch=batch, requests=queued, matrix=entry)

        def complete(state: _BatchState, result: BatchResult, worker_id: int) -> None:
            nonlocal cycles, edges
            now = time.perf_counter()
            if worker_id >= 0:
                self._record_worker_success(worker_id)
            self._emit(
                "reply",
                batch=state.batch.batch_id,
                worker=worker_id,
                requests=len(state.requests),
                latency_s=now - state.enqueued_at,
            )
            cycles += result.engine_cycles
            edges += float(len(state.requests)) * state.matrix.matrix.nnz
            for request, y in zip(state.requests, result.ys):
                base = (
                    run_started + request.arrival_time
                    if open_loop
                    else state.enqueued_at
                )
                results.append(
                    WallClockResult(
                        request_id=request.request_id,
                        matrix_name=state.matrix.name,
                        tenant=request.tenant,
                        worker_id=worker_id,
                        y=y,
                        latency_seconds=now - base,
                        batch_size=len(state.requests),
                    )
                )

        def run_inline(state: _BatchState, degraded: bool = True) -> None:
            if degraded:
                self.degraded_batches += 1
            if not state.attempts:
                state.enqueued_at = time.perf_counter()
            complete(state, self._execute_inline_state(state), worker_id=-1)

        def handle(msg: Tuple[Any, ...]) -> None:
            kind = msg[0]
            if kind == "result":
                # None for a late reply to a batch already answered.
                state = inflight.pop(msg[2].batch_id, None)
                if state is not None:
                    complete(state, msg[2], msg[1])
            elif kind == "error":
                if isinstance(msg[1], int):
                    self._record_worker_failure(msg[1])
                state = inflight.pop(msg[2], None)
                if state is not None:
                    run_inline(state)
            else:
                self._pending.setdefault(kind, []).append(msg)

        def dispatch(now: float) -> None:
            for slot in self._slots:
                room = self.max_inflight - sum(
                    1 for s in inflight.values() if s.worker_id == slot.worker_id
                )
                if room <= 0 or not (lost or scheduler.depth) or not slot.alive:
                    continue
                breaker = self._breakers.get(slot.worker_id)
                while room > 0 and (lost or scheduler.depth):
                    if breaker is not None and not breaker.allow(time.monotonic()):
                        break
                    state = lost.popleft() if lost else form()
                    state.worker_id = slot.worker_id
                    state.attempts += 1
                    state.enqueued_at = now
                    inflight[state.batch.batch_id] = state
                    with _mon_section("tasks"):
                        slot.tasks.put(("execute", state.batch))
                    self._emit(
                        "dispatch",
                        batch=state.batch.batch_id,
                        worker=slot.worker_id,
                        attempt=state.attempts,
                        requests=len(state.requests),
                        request_ids=list(state.batch.request_ids),
                    )
                    room -= 1

        def degrade_if_starved() -> None:
            """Guarantee progress when every breaker refuses traffic.

            With work queued, nothing inflight, and no worker admissible,
            one batch runs inline — waiting out a cooldown must never
            deadlock the run.
            """
            if inflight or not (lost or scheduler.depth):
                return
            now = time.monotonic()
            if any(
                slot.alive
                and (
                    self._breakers.get(slot.worker_id) is None
                    or self._breakers[slot.worker_id].would_allow(now)
                )
                for slot in self._slots
            ):
                return
            run_inline(lost.popleft() if lost else form())

        total = len(requests)
        # Health passes must not be starved by a steady reply stream from
        # healthy workers: a wedged worker's batch would otherwise wait for
        # total silence before the timeout could fire.
        health_interval = min(1.0, max(0.05, self.batch_timeout / 4.0))
        last_health = time.perf_counter()
        while len(results) < total:
            now = time.perf_counter()
            admit(now)
            if not pooled:
                if scheduler.depth:
                    run_inline(form(), degraded=False)
                elif admitted < total:
                    time.sleep(max(0.0, due_at(admitted) - now))
                continue
            dispatch(now)
            if len(results) == total:
                break
            wait = 0.25
            if admitted < total:
                wait = min(wait, max(0.0, due_at(admitted) - now))
            msg = self._next_message(timeout=wait)
            if msg is not None:
                handle(msg)
                if time.perf_counter() - last_health < health_interval:
                    continue
            last_health = time.perf_counter()
            self._recover_dead_workers(inflight, lost, handle, run_inline)
            degrade_if_starved()
        return results, scheduler.batches, cycles, edges

    def _recover_dead_workers(
        self,
        inflight: Dict[int, _BatchState],
        lost: Deque[_BatchState],
        handle: Callable[[Tuple[Any, ...]], None],
        run_inline: Callable[[_BatchState], None],
    ) -> None:
        """Respawn dead or wedged workers and take back their batches.

        A lost batch waits in ``lost`` for its second dispatch, to any
        worker; one that has had :data:`MAX_ATTEMPTS` runs inline.
        """
        now = time.perf_counter()
        for slot in self._slots:
            wedged = any(
                now - state.enqueued_at > self.batch_timeout
                for state in inflight.values()
                if state.worker_id == slot.worker_id
            )
            if slot.alive and not wedged:
                continue
            if slot.alive:  # pragma: no cover - wedged but alive
                slot.process.terminate()
                slot.process.join(timeout=5.0)
            # Handle any replies the worker managed to send before dying so
            # finished batches are not needlessly retried.
            msg = self._next_message(timeout=0.0)
            while msg is not None:
                handle(msg)
                msg = self._next_message(timeout=0.0)
            dropped = [
                inflight.pop(batch_id)
                for batch_id, state in list(inflight.items())
                if state.worker_id == slot.worker_id
            ]
            self.respawns += 1
            slot.respawns += 1
            self._record_worker_failure(slot.worker_id)
            # Abandon the dead worker's queues: nothing must ever block on
            # flushing tasks into a pipe no one reads again.  (An injected
            # fault does not re-fire after recovery: the replacement worker's
            # injector filters specs by generation.)
            slot.tasks.cancel_join_thread()
            slot.tasks.close()
            respawned = True
            try:
                self._spawn(slot)
                for entry in self._registered.values():
                    self._register_with_worker(slot, entry)
            except TimeoutError:  # pragma: no cover - respawn failure
                respawned = False
            self._emit(
                "respawn",
                worker=slot.worker_id,
                generation=slot.respawns,
                lost_batches=len(dropped),
                ok=respawned,
            )
            for state in dropped:
                if state.attempts < MAX_ATTEMPTS:
                    self.retries += 1
                    lost.append(state)
                    self._emit(
                        "retry",
                        batch=state.batch.batch_id,
                        worker=slot.worker_id,
                        attempt=state.attempts,
                    )
                else:
                    run_inline(state)

    # ------------------------------------------------------------------
    # Inline (degraded) execution
    # ------------------------------------------------------------------
    def _inline_engine(self, name: str) -> SpMVEngine:
        engine = self._inline_engines.get(name)
        if engine is None:
            engine = create(name)
            self._inline_engines[name] = engine
        return engine

    def _execute_inline_state(self, state: _BatchState) -> BatchResult:
        """Execute one batch in the parent process (last-resort path)."""
        self.inline_requests += len(state.requests)
        entry = state.matrix
        engine_name = (
            self._slots[state.worker_id].engine
            if 0 <= state.worker_id < len(self._slots)
            else (self._slots[0].engine if self._slots else DEFAULT_ENGINE)
        )
        started = time.perf_counter()
        ys: List[Optional[np.ndarray]] = []
        cycles = 0.0
        if self.compute == "simulate":
            engine = self._inline_engine(engine_name)
            payload = entry.payloads.get(engine_name)
            if payload is None:
                payload = engine.build_payload(entry.matrix)
                entry.payloads[engine_name] = payload
            prepared = PreparedMatrix(
                engine=engine.name,
                matrix=entry.matrix,
                name=entry.name,
                fingerprint=entry.key,
                payload=payload,
            )
            for x in state.batch.xs:
                result = engine.execute(prepared, x)
                ys.append(result.y)
                cycles += float(result.report.cycles)
        elif self.compute == "reference":
            ys = [spmv(entry.matrix, x) for x in state.batch.xs]
        else:
            ys = [None] * len(state.batch.xs)
        return BatchResult(
            batch_id=state.batch.batch_id,
            worker_id=-1,
            matrix_key=state.batch.matrix_key,
            request_ids=state.batch.request_ids,
            ys=ys,
            wall_seconds=time.perf_counter() - started,
            engine_cycles=cycles,
        )
