"""`SpMVService`: a multi-accelerator serving facade over the simulator.

This is the deployment story of the paper turned into a service: matrices
are registered once (preprocessed lazily, cached in a bounded
:class:`~repro.serve.cache.ProgramCache`), requests are submitted with
arrival timestamps, and :meth:`SpMVService.drain` runs a deterministic
discrete-event loop over a pool of simulated devices:

* arrivals queue in the scheduler; a request still queued when its
  deadline passes is shed (the one shed path, shared with the wall-clock
  worker pool),
* idle devices pull same-matrix batches; switching the resident matrix
  charges a program reload over the host link, and a cache miss
  additionally charges re-preprocessing — so batching and a warm cache
  both show up as real latency wins,
* sharded matrices fan one batch out to every device holding a row block
  and the outputs concatenate back into the full vector.

All timing is *virtual*: the clock only advances to arrival times and
device completion times derived from the cycle model, so a run is exactly
reproducible from its seed regardless of host speed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..backends import PreparedMatrix
from ..formats import COOMatrix, CSRMatrix
from ..spmv import spmv
from ..serpens import SERPENS_A16
from .cache import ProgramCache, matrix_fingerprint
from .loadgen import LoadTrace
from .pool import AcceleratorPool, DeviceSpec, Placement, PooledDevice, Shard, shard_rows
from .scheduler import Request, Scheduler
from .telemetry import ServiceTelemetry

__all__ = ["RequestResult", "ServiceHandle", "ServiceReport", "SpMVService"]

COMPUTE_MODES = ("reference", "simulate", "none")

#: Host-link bandwidth (GB/s, PCIe-class) charged when a device switches its
#: resident program.
HOST_LINK_GBPS = 16.0
#: Host preprocessing throughput (million non-zeros per second) charged when
#: a dispatch misses the program cache.
PREPROCESS_MNNZ_PER_S = 20.0


@dataclass(frozen=True)
class ServiceHandle:
    """Identifier of a matrix registered with the service."""

    name: str
    fingerprint: str
    num_rows: int
    num_cols: int
    nnz: int
    sharded: bool
    device_ids: Tuple[int, ...]


@dataclass
class RequestResult:
    """Outcome of one submitted request after ``drain``."""

    request_id: int
    tenant: str
    matrix_name: str
    y: Optional[np.ndarray]
    arrival_time: float
    start_time: float
    finish_time: float
    device_ids: Tuple[int, ...] = ()
    batch_size: int = 0
    rejected: bool = False

    @property
    def queue_seconds(self) -> float:
        return max(0.0, self.start_time - self.arrival_time)

    @property
    def service_seconds(self) -> float:
        return max(0.0, self.finish_time - self.start_time)

    @property
    def latency_seconds(self) -> float:
        return max(0.0, self.finish_time - self.arrival_time)


@dataclass
class ServiceReport:
    """Everything one ``drain`` produced: results plus telemetry."""

    results: List[RequestResult]
    telemetry: ServiceTelemetry
    scheduler_stats: Dict[str, float]
    cache_stats: Dict[str, float]
    policy: str
    num_devices: int

    @property
    def completed(self) -> List[RequestResult]:
        return [r for r in self.results if not r.rejected]

    @property
    def rejected(self) -> List[RequestResult]:
        return [r for r in self.results if r.rejected]

    def latencies(self) -> List[float]:
        return [r.latency_seconds for r in self.completed]

    def render(self) -> str:
        header = (
            f"SpMV serving report — {self.num_devices} devices, "
            f"policy={self.policy}, "
            f"mean batch {self.scheduler_stats['mean_batch_size']:.2f}"
        )
        return header + "\n" + self.telemetry.render(self.cache_stats)


@dataclass
class _ShardRuntime:
    """Execution-side view of one shard on one device."""

    shard: Shard
    matrix: COOMatrix
    program_key: str
    per_launch_seconds: float
    #: Router prediction for this shard's own device engine; ``None`` for
    #: unrouted matrices (or engines outside the router's ranking).
    predicted_seconds: Optional[float] = None


@dataclass
class _ServedMatrix:
    handle: ServiceHandle
    matrix: COOMatrix
    placement: Placement
    replicas: List[List[_ShardRuntime]]
    launches: int = 0
    #: Router-predicted per-launch seconds; ``None`` for unrouted matrices.
    predicted_seconds: Optional[float] = None

    def cost_seconds(self) -> float:
        """Per-launch cost the SJF policy ranks by.

        The router's calibrated prediction when the matrix was routed,
        otherwise the slowest shard's engine estimate.
        """
        if self.predicted_seconds is not None:
            return self.predicted_seconds
        return max(s.per_launch_seconds for s in self.replicas[0])


class SpMVService:
    """Serve SpMV launches across a pool of simulated Serpens devices.

    Parameters
    ----------
    pool:
        The device pool; defaults to ``num_devices`` homogeneous cards.
    num_devices, config:
        Shortcut pool construction when ``pool`` is not given; ``config``
        accepts a backend registry name, an engine, or a Serpens build.
    policy, max_batch:
        Scheduler knobs (see :class:`~repro.serve.scheduler.Scheduler`).
    cache, cache_capacity:
        The shared program cache, or the capacity of a fresh one.
    replicas:
        Devices each unsharded matrix is replicated onto (default 1).
    compute:
        ``"reference"`` computes results with the golden numpy kernel
        (fast, exact), ``"simulate"`` runs each device engine's own
        ``execute`` path (the cycle-accurate datapath on Serpens cards),
        ``"none"`` skips numerics for timing-only studies.  Per-launch
        virtual time always comes from the engine's ``"detailed"`` estimate.
    router:
        Optional :class:`~repro.autotune.EngineRouter`.  When given, every
        registration is routed — placement prefers devices of the predicted
        best engine, the router's predictions become the SJF cost oracle,
        and telemetry records per-engine dispatches and the mispredict
        ratio.  Any object with ``route(matrix, name)`` / ``hint`` /
        ``decision`` is accepted (duck-typed, so the serve layer never
        imports the autotune package).
    tracer:
        Optional :class:`repro.obs.Tracer` (duck-typed, like ``router``).
        Every drain then emits the full request lifecycle as spans: an
        ``admit``/``shed`` instant from the scheduler, a ``request`` span
        per request (with ``queued`` and ``service`` children) on its
        tenant's track, a ``batch`` span per dispatched batch (with
        ``prepare`` and ``execute`` children) on each device's track, and a
        ``queue_depth`` counter series — exportable as Chrome trace JSON.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry` (duck-typed).  Each
        drain publishes its telemetry, scheduler, cache and router stats
        into it; in ``compute="simulate"`` mode the engines additionally
        publish per-engine cycles, bytes moved, hazard violations and
        effective bandwidth.
    deadline_s:
        Optional per-request latency budget (virtual seconds).  Every
        submitted request gets ``deadline = arrival_time + deadline_s``,
        and the event loop expires queued requests whose deadline has
        passed (counted as ``deadline_expired`` sheds in telemetry).
    """

    def __init__(
        self,
        pool: Optional[AcceleratorPool] = None,
        num_devices: int = 4,
        config: DeviceSpec = SERPENS_A16,
        policy: str = "fifo",
        max_batch: int = 32,
        cache: Optional[ProgramCache] = None,
        cache_capacity: Optional[int] = None,
        replicas: int = 1,
        compute: str = "reference",
        router=None,
        tracer=None,
        metrics=None,
        deadline_s: Optional[float] = None,
    ) -> None:
        if compute not in COMPUTE_MODES:
            raise ValueError(
                f"unknown compute mode {compute!r}; use one of {COMPUTE_MODES}"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        self.tracer = tracer
        self.metrics = metrics
        self.deadline_s = deadline_s
        self.pool = pool if pool is not None else AcceleratorPool.homogeneous(
            num_devices, config
        )
        if tracer is not None and self.pool.tracer is None:
            self.pool.tracer = tracer
        self.scheduler = Scheduler(policy=policy, max_batch=max_batch, tracer=tracer)
        self.scheduler.set_cost_fn(self._cost_of)
        self.cache = cache if cache is not None else ProgramCache(
            capacity=cache_capacity
        )
        self.default_replicas = replicas
        self.compute = compute
        self.router = router
        self._matrices: Dict[str, _ServedMatrix] = {}
        self._pending: List[Request] = []
        self._next_request_id = 0

    def attach_tracer(self, tracer) -> None:
        """(Re)wire a tracer through the service, scheduler and pool.

        Useful to start tracing only after warmup drains: attach just
        before the drain whose timeline should be captured.
        """
        self.tracer = tracer
        self.scheduler.tracer = tracer
        self.pool.tracer = tracer

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        matrix: COOMatrix,
        name: str = "matrix",
        replicas: Optional[int] = None,
    ) -> ServiceHandle:
        """Place a matrix in the pool and return its serving handle.

        Registration only runs placement and the per-device performance
        estimates; the (expensive) preprocessing happens lazily on first
        dispatch, through the bounded program cache.
        """
        if isinstance(matrix, CSRMatrix):
            matrix = matrix.to_coo()
        fingerprint = matrix_fingerprint(matrix)
        existing = self._matrices.get(fingerprint)
        if existing is not None:
            return existing.handle

        hint = None
        decision = None
        if self.router is not None:
            # Deferred import so the serve layer depends on autotune only at
            # call time (the same one-way layering the router keeps).
            from ..autotune.router import UnroutableMatrixError

            try:
                decision = self.router.route(matrix, name=name)
                hint = self.router.hint(fingerprint)
            except UnroutableMatrixError:
                # No single candidate engine can hold the matrix — the pool
                # can still row-shard it, so fall back to unrouted placement
                # (a hint is advice, not a constraint).  Any other error is
                # a real configuration problem and propagates.
                decision = None
        placement = self.pool.place(
            matrix,
            fingerprint,
            replicas=replicas or self.default_replicas,
            hint=hint,
        )
        ranking = dict(decision.ranking) if decision is not None else {}
        replicas_rt: List[List[_ShardRuntime]] = []
        if placement.sharded:
            boundaries = [s.row_end for s in placement.replicas[0]]
            blocks = shard_rows(matrix, boundaries)
        for replica in placement.replicas:
            shard_rts = []
            for idx, shard in enumerate(replica):
                device = self.pool.device(shard.device_id)
                shard_matrix = blocks[idx] if placement.sharded else matrix
                key = self._program_key(fingerprint, device, shard, placement.sharded)
                estimate = device.engine.estimate(
                    shard_matrix, matrix_name=name, model="detailed"
                )
                shard_rts.append(
                    _ShardRuntime(
                        shard=shard,
                        matrix=shard_matrix,
                        program_key=key,
                        per_launch_seconds=estimate.seconds,
                        # The prediction for this shard's own engine — the
                        # hint tolerance lets placement land on any
                        # near-equivalent engine, so the SJF cost and the
                        # mispredict baseline must not use the router's
                        # overall favourite.
                        predicted_seconds=ranking.get(device.engine.name.lower()),
                    )
                )
            replicas_rt.append(shard_rts)
        predicted_seconds = self._placed_prediction(decision, replicas_rt)

        handle = ServiceHandle(
            name=name,
            fingerprint=fingerprint,
            num_rows=matrix.num_rows,
            num_cols=matrix.num_cols,
            nnz=matrix.nnz,
            sharded=placement.sharded,
            device_ids=placement.device_ids,
        )
        self._matrices[fingerprint] = _ServedMatrix(
            handle=handle,
            matrix=matrix,
            placement=placement,
            replicas=replicas_rt,
            predicted_seconds=predicted_seconds,
        )
        return handle

    @staticmethod
    def _placed_prediction(
        decision, replicas_rt: List[List[_ShardRuntime]]
    ) -> Optional[float]:
        """Matrix-level prediction: the slowest placed shard of replica 0.

        Falls back to the router's best-ranked prediction when a placed
        engine is outside the ranking (a router not built for this pool).
        """
        if decision is None:
            return None
        predictions = [s.predicted_seconds for s in replicas_rt[0]]
        if any(p is None for p in predictions):
            return decision.predicted_seconds
        return max(predictions)

    @staticmethod
    def _program_key(
        fingerprint: str, device: PooledDevice, shard: Shard, sharded: bool
    ) -> str:
        key = f"{fingerprint}@{device.engine_name}"
        if sharded:
            key += f"@r{shard.row_start}-{shard.row_end}"
        return key

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        handle: ServiceHandle,
        x: np.ndarray,
        tenant: str = "default",
        arrival_time: float = 0.0,
        y: Optional[np.ndarray] = None,
        alpha: float = 1.0,
        beta: float = 0.0,
        deadline: Optional[float] = None,
    ) -> int:
        """Queue one launch request; returns its request id.

        ``deadline`` is an absolute virtual-time deadline; when ``None``
        and the service has a ``deadline_s`` budget, the request gets
        ``arrival_time + deadline_s``.
        """
        entry = self._matrices.get(handle.fingerprint)
        if entry is None:
            raise KeyError(f"matrix {handle.name!r} is not registered with this service")
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (handle.num_cols,):
            raise ValueError(
                f"x has shape {x.shape}, expected ({handle.num_cols},)"
            )
        if arrival_time < 0:
            raise ValueError("arrival_time must be non-negative")
        if deadline is None and self.deadline_s is not None:
            deadline = float(arrival_time) + self.deadline_s
        request_id = self._next_request_id
        self._next_request_id += 1
        self._pending.append(
            Request(
                request_id=request_id,
                tenant=tenant,
                fingerprint=handle.fingerprint,
                x=x,
                arrival_time=float(arrival_time),
                y=None if y is None else np.asarray(y, dtype=np.float64),
                alpha=alpha,
                beta=beta,
                deadline=deadline,
            )
        )
        return request_id

    @property
    def pending_requests(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    # Draining (the discrete-event loop)
    # ------------------------------------------------------------------
    def drain(self) -> ServiceReport:
        """Run every submitted request to completion in virtual time.

        Each drain is its own timeline starting at t=0; resident programs
        survive between drains (a warm restart), device utilisation
        counters accumulate.
        """
        arrivals = sorted(self._pending, key=lambda r: (r.arrival_time, r.request_id))
        self._pending = []
        for device in self.pool.devices:
            device.busy_until = 0.0
        telemetry = ServiceTelemetry()
        results: Dict[int, RequestResult] = {}

        clock = 0.0
        index = 0
        while True:
            while index < len(arrivals) and arrivals[index].arrival_time <= clock:
                self.scheduler.admit(arrivals[index])
                index += 1
            # Deadline-expired requests leave the queue before any dispatch
            # decision is made against this clock step.
            for request in self.scheduler.expire(clock):
                self._record_expired(request, telemetry, results)
            telemetry.record_queue_depth(clock, self.scheduler.depth)
            if self.tracer is not None:
                self.tracer.counter(
                    "queue_depth", clock, {"depth": self.scheduler.depth}
                )

            dispatched = True
            while dispatched:
                dispatched = False
                for device in sorted(
                    self.pool.devices, key=lambda d: (d.busy_until, d.device_id)
                ):
                    if not device.idle_at(clock):
                        continue
                    runnable = self._runnable_fingerprints(device, clock)
                    if not runnable:
                        continue
                    batch = self.scheduler.next_batch(runnable)
                    if not batch:
                        continue
                    self._execute_batch(batch, clock, device, telemetry, results)
                    dispatched = True

            next_times = []
            if index < len(arrivals):
                next_times.append(arrivals[index].arrival_time)
            busy = [d.busy_until for d in self.pool.devices if d.busy_until > clock]
            if busy:
                next_times.append(min(busy))
            next_deadline = self.scheduler.next_deadline()
            if next_deadline is not None and next_deadline > clock:
                next_times.append(next_deadline)
            if not next_times:
                if self.scheduler.depth > 0:
                    raise RuntimeError(
                        "scheduler has queued requests but no device can serve them"
                    )
                break
            clock = min(next_times)

        telemetry.attach_cache(self.cache.stats())
        if self.metrics is not None:
            telemetry.publish(self.metrics)
            self.cache.publish(self.metrics)
            self.metrics.set_gauges(self.scheduler.stats(), prefix="scheduler_")
            if self.router is not None:
                if hasattr(self.router, "publish"):
                    self.router.publish(self.metrics)
                elif hasattr(self.router, "stats"):
                    self.metrics.set_gauges(self.router.stats(), prefix="router_")
        report = ServiceReport(
            results=[results[rid] for rid in sorted(results)],
            telemetry=telemetry,
            scheduler_stats=self.scheduler.stats(),
            cache_stats=self.cache.stats(),
            policy=self.scheduler.policy,
            num_devices=len(self.pool),
        )
        return report

    def run_trace(self, trace: LoadTrace) -> ServiceReport:
        """Register a load-generator trace, submit every request, drain."""
        handles = [
            self.register(workload.matrix, name=workload.name)
            for workload in trace.matrices
        ]
        for trace_request in trace.requests:
            handle = handles[trace_request.matrix_id]
            x = trace.x_vector(trace_request, handle.num_cols)
            self.submit(
                handle,
                x,
                tenant=trace_request.tenant,
                arrival_time=trace_request.arrival_time,
            )
        return self.drain()

    def _record_expired(
        self,
        request: Request,
        telemetry: ServiceTelemetry,
        results: Dict[int, RequestResult],
    ) -> None:
        """Book one request shed past its deadline: telemetry, empty result."""
        telemetry.record_rejection(request.tenant, reason="deadline_expired")
        entry = self._matrices[request.fingerprint]
        results[request.request_id] = RequestResult(
            request_id=request.request_id,
            tenant=request.tenant,
            matrix_name=entry.handle.name,
            y=None,
            arrival_time=request.arrival_time,
            start_time=request.arrival_time,
            finish_time=request.arrival_time,
            rejected=True,
        )

    # ------------------------------------------------------------------
    # Dispatch internals
    # ------------------------------------------------------------------
    def _cost_of(self, fingerprint: str) -> float:
        entry = self._matrices.get(fingerprint)
        return entry.cost_seconds() if entry is not None else float("inf")

    def _runnable_fingerprints(self, device: PooledDevice, now: float) -> Set[str]:
        """Queued matrices this idle device could start right now."""
        runnable = set()
        for fingerprint in self.scheduler.queued_fingerprints():
            entry = self._matrices.get(fingerprint)
            if entry is None:
                continue
            if self._pick_replica(entry, device, now) is not None:
                runnable.add(fingerprint)
        return runnable

    def _pick_replica(
        self, entry: _ServedMatrix, device: PooledDevice, now: float
    ) -> Optional[List[_ShardRuntime]]:
        """A replica containing ``device`` whose devices are all idle."""
        for replica in entry.replicas:
            ids = {s.shard.device_id for s in replica}
            if device.device_id not in ids:
                continue
            if all(self.pool.device(i).idle_at(now) for i in ids):
                return replica
        return None

    def _execute_batch(
        self,
        batch: List[Request],
        start: float,
        device: PooledDevice,
        telemetry: ServiceTelemetry,
        results: Dict[int, RequestResult],
    ) -> None:
        entry = self._matrices[batch[0].fingerprint]
        replica = self._pick_replica(entry, device, start)
        if replica is None:  # pragma: no cover - guarded by _runnable_fingerprints
            raise RuntimeError("dispatched a batch with no idle replica")

        finish = start
        programs = {}
        request_ids = [request.request_id for request in batch]
        for shard_rt in replica:
            shard_device = self.pool.device(shard_rt.shard.device_id)
            misses_before = self.cache.misses
            program, load_seconds = self._load_program(shard_rt, shard_device, telemetry)
            programs[shard_rt.shard.device_id] = program
            shard_seconds = load_seconds + len(batch) * shard_rt.per_launch_seconds
            shard_device.occupy(start, shard_seconds, len(batch))
            if self.tracer is not None:
                batch_span = self.tracer.span(
                    "batch",
                    start,
                    shard_seconds,
                    track=shard_device.name,
                    category="device",
                    matrix=entry.handle.name,
                    batch_size=len(batch),
                    request_ids=request_ids,
                )
                if load_seconds > 0:
                    self.tracer.span(
                        "prepare",
                        start,
                        load_seconds,
                        track=shard_device.name,
                        category="device",
                        parent=batch_span,
                        cold_build=self.cache.misses > misses_before,
                    )
                self.tracer.span(
                    "execute",
                    start + load_seconds,
                    shard_seconds - load_seconds,
                    track=shard_device.name,
                    category="device",
                    parent=batch_span,
                    launches=len(batch),
                )
            telemetry.record_batch(
                shard_device.name,
                batch_size=len(batch),
                busy_seconds=shard_seconds,
                switched_program=load_seconds > 0,
                traversed_edges=len(batch) * shard_rt.matrix.nnz,
            )
            # Per-shard prediction where the router ranked this engine;
            # matrix-level fallback keeps out-of-ranking engines counted as
            # routed traffic rather than silently dropping them.
            shard_prediction = shard_rt.predicted_seconds
            if shard_prediction is None:
                shard_prediction = entry.predicted_seconds
            telemetry.record_routing(
                shard_device.engine_name,
                batch_size=len(batch),
                simulated_seconds=shard_rt.per_launch_seconds,
                predicted_seconds=shard_prediction,
            )
            finish = max(finish, start + shard_seconds)

        entry.launches += len(batch)
        for request in batch:
            y = self._compute(entry, replica, programs, request)
            results[request.request_id] = RequestResult(
                request_id=request.request_id,
                tenant=request.tenant,
                matrix_name=entry.handle.name,
                y=y,
                arrival_time=request.arrival_time,
                start_time=start,
                finish_time=finish,
                device_ids=tuple(sorted(s.shard.device_id for s in replica)),
                batch_size=len(batch),
            )
            telemetry.record_request(
                request.tenant,
                latency_seconds=finish - request.arrival_time,
                queue_seconds=start - request.arrival_time,
            )
            telemetry.observe_finish(finish)
            if self.tracer is not None:
                track = f"tenant:{request.tenant}"
                request_span = self.tracer.span(
                    "request",
                    request.arrival_time,
                    finish - request.arrival_time,
                    track=track,
                    category="request",
                    request_id=request.request_id,
                    matrix=entry.handle.name,
                    batch_size=len(batch),
                    devices=[
                        self.pool.device(s.shard.device_id).name for s in replica
                    ],
                )
                self.tracer.span(
                    "queued",
                    request.arrival_time,
                    start - request.arrival_time,
                    track=track,
                    category="request",
                    parent=request_span,
                )
                self.tracer.span(
                    "service",
                    start,
                    finish - start,
                    track=track,
                    category="request",
                    parent=request_span,
                )

    def _load_program(
        self,
        shard_rt: _ShardRuntime,
        device: PooledDevice,
        telemetry: Optional[ServiceTelemetry] = None,
    ):
        """Fetch the shard's program, charging switch + (on miss) rebuild time."""

        def build():
            # The protocol's preparation hook, skipping prepare()'s capability
            # re-check and content fingerprint (placement already vetted the
            # shard, and the cache key is the program key).  Wall-clock host
            # preprocessing time is surfaced through the telemetry so
            # cache-miss cost is visible next to the latency percentiles.
            started = time.perf_counter()
            payload = device.engine.build_payload(shard_rt.matrix)
            if telemetry is not None:
                telemetry.record_prepare(time.perf_counter() - started)
            return payload

        if device.resident_key == shard_rt.program_key:
            # Already resident in device HBM: the host cache is not consulted.
            # Only the engine-executed mode needs the program data itself.
            program = None
            if self.compute == "simulate":
                program = self.cache.get_or_build(
                    shard_rt.program_key, build, params=device.engine.cache_params()
                )
            return program, 0.0
        misses_before = self.cache.misses
        program = self.cache.get_or_build(
            shard_rt.program_key, build, params=device.engine.cache_params()
        )
        load_seconds = 0.0
        if self.cache.misses > misses_before:
            # Cold program: the host re-runs preprocessing before the upload.
            load_seconds += shard_rt.matrix.nnz / (PREPROCESS_MNNZ_PER_S * 1e6)
        program_bytes = device.engine.payload_bytes(program)
        load_seconds += program_bytes / (HOST_LINK_GBPS * 1e9)
        device.resident_key = shard_rt.program_key
        device.stats.program_switches += 1
        device.stats.program_bytes_loaded += program_bytes
        return program, load_seconds

    def _compute(
        self,
        entry: _ServedMatrix,
        replica: List[_ShardRuntime],
        programs: Dict[int, object],
        request: Request,
    ) -> Optional[np.ndarray]:
        if self.compute == "none":
            return None
        if self.compute == "reference":
            return spmv(entry.matrix, request.x, request.y, request.alpha, request.beta)
        # Engine-executed: run each shard through its device engine (the
        # cycle-accurate datapath on Serpens cards) and concatenate the rows.
        pieces = []
        for shard_rt in replica:
            device = self.pool.device(shard_rt.shard.device_id)
            y_slice = (
                None
                if request.y is None
                else request.y[shard_rt.shard.row_start : shard_rt.shard.row_end]
            )
            prepared = PreparedMatrix(
                engine=device.engine.name,
                matrix=shard_rt.matrix,
                name=entry.handle.name,
                fingerprint=shard_rt.program_key,
                payload=programs[shard_rt.shard.device_id],
            )
            result = device.engine.execute(
                prepared, request.x, y_slice, request.alpha, request.beta
            )
            if self.metrics is not None:
                self._publish_execution(device.engine_name, result.report)
            pieces.append(result.y)
        return np.concatenate(pieces)

    def _publish_execution(self, engine_name: str, report) -> None:
        """Publish one simulated launch's execution report per engine."""
        self.metrics.counter(
            "engine_cycles_total", "simulated accelerator cycles"
        ).inc(report.cycles, engine=engine_name)
        self.metrics.counter(
            "engine_bytes_moved_total", "simulated off-chip traffic"
        ).inc(report.bytes_moved, engine=engine_name)
        self.metrics.gauge(
            "engine_effective_bandwidth_gbps", "bytes moved / simulated seconds"
        ).set(report.effective_bandwidth_gbps, engine=engine_name)
        hazards = report.extra.get("hazard_violations")
        if hazards:
            self.metrics.counter(
                "engine_hazard_violations_total", "accumulation-hazard violations"
            ).inc(hazards, engine=engine_name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def registered_handles(self) -> Tuple[ServiceHandle, ...]:
        return tuple(entry.handle for entry in self._matrices.values())

    def statistics(self) -> Dict[str, float]:
        """Session-level counters across every drain so far."""
        stats = {
            "registered_matrices": float(len(self._matrices)),
            "launches": float(sum(e.launches for e in self._matrices.values())),
            "devices": float(len(self.pool)),
            **{f"cache_{k}": v for k, v in self.cache.stats().items()},
            **{f"scheduler_{k}": v for k, v in self.scheduler.stats().items()},
        }
        if self.router is not None and hasattr(self.router, "stats"):
            stats.update(
                {f"router_{k}": v for k, v in self.router.stats().items()}
            )
        return stats
