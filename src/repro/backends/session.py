"""Backend-generic host session: registered matrices, cached programs, stats.

The real deployment pattern behind the paper — preprocess a matrix once,
keep the result resident, then launch thousands of SpMVs against it — is not
Serpens-specific.  :class:`Session` reproduces it for *any* registered
engine:

* matrices are registered once and identified by a :class:`MatrixHandle`;
  re-registering the same content under a new name records an alias instead
  of silently handing back the old name,
* prepared payloads go through a :class:`~repro.serve.ProgramCache`
  (optionally disk-backed for Serpens programs), so launches never repeat
  the host-side preprocessing,
* per-matrix and session-wide statistics (launches, accelerator seconds,
  traversed edges) are aggregated — the numbers a capacity planner wants.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from ..formats import COOMatrix
from ..metrics import ExecutionReport
from .base import PreparedMatrix, SpMVEngine, _as_coo
from .registry import resolve

__all__ = ["MatrixHandle", "Session", "as_spmv_fn"]


@dataclass(frozen=True)
class MatrixHandle:
    """Opaque identifier of a registered matrix."""

    name: str
    fingerprint: str
    num_rows: int
    num_cols: int
    nnz: int


@dataclass
class _RegisteredMatrix:
    handle: MatrixHandle
    prepared: PreparedMatrix
    aliases: Dict[str, MatrixHandle] = field(default_factory=dict)
    launches: int = 0
    accelerator_seconds: float = 0.0
    traversed_edges: int = 0
    #: Host wall-clock seconds spent preparing this matrix at registration
    #: (near zero when the program cache already held the payload).
    prepare_seconds: float = 0.0

    def known_as(self, name: str) -> Optional[MatrixHandle]:
        if name == self.handle.name:
            return self.handle
        return self.aliases.get(name)


class Session:
    """A host session binding one engine to its registered matrices.

    Parameters
    ----------
    engine:
        A registry name (``"serpens-a16"``, ``"sextans"``, ...), an
        :class:`~repro.backends.SpMVEngine` instance, or a
        :class:`~repro.serpens.SerpensConfig` build (wrapped in a
        :class:`~repro.backends.SerpensEngine`).  Oracle modes are chosen
        where the engine is built:
        ``Session(SerpensEngine(config, mode="reference"))``.
    cache_dir:
        Optional directory where cacheable prepared programs persist between
        sessions (currently the Serpens engines' programs).
    cache_capacity:
        Optional bound on the program cache, applied to the in-memory and
        on-disk tiers alike.
    program_cache:
        Inject an existing :class:`~repro.serve.ProgramCache` (for example
        one shared with a serving pool); overrides ``cache_dir`` and
        ``cache_capacity``.
    tracer:
        Optional :class:`repro.obs.Tracer` (duck-typed).  Registration then
        records a host wall-clock ``prepare`` span per prepared matrix and
        each launch records an ``execute`` span, so single-session work
        shows up on the same Chrome-trace timeline as a serving run.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry` (duck-typed).  Each
        launch publishes the engine's execution report into it — per-engine
        cycles, bytes moved, effective bandwidth, hazard violations and a
        per-matrix latency histogram.
    """

    def __init__(
        self,
        engine: Union[str, SpMVEngine] = "serpens-a16",
        cache_dir: Optional[Union[str, Path]] = None,
        cache_capacity: Optional[int] = None,
        program_cache=None,
        tracer=None,
        metrics=None,
    ) -> None:
        # Imported lazily: serve imports backends at module level, so
        # backends must not import serve at module level.
        from ..serve.cache import ProgramCache

        self.engine = resolve(engine)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.cache_capacity = cache_capacity
        if program_cache is None:
            program_cache = ProgramCache(
                capacity=cache_capacity,
                cache_dir=self.cache_dir,
                disk_capacity=cache_capacity,
            )
        self.program_cache = program_cache
        self.tracer = tracer
        self.metrics = metrics
        self._matrices: Dict[str, _RegisteredMatrix] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    @staticmethod
    def fingerprint(matrix: COOMatrix) -> str:
        """A stable content hash of the matrix (structure and values)."""
        from ..serve.cache import matrix_fingerprint

        return matrix_fingerprint(_as_coo(matrix))

    def register(self, matrix: COOMatrix, name: str = "matrix") -> MatrixHandle:
        """Prepare (or load from cache) a matrix and return its handle.

        Registering the same content twice never repeats the preparation.
        Under the *same* name the existing handle is returned; under a *new*
        name an alias handle carrying the requested name (and the same
        fingerprint) is recorded and returned, so callers always get back
        the name they asked for.
        """
        matrix = _as_coo(matrix)
        capabilities = self.engine.capabilities(matrix)
        if not capabilities.supported:
            raise ValueError(capabilities.reason)

        fingerprint = self.fingerprint(matrix)
        entry = self._matrices.get(fingerprint)
        if entry is not None:
            known = entry.known_as(name)
            if known is not None:
                return known
            alias = replace(entry.handle, name=name)
            entry.aliases[name] = alias
            return alias

        # build_payload is the protocol's preparation hook; calling it
        # directly (rather than prepare()) avoids re-checking capabilities
        # and re-hashing the matrix, both done just above.
        span_ctx = (
            self.tracer.wall_span(
                "prepare",
                track="host:session",
                matrix=name,
                engine=self.engine.name,
            )
            if self.tracer is not None
            else nullcontext()
        )
        prepare_started = time.perf_counter()
        with span_ctx:
            payload = self.program_cache.get_or_build(
                self.engine.program_key(fingerprint),
                lambda: self.engine.build_payload(matrix),
                params=self.engine.cache_params(),
            )
        prepare_seconds = time.perf_counter() - prepare_started
        if self.metrics is not None:
            self.metrics.counter(
                "session_prepare_seconds_total", "host preprocessing wall-clock"
            ).inc(prepare_seconds, engine=self.engine.name)
        prepared = PreparedMatrix(
            engine=self.engine.name,
            matrix=matrix,
            name=name,
            fingerprint=fingerprint,
            payload=payload,
        )
        handle = MatrixHandle(
            name=name,
            fingerprint=fingerprint,
            num_rows=matrix.num_rows,
            num_cols=matrix.num_cols,
            nnz=matrix.nnz,
        )
        self._matrices[fingerprint] = _RegisteredMatrix(
            handle=handle, prepared=prepared, prepare_seconds=prepare_seconds
        )
        return handle

    def cache_stats(self) -> Dict[str, float]:
        """Hit/miss/eviction counters of the underlying program cache."""
        return self.program_cache.stats()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def launch(
        self,
        handle: MatrixHandle,
        x: np.ndarray,
        y: Optional[np.ndarray] = None,
        alpha: float = 1.0,
        beta: float = 0.0,
    ) -> Tuple[np.ndarray, ExecutionReport]:
        """Run one SpMV against a registered matrix."""
        entry = self._entry(handle)
        prepared = entry.prepared
        if handle.name != prepared.name:
            prepared = replace(prepared, name=handle.name)
        span_ctx = (
            self.tracer.wall_span(
                "execute",
                track="host:session",
                matrix=handle.name,
                engine=self.engine.name,
            )
            if self.tracer is not None
            else nullcontext()
        )
        with span_ctx:
            result = self.engine.execute(prepared, x, y, alpha, beta)
        entry.launches += 1
        entry.accelerator_seconds += result.report.seconds
        entry.traversed_edges += entry.prepared.matrix.nnz
        if self.metrics is not None:
            self._publish_launch(result.report)
        return result.y, result.report

    def _publish_launch(self, report: ExecutionReport) -> None:
        """Publish one launch's execution report into the metrics registry."""
        engine = self.engine.name
        self.metrics.counter(
            "engine_launches_total", "launches executed per engine"
        ).inc(1, engine=engine)
        self.metrics.counter(
            "engine_cycles_total", "simulated accelerator cycles"
        ).inc(report.cycles, engine=engine)
        self.metrics.counter(
            "engine_bytes_moved_total", "simulated off-chip traffic"
        ).inc(report.bytes_moved, engine=engine)
        self.metrics.histogram(
            "engine_launch_seconds", "modelled per-launch latency"
        ).observe(report.seconds, engine=engine)
        if report.effective_bandwidth_gbps:
            self.metrics.gauge(
                "engine_effective_bandwidth_gbps", "bytes moved / simulated seconds"
            ).set(report.effective_bandwidth_gbps, engine=engine)
        hazards = report.extra.get("hazard_violations")
        if hazards:
            self.metrics.counter(
                "engine_hazard_violations_total", "accumulation-hazard violations"
            ).inc(hazards, engine=engine)

    def estimate(self, handle: MatrixHandle, model: str = "detailed") -> ExecutionReport:
        """Performance estimate for one launch against a registered matrix."""
        entry = self._entry(handle)
        return self.engine.estimate(entry.prepared.matrix, handle.name, model=model)

    def _entry(self, handle: MatrixHandle) -> _RegisteredMatrix:
        entry = self._matrices.get(handle.fingerprint)
        if entry is None:
            raise KeyError(f"matrix {handle.name!r} is not registered with this session")
        return entry

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def registered_handles(self) -> Tuple[MatrixHandle, ...]:
        """Primary handles of every registered matrix (aliases excluded)."""
        return tuple(entry.handle for entry in self._matrices.values())

    def aliases(self, handle: MatrixHandle) -> Tuple[MatrixHandle, ...]:
        """Alias handles recorded for one registered matrix."""
        return tuple(self._entry(handle).aliases.values())

    def statistics(self, handle: Optional[MatrixHandle] = None) -> Dict[str, float]:
        """Aggregate launch statistics, per matrix or for the whole session."""
        if handle is not None:
            entries = [self._entry(handle)]
        else:
            entries = list(self._matrices.values())
        launches = sum(e.launches for e in entries)
        seconds = sum(e.accelerator_seconds for e in entries)
        edges = sum(e.traversed_edges for e in entries)
        return {
            "registered_matrices": float(len(entries)),
            "launches": float(launches),
            "accelerator_seconds": seconds,
            "prepare_seconds": sum(e.prepare_seconds for e in entries),
            "traversed_edges": float(edges),
            "average_mteps": (edges / seconds / 1e6) if seconds > 0 else 0.0,
        }

    # ------------------------------------------------------------------
    # Application hooks
    # ------------------------------------------------------------------
    def spmv_callable(self, handle: MatrixHandle) -> Callable:
        """An ``spmv_fn`` hook bound to one registered matrix.

        The returned callable has the signature the application layer
        (:mod:`repro.apps`) expects, so a registered matrix can be plugged
        straight into the conjugate-gradient or Jacobi solvers.
        """
        entry = self._entry(handle)

        def run(matrix, x, y, alpha, beta):
            if (
                matrix is not entry.prepared.matrix
                and self.fingerprint(matrix) != handle.fingerprint
            ):
                raise ValueError("this hook is bound to a different matrix")
            result, __ = self.launch(handle, x, y, alpha, beta)
            return result

        return run

    def spmv_fn(self) -> Callable:
        """An ``spmv_fn`` hook that registers matrices on first sight.

        Unlike :meth:`spmv_callable`, the returned callable accepts *any*
        matrix the engine supports: each distinct matrix is registered (and
        prepared, through the cache) the first time it appears, then reused.
        This is what lets an application pass ``engine="sextans"`` and have
        every product transparently routed through that backend.
        """
        # Memoise by object identity so an iterative solver pays the O(nnz)
        # content fingerprint once per matrix, not once per launch.  The
        # matrix is kept in the memo value to pin its id for the hook's
        # lifetime; unseen (or content-equal but distinct) objects fall back
        # to a full register().
        memo: Dict[int, Tuple[COOMatrix, MatrixHandle]] = {}

        def run(matrix, x, y, alpha, beta):
            cached = memo.get(id(matrix))
            if cached is not None and cached[0] is matrix:
                handle = cached[1]
            else:
                handle = self.register(matrix)
                memo[id(matrix)] = (matrix, handle)
            result, __ = self.launch(handle, x, y, alpha, beta)
            return result

        return run


def as_spmv_fn(engine: Union[str, SpMVEngine, Session]) -> Callable:
    """Turn an engine name, engine, or session into an application hook.

    Strings and engines get a fresh in-memory :class:`Session`; an existing
    session contributes (and keeps accumulating) its own cache and
    statistics.
    """
    session = engine if isinstance(engine, Session) else Session(engine)
    return session.spmv_fn()
