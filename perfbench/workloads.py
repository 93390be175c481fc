"""The benchmark's workloads (BENCHMARK.json lists the ones it gates on).

Each workload generates every input from ``--seed`` in its constructor,
before any timer starts, and drives the program only through public entry
points (``backends.Session``, ``parallel.WorkerPool``,
``serve.SpMVService``, ``serve.generate_trace``).  :meth:`run_phase`
sets the program up (timed), serves for the requested seconds, checks every
answer, and returns the end-to-end figures; given an ``events`` directory
it also returns the workload's own per-layer figures (pool event shards,
service reports).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.backends import Session
from repro.eval.matrices import get_matrix_spec
from repro.formats import COOMatrix
from repro.parallel import WorkerPool
from repro.serve import LoadTrace, MatrixWorkload, SpMVService, generate_trace
from repro.spmv import spmv

from .stats import (
    Accounting,
    Metric,
    arrival_scale_for_rate,
    cpu_seconds,
    geomean,
    latency_metrics,
    median,
    percentile,
)

CONFIG = json.loads(Path(__file__).with_name("workloads.json").read_text())
ENGINE = "serpens-a16"
RTOL, ATOL = 1e-4, 1e-5


def relabel(matrix: COOMatrix, rng: np.random.Generator) -> COOMatrix:
    """The same matrix under a cyclic shift of its row and column indices.

    Square matrices shift rows and columns together, so diagonals, bands
    and blocks keep their shape; the shift moves rows across PEs, which is
    enough to change modelled cycles in the last digits without changing
    the workload.
    """
    row_shift = int(rng.integers(matrix.num_rows))
    square = matrix.num_rows == matrix.num_cols
    col_shift = row_shift if square else int(rng.integers(matrix.num_cols))
    return COOMatrix(
        matrix.num_rows,
        matrix.num_cols,
        (matrix.rows + row_shift) % matrix.num_rows,
        (matrix.cols + col_shift) % matrix.num_cols,
        matrix.values,
    )


def seeded_trace(scenario: str, num_requests: int, seed: int) -> LoadTrace:
    """The fixed-shape trace, relabelled and with x vectors drawn from ``seed``."""
    base = generate_trace(scenario, num_requests, seed=CONFIG["trace_seed"])
    rng = np.random.default_rng([seed, 0x7A])
    matrices = [MatrixWorkload(w.name, relabel(w.matrix, rng)) for w in base.matrices]
    return replace(base, seed=seed, matrices=matrices)


def close_enough(y: np.ndarray, golden: np.ndarray) -> bool:
    return (
        y is not None and y.shape == golden.shape and bool(np.allclose(y, golden, rtol=RTOL, atol=ATOL))
    )


@dataclass
class Phase:
    """What one timed phase (set-ups + serving) measured."""

    setup_s: List[float]
    accounting: Accounting
    metrics: List[Metric]
    layer: List[Metric] = field(default_factory=list)
    setups: int = 0
    drains: int = 0
    #: CPU seconds of serving (this process and its pool workers) per
    #: request sent; the traced run's overhead is measured on it.
    cpu_per_request: float = 0.0


# ----------------------------------------------------------------------
# sim-large
# ----------------------------------------------------------------------
class SimLarge:
    name = "sim-large"

    def __init__(self, seed: int, cfg: Optional[dict] = None) -> None:
        self.cfg = cfg = cfg or CONFIG["workloads"][self.name]
        rng = np.random.default_rng([seed, 0x51])
        self.names = [gid for gid, _ in cfg["matrices"]]
        self.matrices = [
            relabel(get_matrix_spec(gid).materialize(scale), rng) for gid, scale in cfg["matrices"]
        ]
        self.xs = [
            [rng.uniform(-1.0, 1.0, m.num_cols) for _ in range(cfg["x_per_matrix"])] for m in self.matrices
        ]
        self.golden = [[spmv(m, x) for x in xs] for m, xs in zip(self.matrices, self.xs)]

    def reference(self) -> None:
        """Nothing to precompute: the first launches give the modelled figures."""

    def _setup(self, acct: Accounting):
        session = Session(ENGINE)
        handles = [session.register(m, name) for m, name in zip(self.matrices, self.names)]
        reports = []
        for i, handle in enumerate(handles):
            y, report = session.launch(handle, self.xs[i][0])
            if not close_enough(y, self.golden[i][0]):
                # A validating launch is set-up, not a served request, unless
                # it answers wrongly.
                acct.sent += 1
                acct.wrong += 1
            reports.append(report)
        return session, handles, reports

    def run_phase(self, seconds: float, setups: int, events: Optional[Path] = None) -> Phase:
        acct = Accounting()
        setup_s = []
        for _ in range(setups):
            session = handles = reports = None  # one set-up's programs in memory at a time
            started = time.perf_counter()
            session, handles, reports = self._setup(acct)
            setup_s.append(time.perf_counter() - started)

        cpu_started = cpu_seconds()
        # (matrix, x) -> (y, cycles) of its first measured launch: every
        # later launch of the pair must repeat it bitwise.
        first: Dict[tuple, tuple] = {}
        latencies: List[float] = []
        answered: List[float] = []
        modelled_ms: List[float] = []
        round_rps: List[float] = []
        round_mnnz: List[float] = []
        deadline = time.perf_counter() + seconds
        k = 0
        while time.perf_counter() < deadline:
            spent = 0.0
            done = nnz = 0
            for i, handle in enumerate(handles):
                x_index = k % len(self.xs[i])
                acct.sent += 1
                started = time.perf_counter()
                try:
                    y, report = session.launch(handle, self.xs[i][x_index])
                except Exception:  # noqa: BLE001 - counted, the run goes on
                    acct.failed += 1
                    continue
                elapsed = time.perf_counter() - started
                spent += elapsed
                done += 1
                nnz += handle.nnz
                latencies.append(elapsed * 1e3)
                modelled_ms.append(report.seconds * 1e3)
                key = (i, x_index)
                if key not in first:
                    first[key] = (y, report.cycles)
                    ok = close_enough(y, self.golden[i][x_index])
                else:
                    ok = np.array_equal(y, first[key][0]) and report.cycles == first[key][1]
                if ok:
                    answered.append(elapsed * 1e3)
                else:
                    acct.wrong += 1
            if done:
                round_rps.append(done / spent)
                round_mnnz.append(nnz / spent / 1e6)
            k += 1

        limit = self.cfg["latency_limit_ms"]
        modelled_s = [r.seconds for r in reports]
        metrics = [
            Metric("throughput_rps", median(round_rps or [0.0]), "1/s", len(round_rps)),
            Metric("mnnz_per_s", median(round_mnnz or [0.0]), "Mnnz/s", len(round_mnnz)),
            *latency_metrics("latency", latencies or [0.0]),
            Metric("on_time_frac", acct.on_time_frac(answered, limit), "frac", acct.sent),
            Metric("model_gflops", geomean(r.gflops for r in reports), "GFLOP/s", len(reports)),
            Metric("model_throughput_rps", len(reports) / sum(modelled_s), "1/s", len(reports)),
            Metric("model_latency_p95_ms", percentile(modelled_ms or [0.0], 95), "ms", len(modelled_ms)),
        ]
        cpu = (cpu_seconds() - cpu_started) / max(1, acct.sent)
        return Phase(setup_s, acct, metrics, setups=setups, cpu_per_request=cpu)


# ----------------------------------------------------------------------
# serve-closed / serve-open: the wall-clock worker pool
# ----------------------------------------------------------------------
class PoolWorkload:
    open_loop = False

    def __init__(self, seed: int, cfg: Optional[dict] = None) -> None:
        self.cfg = cfg = cfg or CONFIG["workloads"][self.name]
        self.trace = seeded_trace(cfg["scenario"], cfg["requests"], seed)
        matrices = [w.matrix for w in self.trace.matrices]
        self.xs = [self.trace.x_vector(r, matrices[r.matrix_id].num_cols) for r in self.trace.requests]
        self.golden = [spmv(matrices[r.matrix_id], x) for r, x in zip(self.trace.requests, self.xs)]
        self.first_request: Dict[int, int] = {}
        for index, request in enumerate(self.trace.requests):
            self.first_request.setdefault(request.matrix_id, index)
        self.arrival_scale = (
            arrival_scale_for_rate(self.trace.num_requests, self.trace.duration, cfg["rate_rps"])
            if self.open_loop
            else 1.0
        )

    def reference(self) -> None:
        """In-process launches of each matrix's first request (untimed).

        Served answers to those requests must equal them bitwise, and their
        reports give the modelled figures.
        """
        session = Session(ENGINE)
        self.session_y: Dict[int, np.ndarray] = {}
        self.modelled_s: Dict[int, float] = {}
        gflops = []
        for matrix_id, index in sorted(self.first_request.items()):
            workload = self.trace.matrices[matrix_id]
            handle = session.register(workload.matrix, workload.name)
            y, report = session.launch(handle, self.xs[index])
            self.session_y[matrix_id] = y
            self.modelled_s[matrix_id] = report.seconds
            gflops.append(report.gflops)
        self.model_gflops = geomean(gflops)

    def _pool(self, events: Optional[Path]) -> WorkerPool:
        cfg = self.cfg
        pool = WorkerPool(
            num_workers=cfg["workers"],
            engines=[ENGINE],
            compute=cfg["compute"],
            max_batch=cfg["max_batch"],
            max_inflight=cfg["inflight_per_worker"],
            scenario=self.trace.scenario,
            # A later set-up's pool overwrites an earlier one's shards.
            events_path=str(events / "pool") if events is not None else None,
        )
        pool.start()
        for workload in self.trace.matrices:
            pool.register(workload.matrix, workload.name)
        return pool

    def _check(self, report, acct: Accounting, answered: List[float]) -> None:
        by_id = {r.request_id: r for r in report.results}
        acct.sent += self.trace.num_requests
        for index, request in enumerate(self.trace.requests):
            result = by_id.get(index)
            if result is None:
                acct.missing += 1
            elif result.shed:
                acct.shed += 1
            elif not close_enough(result.y, self.golden[index]):
                acct.wrong += 1
            elif self.first_request[request.matrix_id] == index and not np.array_equal(
                result.y, self.session_y[request.matrix_id]
            ):
                acct.wrong += 1
            else:
                answered.append(result.latency_seconds * 1e3)

    def run_phase(self, seconds: float, setups: int, events: Optional[Path] = None) -> Phase:
        acct = Accounting()
        setup_s = []
        pool = None
        for _ in range(setups):
            if pool is not None:
                pool.shutdown()
            started = time.perf_counter()
            pool = self._pool(events)
            setup_s.append(time.perf_counter() - started)

        reports = []
        answered: List[float] = []
        cpu_started = cpu_seconds()
        try:
            deadline = time.perf_counter() + seconds
            while not reports or time.perf_counter() < deadline:
                try:
                    report = pool.run_trace(
                        self.trace, open_loop=self.open_loop, arrival_scale=self.arrival_scale
                    )
                except Exception:  # noqa: BLE001 - counted; a broken pool ends the phase
                    acct.sent += self.trace.num_requests
                    acct.failed += self.trace.num_requests
                    break
                reports.append(report)
                self._check(report, acct, answered)
        finally:
            pool.shutdown()
        cpu = (cpu_seconds() - cpu_started) / max(1, acct.sent)

        serving_s = sum(r.makespan_seconds for r in reports)
        requests = [r for _ in reports for r in self.trace.requests]
        modelled_ms = [self.modelled_s[r.matrix_id] * 1e3 for r in requests]
        latencies = [r.latency_seconds * 1e3 for report in reports for r in report.completed]
        metrics = [
            Metric("throughput_rps", median([len(r.completed) / r.makespan_seconds for r in reports] or [0.0]),
                   "1/s", len(reports)),
            Metric("mnnz_per_s", median([r.traversed_edges / r.makespan_seconds / 1e6 for r in reports] or [0.0]),
                   "Mnnz/s", len(reports)),
            *latency_metrics("latency", latencies or [0.0]),
            Metric("on_time_frac", acct.on_time_frac(answered, self.cfg["latency_limit_ms"]), "frac", acct.sent),
            Metric("model_gflops", self.model_gflops, "GFLOP/s", len(self.modelled_s)),
            Metric(
                "model_throughput_rps",
                self.cfg["workers"] * len(requests) / (sum(modelled_ms) / 1e3) if requests else 0.0,
                "1/s",
                len(requests),
            ),
            Metric("model_latency_p95_ms", percentile(modelled_ms or [0.0], 95), "ms", len(modelled_ms)),
        ]
        layer = []
        if events is not None and reports:
            from .poolevents import pool_metrics

            last = reports[-1]
            layer = pool_metrics(
                pool.event_shard_paths(),
                arrival_times=[r.arrival_time for r in self.trace.requests],
                arrival_scale=self.arrival_scale if self.open_loop else None,
                num_workers=self.cfg["workers"],
                serving_s=serving_s,
            ) + [
                Metric("parallel.retries", float(last.retries), "count", len(reports)),
                Metric("parallel.respawns", float(last.respawns), "count", len(reports)),
                Metric("parallel.degraded_batches", float(last.degraded_batches), "count", len(reports)),
                Metric("parallel.shed_requests", float(last.shed_requests), "count", len(reports)),
                Metric("parallel.hedges", float(last.hedges), "count", len(reports)),
            ]
        return Phase(setup_s, acct, metrics, layer, setups=setups, cpu_per_request=cpu)


class ServeClosed(PoolWorkload):
    name = "serve-closed"


class ServeOpen(PoolWorkload):
    name = "serve-open"
    open_loop = True


# ----------------------------------------------------------------------
# serve-virtual: the virtual-time service
# ----------------------------------------------------------------------
class ServeVirtual:
    name = "serve-virtual"

    def __init__(self, seed: int, cfg: Optional[dict] = None) -> None:
        self.cfg = cfg = cfg or CONFIG["workloads"][self.name]
        self.trace = seeded_trace(cfg["scenario"], cfg["requests"], seed)
        matrices = [w.matrix for w in self.trace.matrices]
        self.xs = [self.trace.x_vector(r, matrices[r.matrix_id].num_cols) for r in self.trace.requests]
        # fp32 copies halve the memory of 20k expected answers; their rounding
        # is far inside the allclose tolerance.
        self.golden = [
            spmv(matrices[r.matrix_id], x).astype(np.float32) for r, x in zip(self.trace.requests, self.xs)
        ]

    def reference(self) -> None:
        """Modelled GFLOP/s per matrix from the detailed model the service books."""
        session = Session(ENGINE)
        gflops = []
        for workload in self.trace.matrices:
            handle = session.register(workload.matrix, workload.name)
            gflops.append(session.estimate(handle, model="detailed").gflops)
        self.model_gflops = geomean(gflops)

    def _service(self):
        cfg = self.cfg
        service = SpMVService(
            num_devices=cfg["devices"], policy=cfg["policy"], max_batch=cfg["max_batch"], compute=cfg["compute"]
        )
        handles = [service.register(w.matrix, name=w.name) for w in self.trace.matrices]
        return service, handles

    def _check(self, report, acct: Accounting, answered: List[float]) -> None:
        by_id = {r.request_id: r for r in report.results}
        acct.sent += self.trace.num_requests
        for index in range(self.trace.num_requests):
            result = by_id.get(index)
            if result is None:
                acct.missing += 1
            elif result.rejected:
                acct.shed += 1
            elif not close_enough(result.y, self.golden[index]):
                acct.wrong += 1
            else:
                answered.append(result.latency_seconds * 1e3)

    def run_phase(self, seconds: float, setups: int, events: Optional[Path] = None) -> Phase:
        # Every drain starts from a fresh service, so set-up repeats with it.
        acct = Accounting()
        setup_s: List[float] = []
        drain_rps: List[float] = []
        drain_mnnz: List[float] = []
        answered: List[float] = []
        nnz = {w.name: w.matrix.nnz for w in self.trace.matrices}
        first = None
        cpu_started = cpu_seconds()
        deadline = time.perf_counter() + seconds
        while len(setup_s) < setups or time.perf_counter() < deadline:
            started = time.perf_counter()
            service, handles = self._service()
            setup_s.append(time.perf_counter() - started)
            for request, x in zip(self.trace.requests, self.xs):
                service.submit(
                    handles[request.matrix_id], x, tenant=request.tenant, arrival_time=request.arrival_time
                )
            started = time.perf_counter()
            report = service.drain()
            elapsed = time.perf_counter() - started
            completed = report.completed
            drain_rps.append(len(completed) / elapsed)
            drain_mnnz.append(sum(nnz[r.matrix_name] for r in completed) / elapsed / 1e6)
            self._check(report, acct, answered)
            # Virtual time is exact: every drain must model the same run.
            figures = (report.latencies(), report.telemetry.throughput_rps)
            if first is None:
                first = (figures, report.telemetry.snapshot(), report.scheduler_stats, report.cache_stats)
            elif figures != first[0]:
                acct.wrong += self.trace.num_requests
            del service, report, completed  # one drain's answers in memory at a time

        cpu = (cpu_seconds() - cpu_started) / max(1, acct.sent)
        (latencies, model_rps), snapshot, scheduler_stats, cache_stats = first
        virtual_ms = [latency * 1e3 for latency in latencies]
        metrics = [
            Metric("throughput_rps", median(drain_rps), "1/s", len(drain_rps)),
            Metric("mnnz_per_s", median(drain_mnnz), "Mnnz/s", len(drain_mnnz)),
            *latency_metrics("latency", virtual_ms),
            Metric("on_time_frac", acct.on_time_frac(answered, self.cfg["latency_limit_ms"]), "frac", acct.sent),
            Metric("model_gflops", self.model_gflops, "GFLOP/s", len(self.trace.matrices)),
            Metric("model_throughput_rps", model_rps, "1/s", len(virtual_ms)),
            Metric("model_latency_p95_ms", percentile(virtual_ms, 95), "ms", len(virtual_ms)),
        ]
        drains = len(drain_rps)
        layer = [
            Metric("serve.mean_batch_size", scheduler_stats["mean_batch_size"], "count", drains),
            Metric("serve.cache_hit_rate", cache_stats["hit_rate"], "frac", drains),
            Metric("serve.prepare_count", snapshot["prepare_count"], "count", drains),
        ]
        return Phase(setup_s, acct, metrics, layer, setups=len(setup_s), drains=drains, cpu_per_request=cpu)


WORKLOADS = {cls.name: cls for cls in (SimLarge, ServeClosed, ServeOpen, ServeVirtual)}
