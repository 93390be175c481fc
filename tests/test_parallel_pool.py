"""Tests for repro.parallel.pool: the wall-clock worker pool.

These spawn real worker processes, so traces are kept deliberately small.
Everything asserted here is timing-independent — numerics, accounting and
fault recovery — because CI hosts (often single-core) make wall-clock
*speed* assertions meaningless.
"""

from collections import Counter

import numpy as np
import pytest

from repro.obs import ResultsStore
from repro.parallel import WorkerPool
from repro.resilience import FaultPlan, FaultSpec
from repro.serve import SpMVService, generate_trace
from repro.spmv import spmv

SCENARIO = "solver-burst"
REQUESTS = 24
SEED = 7


def small_trace():
    return generate_trace(SCENARIO, REQUESTS, seed=SEED)


def golden_ys(trace):
    """Reference spmv answers, indexed like the pool's request ids."""
    ys = []
    for request in trace.requests:
        workload = trace.matrices[request.matrix_id]
        x = trace.x_vector(request, workload.matrix.num_cols)
        ys.append(spmv(workload.matrix, x))
    return ys


class TestWallClockParity:
    def test_pool_matches_virtual_time_service_bitwise(self):
        """Measured and modelled paths compute the same numerics.

        Both run compute="simulate" on the same engine/build, so the engine
        datapath output must be bitwise identical request by request.
        """
        trace = small_trace()
        service = SpMVService(num_devices=1, compute="simulate")
        modelled = service.run_trace(trace)
        with WorkerPool(num_workers=2, compute="simulate") as pool:
            report = pool.run_trace(trace)
        assert len(report.results) == trace.num_requests
        assert [r.request_id for r in report.results] == list(
            range(trace.num_requests)
        )
        for result in report.results:
            np.testing.assert_array_equal(
                result.y, modelled.results[result.request_id].y
            )
        assert report.respawns == 0
        assert report.retries == 0
        assert report.inline_requests == 0
        snapshot = report.snapshot()
        assert snapshot["completed"] == float(trace.num_requests)
        assert snapshot["workers"] == 2.0
        assert snapshot["makespan_seconds"] > 0.0
        assert snapshot["latency_p50_ms"] <= snapshot["latency_p99_ms"]

    def test_saturation_batches_fill_max_batch_per_matrix(self):
        """All requests are due at once, so each matrix's queue splits into
        full batches plus one remainder, whatever order the trace has."""
        trace = generate_trace("mixed", 120, seed=SEED)
        golden = golden_ys(trace)
        with WorkerPool(num_workers=2, compute="reference", max_batch=32) as pool:
            report = pool.run_trace(trace)
        per_matrix = Counter(r.matrix_id for r in trace.requests)
        assert report.batches == sum(-(-n // 32) for n in per_matrix.values())
        for result in report.results:
            np.testing.assert_array_equal(result.y, golden[result.request_id])

    def test_inline_degrade_matches_reference(self):
        """num_workers=0 serves in-process and still answers correctly."""
        trace = small_trace()
        golden = golden_ys(trace)
        with WorkerPool(num_workers=0, compute="simulate") as pool:
            report = pool.run_trace(trace)
        assert len(report.results) == trace.num_requests
        for result in report.results:
            np.testing.assert_allclose(
                result.y, golden[result.request_id], rtol=1e-4, atol=1e-5
            )
            assert result.worker_id == -1


class TestFaultInjection:
    def test_worker_death_loses_and_duplicates_nothing(self):
        """A worker killed mid-batch is respawned and its work retried once.

        The injection fires *after* the batch is computed but *before* the
        reply is sent — the exact window where a crash would silently lose
        work without the retry protocol.
        """
        trace = small_trace()
        golden = golden_ys(trace)
        crash = FaultPlan(
            name="crash", faults=(FaultSpec(kind="crash", worker=0, at_batch=0),)
        )
        with WorkerPool(
            num_workers=2,
            compute="simulate",
            fault_plan=crash,
            batch_timeout=15.0,
        ) as pool:
            report = pool.run_trace(trace)
        ids = [r.request_id for r in report.results]
        assert ids == sorted(ids)
        assert ids == list(range(trace.num_requests))  # nothing lost, no dups
        assert report.respawns >= 1
        assert report.retries >= 1
        for result in report.results:
            np.testing.assert_allclose(
                result.y, golden[result.request_id], rtol=1e-4, atol=1e-5
            )

    def test_batch_lost_twice_runs_inline(self):
        """A batch gets two dispatches; one lost on both runs in the parent.

        The one worker crashes at its first batch in every incarnation, so
        each batch it loses once is retried and lost again.
        """
        trace = small_trace()
        golden = golden_ys(trace)
        crash = FaultPlan(
            name="crash-every-incarnation",
            faults=(
                FaultSpec(kind="crash", worker=0, at_batch=0),
                FaultSpec(kind="crash", worker=0, at_batch=0, on_respawn=True),
            ),
        )
        with WorkerPool(num_workers=1, compute="simulate", fault_plan=crash) as pool:
            report = pool.run_trace(trace)
        assert [r.request_id for r in report.results] == list(range(trace.num_requests))
        assert report.retries >= 1
        assert report.retries == report.degraded_batches
        for result in report.results:
            np.testing.assert_allclose(
                result.y, golden[result.request_id], rtol=1e-4, atol=1e-5
            )

    def test_reference_compute_mode(self):
        """compute="reference" runs the golden kernel inside the workers."""
        trace = small_trace()
        golden = golden_ys(trace)
        with WorkerPool(num_workers=1, compute="reference") as pool:
            report = pool.run_trace(trace)
        for result in report.results:
            np.testing.assert_array_equal(result.y, golden[result.request_id])


class TestShardResults:
    def test_shards_are_merged_into_one_store(self, tmp_path):
        """Each worker writes its own shard DB; shutdown folds them in."""
        path = str(tmp_path / "wallclock.db")
        trace = small_trace()
        with WorkerPool(
            num_workers=2, compute="simulate", results_path=path, scenario=SCENARIO
        ) as pool:
            pool.run_trace(trace)
        with ResultsStore(path) as store:
            shards = store.list_runs(topic="serve-wallclock-shard")
        assert len(shards) == 2
        assert {r.config["worker_id"] for r in shards} == {0, 1}
        assert sum(r.metrics["requests"] for r in shards) == float(
            trace.num_requests
        )
        assert all(r.scenario == SCENARIO for r in shards)


class TestValidation:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(num_workers=-1)

    def test_unknown_compute_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(compute="quantum")

    def test_run_after_shutdown_rejected(self):
        pool = WorkerPool(num_workers=0)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.run_trace(small_trace())
