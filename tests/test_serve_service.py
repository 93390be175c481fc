"""Tests for the SpMVService facade: correctness, determinism, telemetry."""

import numpy as np
import pytest

from repro.generators import laplacian_2d, random_uniform
from repro.serpens import SerpensConfig
from repro.serve import (
    AcceleratorPool,
    ProgramCache,
    SpMVService,
    generate_trace,
)
from repro.spmv import spmv


def small_config(name="Serpens-svc-test", uram_depth=256):
    return SerpensConfig(
        name=name,
        num_sparse_channels=2,
        pes_per_channel=4,
        urams_per_pe=2,
        uram_depth=uram_depth,
        segment_width=128,
        dsp_latency=4,
    )


def small_service(**overrides):
    defaults = dict(
        pool=AcceleratorPool.homogeneous(2, small_config()),
        policy="fifo",
        max_batch=8,
    )
    defaults.update(overrides)
    return SpMVService(**defaults)


class TestRegisterSubmitDrain:
    def test_results_match_reference_kernel(self):
        service = small_service()
        matrix = random_uniform(120, 100, 900, seed=1)
        handle = service.register(matrix, name="m")
        rng = np.random.default_rng(2)
        xs = [rng.uniform(-1, 1, 100) for __ in range(6)]
        ids = [
            service.submit(handle, x, arrival_time=i * 1e-6)
            for i, x in enumerate(xs)
        ]
        report = service.drain()
        assert len(report.results) == 6
        for request_id, x in zip(ids, xs):
            result = report.results[request_id]
            assert not result.rejected
            np.testing.assert_allclose(result.y, spmv(matrix, x), rtol=1e-4, atol=1e-5)
            assert result.finish_time >= result.start_time >= 0.0

    def test_alpha_beta_y_respected(self):
        service = small_service()
        matrix = random_uniform(80, 80, 500, seed=3)
        handle = service.register(matrix)
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, 80)
        y_in = rng.uniform(-1, 1, 80)
        service.submit(handle, x, y=y_in, alpha=2.0, beta=-0.5)
        report = service.drain()
        np.testing.assert_allclose(
            report.results[0].y, spmv(matrix, x, y_in, 2.0, -0.5), rtol=1e-4, atol=1e-5
        )

    def test_simulate_mode_matches_reference(self):
        service = small_service(compute="simulate")
        matrix = random_uniform(90, 90, 600, seed=5)
        handle = service.register(matrix)
        x = np.random.default_rng(6).uniform(-1, 1, 90)
        service.submit(handle, x)
        report = service.drain()
        np.testing.assert_allclose(
            report.results[0].y, spmv(matrix, x), rtol=1e-4, atol=1e-5
        )

    def test_duplicate_registration_returns_same_handle(self):
        service = small_service()
        matrix = random_uniform(60, 60, 300, seed=7)
        h1 = service.register(matrix, name="a")
        h2 = service.register(matrix.copy(), name="b")
        assert h1 == h2
        assert len(service.registered_handles) == 1

    def test_unknown_handle_and_bad_x_rejected(self):
        service = small_service()
        other = small_service()
        matrix = random_uniform(50, 50, 200, seed=8)
        handle = other.register(matrix)
        with pytest.raises(KeyError):
            service.submit(handle, np.ones(50))
        mine = service.register(matrix)
        with pytest.raises(ValueError):
            service.submit(mine, np.ones(49))
        with pytest.raises(ValueError):
            service.submit(mine, np.ones(50), arrival_time=-1.0)

    def test_invalid_compute_mode(self):
        with pytest.raises(ValueError):
            small_service(compute="wrong")


class TestBatchingAndLatency:
    def test_same_matrix_requests_coalesce(self):
        service = small_service(pool=AcceleratorPool.homogeneous(1, small_config()))
        matrix = random_uniform(100, 100, 700, seed=9)
        handle = service.register(matrix)
        # First request occupies the device; the rest arrive while busy and
        # must be coalesced into one follow-up batch.
        for i in range(5):
            service.submit(handle, np.ones(100), arrival_time=i * 1e-9)
        report = service.drain()
        sizes = {r.batch_size for r in report.results[1:]}
        assert sizes == {4}
        assert report.scheduler_stats["batches"] == 2

    def test_latency_decomposition(self):
        service = small_service()
        matrix = random_uniform(70, 70, 400, seed=10)
        handle = service.register(matrix)
        service.submit(handle, np.ones(70), arrival_time=0.0)
        report = service.drain()
        result = report.results[0]
        assert result.latency_seconds == pytest.approx(
            result.queue_seconds + result.service_seconds
        )
        assert result.service_seconds > 0

    def test_warm_program_cuts_latency(self):
        service = small_service(pool=AcceleratorPool.homogeneous(1, small_config()))
        matrix = random_uniform(100, 100, 700, seed=11)
        handle = service.register(matrix)
        service.submit(handle, np.ones(100), arrival_time=0.0)
        first = service.drain().results[0]
        service.submit(handle, np.ones(100), arrival_time=0.0)
        second = service.drain().results[0]
        # The second drain starts with the program resident: no preprocess,
        # no reload.
        assert second.service_seconds < first.service_seconds


class TestShardedService:
    def test_sharded_matrix_results_verified(self):
        config = small_config(uram_depth=32)
        service = SpMVService(pool=AcceleratorPool.homogeneous(3, config))
        matrix = random_uniform(2 * config.max_rows + 7, 150, 2500, seed=13)
        handle = service.register(matrix, name="tall")
        assert handle.sharded
        x = np.random.default_rng(14).uniform(-1, 1, 150)
        service.submit(handle, x)
        report = service.drain()
        result = report.results[0]
        assert len(result.device_ids) == 3
        np.testing.assert_allclose(result.y, spmv(matrix, x), rtol=1e-4, atol=1e-5)

    def test_sharded_simulate_mode(self):
        config = small_config(uram_depth=32)
        service = SpMVService(
            pool=AcceleratorPool.homogeneous(2, config), compute="simulate"
        )
        matrix = random_uniform(config.max_rows + 9, 100, 1200, seed=15)
        handle = service.register(matrix)
        rng = np.random.default_rng(16)
        x = rng.uniform(-1, 1, 100)
        y_in = rng.uniform(-1, 1, matrix.num_rows)
        service.submit(handle, x, y=y_in, alpha=1.5, beta=-0.5)
        report = service.drain()
        np.testing.assert_allclose(
            report.results[0].y,
            spmv(matrix, x, y_in, 1.5, -0.5),
            rtol=1e-4,
            atol=1e-5,
        )


class TestTelemetryAndDeterminism:
    def test_run_trace_is_deterministic(self):
        def run():
            trace = generate_trace("mixed", num_requests=150, seed=3)
            service = SpMVService(
                pool=AcceleratorPool.homogeneous(2, small_config()),
                policy="sjf",
                max_batch=16,
            )
            return service.run_trace(trace)

        a, b = run(), run()
        assert a.telemetry.makespan == b.telemetry.makespan
        assert [r.latency_seconds for r in a.completed] == [
            r.latency_seconds for r in b.completed
        ]
        assert a.cache_stats == b.cache_stats

    def test_telemetry_snapshot_shape(self):
        service = small_service()
        matrix = laplacian_2d(12, 12)
        handle = service.register(matrix)
        for i in range(4):
            service.submit(handle, np.ones(144), tenant=f"tenant{i % 2}")
        report = service.drain()
        snapshot = report.telemetry.snapshot(report.cache_stats)
        for key in (
            "completed",
            "throughput_rps",
            "latency_p50_ms",
            "latency_p95_ms",
            "latency_p99_ms",
            "cache_hit_rate",
            "aggregate_mteps",
        ):
            assert key in snapshot
        assert snapshot["completed"] == 4
        assert report.telemetry.tenants == ["tenant0", "tenant1"]
        rendered = report.render()
        assert "Per-tenant latency" in rendered
        assert "Per-device utilisation" in rendered

    def test_shared_cache_with_runtime(self):
        from repro.backends import Session

        shared = ProgramCache(capacity=8)
        config = small_config()
        runtime = Session(config, program_cache=shared)
        matrix = random_uniform(90, 90, 500, seed=17)
        runtime.register(matrix)
        service = SpMVService(
            pool=AcceleratorPool.homogeneous(1, config),
            cache=shared,
            compute="simulate",
        )
        handle = service.register(matrix)
        service.submit(handle, np.ones(90))
        service.drain()
        # Runtime and service key differently (the service appends the
        # device configuration), so each contributes one build ...
        assert shared.misses == 2
        service.submit(handle, np.ones(90))
        report = service.drain()
        # ... and the second (simulate-mode) drain reuses the cached program.
        assert report.cache_stats["hits"] >= 1

    def test_statistics_accumulate_across_drains(self):
        service = small_service()
        matrix = random_uniform(60, 60, 300, seed=18)
        handle = service.register(matrix)
        service.submit(handle, np.ones(60))
        service.drain()
        service.submit(handle, np.ones(60))
        service.drain()
        stats = service.statistics()
        assert stats["launches"] == 2
        assert stats["registered_matrices"] == 1
