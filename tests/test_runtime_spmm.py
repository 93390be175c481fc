"""Tests for the host Session on one Serpens build (program caching, launches)
and SpMM-via-SpMV."""

import numpy as np
import pytest

from repro.apps import conjugate_gradient
from repro.generators import laplacian_2d, random_uniform
from repro.backends import Session
from repro.serpens import SerpensAccelerator, SerpensConfig
from repro.serpens.spmm import estimate_spmm, spmm_via_spmv
from repro.spmv import spmv


def small_config(**overrides):
    defaults = dict(
        name="Serpens-runtime-test",
        num_sparse_channels=2,
        pes_per_channel=4,
        urams_per_pe=2,
        uram_depth=256,
        segment_width=128,
        dsp_latency=4,
    )
    defaults.update(overrides)
    return SerpensConfig(**defaults)


class TestSpMMViaSpMV:
    def test_matches_dense_product(self):
        accelerator = SerpensAccelerator(small_config())
        matrix = random_uniform(150, 120, 1500, seed=1)
        rng = np.random.default_rng(2)
        dense = rng.uniform(-1, 1, (120, 4))
        c = rng.uniform(-1, 1, (150, 4))
        result = spmm_via_spmv(accelerator, matrix, dense, c, alpha=2.0, beta=0.5)
        expected = 2.0 * matrix.to_dense() @ dense + 0.5 * c
        np.testing.assert_allclose(result.output, expected, rtol=1e-4, atol=1e-5)
        assert result.dense_width == 4
        assert result.total_seconds > 0
        assert len(result.per_column_reports) == 4

    def test_program_reuse_keeps_latency_per_column_constant(self):
        accelerator = SerpensAccelerator(small_config())
        matrix = random_uniform(100, 100, 800, seed=3)
        dense = np.ones((100, 3))
        result = spmm_via_spmv(accelerator, matrix, dense)
        cycles = {r.cycles for r in result.per_column_reports}
        assert len(cycles) == 1

    def test_shape_validation(self):
        accelerator = SerpensAccelerator(small_config())
        matrix = random_uniform(50, 40, 200, seed=4)
        with pytest.raises(ValueError):
            spmm_via_spmv(accelerator, matrix, np.ones((39, 2)))
        with pytest.raises(ValueError):
            spmm_via_spmv(accelerator, matrix, np.ones((40, 2)), c=np.ones((50, 3)))

    def test_estimate_scales_with_width(self):
        accelerator = SerpensAccelerator(small_config())
        matrix = random_uniform(500, 500, 5000, seed=5)
        n8 = estimate_spmm(accelerator, matrix, 8)
        n16 = estimate_spmm(accelerator, matrix, 16)
        assert n16.cycles == 2 * n8.cycles
        assert n16.nnz == 16 * matrix.nnz
        assert "SpMM N=16" in n16.matrix_name

    def test_estimate_invalid_width(self):
        accelerator = SerpensAccelerator(small_config())
        matrix = random_uniform(10, 10, 20, seed=6)
        with pytest.raises(ValueError):
            estimate_spmm(accelerator, matrix, 0)


class TestSerpensRuntime:
    """A Session on one Serpens config: the single-accelerator host runtime."""

    def test_register_and_launch(self):
        runtime = Session(small_config())
        matrix = random_uniform(200, 180, 2000, seed=7)
        handle = runtime.register(matrix, name="demo")
        assert handle.nnz == matrix.nnz

        x = np.random.default_rng(8).uniform(-1, 1, 180)
        y, report = runtime.launch(handle, x)
        np.testing.assert_allclose(y, spmv(matrix, x), rtol=1e-4, atol=1e-5)
        assert report.matrix_name == "demo"

    def test_duplicate_registration_same_name_returns_same_handle(self):
        runtime = Session(small_config())
        matrix = random_uniform(100, 100, 600, seed=9)
        h1 = runtime.register(matrix, name="a")
        h2 = runtime.register(matrix.copy(), name="a")
        assert h1 == h2
        assert len(runtime.registered_handles) == 1

    def test_duplicate_registration_new_name_records_alias(self):
        runtime = Session(small_config())
        matrix = random_uniform(100, 100, 600, seed=9)
        h1 = runtime.register(matrix, name="a")
        h2 = runtime.register(matrix.copy(), name="b")
        # The caller gets back the name it asked for, not the old one.
        assert h2.name == "b"
        assert h1.name == "a"
        assert h1.fingerprint == h2.fingerprint
        # One matrix is registered (preprocessing ran once); "b" is an alias.
        assert len(runtime.registered_handles) == 1
        assert runtime.aliases(h1) == (h2,)
        # Re-registering either name returns the recorded handle.
        assert runtime.register(matrix, name="a") == h1
        assert runtime.register(matrix, name="b") == h2
        # Both handles launch against the same cached program.
        x = np.ones(100)
        y_a, report_a = runtime.launch(h1, x)
        y_b, report_b = runtime.launch(h2, x)
        np.testing.assert_allclose(y_a, y_b)
        assert report_a.matrix_name == "a"
        assert report_b.matrix_name == "b"

    def test_statistics_accumulate(self):
        runtime = Session(small_config())
        matrix = random_uniform(120, 120, 900, seed=10)
        handle = runtime.register(matrix)
        x = np.ones(120)
        for __ in range(3):
            runtime.launch(handle, x)
        stats = runtime.statistics(handle)
        assert stats["launches"] == 3
        assert stats["traversed_edges"] == 3 * matrix.nnz
        assert stats["accelerator_seconds"] > 0
        assert runtime.statistics()["registered_matrices"] == 1

    def test_capacity_check_on_register(self):
        runtime = Session(small_config(uram_depth=8))
        matrix = random_uniform(10_000, 16, 100, seed=11)
        with pytest.raises(ValueError):
            runtime.register(matrix)

    def test_unknown_handle_rejected(self):
        runtime_a = Session(small_config())
        runtime_b = Session(small_config())
        matrix = random_uniform(50, 50, 200, seed=12)
        handle = runtime_a.register(matrix)
        with pytest.raises(KeyError):
            runtime_b.launch(handle, np.ones(50))

    def test_disk_cache_roundtrip(self, tmp_path):
        matrix = random_uniform(150, 150, 1200, seed=13)
        first = Session(small_config(), cache_dir=tmp_path)
        first.register(matrix, name="cached")
        cached_files = list(tmp_path.glob("serpens_program_*.npz"))
        assert len(cached_files) == 1

        # A fresh runtime picks the program up from disk and still computes
        # the correct result.
        second = Session(small_config(), cache_dir=tmp_path)
        handle = second.register(matrix, name="cached")
        x = np.random.default_rng(14).uniform(-1, 1, 150)
        y, __ = second.launch(handle, x)
        np.testing.assert_allclose(y, spmv(matrix, x), rtol=1e-4, atol=1e-5)

    def test_cache_ignored_for_different_configuration(self, tmp_path):
        matrix = random_uniform(100, 100, 700, seed=15)
        Session(small_config(), cache_dir=tmp_path).register(matrix)
        other = Session(small_config(segment_width=64), cache_dir=tmp_path)
        handle = other.register(matrix)
        y, __ = other.launch(handle, np.ones(100))
        np.testing.assert_allclose(y, spmv(matrix, np.ones(100)), rtol=1e-4, atol=1e-5)

    def test_estimate_through_runtime(self):
        runtime = Session(small_config())
        matrix = random_uniform(300, 300, 3000, seed=16)
        handle = runtime.register(matrix)
        report = runtime.estimate(handle)
        assert report.cycles > 0

    def test_spmv_callable_plugs_into_solvers(self):
        runtime = Session(small_config())
        a = laplacian_2d(10, 10)
        handle = runtime.register(a, name="laplacian")
        b = np.ones(a.num_rows)
        result = conjugate_gradient(a, b, tolerance=1e-8, spmv_fn=runtime.spmv_callable(handle))
        assert result.converged
        np.testing.assert_allclose(spmv(a, result.x), b, atol=1e-5)
        assert runtime.statistics(handle)["launches"] == result.spmv_calls

    def test_spmv_callable_rejects_other_matrices(self):
        runtime = Session(small_config())
        a = random_uniform(60, 60, 300, seed=17)
        other = random_uniform(60, 60, 300, seed=18)
        hook = runtime.spmv_callable(runtime.register(a))
        with pytest.raises(ValueError):
            hook(other, np.ones(60), None, 1.0, 0.0)

    def test_spmv_callable_accepts_equal_content(self):
        # An equal-content copy (different object, same fingerprint) passes
        # the bound-matrix check and launches.
        runtime = Session(small_config())
        a = random_uniform(60, 60, 300, seed=17)
        hook = runtime.spmv_callable(runtime.register(a))
        y = hook(a.copy(), np.ones(60), None, 1.0, 0.0)
        np.testing.assert_allclose(y, spmv(a, np.ones(60)), rtol=1e-4, atol=1e-5)

    def test_statistics_aggregate_per_matrix_and_session(self):
        runtime = Session(small_config())
        a = random_uniform(80, 80, 400, seed=19)
        b = random_uniform(90, 90, 500, seed=20)
        ha = runtime.register(a, name="a")
        hb = runtime.register(b, name="b")
        for __ in range(2):
            runtime.launch(ha, np.ones(80))
        runtime.launch(hb, np.ones(90))

        stats_a = runtime.statistics(ha)
        stats_b = runtime.statistics(hb)
        overall = runtime.statistics()
        assert stats_a["launches"] == 2
        assert stats_a["traversed_edges"] == 2 * a.nnz
        assert stats_b["launches"] == 1
        assert stats_b["traversed_edges"] == b.nnz
        assert overall["registered_matrices"] == 2
        assert overall["launches"] == 3
        assert overall["traversed_edges"] == 2 * a.nnz + b.nnz
        assert overall["accelerator_seconds"] == pytest.approx(
            stats_a["accelerator_seconds"] + stats_b["accelerator_seconds"]
        )
