"""Tests for repro.backends: protocol, registry, adapter engines, Session."""

import numpy as np
import pytest

from repro import backends
from repro.apps import SparseMLP, conjugate_gradient
from repro.backends import (
    EngineSpec,
    SerpensEngine,
    Session,
    SpMVEngine,
    SpMVResult,
    as_spmv_fn,
)
from repro.formats import CSRMatrix
from repro.generators import laplacian_2d, random_uniform
from repro.serpens import SerpensConfig
from repro.serve import AcceleratorPool, SpMVService, generate_trace
from repro.spmv import spmv

ALL_ENGINES = ("cpu", "graphlily", "k80", "serpens-a16", "serpens-a24", "sextans")


def small_serpens_config(**overrides):
    defaults = dict(
        name="Serpens-backend-test",
        num_sparse_channels=2,
        pes_per_channel=4,
        urams_per_pe=2,
        uram_depth=256,
        segment_width=128,
        dsp_latency=4,
    )
    defaults.update(overrides)
    return SerpensConfig(**defaults)


class TestRegistry:
    def test_builtin_engines_available(self):
        names = backends.available()
        for expected in ALL_ENGINES:
            assert expected in names
        assert len(names) >= 6

    def test_create_returns_fresh_instances(self):
        a = backends.create("sextans")
        b = backends.create("sextans")
        assert a is not b
        assert isinstance(a, SpMVEngine)

    def test_aliases_resolve(self):
        assert backends.create("serpens").config.name == "Serpens-A16"
        assert backends.create("tesla-k80").spec().name == "Tesla K80"
        assert backends.create("CPU-Numpy").spec().name == "CPU-numpy"

    def test_unknown_engine_raises_with_listing(self):
        with pytest.raises(KeyError, match="sextans"):
            backends.create("warp-drive")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            backends.register("sextans", backends.SextansEngine)

    def test_registration_cannot_steal_an_existing_alias(self):
        # "serpens" is an alias of serpens-a16; a new engine must not be able
        # to silently capture it.
        with pytest.raises(ValueError, match="serpens"):
            backends.register("imposter", backends.SextansEngine, aliases=("serpens",))
        assert backends.create("serpens").config.name == "Serpens-A16"
        assert "imposter" not in backends.available()

    def test_overwrite_of_an_alias_name_detaches_it(self):
        # Registering over a name that was previously only an alias must make
        # lookups reach the new engine (aliases resolve before canonical
        # names), without touching the alias's former owner.
        original = backends.registration("serpens-a16")
        backends.register("serpens", backends.SextansEngine, overwrite=True)
        try:
            assert isinstance(backends.create("serpens"), backends.SextansEngine)
            assert backends.create("serpens-a16").config.name == "Serpens-A16"
        finally:
            backends.unregister("serpens")
            backends.register(
                original.name,
                original.factory,
                description=original.description,
                aliases=original.aliases,
                overwrite=True,
            )
        assert backends.create("serpens").config.name == "Serpens-A16"
        assert "serpens" not in backends.available()

    def test_overwrite_drops_stale_aliases(self):
        backends.register("temp", backends.SextansEngine, aliases=("temp-alias",))
        try:
            backends.register(
                "temp", backends.GraphLilyEngine, aliases=(), overwrite=True
            )
            assert isinstance(backends.create("temp"), backends.GraphLilyEngine)
            with pytest.raises(KeyError):
                backends.create("temp-alias")
        finally:
            backends.unregister("temp")

    def test_resolve_accepts_names_instances_and_configs(self):
        engine = SerpensEngine(small_serpens_config())
        assert backends.resolve(engine) is engine
        assert isinstance(backends.resolve("graphlily"), backends.GraphLilyEngine)
        # A bare SerpensConfig builds a SerpensEngine on that config.
        config = small_serpens_config()
        resolved = backends.resolve(config)
        assert isinstance(resolved, SerpensEngine)
        assert resolved.config is config
        session = Session(config)
        handle = session.register(random_uniform(30, 30, 120, seed=10))
        y, __ = session.launch(handle, np.ones(30))
        assert y.shape == (30,)
        with pytest.raises(TypeError):
            backends.resolve(42)

    def test_create_forwards_mode_to_serpens_factories(self):
        assert backends.create("serpens-a16", mode="reference").mode == "reference"
        assert backends.create("serpens-a24", mode="reference").mode == "reference"
        assert backends.create("serpens-a16").mode == "fast"

    def test_custom_engine_is_a_one_file_change(self):
        class NullEngine(SpMVEngine):
            name = "null"

            def spec(self):
                return EngineSpec("Null", 1.0, 1.0, "maximum", 1.0)

            def build_payload(self, matrix):
                return None

            def execute(self, prepared, x, y=None, alpha=1.0, beta=0.0):
                result = spmv(prepared.matrix, x, y, alpha, beta)
                return SpMVResult(y=result, report=self.estimate(prepared.matrix))

            def estimate(self, matrix, matrix_name="matrix", model="detailed"):
                from repro.metrics import ExecutionReport

                return ExecutionReport(
                    accelerator="Null",
                    matrix_name=matrix_name,
                    num_rows=matrix.num_rows,
                    num_cols=matrix.num_cols,
                    nnz=matrix.nnz,
                    seconds=1e-6,
                    frequency_mhz=1.0,
                )

        backends.register("null", NullEngine, description="test engine")
        try:
            assert "null" in backends.available()
            session = Session("null")
            matrix = random_uniform(30, 30, 120, seed=1)
            handle = session.register(matrix)
            y, report = session.launch(handle, np.ones(30))
            np.testing.assert_allclose(y, spmv(matrix, np.ones(30)))
            assert report.accelerator == "Null"
        finally:
            backends.unregister("null")
        assert "null" not in backends.available()


class TestEngines:
    @pytest.mark.parametrize("name", ALL_ENGINES)
    def test_spec_and_capabilities(self, name):
        engine = backends.create(name)
        spec = engine.spec()
        assert spec.frequency_mhz > 0
        assert spec.bandwidth_gbps > 0
        assert spec.power_watts > 0
        assert spec.bandwidth_kind in ("utilized", "maximum")
        matrix = random_uniform(40, 40, 200, seed=2)
        capabilities = engine.capabilities(matrix)
        assert capabilities.supported
        assert capabilities.reason is None

    @pytest.mark.parametrize("name", ("cpu", "graphlily", "k80", "sextans"))
    def test_execute_matches_golden_kernel(self, name):
        engine = backends.create(name)
        matrix = random_uniform(60, 50, 400, seed=3)
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, 50)
        y_in = rng.uniform(-1, 1, 60)
        result = engine.run(matrix, x, y_in, alpha=1.5, beta=-0.5, matrix_name="m")
        expected = spmv(matrix, x, y_in, 1.5, -0.5)
        np.testing.assert_allclose(result.y, expected, rtol=1e-10, atol=1e-12)
        assert result.report.matrix_name == "m"
        assert result.report.seconds > 0

    def test_serpens_engine_execute_is_cycle_accurate(self):
        engine = SerpensEngine(small_serpens_config())
        matrix = random_uniform(80, 70, 500, seed=5)
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, 70)
        result = engine.run(matrix, x, matrix_name="sim")
        np.testing.assert_allclose(result.y, spmv(matrix, x), rtol=1e-4, atol=1e-5)
        assert result.report.cycles > 0
        assert result.report.accelerator == "Serpens-backend-test"

    def test_model_timed_engines_report_modelled_clock(self):
        # The baselines' reports come from the analytic models, identical to
        # calling the model directly.
        matrix = random_uniform(100, 100, 900, seed=7)
        engine = backends.create("sextans")
        direct = engine.model.run_spmv(matrix, "m")
        via_engine = engine.estimate(matrix, "m")
        assert via_engine.cycles == direct.cycles
        assert via_engine.accelerator == "Sextans"

    def test_sextans_capability_limit(self):
        engine = backends.create("sextans")
        assert engine.max_rows == engine.model.config.max_output_rows
        assert not engine.supports_rows(engine.max_rows + 1)
        big = random_uniform(engine.max_rows + 1, 10, 50, seed=8)
        capabilities = engine.capabilities(big)
        assert not capabilities.supported
        assert "exceeds" in capabilities.reason
        with pytest.raises(ValueError):
            engine.prepare(big)

    def test_unbounded_engines_support_everything(self):
        for name in ("graphlily", "k80", "cpu"):
            engine = backends.create(name)
            assert engine.max_rows is None
            assert engine.supports_rows(10**9)

    def test_baseline_models_expose_supports_rows(self):
        # The satellite fix: every model answers the row-capability question
        # itself instead of the eval layer special-casing it.
        from repro.baselines import GraphLilyModel, K80Model, SextansModel
        from repro.serpens import SerpensAccelerator

        assert K80Model().supports_rows(10**9)
        assert GraphLilyModel().supports_rows(10**9)
        sextans = SextansModel()
        assert sextans.supports_rows(sextans.config.max_output_rows)
        assert not sextans.supports_rows(sextans.config.max_output_rows + 1)
        serpens = SerpensAccelerator(small_serpens_config())
        assert serpens.supports_rows(serpens.config.max_rows)
        assert not serpens.supports_rows(serpens.config.max_rows + 1)

    def test_prepare_accepts_csr(self):
        engine = backends.create("cpu")
        coo = random_uniform(30, 30, 150, seed=9)
        csr = CSRMatrix.from_coo(coo)
        prepared = engine.prepare(csr, name="csr")
        # Fingerprints are element-order-sensitive, so compare against the
        # same CSR-normalised view Session.fingerprint uses.
        assert prepared.fingerprint == Session.fingerprint(csr)
        result = engine.execute(prepared, np.ones(30))
        np.testing.assert_allclose(result.y, spmv(coo, np.ones(30)))


class TestSession:
    @pytest.mark.parametrize("name", ("cpu", "graphlily", "k80", "sextans"))
    def test_cg_end_to_end_on_model_backends(self, name):
        session = Session(name)
        a = laplacian_2d(8, 8)
        b = np.ones(a.num_rows)
        handle = session.register(a, name="laplacian")
        result = conjugate_gradient(a, b, tolerance=1e-8, spmv_fn=session.spmv_callable(handle))
        assert result.converged
        np.testing.assert_allclose(spmv(a, result.x), b, atol=1e-5)
        # Preparation ran once; every subsequent product hit the cache entry.
        assert session.statistics(handle)["launches"] == result.spmv_calls
        stats = session.cache_stats()
        assert stats["misses"] == 1.0
        assert session.program_cache.hits >= 0

    def test_cg_end_to_end_on_serpens_backend(self):
        session = Session(SerpensEngine(small_serpens_config()))
        a = laplacian_2d(6, 6)
        b = np.ones(a.num_rows)
        result = conjugate_gradient(a, b, tolerance=1e-8, engine=session)
        assert result.converged
        np.testing.assert_allclose(spmv(a, result.x), b, atol=1e-5)
        # The program was prepared exactly once and reused on every launch.
        assert session.cache_stats()["misses"] == 1.0
        assert session.statistics()["launches"] == result.spmv_calls

    def test_engine_argument_routes_products(self):
        a = laplacian_2d(7, 7)
        b = np.ones(a.num_rows)
        result = conjugate_gradient(a, b, tolerance=1e-10, engine="cpu")
        assert result.converged

    def test_engine_and_spmv_fn_are_mutually_exclusive(self):
        a = laplacian_2d(4, 4)
        with pytest.raises(ValueError, match="not both"):
            conjugate_gradient(a, np.ones(16), spmv_fn=lambda *args: None, engine="cpu")

    def test_sparse_mlp_forward_with_engine(self):
        mlp = SparseMLP.random([20, 16, 8], density=0.4, seed=11)
        x = np.linspace(-1, 1, 20)
        expected = mlp.forward(x)
        session = Session("sextans")
        via_engine = mlp.forward(x, engine=session)
        np.testing.assert_allclose(via_engine, expected, rtol=1e-10, atol=1e-12)
        # One registration (and one cache miss) per layer, reused across calls.
        mlp.forward(x, engine=session)
        assert session.cache_stats()["misses"] == len(mlp.layers)

    def test_session_rejects_unsupported_matrix(self):
        session = Session(SerpensEngine(small_serpens_config(uram_depth=8)))
        matrix = random_uniform(10_000, 16, 100, seed=12)
        with pytest.raises(ValueError, match="exceeds"):
            session.register(matrix)

    def test_spmv_fn_auto_registers_each_matrix(self):
        session = Session("cpu")
        fn = session.spmv_fn()
        a = random_uniform(20, 20, 80, seed=13)
        b = random_uniform(25, 25, 90, seed=14)
        np.testing.assert_allclose(fn(a, np.ones(20), None, 1.0, 0.0), spmv(a, np.ones(20)))
        np.testing.assert_allclose(fn(b, np.ones(25), None, 1.0, 0.0), spmv(b, np.ones(25)))
        assert len(session.registered_handles) == 2
        assert session.statistics()["launches"] == 2

    def test_as_spmv_fn_accepts_names_engines_and_sessions(self):
        a = random_uniform(15, 15, 60, seed=15)
        for target in ("cpu", backends.create("k80"), Session("graphlily")):
            fn = as_spmv_fn(target)
            np.testing.assert_allclose(
                fn(a, np.ones(15), None, 1.0, 0.0), spmv(a, np.ones(15))
            )

    def test_estimate_via_session(self):
        session = Session("k80")
        matrix = random_uniform(50, 50, 250, seed=16)
        handle = session.register(matrix, name="est")
        report = session.estimate(handle)
        assert report.accelerator == "K80"
        assert report.matrix_name == "est"
        assert report.seconds > 0


class TestEvalWiring:
    def test_accelerators_under_test_are_engine_backed(self):
        from repro.eval import build_accelerators

        for accel in build_accelerators(include_gpu=True):
            assert isinstance(accel.engine, SpMVEngine)
            assert accel.spec.frequency_mhz > 0

    def test_table4_row_behaviour_unchanged(self):
        from repro.eval import build_accelerators

        matrix = random_uniform(200, 200, 1500, seed=17)
        for accel in build_accelerators(include_gpu=True):
            report = accel.run(matrix, "m")
            assert report.accelerator in ("Sextans", "GraphLily", "Serpens-A16", "K80")
            assert report.supported
            assert report.seconds > 0


class TestHeterogeneousPool:
    def test_pool_provisions_from_registry_names(self):
        pool = AcceleratorPool(["serpens-a16", "serpens-a24", "sextans"])
        assert pool.device(0).config.name == "Serpens-A16"
        assert pool.device(1).config.name == "Serpens-A24"
        assert pool.device(2).engine_name == "Sextans"
        assert pool.device(2).max_rows == pool.device(2).engine.model.config.max_output_rows

    def test_homogeneous_pool_from_name(self):
        pool = AcceleratorPool.homogeneous(3, "graphlily")
        assert len(pool) == 3
        assert all(d.engine_name == "GraphLily" for d in pool.devices)
        # Each card gets its own engine instance.
        assert pool.device(0).engine is not pool.device(1).engine

    def test_sharding_skips_devices_without_row_budget(self):
        # A device that is incapable for non-row reasons (supports_rows False,
        # max_rows None) must be excluded from row-sharding, not crash it.
        class PickyEngine(backends.CPUEngine):
            def supports_rows(self, num_rows):
                return False

        tiny = small_serpens_config(uram_depth=32)
        pool = AcceleratorPool([PickyEngine(), SerpensEngine(tiny), SerpensEngine(tiny)])
        matrix = random_uniform(tiny.max_rows + 10, 50, 300, seed=21)
        placement = pool.place(matrix, "fp")
        assert placement.sharded
        assert 0 not in placement.device_ids
        too_tall = random_uniform(3 * tiny.max_rows, 50, 300, seed=22)
        with pytest.raises(ValueError, match="shardable"):
            pool.place(too_tall, "fp2")

    def test_engine_mode_threads_through_pool_and_session(self):
        # The oracle is chosen where the engine is built; pools and sessions
        # take the built engine as it is, next to mode-less model engines.
        pool = AcceleratorPool(
            [backends.create("serpens-a16", mode="reference"), "sextans"]
        )
        assert pool.device(0).engine.mode == "reference"
        assert not hasattr(pool.device(1).engine, "mode")
        matrix = random_uniform(30, 30, 120, seed=30)
        reference_session = Session(
            SerpensEngine(small_serpens_config(), mode="reference")
        )
        assert reference_session.engine.mode == "reference"
        fast_session = Session(small_serpens_config())
        assert fast_session.engine.mode == "fast"
        y_reference, __ = reference_session.launch(
            reference_session.register(matrix), np.ones(30)
        )
        y_fast, __ = fast_session.launch(fast_session.register(matrix), np.ones(30))
        assert np.array_equal(y_fast, y_reference)

    def test_service_runs_trace_on_heterogeneous_pool(self):
        pool = AcceleratorPool(["serpens-a16", "sextans"])
        service = SpMVService(pool=pool, policy="fifo", max_batch=8)
        trace = generate_trace("solver-burst", 40, seed=3)
        report = service.run_trace(trace)
        assert len(report.completed) == 40
        for result in report.completed:
            entry = next(
                h for h in service.registered_handles if h.name == result.matrix_name
            )
            assert result.y is not None
            assert result.y.shape == (entry.num_rows,)
