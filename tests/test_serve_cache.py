"""Tests for the bounded program cache and its runtime integration."""

import numpy as np
import pytest

from repro.generators import random_uniform
from repro.backends import Session
from repro.serpens import SerpensConfig
from repro.serve import ProgramCache, matrix_fingerprint
from repro.spmv import spmv


def small_config(**overrides):
    defaults = dict(
        name="Serpens-cache-test",
        num_sparse_channels=2,
        pes_per_channel=4,
        urams_per_pe=2,
        uram_depth=256,
        segment_width=128,
        dsp_latency=4,
    )
    defaults.update(overrides)
    return SerpensConfig(**defaults)


def build_program(matrix, config=None):
    config = config or small_config()
    from repro.preprocess import build_program as build

    return build(matrix, config.to_partition_params())


class TestProgramCacheMemory:
    def test_hit_miss_counters(self):
        cache = ProgramCache(capacity=4)
        program = build_program(random_uniform(50, 50, 300, seed=1))
        assert cache.get("a") is None
        cache.put("a", program)
        assert cache.get("a") is program
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_lru_eviction_order(self):
        cache = ProgramCache(capacity=2)
        programs = {
            key: build_program(random_uniform(40, 40, 200, seed=i))
            for i, key in enumerate(["a", "b", "c"])
        }
        cache.put("a", programs["a"])
        cache.put("b", programs["b"])
        cache.get("a")  # refresh 'a' so 'b' is now least recently used
        cache.put("c", programs["c"])
        assert cache.evictions == 1
        assert cache.get("b") is None
        assert cache.get("a") is programs["a"]
        assert cache.get("c") is programs["c"]

    def test_params_mismatch_is_a_miss_and_evicts(self):
        cache = ProgramCache()
        matrix = random_uniform(60, 60, 400, seed=2)
        cache.put("m", build_program(matrix))
        other = small_config(segment_width=64).to_partition_params()
        assert cache.get("m", params=other) is None
        # The mismatched program is evicted, not left burning LRU capacity:
        # even a lookup with the original params now misses.
        assert "m" not in cache
        assert cache.get("m", params=small_config().to_partition_params()) is None
        assert cache.stale_evictions == 1

    def test_params_match_survives_lookup(self):
        cache = ProgramCache()
        matrix = random_uniform(60, 60, 400, seed=2)
        cache.put("m", build_program(matrix))
        assert cache.get("m", params=small_config().to_partition_params()) is not None
        assert cache.stale_evictions == 0

    def test_get_or_build_builds_once(self):
        cache = ProgramCache(capacity=4)
        matrix = random_uniform(40, 40, 250, seed=3)
        calls = []

        def builder():
            calls.append(1)
            return build_program(matrix)

        first = cache.get_or_build("k", builder)
        second = cache.get_or_build("k", builder)
        assert first is second
        assert len(calls) == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ProgramCache(capacity=0)
        with pytest.raises(ValueError):
            ProgramCache(disk_capacity=-1)


class TestProgramCacheDisk:
    def test_disk_tier_bounded(self, tmp_path):
        cache = ProgramCache(capacity=2, cache_dir=tmp_path, disk_capacity=2)
        for i, key in enumerate(["a", "b", "c"]):
            cache.put(key, build_program(random_uniform(40, 40, 200, seed=10 + i)))
        files = list(tmp_path.glob("serpens_program_*.npz"))
        assert len(files) == 2
        assert cache.disk_evictions == 1
        assert cache.disk_keys() == ["b", "c"]

    def test_evicted_from_memory_survives_on_disk(self, tmp_path):
        cache = ProgramCache(capacity=1, cache_dir=tmp_path, disk_capacity=8)
        a = build_program(random_uniform(40, 40, 200, seed=20))
        b = build_program(random_uniform(40, 40, 200, seed=21))
        cache.put("a", a)
        cache.put("b", b)  # evicts 'a' from memory, keeps it on disk
        assert cache.memory_keys() == ["b"]
        reloaded = cache.get("a")
        assert reloaded is not None
        assert reloaded.nnz == a.nnz
        assert cache.disk_hits == 1

    def test_params_mismatch_evicts_memory_and_disk(self, tmp_path):
        cache = ProgramCache(capacity=4, cache_dir=tmp_path, disk_capacity=4)
        cache.put("m", build_program(random_uniform(60, 60, 400, seed=30)))
        assert len(list(tmp_path.glob("serpens_program_*.npz"))) == 1
        other = small_config(segment_width=64).to_partition_params()
        assert cache.get("m", params=other) is None
        # Both tiers let go of the unusable program: no resident entry, no
        # stale file, and a fresh cache over the same directory sees nothing.
        assert "m" not in cache
        assert cache.disk_keys() == []
        assert list(tmp_path.glob("serpens_program_*.npz")) == []
        assert ProgramCache(cache_dir=tmp_path).get("m") is None
        assert cache.stale_evictions == 1

    def test_params_mismatch_found_only_on_disk_is_evicted(self, tmp_path):
        writer = ProgramCache(cache_dir=tmp_path)
        writer.put("m", build_program(random_uniform(60, 60, 400, seed=31)))
        # A fresh cache adopts the file, so the lookup goes through the disk
        # tier; the mismatch must unlink the adopted file as well.
        reader = ProgramCache(cache_dir=tmp_path)
        other = small_config(segment_width=64).to_partition_params()
        assert reader.get("m", params=other) is None
        assert list(tmp_path.glob("serpens_program_*.npz")) == []
        assert reader.stale_evictions == 1
        assert reader.get("m", params=small_config().to_partition_params()) is None

    def test_adopts_existing_files(self, tmp_path):
        first = ProgramCache(cache_dir=tmp_path)
        first.put("old", build_program(random_uniform(40, 40, 200, seed=22)))
        second = ProgramCache(cache_dir=tmp_path)
        assert "old" in second
        assert second.get("old") is not None
        assert second.disk_hits == 1

    def test_punctuated_keys_round_trip_and_do_not_collide(self, tmp_path):
        # Keys are caller-chosen strings (the service uses '@' and '-');
        # the on-disk encoding must be bijective so 'a:b' and 'a-b' are
        # distinct files and adoption recovers the original keys.
        cache = ProgramCache(cache_dir=tmp_path)
        a = build_program(random_uniform(40, 40, 200, seed=23))
        b = build_program(random_uniform(40, 40, 200, seed=24))
        cache.put("fp@Serpens-A16@r0-100", a)
        cache.put("fp@Serpens(A16(r0:100", b)
        assert len(list(tmp_path.glob("serpens_program_*.npz"))) == 2

        adopted = ProgramCache(cache_dir=tmp_path)
        assert sorted(adopted.disk_keys()) == sorted(
            ["fp@Serpens-A16@r0-100", "fp@Serpens(A16(r0:100"]
        )
        assert adopted.get("fp@Serpens-A16@r0-100").nnz == a.nnz
        # Evicting one key's file must not orphan the other's entry.
        bounded = ProgramCache(capacity=1, cache_dir=tmp_path, disk_capacity=1)
        survivor = bounded.disk_keys()[0]
        assert bounded.get(survivor) is not None

    def test_adoption_enforces_disk_capacity(self, tmp_path):
        unbounded = ProgramCache(cache_dir=tmp_path)
        for i in range(3):
            unbounded.put(
                f"k{i}", build_program(random_uniform(40, 40, 200, seed=30 + i))
            )
        bounded = ProgramCache(capacity=1, cache_dir=tmp_path, disk_capacity=1)
        assert len(list(tmp_path.glob("serpens_program_*.npz"))) == 1
        assert bounded.disk_evictions == 2


class TestRuntimeIntegration:
    def test_disk_cache_reloads_without_preprocessing(self, tmp_path, monkeypatch):
        """A fresh runtime must load the persisted program by fingerprint
        instead of re-running preprocessing."""
        matrix = random_uniform(150, 150, 1200, seed=40)
        first = Session(small_config(), cache_dir=tmp_path)
        first.register(matrix, name="cached")
        assert len(list(tmp_path.glob("serpens_program_*.npz"))) == 1

        second = Session(small_config(), cache_dir=tmp_path)

        def fail_preprocess(matrix):
            raise AssertionError("preprocessing ran despite a warm disk cache")

        monkeypatch.setattr(second.engine.accelerator, "preprocess", fail_preprocess)
        handle = second.register(matrix, name="cached")
        assert handle.fingerprint == matrix_fingerprint(matrix)
        assert second.cache_stats()["disk_hits"] == 1

        x = np.random.default_rng(41).uniform(-1, 1, 150)
        y, __ = second.launch(handle, x)
        np.testing.assert_allclose(y, spmv(matrix, x), rtol=1e-4, atol=1e-5)

    def test_disk_cache_no_longer_grows_without_bound(self, tmp_path):
        runtime = Session(small_config(), cache_dir=tmp_path, cache_capacity=2)
        for i in range(5):
            runtime.register(random_uniform(60, 60, 300, seed=50 + i), name=f"m{i}")
        assert len(list(tmp_path.glob("serpens_program_*.npz"))) == 2
        assert runtime.cache_stats()["disk_entries"] == 2
        assert runtime.cache_stats()["evictions"] == 3

    def test_eviction_does_not_break_registered_launches(self, tmp_path):
        runtime = Session(small_config(), cache_capacity=1)
        a = random_uniform(80, 80, 500, seed=60)
        b = random_uniform(80, 80, 500, seed=61)
        ha = runtime.register(a, name="a")
        runtime.register(b, name="b")  # evicts a's program from the cache
        y, __ = runtime.launch(ha, np.ones(80))
        np.testing.assert_allclose(y, spmv(a, np.ones(80)), rtol=1e-4, atol=1e-5)

    def test_shared_cache_between_runtimes(self):
        shared = ProgramCache(capacity=8)
        matrix = random_uniform(70, 70, 400, seed=62)
        first = Session(small_config(), program_cache=shared)
        second = Session(small_config(), program_cache=shared)
        first.register(matrix)
        second.register(matrix)
        assert shared.hits == 1  # second runtime reused the first's program
        assert shared.misses == 1

    def test_fingerprint_delegates_to_shared_helper(self):
        matrix = random_uniform(30, 30, 100, seed=63)
        assert Session.fingerprint(matrix) == matrix_fingerprint(matrix)
