"""Capacity-bounded program cache shared by the Session and the serving layer.

Preprocessing a matrix into a :class:`~repro.preprocess.SerpensProgram` costs
seconds of host CPU time; a deployment amortises it by keeping programs
resident and reusing them across thousands of launches.  The
:class:`ProgramCache` centralises that reuse policy:

* an in-memory LRU tier bounded by ``capacity`` entries,
* an optional on-disk tier (via the program serialiser) bounded by
  ``disk_capacity`` entries, so a long-running service cannot fill the disk
  with stale programs,
* hit/miss/eviction counters, the numbers a cache-sizing exercise needs.

Keys are caller-chosen strings.  A :class:`~repro.backends.Session` keys by
the engine's ``program_key`` (bare matrix fingerprints for Serpens engines:
the bare-fingerprint disk layout, one file per matrix); the
multi-accelerator :class:`~repro.serve.service.SpMVService` appends a
configuration tag so mixed pools never share an incompatible program.
Payloads that are not :class:`~repro.preprocess.SerpensProgram` instances
(the model-timed baselines' CSR views) are cached in memory only.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union
from urllib.parse import quote, unquote

import numpy as np

from ..formats import COOMatrix
from ..preprocess import PartitionParams, SerpensProgram, load_program, save_program

__all__ = ["ProgramCache", "matrix_fingerprint"]


def matrix_fingerprint(matrix: COOMatrix) -> str:
    """A stable content hash of a matrix (structure and values).

    This is the canonical cache key used by both the single-engine
    :class:`~repro.backends.Session` and the serving layer.
    """
    digest = hashlib.sha256()
    digest.update(np.int64([matrix.num_rows, matrix.num_cols, matrix.nnz]).tobytes())
    digest.update(np.ascontiguousarray(matrix.rows).tobytes())
    digest.update(np.ascontiguousarray(matrix.cols).tobytes())
    digest.update(np.ascontiguousarray(matrix.values).tobytes())
    return digest.hexdigest()[:16]


class ProgramCache:
    """An LRU cache of preprocessed programs with an optional disk tier.

    Parameters
    ----------
    capacity:
        Maximum programs held in memory (``None`` = unbounded).
    cache_dir:
        Optional directory for the persistent tier.  Programs evicted from
        memory stay loadable from disk until the disk tier itself evicts
        them.  Pre-existing program files in the directory are adopted
        (oldest-first by modification time).
    disk_capacity:
        Maximum program files kept on disk; defaults to ``capacity``.
        ``None`` (with ``capacity=None``) leaves the disk tier unbounded.
    """

    _FILE_PREFIX = "serpens_program_"

    def __init__(
        self,
        capacity: Optional[int] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        disk_capacity: Optional[int] = None,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive (or None for unbounded)")
        if disk_capacity is not None and disk_capacity <= 0:
            raise ValueError("disk_capacity must be positive (or None)")
        self.capacity = capacity
        self.disk_capacity = disk_capacity if disk_capacity is not None else capacity
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._memory: "OrderedDict[str, SerpensProgram]" = OrderedDict()
        self._disk: "OrderedDict[str, Path]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.evictions = 0
        self.disk_evictions = 0
        self.stale_evictions = 0
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            self._adopt_existing_files()

    # ------------------------------------------------------------------
    # Lookup / insertion
    # ------------------------------------------------------------------
    def get(
        self, key: str, params: Optional[PartitionParams] = None
    ) -> Optional[SerpensProgram]:
        """Return the cached program for ``key``, or ``None`` on a miss.

        When ``params`` is given, a stored program built for different
        architecture parameters is treated as a miss *and evicted from both
        tiers*: leaving the mismatched entry resident would burn memory and
        disk capacity on a program no caller with these params can use, and
        re-miss on every subsequent lookup.
        """
        program = self._memory.get(key)
        if program is not None:
            if params is not None and getattr(program, "params", None) != params:
                self._evict_stale(key)
                self.misses += 1
                return None
            self._memory.move_to_end(key)
            self.hits += 1
            self.memory_hits += 1
            return program

        program = self._load_from_disk(key)
        if program is not None:
            if params is not None and getattr(program, "params", None) != params:
                self._evict_stale(key)
                self.misses += 1
                return None
            self._admit_to_memory(key, program)
            self.hits += 1
            self.disk_hits += 1
            return program

        self.misses += 1
        return None

    def _evict_stale(self, key: str) -> None:
        """Drop a params-mismatched entry from the memory and disk tiers."""
        self._memory.pop(key, None)
        path = self._disk.pop(key, None)
        if path is None and self.cache_dir is not None:
            path = self._path_for(key)
        if path is not None and path.exists():
            path.unlink()
        self.stale_evictions += 1

    def put(self, key: str, program: SerpensProgram) -> None:
        """Insert (or refresh) a program under ``key`` in both tiers."""
        if key in self._memory:
            self._memory.move_to_end(key)
            self._memory[key] = program
        else:
            self._admit_to_memory(key, program)
        self._store_to_disk(key, program)

    def get_or_build(
        self,
        key: str,
        builder: Callable[[], SerpensProgram],
        params: Optional[PartitionParams] = None,
    ) -> SerpensProgram:
        """Return the cached program, building and inserting it on a miss."""
        program = self.get(key, params=params)
        if program is None:
            program = builder()
            self.put(key, program)
        return program

    def clear(self) -> None:
        """Drop the in-memory tier (disk files are left in place)."""
        self._memory.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self._memory or key in self._disk

    def __len__(self) -> int:
        return len(self._memory)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from either tier."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def memory_keys(self) -> List[str]:
        """Keys currently resident in memory, LRU-first."""
        return list(self._memory)

    def disk_keys(self) -> List[str]:
        """Keys currently persisted on disk, oldest-first."""
        return list(self._disk)

    def stats(self) -> Dict[str, float]:
        """Counter snapshot for telemetry."""
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "memory_hits": float(self.memory_hits),
            "disk_hits": float(self.disk_hits),
            "evictions": float(self.evictions),
            "disk_evictions": float(self.disk_evictions),
            "stale_evictions": float(self.stale_evictions),
            "hit_rate": self.hit_rate,
            "memory_entries": float(len(self._memory)),
            "disk_entries": float(len(self._disk)),
        }

    def publish(self, registry, prefix: str = "cache_") -> None:
        """Publish the counter snapshot into a metrics registry.

        ``registry`` is a :class:`repro.obs.MetricsRegistry` (duck-typed so
        the serve layer never imports the obs package); every ``stats()``
        key becomes a ``cache_*`` gauge.
        """
        registry.set_gauges(self.stats(), prefix=prefix)

    # ------------------------------------------------------------------
    # Memory tier
    # ------------------------------------------------------------------
    def _admit_to_memory(self, key: str, program: SerpensProgram) -> None:
        self._memory[key] = program
        self._memory.move_to_end(key)
        while self.capacity is not None and len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------------
    # Disk tier
    # ------------------------------------------------------------------
    def _path_for(self, key: str) -> Path:
        # Percent-encoding is bijective, so distinct keys never collide on
        # one file and adoption can recover the exact key from the name.
        # Hex fingerprints (a Session's Serpens keys) pass through unchanged.
        return self.cache_dir / f"{self._FILE_PREFIX}{quote(key, safe='')}.npz"

    def _adopt_existing_files(self) -> None:
        files = sorted(
            self.cache_dir.glob(f"{self._FILE_PREFIX}*.npz"),
            key=lambda p: p.stat().st_mtime,
        )
        for path in files:
            key = unquote(path.stem[len(self._FILE_PREFIX) :])
            self._disk[key] = path
        self._enforce_disk_capacity()

    def _load_from_disk(self, key: str) -> Optional[SerpensProgram]:
        if self.cache_dir is None:
            return None
        path = self._disk.get(key)
        if path is None:
            path = self._path_for(key)
            if not path.exists():
                return None
            self._disk[key] = path
        self._disk.move_to_end(key)
        return load_program(path)

    def _store_to_disk(self, key: str, program: SerpensProgram) -> None:
        if self.cache_dir is None:
            return
        if not isinstance(program, SerpensProgram):
            # Generic backend payloads (CSR views of the model-timed
            # baselines) have no serialised form; they stay memory-only.
            return
        path = self._path_for(key)
        save_program(path, program)
        self._disk[key] = path
        self._disk.move_to_end(key)
        self._enforce_disk_capacity()

    def _enforce_disk_capacity(self) -> None:
        while self.disk_capacity is not None and len(self._disk) > self.disk_capacity:
            __, path = self._disk.popitem(last=False)
            if path.exists():
                path.unlink()
            self.disk_evictions += 1
