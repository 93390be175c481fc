"""A pool of simulated accelerator devices with matrix placement and sharding.

A production deployment does not run one accelerator: it runs a rack of
them — possibly mixed builds (Serpens-A16 cards next to A24 cards next to a
Sextans card) — and a placement layer decides which card holds which matrix.
The :class:`AcceleratorPool` models that layer on top of the backend engine
contract:

* each :class:`PooledDevice` wraps one
  :class:`~repro.backends.SpMVEngine` (created through
  ``backends.create`` when given a registry name) and tracks its own
  virtual-time availability and utilisation counters,
* :meth:`AcceleratorPool.place` assigns a matrix to the least-loaded
  device(s), optionally replicating it for throughput,
* a matrix whose output vector exceeds every device's on-chip row capacity
  (paper Eq. 3) is *row-sharded*: contiguous row blocks land on different
  devices and a launch fans out to all of them, exactly how a multi-card
  host splits an oversized graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..backends import SpMVEngine, resolve
from ..formats import COOMatrix
from ..serpens import SERPENS_A16, SerpensConfig

__all__ = [
    "AcceleratorPool",
    "PooledDevice",
    "Placement",
    "RoutingHint",
    "Shard",
    "shard_rows",
]

PLACEMENT_POLICIES = ("least_loaded", "round_robin")

#: Anything the pool can turn into a device engine: a registry name, an
#: engine instance, or (for backward compatibility) a Serpens build config.
DeviceSpec = Union[str, SpMVEngine, SerpensConfig]


@dataclass
class DeviceStats:
    """Virtual-time utilisation counters of one pooled device."""

    launches: int = 0
    batches: int = 0
    busy_seconds: float = 0.0
    program_switches: int = 0
    program_bytes_loaded: int = 0


@dataclass
class PooledDevice:
    """One simulated accelerator card inside the pool."""

    device_id: int
    engine: SpMVEngine
    busy_until: float = 0.0
    resident_key: Optional[str] = None
    placed_nnz: int = 0
    stats: DeviceStats = field(default_factory=DeviceStats)

    @property
    def config(self):
        """The engine's build configuration (a SerpensConfig for Serpens cards)."""
        return getattr(self.engine, "config", None)

    @property
    def engine_name(self) -> str:
        """Display name of the device's engine (its Table-2 spec name)."""
        return self.engine.spec().name

    @property
    def name(self) -> str:
        return f"dev{self.device_id}:{self.engine_name}"

    @property
    def max_rows(self) -> Optional[int]:
        """On-chip output-row capacity; ``None`` when unbounded."""
        return self.engine.max_rows

    def supports_rows(self, num_rows: int) -> bool:
        return self.engine.supports_rows(num_rows)

    def idle_at(self, now: float) -> bool:
        return self.busy_until <= now

    def occupy(self, start: float, seconds: float, batch_size: int) -> None:
        """Book one dispatched batch onto this device's lifetime counters."""
        self.busy_until = start + seconds
        self.stats.busy_seconds += seconds
        self.stats.launches += batch_size
        self.stats.batches += 1


@dataclass(frozen=True)
class RoutingHint:
    """Placement preference produced by an autotuning router.

    ``engine_names`` are engine registry names in preference order — the
    router's predicted-fastest first, typically every engine whose predicted
    latency is within the router's tolerance of the best, so the placement
    policy can still balance load across near-equivalent devices instead of
    piling every matrix onto one card.  ``predicted_seconds`` is the
    predicted per-launch latency on the preferred engine.  The pool narrows
    placement to capable devices matching any hinted engine, and falls back
    to every capable device when no name matches — a hint is advice, not a
    constraint.
    """

    engine_names: Tuple[str, ...]
    predicted_seconds: float = float("nan")


@dataclass(frozen=True)
class Shard:
    """A contiguous row block of a matrix resident on one device."""

    device_id: int
    row_start: int
    row_end: int

    @property
    def num_rows(self) -> int:
        return self.row_end - self.row_start


@dataclass(frozen=True)
class Placement:
    """Where a registered matrix lives in the pool.

    ``replicas`` is a tuple of shard sets; each shard set covers every row
    of the matrix.  An unsharded matrix replicated twice has two replicas
    of one full-range shard each; an oversized matrix has a single replica
    whose shards split the rows across devices.
    """

    fingerprint: str
    replicas: Tuple[Tuple[Shard, ...], ...]

    @property
    def sharded(self) -> bool:
        return len(self.replicas[0]) > 1

    @property
    def device_ids(self) -> Tuple[int, ...]:
        return tuple(
            sorted({shard.device_id for replica in self.replicas for shard in replica})
        )


def shard_rows(matrix: COOMatrix, boundaries: Sequence[int]) -> List[COOMatrix]:
    """Split a matrix into contiguous row blocks at the given boundaries.

    ``boundaries`` are the exclusive end rows of each block, ending at
    ``matrix.num_rows``; each block keeps the full column dimension so the
    shards share one x vector and their outputs concatenate to the full y.
    """
    if not boundaries or boundaries[-1] != matrix.num_rows:
        raise ValueError("boundaries must end at matrix.num_rows")
    blocks = []
    start = 0
    for end in boundaries:
        if end <= start:
            raise ValueError("boundaries must be strictly increasing")
        mask = (matrix.rows >= start) & (matrix.rows < end)
        blocks.append(
            COOMatrix(
                end - start,
                matrix.num_cols,
                matrix.rows[mask] - start,
                matrix.cols[mask],
                matrix.values[mask],
            )
        )
        start = end
    return blocks


class AcceleratorPool:
    """N simulated devices plus the matrix placement bookkeeping.

    Parameters
    ----------
    configs:
        One device spec per card: a backend registry name (``"sextans"``),
        an :class:`~repro.backends.SpMVEngine` instance, or a
        :class:`SerpensConfig`.  Heterogeneous pools — A16 cards next to A24
        cards next to a Sextans card — are expressed by mixing specs.  An
        engine's oracle modes are chosen where it is built, e.g.
        ``backends.create("serpens-a16", mode="reference")``.
    placement_policy:
        ``"least_loaded"`` places on the device with the fewest resident
        non-zeros; ``"round_robin"`` cycles through devices.
    tracer:
        Optional :class:`repro.obs.Tracer` (duck-typed).  When attached,
        every placement decision emits an instant marker on the
        ``placement`` track naming the chosen devices (and whether the
        matrix was sharded).
    """

    def __init__(
        self,
        configs: Sequence[DeviceSpec],
        placement_policy: str = "least_loaded",
        tracer=None,
    ) -> None:
        if not configs:
            raise ValueError("the pool needs at least one device")
        if placement_policy not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {placement_policy!r}; "
                f"use one of {PLACEMENT_POLICIES}"
            )
        self.placement_policy = placement_policy
        self.tracer = tracer
        self.devices: List[PooledDevice] = [
            PooledDevice(device_id=i, engine=resolve(spec))
            for i, spec in enumerate(configs)
        ]
        self._round_robin_next = 0

    @classmethod
    def homogeneous(
        cls,
        num_devices: int,
        config: DeviceSpec = SERPENS_A16,
        placement_policy: str = "least_loaded",
    ) -> "AcceleratorPool":
        """A pool of ``num_devices`` identical cards.

        A registry-name ``config`` is created once per device (each card
        gets its own engine instance).
        """
        return cls([config] * num_devices, placement_policy=placement_policy)

    # ------------------------------------------------------------------
    # Device access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.devices)

    def device(self, device_id: int) -> PooledDevice:
        return self.devices[device_id]

    def idle_devices(self, now: float) -> List[PooledDevice]:
        """Devices free to start a batch at virtual time ``now``."""
        return [d for d in self.devices if d.idle_at(now)]

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def place(
        self,
        matrix: COOMatrix,
        fingerprint: str,
        replicas: int = 1,
        hint: Optional[RoutingHint] = None,
    ) -> Placement:
        """Choose device(s) for a matrix and record the load they take on.

        A matrix that fits a single device is placed on the ``replicas``
        least-loaded capable devices; one that fits no device is row-sharded
        across as many devices as needed (replication is not combined with
        sharding).  A :class:`RoutingHint` narrows the candidate devices to
        the router's preferred engine when one is available (sharded
        placements ignore hints — capacity decides).
        """
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        capable = [d for d in self.devices if d.supports_rows(matrix.num_rows)]
        if capable and hint is not None:
            capable = self._apply_hint(capable, hint)
        if capable:
            chosen = self._choose(capable, min(replicas, len(capable)))
            replica_sets = []
            for device in chosen:
                device.placed_nnz += matrix.nnz
                replica_sets.append(
                    (Shard(device.device_id, 0, matrix.num_rows),)
                )
            placement = Placement(
                fingerprint=fingerprint, replicas=tuple(replica_sets)
            )
        else:
            placement = self._place_sharded(matrix, fingerprint)
        self._trace_placement(placement, hint)
        return placement

    def _trace_placement(
        self, placement: Placement, hint: Optional[RoutingHint]
    ) -> None:
        if self.tracer is not None:
            self.tracer.instant(
                "place",
                0.0,
                track="placement",
                category="placement",
                matrix=placement.fingerprint[:8],
                devices=[self.device(i).name for i in placement.device_ids],
                sharded=placement.sharded,
                hinted=hint is not None,
            )

    @staticmethod
    def _apply_hint(
        capable: List[PooledDevice], hint: RoutingHint
    ) -> List[PooledDevice]:
        """Narrow capable devices to those matching any hinted engine."""
        wanted = {name.strip().lower() for name in hint.engine_names}
        preferred = [
            d
            for d in capable
            if d.engine.name.lower() in wanted or d.engine_name.lower() in wanted
        ]
        return preferred if preferred else capable

    def _choose(self, candidates: List[PooledDevice], count: int) -> List[PooledDevice]:
        if self.placement_policy == "round_robin":
            ordered = sorted(
                candidates,
                key=lambda d: (d.device_id - self._round_robin_next) % len(self.devices),
            )
            chosen = ordered[:count]
            self._round_robin_next = (chosen[-1].device_id + 1) % len(self.devices)
            return chosen
        return sorted(candidates, key=lambda d: (d.placed_nnz, d.device_id))[:count]

    def _place_sharded(self, matrix: COOMatrix, fingerprint: str) -> Placement:
        # Sharding needs a known per-device row budget.  A device whose
        # incapacity is not row-bound (custom supports_rows with
        # max_rows=None) cannot host a shard, so it is excluded here.
        shardable = [d for d in self.devices if d.max_rows is not None]
        total_capacity = sum(d.max_rows for d in shardable)
        if total_capacity < matrix.num_rows:
            raise ValueError(
                f"matrix with {matrix.num_rows} rows exceeds the pooled row "
                f"capacity of {total_capacity} across {len(shardable)} shardable "
                f"devices"
            )
        # Fill least-loaded devices first so sharding also balances the pool.
        order = sorted(shardable, key=lambda d: (d.placed_nnz, d.device_id))
        shards = []
        boundaries = []
        start = 0
        nnz_per_row = matrix.nnz_per_row()
        for device in order:
            if start >= matrix.num_rows:
                break
            end = min(start + device.max_rows, matrix.num_rows)
            shards.append(Shard(device.device_id, start, end))
            boundaries.append(end)
            device.placed_nnz += int(np.sum(nnz_per_row[start:end]))
            start = end
        return Placement(fingerprint=fingerprint, replicas=(tuple(shards),))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def utilisation(self, makespan: float) -> List[float]:
        """Per-device busy fraction of the virtual timeline."""
        if makespan <= 0:
            return [0.0 for __ in self.devices]
        return [min(1.0, d.stats.busy_seconds / makespan) for d in self.devices]
