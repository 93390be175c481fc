"""Service telemetry: latency percentiles, throughput and queue metrics.

The serving layer records the numbers an SRE dashboard for an accelerator
fleet would plot: per-tenant p50/p95/p99 latency, per-device utilisation
and program-switch counts, queue-depth over time, shed-request counts and
program-cache hit rate.  Latencies are virtual-time seconds produced by the
service's event loop, so every run is exactly reproducible.

Built on :mod:`repro.metrics` conventions: aggregate throughput is reported
both as requests/s and as MTEPS (traversed edges per second, the paper's
headline metric), and tables render through the same plain-text formatter
as the evaluation harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..eval.reporting import format_float, format_table

__all__ = ["LatencySummary", "ServiceTelemetry", "percentile"]


def percentile(samples: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100) of a sample set; 0.0 when empty."""
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    if len(samples) == 0:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


@dataclass(frozen=True)
class LatencySummary:
    """Order statistics of one latency population (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencySummary":
        if len(samples) == 0:
            return cls(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, max=0.0)
        array = np.asarray(samples, dtype=np.float64)
        return cls(
            count=int(array.size),
            mean=float(array.mean()),
            p50=float(np.percentile(array, 50)),
            p95=float(np.percentile(array, 95)),
            p99=float(np.percentile(array, 99)),
            max=float(array.max()),
        )

    def as_millis(self) -> Dict[str, float]:
        """The summary converted to milliseconds for rendering."""
        return {
            "count": float(self.count),
            "mean_ms": self.mean * 1e3,
            "p50_ms": self.p50 * 1e3,
            "p95_ms": self.p95 * 1e3,
            "p99_ms": self.p99 * 1e3,
            "max_ms": self.max * 1e3,
        }


@dataclass
class _DeviceCounters:
    launches: int = 0
    batches: int = 0
    busy_seconds: float = 0.0
    program_switches: int = 0
    traversed_edges: int = 0


@dataclass
class _RoutingCounters:
    """Per-engine routing record: dispatches plus prediction error."""

    batches: int = 0
    launches: int = 0
    routed_launches: int = 0
    mispredict_sum: float = 0.0
    mispredict_samples: int = 0

    @property
    def mispredict_ratio(self) -> float:
        """Mean ``|predicted − simulated| / simulated`` over dispatches."""
        if not self.mispredict_samples:
            return 0.0
        return self.mispredict_sum / self.mispredict_samples


class ServiceTelemetry:
    """Accumulates per-tenant, per-device and queue metrics for one run."""

    def __init__(self) -> None:
        self._tenant_latency: Dict[str, List[float]] = {}
        self._tenant_queue: Dict[str, List[float]] = {}
        self._tenant_rejected: Dict[str, int] = {}
        #: Shed counts keyed by reason; the service sheds only
        #: ``deadline_expired`` requests.
        self._shed_reasons: Dict[str, int] = {}
        self._devices: Dict[str, _DeviceCounters] = {}
        self._routing: Dict[str, _RoutingCounters] = {}
        self._queue_depth: List[Tuple[float, int]] = []
        self.completed = 0
        self.rejected = 0
        self.makespan = 0.0
        #: Host wall-clock seconds spent preprocessing on program-cache
        #: misses, and the number of such cold builds — the cost a request
        #: pays when its matrix's program is not resident.
        self.prepare_seconds = 0.0
        self.prepare_count = 0
        #: Program-cache counters attached by the service at drain time, so
        #: cache behaviour appears in every snapshot/render without callers
        #: having to pass ``cache_stats=`` explicitly.
        self.attached_cache_stats: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_request(
        self, tenant: str, latency_seconds: float, queue_seconds: float
    ) -> None:
        self._tenant_latency.setdefault(tenant, []).append(latency_seconds)
        self._tenant_queue.setdefault(tenant, []).append(queue_seconds)
        self.completed += 1

    def record_rejection(self, tenant: str, reason: str) -> None:
        """Book one shed request, attributed to why it was shed."""
        self._tenant_rejected[tenant] = self._tenant_rejected.get(tenant, 0) + 1
        self._shed_reasons[reason] = self._shed_reasons.get(reason, 0) + 1
        self.rejected += 1

    def record_batch(
        self,
        device_name: str,
        batch_size: int,
        busy_seconds: float,
        switched_program: bool,
        traversed_edges: int,
    ) -> None:
        counters = self._devices.setdefault(device_name, _DeviceCounters())
        counters.launches += batch_size
        counters.batches += 1
        counters.busy_seconds += busy_seconds
        counters.program_switches += 1 if switched_program else 0
        counters.traversed_edges += traversed_edges

    def record_routing(
        self,
        engine_name: str,
        batch_size: int,
        simulated_seconds: float,
        predicted_seconds: Optional[float] = None,
    ) -> None:
        """Book one dispatch against the engine the matrix was routed to.

        ``simulated_seconds`` is the per-launch virtual time the dispatch was
        booked at (the engine's own estimate); ``predicted_seconds`` is the
        router's prediction when the dispatch was routed, ``None`` for
        unrouted traffic.  The mispredict ratio
        ``|predicted − simulated| / simulated`` only accumulates over routed
        dispatches.
        """
        counters = self._routing.setdefault(engine_name, _RoutingCounters())
        counters.batches += 1
        counters.launches += batch_size
        if predicted_seconds is not None:
            counters.routed_launches += batch_size
            if simulated_seconds > 0:
                counters.mispredict_sum += (
                    abs(predicted_seconds - simulated_seconds) / simulated_seconds
                )
                counters.mispredict_samples += 1

    def record_prepare(self, seconds: float) -> None:
        """Book one cold program build (host wall-clock, not virtual time)."""
        self.prepare_seconds += seconds
        self.prepare_count += 1

    def attach_cache(self, cache_stats: Dict[str, float]) -> None:
        """Attach program-cache counters so every snapshot includes them."""
        self.attached_cache_stats = dict(cache_stats)

    def record_queue_depth(self, now: float, depth: int) -> None:
        self._queue_depth.append((now, depth))
        self.makespan = max(self.makespan, now)

    def observe_finish(self, finish_time: float) -> None:
        self.makespan = max(self.makespan, finish_time)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    @property
    def tenants(self) -> List[str]:
        return sorted(set(self._tenant_latency) | set(self._tenant_rejected))

    def rejections(self, tenant: str) -> int:
        """Requests shed by admission control for one tenant."""
        return self._tenant_rejected.get(tenant, 0)

    def shed_reasons(self) -> Dict[str, int]:
        """Shed counts keyed by reason."""
        return dict(self._shed_reasons)

    def latency(self, tenant: Optional[str] = None) -> LatencySummary:
        """Latency summary for one tenant, or the whole population."""
        if tenant is not None:
            samples = self._tenant_latency.get(tenant, [])
        else:
            samples = [s for v in self._tenant_latency.values() for s in v]
        return LatencySummary.from_samples(samples)

    def queueing(self, tenant: Optional[str] = None) -> LatencySummary:
        """Queue-wait summary (time between arrival and dispatch)."""
        if tenant is not None:
            samples = self._tenant_queue.get(tenant, [])
        else:
            samples = [s for v in self._tenant_queue.values() for s in v]
        return LatencySummary.from_samples(samples)

    @property
    def throughput_rps(self) -> float:
        """Completed requests per virtual second."""
        return self.completed / self.makespan if self.makespan > 0 else 0.0

    @property
    def aggregate_mteps(self) -> float:
        """Traversed edges per second across the fleet (millions)."""
        edges = sum(c.traversed_edges for c in self._devices.values())
        return edges / self.makespan / 1e6 if self.makespan > 0 else 0.0

    @property
    def mean_queue_depth(self) -> float:
        if not self._queue_depth:
            return 0.0
        return float(np.mean([depth for __, depth in self._queue_depth]))

    @property
    def peak_queue_depth(self) -> int:
        if not self._queue_depth:
            return 0
        return max(depth for __, depth in self._queue_depth)

    def device_rows(self) -> List[Dict[str, float]]:
        """Per-device counter rows for rendering."""
        rows = []
        for name in sorted(self._devices):
            counters = self._devices[name]
            utilisation = (
                counters.busy_seconds / self.makespan if self.makespan > 0 else 0.0
            )
            rows.append(
                {
                    "device": name,
                    "launches": counters.launches,
                    "batches": counters.batches,
                    "mean_batch": (
                        counters.launches / counters.batches if counters.batches else 0.0
                    ),
                    "switches": counters.program_switches,
                    "busy_ms": counters.busy_seconds * 1e3,
                    "utilisation": min(1.0, utilisation),
                }
            )
        return rows

    def routing_rows(self) -> List[Dict[str, float]]:
        """Per-engine dispatch counts and prediction error for rendering."""
        rows = []
        for name in sorted(self._routing):
            counters = self._routing[name]
            rows.append(
                {
                    "engine": name,
                    "batches": counters.batches,
                    "launches": counters.launches,
                    "routed_launches": counters.routed_launches,
                    "mispredict_ratio": counters.mispredict_ratio,
                }
            )
        return rows

    @property
    def mispredict_ratio(self) -> float:
        """Fleet-wide mean ``|predicted − simulated| / simulated``."""
        total = sum(c.mispredict_sum for c in self._routing.values())
        samples = sum(c.mispredict_samples for c in self._routing.values())
        return total / samples if samples else 0.0

    def snapshot(
        self, cache_stats: Optional[Dict[str, float]] = None
    ) -> Dict[str, float]:
        """Flat metric dictionary, the shape a metrics exporter would push."""
        overall = self.latency()
        snapshot = {
            "completed": float(self.completed),
            "rejected": float(self.rejected),
            "makespan_seconds": self.makespan,
            "throughput_rps": self.throughput_rps,
            "aggregate_mteps": self.aggregate_mteps,
            "mean_queue_depth": self.mean_queue_depth,
            "peak_queue_depth": float(self.peak_queue_depth),
            "latency_p50_ms": overall.p50 * 1e3,
            "latency_p95_ms": overall.p95 * 1e3,
            "latency_p99_ms": overall.p99 * 1e3,
            "prepare_count": float(self.prepare_count),
            "prepare_seconds": self.prepare_seconds,
            "prepare_mean_ms": (
                self.prepare_seconds / self.prepare_count * 1e3
                if self.prepare_count
                else 0.0
            ),
            "routed_launches": float(
                sum(c.routed_launches for c in self._routing.values())
            ),
            "mispredict_ratio": self.mispredict_ratio,
        }
        for reason, count in sorted(self._shed_reasons.items()):
            snapshot[f"sheds_{reason}"] = float(count)
        if cache_stats is None:
            cache_stats = self.attached_cache_stats
        if cache_stats is not None:
            snapshot["cache_hit_rate"] = cache_stats.get("hit_rate", 0.0)
            snapshot["cache_hits"] = cache_stats.get("hits", 0.0)
            snapshot["cache_misses"] = cache_stats.get("misses", 0.0)
            snapshot["cache_evictions"] = cache_stats.get("evictions", 0.0)
            snapshot["cache_stale_evictions"] = cache_stats.get("stale_evictions", 0.0)
        return snapshot

    # ------------------------------------------------------------------
    # Metrics publishing
    # ------------------------------------------------------------------
    def publish(self, registry) -> None:
        """Publish this run's telemetry into a metrics registry.

        ``registry`` is a :class:`repro.obs.MetricsRegistry` (duck-typed, so
        the serve layer never imports the obs package): per-tenant latency
        and queue-wait histograms, completion/shed counters, per-device and
        per-engine counters, and run-level gauges.  Counters accumulate
        across drains when the same registry is reused.
        """
        latency = registry.histogram(
            "serve_request_latency_seconds", "request latency (virtual time)"
        )
        queue_wait = registry.histogram(
            "serve_queue_wait_seconds", "time between arrival and dispatch"
        )
        completed = registry.counter(
            "serve_requests_completed_total", "completed requests"
        )
        shed = registry.counter("serve_requests_shed_total", "load-shed requests")
        for tenant in self.tenants:
            for sample in self._tenant_latency.get(tenant, []):
                latency.observe(sample, tenant=tenant)
            for sample in self._tenant_queue.get(tenant, []):
                queue_wait.observe(sample, tenant=tenant)
            if self._tenant_latency.get(tenant):
                completed.inc(len(self._tenant_latency[tenant]), tenant=tenant)
            if self.rejections(tenant):
                shed.inc(self.rejections(tenant), tenant=tenant)
        if self._shed_reasons:
            shed_reasons = registry.counter(
                "serve_sheds_total", "load-shed requests by reason"
            )
            for reason, count in sorted(self._shed_reasons.items()):
                shed_reasons.inc(count, reason=reason)

        launches = registry.counter("device_launches_total", "per-device launches")
        busy = registry.counter("device_busy_seconds_total", "per-device busy time")
        switches = registry.counter(
            "device_program_switches_total", "resident-program switches"
        )
        for name, counters in self._devices.items():
            launches.inc(counters.launches, device=name)
            busy.inc(counters.busy_seconds, device=name)
            switches.inc(counters.program_switches, device=name)

        engine_launches = registry.counter(
            "engine_launches_total", "per-engine dispatched launches"
        )
        routed = registry.counter(
            "engine_routed_launches_total", "launches with a router prediction"
        )
        mispredict = registry.gauge(
            "engine_mispredict_ratio", "mean |predicted-simulated|/simulated"
        )
        for name, counters in self._routing.items():
            engine_launches.inc(counters.launches, engine=name)
            if counters.routed_launches:
                routed.inc(counters.routed_launches, engine=name)
            mispredict.set(counters.mispredict_ratio, engine=name)

        registry.gauge("serve_makespan_seconds").set(self.makespan)
        registry.gauge("serve_throughput_rps").set(self.throughput_rps)
        registry.gauge("serve_aggregate_mteps").set(self.aggregate_mteps)
        registry.gauge("serve_queue_depth_mean").set(self.mean_queue_depth)
        registry.gauge("serve_queue_depth_peak").set(float(self.peak_queue_depth))
        if self.prepare_count:
            registry.counter(
                "serve_cold_builds_total", "program-cache-miss preprocessing runs"
            ).inc(self.prepare_count)
            registry.counter(
                "serve_prepare_seconds_total", "host wall-clock preprocessing time"
            ).inc(self.prepare_seconds)
        if self.attached_cache_stats is not None:
            registry.set_gauges(self.attached_cache_stats, prefix="cache_")

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self, cache_stats: Optional[Dict[str, float]] = None) -> str:
        """Human-readable report in the evaluation harness's table style."""
        if cache_stats is None:
            cache_stats = self.attached_cache_stats
        snapshot = self.snapshot(cache_stats)
        lines = [
            f"completed requests : {self.completed}",
            f"shed requests      : {self.rejected}",
            f"makespan           : {format_float(self.makespan * 1e3)} ms",
            f"throughput         : {format_float(self.throughput_rps)} req/s "
            f"({format_float(self.aggregate_mteps)} MTEPS)",
            f"queue depth        : mean {format_float(self.mean_queue_depth)}, "
            f"peak {self.peak_queue_depth}",
            f"host preprocessing : {self.prepare_count} cold builds, "
            f"{format_float(self.prepare_seconds * 1e3)} ms wall-clock "
            f"(mean {format_float(snapshot['prepare_mean_ms'])} ms)",
        ]
        if cache_stats is not None:
            lines.append(
                f"program cache      : {format_float(100 * snapshot['cache_hit_rate'])}% "
                f"hit rate, {int(cache_stats.get('evictions', 0))} evictions"
            )

        tenant_rows = []
        for tenant in self.tenants:
            latency = self.latency(tenant).as_millis()
            queueing = self.queueing(tenant)
            tenant_rows.append(
                [
                    tenant,
                    int(latency["count"]),
                    self.rejections(tenant),
                    latency["p50_ms"],
                    latency["p95_ms"],
                    latency["p99_ms"],
                    queueing.p95 * 1e3,
                ]
            )
        tables = [
            format_table(
                [
                    "tenant",
                    "requests",
                    "shed",
                    "p50 ms",
                    "p95 ms",
                    "p99 ms",
                    "queue p95 ms",
                ],
                tenant_rows,
                title="Per-tenant latency",
            )
        ]
        device_rows = [
            [
                row["device"],
                int(row["launches"]),
                int(row["batches"]),
                row["mean_batch"],
                int(row["switches"]),
                row["busy_ms"],
                100 * row["utilisation"],
            ]
            for row in self.device_rows()
        ]
        tables.append(
            format_table(
                [
                    "device",
                    "launches",
                    "batches",
                    "mean batch",
                    "switches",
                    "busy ms",
                    "util %",
                ],
                device_rows,
                title="Per-device utilisation",
            )
        )
        routing_rows = [
            [
                row["engine"],
                int(row["batches"]),
                int(row["launches"]),
                int(row["routed_launches"]),
                100 * row["mispredict_ratio"],
            ]
            for row in self.routing_rows()
        ]
        # Dispatches are recorded per engine for every service, but the
        # routing table is only meaningful when a router actually routed
        # traffic — unrouted reports keep their historical shape.
        if any(row[3] for row in routing_rows):
            tables.append(
                format_table(
                    [
                        "engine",
                        "batches",
                        "launches",
                        "routed",
                        "mispredict %",
                    ],
                    routing_rows,
                    title="Per-engine routing",
                )
            )
        return "\n".join(lines) + "\n\n" + "\n\n".join(tables)
