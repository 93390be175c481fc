"""Multi-accelerator SpMV serving layer.

Turns the single-engine, synchronous :class:`~repro.backends.Session`
into a service: a pool of simulated Serpens devices with matrix placement
and row-sharding, a batching scheduler that queues every request and sheds
one only past its deadline, a bounded program cache, per-tenant/per-device
telemetry, and a scenario-diverse load generator — all driven by a
deterministic virtual-time event loop.

Quickstart::

    from repro.serve import SpMVService, generate_trace

    service = SpMVService(num_devices=4, policy="sjf", max_batch=32)
    trace = generate_trace("mixed", num_requests=2000, seed=0)
    report = service.run_trace(trace)
    print(report.render())
"""

from .cache import ProgramCache, matrix_fingerprint
from .loadgen import (
    SCENARIOS,
    LoadTrace,
    MatrixWorkload,
    TraceRequest,
    generate_trace,
)
from .pool import (
    AcceleratorPool,
    Placement,
    PooledDevice,
    RoutingHint,
    Shard,
    shard_rows,
)
from .scheduler import SCHEDULING_POLICIES, Request, Scheduler
from .service import RequestResult, ServiceHandle, ServiceReport, SpMVService
from .telemetry import LatencySummary, ServiceTelemetry, percentile

__all__ = [
    "AcceleratorPool",
    "LatencySummary",
    "LoadTrace",
    "MatrixWorkload",
    "Placement",
    "PooledDevice",
    "ProgramCache",
    "Request",
    "RequestResult",
    "RoutingHint",
    "SCENARIOS",
    "SCHEDULING_POLICIES",
    "Scheduler",
    "ServiceHandle",
    "ServiceReport",
    "ServiceTelemetry",
    "Shard",
    "SpMVService",
    "TraceRequest",
    "generate_trace",
    "matrix_fingerprint",
    "percentile",
    "shard_rows",
]
