"""Resilience subsystem: declarative faults and circuit breakers.

Two modules on stdlib + numpy (plus the dependency-free
:mod:`repro.tomlsubset` leaf for plan files; this package imports no other
first-party layer, so ``parallel``/``cli`` may reach it lazily without
creating cycles):

* :mod:`repro.resilience.faults` — typed, seeded fault plans (worker crash /
  hang / slowdown / shm attach failure / reply drop) loadable from TOML or
  JSON, plus the worker-side injector.
* :mod:`repro.resilience.policy` — the per-worker :class:`CircuitBreaker`.
"""

from .faults import (
    FAULT_EXIT_CODE,
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    ShmAttachFault,
    WorkerFaultInjector,
    load_fault_plan,
)
from .policy import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "FAULT_EXIT_CODE",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "ShmAttachFault",
    "WorkerFaultInjector",
    "load_fault_plan",
]
