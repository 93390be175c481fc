"""Resilience subsystem: declarative faults, circuit breakers, overload.

Three modules on stdlib + numpy (plus the dependency-free
:mod:`repro.tomlsubset` leaf for plan files; this package imports no other
first-party layer, so ``parallel``/``serve``/``cli`` may reach it lazily
without creating cycles):

* :mod:`repro.resilience.faults` — typed, seeded fault plans (worker crash /
  hang / slowdown / shm attach failure / reply drop / engine misestimate)
  loadable from TOML or JSON, plus the worker-side injector.
* :mod:`repro.resilience.policy` — the per-worker :class:`CircuitBreaker`.
* :mod:`repro.resilience.overload` — tiered admission control
  (:class:`OverloadController`) with reasoned shedding and graceful
  degradation.
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
from .overload import (
    TIER_DEGRADED,
    TIER_NORMAL,
    TIER_SHEDDING,
    OverloadController,
    OverloadDecision,
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
    "OverloadController",
    "OverloadDecision",
    "ShmAttachFault",
    "TIER_DEGRADED",
    "TIER_NORMAL",
    "TIER_SHEDDING",
    "WorkerFaultInjector",
    "load_fault_plan",
]
