"""Circuit breaking for the serving stack.

:class:`CircuitBreaker` is a plain, clock-agnostic value object: callers
pass ``now`` in explicitly, so the policy is testable without sleeping.  It
is closed / open / half-open per worker (or per engine).  Consecutive
failures open it; after a cooldown one probe is admitted; a probe success
closes it again.  The worker pool consults ``allow(now)`` at dispatch so
sick workers stop receiving work without being torn down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

#: Numeric encoding for metrics gauges (closed=0, half-open=1, open=2).
BREAKER_STATE_CODES = {BREAKER_CLOSED: 0, BREAKER_HALF_OPEN: 1, BREAKER_OPEN: 2}


@dataclass
class CircuitBreaker:
    """Per-target failure breaker with probe re-admission.

    States: *closed* (traffic flows; consecutive failures count up), *open*
    (no traffic until ``cooldown_seconds`` passed since the trip), and
    *half-open* (exactly one probe admitted; success closes, failure
    re-opens and restarts the cooldown).

    ``observer`` is a duck-typed hook called as ``observer(breaker,
    old_state, new_state)`` on every state *transition* (never on a
    no-change success) — the worker pool wires breaker events into its
    event log through it without resilience ever importing obs.
    """

    failure_threshold: int = 3
    cooldown_seconds: float = 5.0
    name: str = ""
    state: str = BREAKER_CLOSED
    consecutive_failures: int = 0
    opened_at: float = 0.0
    #: Whether the single half-open probe is currently outstanding.
    probe_inflight: bool = field(default=False, repr=False)
    #: Lifetime trip count, for metrics.
    trips: int = 0
    #: Optional transition hook: ``observer(breaker, old_state, new_state)``.
    observer: Optional[object] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be non-negative")

    def would_allow(self, now: float) -> bool:
        """Read-only :meth:`allow`: no state transition, no probe consumed.

        Starvation guards use this to ask "could anyone take traffic?"
        without eating the half-open probe slot.
        """
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            return now - self.opened_at >= self.cooldown_seconds
        return not self.probe_inflight

    def _transition(self, new_state: str) -> None:
        old_state, self.state = self.state, new_state
        if old_state == new_state or self.observer is None:
            return
        try:
            self.observer(self, old_state, new_state)
        except Exception:  # noqa: BLE001 - observability never breaks serving
            pass

    def allow(self, now: float) -> bool:
        """Whether a new dispatch to this target may proceed at ``now``."""
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            if now - self.opened_at >= self.cooldown_seconds:
                self._transition(BREAKER_HALF_OPEN)
                self.probe_inflight = False
            else:
                return False
        # Half-open: admit exactly one probe at a time.
        if self.probe_inflight:
            return False
        self.probe_inflight = True
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.probe_inflight = False
        self._transition(BREAKER_CLOSED)

    def record_failure(self, now: float) -> None:
        self.probe_inflight = False
        self.consecutive_failures += 1
        if self.state == BREAKER_HALF_OPEN or (
            self.consecutive_failures >= self.failure_threshold
        ):
            if self.state != BREAKER_OPEN:
                self.trips += 1
            self._transition(BREAKER_OPEN)
            self.opened_at = now

    @property
    def state_code(self) -> int:
        return BREAKER_STATE_CODES[self.state]
