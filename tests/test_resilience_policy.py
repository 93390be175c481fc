"""Unit tests for the circuit breaker (repro.resilience.policy)."""

import pytest

from repro.resilience.policy import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BREAKER_STATE_CODES,
    CircuitBreaker,
)


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
def test_breaker_validation():
    with pytest.raises(ValueError):
        CircuitBreaker(failure_threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker(cooldown_seconds=-1.0)


def test_breaker_full_cycle():
    breaker = CircuitBreaker(failure_threshold=3, cooldown_seconds=5.0)
    assert breaker.state == BREAKER_CLOSED
    assert breaker.allow(0.0)
    breaker.record_failure(1.0)
    breaker.record_failure(2.0)
    assert breaker.state == BREAKER_CLOSED  # below threshold
    breaker.record_failure(3.0)
    assert breaker.state == BREAKER_OPEN
    assert breaker.trips == 1
    assert not breaker.allow(4.0)  # cooling down
    # Cooldown elapsed: half-open admits exactly one probe.
    assert breaker.allow(8.5)
    assert breaker.state == BREAKER_HALF_OPEN
    assert not breaker.allow(8.6)  # probe already inflight
    breaker.record_success()
    assert breaker.state == BREAKER_CLOSED
    assert breaker.consecutive_failures == 0
    assert breaker.allow(9.0)


def test_breaker_half_open_failure_reopens():
    breaker = CircuitBreaker(failure_threshold=2, cooldown_seconds=1.0)
    breaker.record_failure(0.0)
    breaker.record_failure(0.1)
    assert breaker.state == BREAKER_OPEN
    assert breaker.allow(1.5)  # probe
    breaker.record_failure(1.6)  # probe failed: re-open, new cooldown epoch
    assert breaker.state == BREAKER_OPEN
    assert breaker.trips == 2
    assert not breaker.allow(2.0)
    assert breaker.allow(2.7)


def test_would_allow_is_read_only():
    breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=1.0)
    breaker.record_failure(0.0)
    assert breaker.state == BREAKER_OPEN
    assert not breaker.would_allow(0.5)
    assert breaker.would_allow(1.5)
    # Peeking never transitioned to half-open nor consumed the probe.
    assert breaker.state == BREAKER_OPEN
    assert not breaker.probe_inflight
    assert breaker.allow(1.5)
    assert breaker.probe_inflight
    assert not breaker.would_allow(1.6)


def test_breaker_state_codes_and_map_view():
    breakers = {
        0: CircuitBreaker(),
        1: CircuitBreaker(failure_threshold=1),
    }
    breakers[1].record_failure(0.0)
    assert breakers[0].state_code == BREAKER_STATE_CODES[BREAKER_CLOSED]
    assert breakers[1].state_code == 2
