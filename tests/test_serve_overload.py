"""Tests for deadlines and shed attribution in the serving layer.

Admission always queues, so a request is shed only when its deadline
passes while it waits.  Covers the Scheduler's deadline expiry, the
SpMVService's deadline budget and end-to-end expiry, and the per-reason
shed counts in telemetry.
"""

import numpy as np
import pytest

from repro.generators import random_uniform
from repro.obs import MetricsRegistry
from repro.serpens import SerpensConfig
from repro.serve import AcceleratorPool, SpMVService
from repro.serve.scheduler import Request, Scheduler
from repro.serve.telemetry import ServiceTelemetry


def small_config(name="Serpens-ovl-test"):
    return SerpensConfig(
        name=name,
        num_sparse_channels=2,
        pes_per_channel=4,
        urams_per_pe=2,
        uram_depth=256,
        segment_width=128,
        dsp_latency=4,
    )


def small_service(**overrides):
    defaults = dict(
        pool=AcceleratorPool.homogeneous(1, small_config()),
        policy="fifo",
        max_batch=1,
        compute="simulate",
    )
    defaults.update(overrides)
    return SpMVService(**defaults)


def make_request(request_id, tenant="default", deadline=None, arrival=0.0):
    return Request(
        request_id=request_id,
        tenant=tenant,
        fingerprint="fp",
        x=np.zeros(4),
        arrival_time=arrival,
        deadline=deadline,
    )


# ----------------------------------------------------------------------
# Scheduler integration
# ----------------------------------------------------------------------
class TestSchedulerResilience:
    def test_expire_pops_past_deadline_requests(self):
        sched = Scheduler()
        sched.admit(make_request(0, deadline=1.0))
        sched.admit(make_request(1, deadline=3.0))
        sched.admit(make_request(2))  # no deadline: immune
        assert sched.next_deadline() == 1.0
        expired = sched.expire(now=2.0)
        assert [r.request_id for r in expired] == [0]
        assert sched.depth == 2
        assert sched.next_deadline() == 3.0
        assert sched.stats()["sheds_deadline_expired"] == 1.0
        assert sched.expire(now=10.0) and sched.depth == 1
        # The deadline-free request remains dispatchable.
        batch = sched.next_batch()
        assert [r.request_id for r in batch] == [2]

    def test_expire_is_noop_without_deadlines(self):
        sched = Scheduler()
        sched.admit(make_request(0))
        assert sched.expire(now=100.0) == []
        assert sched.next_deadline() is None
        assert sched.depth == 1


# ----------------------------------------------------------------------
# Service end-to-end
# ----------------------------------------------------------------------
class TestServiceResilience:
    def test_deadline_s_budget_stamped_on_submit(self):
        service = small_service(deadline_s=0.25)
        matrix = random_uniform(60, 60, 300, seed=1)
        handle = service.register(matrix, name="m")
        service.submit(handle, np.ones(60), arrival_time=2.0)
        assert service._pending[0].deadline == pytest.approx(2.25)
        # An explicit deadline wins over the budget.
        service.submit(handle, np.ones(60), arrival_time=2.0, deadline=5.0)
        assert service._pending[1].deadline == pytest.approx(5.0)
        with pytest.raises(ValueError, match="deadline_s"):
            small_service(deadline_s=0.0)

    def test_queued_requests_expire_at_their_deadline(self):
        service = small_service()
        matrix = random_uniform(60, 60, 300, seed=2)
        handle = service.register(matrix, name="m")
        # Six unconstrained requests, then four that are doomed: with one
        # device and max_batch=1 only one dispatch happens at t=0, so the
        # doomed four are still queued when the clock reaches their (tiny)
        # deadline and must expire rather than be served late.
        for i in range(6):
            service.submit(handle, np.ones(60), arrival_time=0.0)
        doomed = [
            service.submit(handle, np.ones(60), arrival_time=0.0, deadline=1e-12)
            for __ in range(4)
        ]
        report = service.drain()
        assert len(report.results) == 10
        assert sorted(r.request_id for r in report.rejected) == doomed
        assert len(report.completed) == 6
        for result in report.rejected:
            assert result.y is None
        snapshot = report.telemetry.snapshot()
        assert snapshot["sheds_deadline_expired"] == 4.0
        assert report.scheduler_stats["deadline_misses"] == 4.0


# ----------------------------------------------------------------------
# Telemetry attribution
# ----------------------------------------------------------------------
class TestShedTelemetry:
    def test_shed_reasons_in_snapshot_and_registry(self):
        telemetry = ServiceTelemetry()
        telemetry.record_rejection("t", reason="queue_full")
        telemetry.record_rejection("t", reason="deadline_expired")
        telemetry.record_rejection("u", reason="deadline_expired")
        assert telemetry.shed_reasons() == {
            "queue_full": 1,
            "deadline_expired": 2,
        }
        snapshot = telemetry.snapshot()
        assert snapshot["sheds_queue_full"] == 1.0
        assert snapshot["sheds_deadline_expired"] == 2.0
        assert snapshot["rejected"] == 3.0
        registry = MetricsRegistry()
        telemetry.publish(registry)
        sheds = registry.counter("serve_sheds_total")
        assert sheds.value(reason="deadline_expired") == 2.0
        assert sheds.value(reason="queue_full") == 1.0
