"""Chaos tests: the wall-clock pool under injected fault plans.

The module name starts with ``test_parallel`` on purpose: conftest's
ShmAuditor fixture arms itself for these tests, so every scenario also
asserts leak-free shared-memory teardown.

Each scenario injects faults through the declarative plan machinery
(`repro.resilience.faults`) and asserts the no-loss/no-dup invariant the
pool guarantees: every request id appears exactly once in the results,
whatever was crashed, hung, or shed along the way.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.obs import read_events
from repro.parallel import WorkerPool
from repro.resilience import (
    BREAKER_CLOSED,
    CircuitBreaker,
    FaultPlan,
    FaultSpec,
    load_fault_plan,
)
from repro.serve import generate_trace
from repro.spmv import spmv

SCENARIO = "solver-burst"
REQUESTS = 24
SEED = 7

REPO_ROOT = Path(__file__).resolve().parents[1]
STANDARD_PLAN = REPO_ROOT / "benchmarks" / "faults_standard.toml"

#: The acceptance run's trace length; CI sets REPRO_CHAOS_REQUESTS=2000 for
#: the full-size run the issue specifies, the local default keeps the suite
#: fast while still driving every fault in the standard plan.
CHAOS_REQUESTS = int(os.environ.get("REPRO_CHAOS_REQUESTS", "240"))


def small_trace(requests=REQUESTS):
    return generate_trace(SCENARIO, requests, seed=SEED)


def golden_ys(trace):
    """Reference spmv answers, indexed like the pool's request ids."""
    ys = []
    for request in trace.requests:
        workload = trace.matrices[request.matrix_id]
        x = trace.x_vector(request, workload.matrix.num_cols)
        ys.append(spmv(workload.matrix, x))
    return ys


def assert_no_loss_no_dup(report, trace):
    """Every request id exactly once — nothing lost, nothing duplicated."""
    assert [r.request_id for r in report.results] == list(
        range(trace.num_requests)
    )


class TestStandardPlanAcceptance:
    def test_chaos_run_matches_fault_free_bitwise(self):
        """The committed standard plan: 1 crash + 1 hang + 1 slow worker.

        Acceptance criteria from the issue: the run completes with bitwise
        identical answers versus the fault-free run, zero lost or duplicated
        requests, and p99 bounded by 3x the fault-free p99 (with a small
        absolute floor so microsecond-scale baselines cannot make the ratio
        meaningless).
        """
        plan = load_fault_plan(STANDARD_PLAN)
        trace = small_trace(CHAOS_REQUESTS)
        with WorkerPool(num_workers=2, compute="simulate") as pool:
            fault_free = pool.run_trace(trace)
        assert_no_loss_no_dup(fault_free, trace)
        with WorkerPool(num_workers=2, compute="simulate", fault_plan=plan) as pool:
            # The plan's batch_timeout (2 s) tightens the pool default so the
            # 4 s hang trips wedge detection.
            assert pool.batch_timeout == pytest.approx(2.0)
            chaos = pool.run_trace(trace)
        assert_no_loss_no_dup(chaos, trace)
        assert chaos.faults_planned == 3
        # The crash and the hang each force a kill + respawn + retry.
        assert chaos.respawns >= 2
        assert chaos.retries >= 1
        assert not any(r.shed for r in chaos.results)
        for faulted, clean in zip(chaos.results, fault_free.results):
            np.testing.assert_array_equal(faulted.y, clean.y)
        p99_free = fault_free.snapshot()["latency_p99_ms"]
        p99_fault = chaos.snapshot()["latency_p99_ms"]
        assert p99_fault <= max(3.0 * p99_free, p99_free + 50.0), (
            f"p99 inflated beyond bound: fault-free {p99_free:.1f} ms, "
            f"chaos {p99_fault:.1f} ms"
        )


class TestFaultScenarios:
    def test_crash_during_prepare_recovers(self):
        """A worker that dies during registration is respawned and serves."""
        plan = FaultPlan(
            name="prepare-crash",
            faults=(FaultSpec(kind="crash", worker=0, at_register=0),),
        )
        trace = small_trace()
        golden = golden_ys(trace)
        with WorkerPool(
            num_workers=2, compute="simulate", fault_plan=plan, spawn_timeout=1.5
        ) as pool:
            report = pool.run_trace(trace)
        assert_no_loss_no_dup(report, trace)
        # Recovery may take either shape: a health pass respawns the dead
        # worker, or the surviving worker takes every batch first — both
        # are correct; what must never happen is a lost request.
        for result in report.results:
            np.testing.assert_allclose(
                result.y, golden[result.request_id], rtol=1e-4, atol=1e-5
            )

    def test_hang_past_batch_timeout_respawns_and_retries(self):
        """A hang beyond the batch timeout trips wedge detection."""
        plan = FaultPlan(
            name="hang",
            batch_timeout=0.5,
            faults=(FaultSpec(kind="hang", worker=0, at_batch=0, seconds=3.0),),
        )
        trace = small_trace()
        golden = golden_ys(trace)
        with WorkerPool(num_workers=2, compute="simulate", fault_plan=plan) as pool:
            report = pool.run_trace(trace)
        assert_no_loss_no_dup(report, trace)
        assert report.respawns >= 1
        assert report.retries + report.degraded_batches >= 1
        for result in report.results:
            np.testing.assert_allclose(
                result.y, golden[result.request_id], rtol=1e-4, atol=1e-5
            )

    def test_shm_attach_failure_on_respawned_worker(self):
        """The replacement worker's first attach fails; re-registration retries.

        A generation-0 crash forces the respawn; the ``on_respawn`` spec then
        fails the respawned worker's first registration attach, which the
        pool retries once (transient attach failures clear) before giving up.
        """
        plan = FaultPlan(
            name="respawn-attach",
            faults=(
                FaultSpec(kind="crash", worker=0, at_batch=0),
                FaultSpec(
                    kind="shm_attach_fail", worker=0, at_register=0, on_respawn=True
                ),
            ),
        )
        trace = small_trace()
        golden = golden_ys(trace)
        with WorkerPool(num_workers=2, compute="simulate", fault_plan=plan) as pool:
            report = pool.run_trace(trace)
        assert_no_loss_no_dup(report, trace)
        assert report.respawns >= 1
        for result in report.results:
            np.testing.assert_allclose(
                result.y, golden[result.request_id], rtol=1e-4, atol=1e-5
            )

    def test_breaker_cycles_open_half_open_closed(self):
        """A crash trips the breaker; the respawned worker closes it again.

        Single worker, failure_threshold=1, short cooldown: the injected
        crash opens the breaker, the cooldown admits one half-open probe to
        the respawned worker, and its success closes the breaker — the full
        cycle, observed through the pool's own placement path.
        """
        plan = FaultPlan(
            name="trip",
            faults=(FaultSpec(kind="crash", worker=0, at_batch=0),),
        )
        breakers = {
            0: CircuitBreaker(
                failure_threshold=1, cooldown_seconds=0.05, name="worker-0"
            )
        }
        trace = small_trace()
        golden = golden_ys(trace)
        with WorkerPool(
            num_workers=1, compute="simulate", fault_plan=plan, breaker=breakers
        ) as pool:
            report = pool.run_trace(trace)
            assert pool.breaker_state(0) == BREAKER_CLOSED
        assert_no_loss_no_dup(report, trace)
        assert breakers[0].trips >= 1
        assert report.respawns >= 1
        for result in report.results:
            np.testing.assert_allclose(
                result.y, golden[result.request_id], rtol=1e-4, atol=1e-5
            )

    def test_reply_drop_is_recovered_like_a_wedge(self):
        """A dropped reply looks like a hang and must not lose the batch."""
        plan = FaultPlan(
            name="drop",
            batch_timeout=0.5,
            faults=(FaultSpec(kind="reply_drop", worker=0, at_batch=0),),
        )
        trace = small_trace()
        with WorkerPool(num_workers=2, compute="simulate", fault_plan=plan) as pool:
            report = pool.run_trace(trace)
        assert_no_loss_no_dup(report, trace)
        assert report.respawns + report.degraded_batches >= 1

    def test_expired_deadlines_shed_instead_of_served_late(self):
        """With a hopeless deadline every request is shed, none lost."""
        trace = small_trace()
        with WorkerPool(num_workers=2, compute="simulate") as pool:
            report = pool.run_trace(trace, deadline_s=0.0)
        assert_no_loss_no_dup(report, trace)
        assert all(r.shed for r in report.results)
        assert all(r.y is None for r in report.results)
        assert {r.shed_reason for r in report.results} == {"deadline"}
        assert report.shed_requests == trace.num_requests
        assert report.deadline_misses == trace.num_requests
        snapshot = report.snapshot()
        assert snapshot["completed"] == 0.0
        assert snapshot["shed_requests"] == float(trace.num_requests)


class TestOpenLoopReplay:
    def test_open_loop_replays_arrival_gaps(self):
        """Open-loop mode admits requests at recorded arrivals (scaled)."""
        trace = small_trace()
        golden = golden_ys(trace)
        # Trace arrivals are sub-millisecond; stretch them to a visible span
        # so the replay actually paces the run.
        scale = 100.0
        last_arrival = max(r.arrival_time for r in trace.requests) * scale
        with WorkerPool(num_workers=2, compute="simulate") as pool:
            report = pool.run_trace(trace, open_loop=True, arrival_scale=scale)
        assert_no_loss_no_dup(report, trace)
        assert report.makespan_seconds >= last_arrival
        for result in report.results:
            np.testing.assert_allclose(
                result.y, golden[result.request_id], rtol=1e-4, atol=1e-5
            )

    def test_open_loop_dispatches_no_request_before_it_is_due(self, tmp_path):
        """Causality: each request waits for its own due time, and its
        latency counts from then, not from its batch's first request."""
        trace = generate_trace("mixed", 60, seed=SEED)
        # A ~1 s replay: the last request falls due one second in.
        scale = 1.0 / max(r.arrival_time for r in trace.requests)
        prefix = tmp_path / "open"
        with WorkerPool(
            num_workers=2, compute="simulate", events_path=str(prefix)
        ) as pool:
            for workload in trace.matrices:
                pool.register(workload.matrix, workload.name)
            t0 = time.time()
            report = pool.run_trace(trace, open_loop=True, arrival_scale=scale)
        assert_no_loss_no_dup(report, trace)
        records = read_events(f"{prefix}.pool.jsonl")
        replied = {r["batch"]: r["wall"] for r in records if r["kind"] == "reply"}
        latency = {r.request_id: r.latency_seconds for r in report.results}
        dispatched = []
        for record in records:
            if record["kind"] != "dispatch":
                continue
            for request_id in record["request_ids"]:
                due = t0 + trace.requests[request_id].arrival_time * scale
                assert record["wall"] >= due, (request_id, due - record["wall"])
                # ~1 ms of slack between the event log's and the pool's clocks.
                assert latency[request_id] <= replied[record["batch"]] - due + 1e-3
                dispatched.append(request_id)
        assert sorted(dispatched) == list(range(trace.num_requests))

    def test_arrival_scale_must_be_positive(self):
        trace = small_trace()
        with WorkerPool(num_workers=0, compute="simulate") as pool:
            with pytest.raises(ValueError, match="arrival_scale"):
                pool.run_trace(trace, open_loop=True, arrival_scale=0.0)
