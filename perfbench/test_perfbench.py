"""Checks of the benchmark's own derivations, on tiny traces (seconds)."""

from __future__ import annotations

import numpy as np
import pytest

from perfbench import stats, workloads
from repro.parallel import WorkerPool


def tiny(name: str, **overrides) -> dict:
    cfg = dict(workloads.CONFIG["workloads"][name], requests=40, setup_repeats=1)
    cfg.update(overrides)
    return cfg


def test_percentiles_report_value_and_sample_count():
    samples = [float(v) for v in range(1, 101)]
    p50, p95 = stats.latency_metrics("latency", samples)
    assert (p50.name, p50.value, p50.unit, p50.samples) == ("latency_p50_ms", 50.5, "ms", 100)
    assert p95.value == pytest.approx(np.percentile(samples, 95))
    assert p95.samples == 100
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_shed_failed_missing_and_wrong_all_count_as_late():
    acct = stats.Accounting(sent=10, failed=1, shed=2, missing=1, wrong=1)
    answered = [5.0, 5.0, 5.0, 50.0, 500.0]  # the five correct answers
    assert acct.misses == 5
    assert acct.failed_frac == 0.5
    assert acct.on_time_frac(answered, limit=100.0) == pytest.approx(0.4)
    assert stats.Accounting().on_time_frac([], 1.0) == 0.0
    assert stats.Accounting.total([acct, acct]) == stats.Accounting(20, 2, 4, 2, 2)


def test_a_run_is_correct_only_when_nothing_is_wrong_or_lost_and_something_answered():
    assert stats.Accounting(sent=3, failed=1, shed=1).correct
    assert not stats.Accounting(sent=3, wrong=1).correct
    assert not stats.Accounting(sent=3, missing=1).correct
    assert not stats.Accounting(sent=2, failed=1, shed=1).correct
    assert not stats.Accounting().correct


def test_sim_large_ends_at_the_deadline_when_every_launch_fails(monkeypatch):
    cfg = dict(workloads.CONFIG["workloads"]["sim-large"], matrices=[["G9", 0.001]])
    workload = workloads.SimLarge(0, cfg)
    setup = workload._setup

    def launch_fails(*args, **kwargs):
        raise RuntimeError("injected launch failure")

    def setup_then_break(acct):
        session, handles, reports = setup(acct)
        monkeypatch.setattr(session, "launch", launch_fails)
        return session, handles, reports

    monkeypatch.setattr(workload, "_setup", setup_then_break)
    phase = workload.run_phase(seconds=0.05, setups=1)
    assert phase.accounting.sent == phase.accounting.failed > 0
    assert not phase.accounting.correct


def test_rate_converts_to_arrival_scale():
    trace = workloads.seeded_trace("mixed", 40, seed=3)
    scale = stats.arrival_scale_for_rate(trace.num_requests, trace.duration, rate_rps=100.0)
    assert trace.duration * scale == pytest.approx(40 / 100.0)
    with pytest.raises(ValueError):
        stats.arrival_scale_for_rate(40, 0.0, 100.0)


def test_open_loop_replay_takes_requests_over_rate():
    cfg = tiny("serve-open", workers=1, rate_rps=200.0)
    workload = workloads.ServeOpen(0, cfg)
    workload.reference()
    phase = workload.run_phase(seconds=0.01, setups=1)
    assert phase.accounting.misses == 0
    expected_s = 40 / 200.0
    makespan_s = 40 / next(m.value for m in phase.metrics if m.name == "throughput_rps")
    assert 0.5 * expected_s < makespan_s < expected_s + 2.0


def test_pool_check_counts_shed_requests_as_misses():
    workload = workloads.ServeClosed(0, tiny("serve-closed", workers=1))
    workload.reference()
    with WorkerPool(num_workers=1, compute="reference") as pool:
        report = pool.run_trace(workload.trace, deadline_s=1e-9)
    acct, answered = stats.Accounting(), []
    workload._check(report, acct, answered)
    assert acct.sent == 40 and acct.shed == 40 and not answered
    assert acct.on_time_frac(answered, limit=1e9) == 0.0


@pytest.mark.parametrize("cls", [workloads.ServeClosed, workloads.ServeVirtual])
def test_tiny_workload_reports_every_end_to_end_metric(cls):
    cfg = tiny(cls.name, **({"workers": 1} if cls is workloads.ServeClosed else {}))
    workload = cls(0, cfg)
    workload.reference()
    phase = workload.run_phase(seconds=0.01, setups=1)
    names = {m.name for m in phase.metrics} | {"setup_s", "peak_rss_mb"}
    assert names == {m["name"] for m in _contract()["end_to_end"]}
    assert phase.accounting.sent >= 40 and phase.accounting.misses == 0
    assert all(m.value > 0 for m in phase.metrics)


def test_seed_changes_inputs_not_the_workload():
    a = workloads.seeded_trace("mixed", 40, seed=0)
    b = workloads.seeded_trace("mixed", 40, seed=1)
    again = workloads.seeded_trace("mixed", 40, seed=0)
    assert [w.matrix.nnz for w in a.matrices] == [w.matrix.nnz for w in b.matrices]
    assert [r.arrival_time for r in a.requests] == [r.arrival_time for r in b.requests]
    assert not np.array_equal(a.matrices[0].matrix.rows, b.matrices[0].matrix.rows)
    assert np.array_equal(a.matrices[0].matrix.rows, again.matrices[0].matrix.rows)
    request = a.requests[0]
    cols = a.matrices[request.matrix_id].matrix.num_cols
    assert not np.array_equal(a.x_vector(request, cols), b.x_vector(request, cols))


def _contract() -> dict:
    import json
    from pathlib import Path

    return json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
