"""Cross-process observability on the wall-clock pool (event shards).

The module name starts with ``test_parallel`` on purpose: conftest's
ShmAuditor fixture arms itself here, so every scenario also asserts
leak-free shared-memory teardown.

Covers the issue's integration surface end to end: a pool run writes one
JSONL shard per process; worker spans/metrics flush incrementally so a
killed worker's pre-crash observations survive on disk; the standard fault
plan replays with every injected fault, retry and respawn visible in the
merged trace; and the full 4-worker CLI acceptance command produces a
single Chrome trace with one process track per worker.
"""

import json
from pathlib import Path

from repro.cli import main
from repro.obs import MergedEvents, to_chrome, validate_chrome_trace
from repro.parallel import WorkerPool
from repro.resilience import CircuitBreaker, FaultPlan, FaultSpec, load_fault_plan
from repro.serve import generate_trace
from repro.serve.telemetry import ServiceTelemetry

SCENARIO = "solver-burst"
SEED = 7

REPO_ROOT = Path(__file__).resolve().parents[1]
STANDARD_PLAN = REPO_ROOT / "benchmarks" / "faults_standard.toml"


def small_trace(requests=24):
    return generate_trace(SCENARIO, requests, seed=SEED)


def worker_shards_of(merged, worker_id):
    return sorted(
        shard
        for shard in {r.get("shard", "") for r in merged.records}
        if f".worker{worker_id}." in shard
    )


class TestPoolEventShards:
    def test_lifecycle_events_spans_and_metrics(self, tmp_path):
        prefix = tmp_path / "run"
        trace = small_trace()
        with WorkerPool(
            num_workers=2, compute="simulate", events_path=str(prefix)
        ) as pool:
            report = pool.run_trace(trace)
            shard_paths = pool.event_shard_paths()
        names = {p.name for p in shard_paths}
        assert names == {
            "run.pool.jsonl", "run.worker0.g0.jsonl", "run.worker1.g0.jsonl",
        }

        merged = MergedEvents.from_prefix(prefix)
        assert merged.validate() == []
        assert merged.sources == ["pool", "worker-0", "worker-1"]

        # Pool-side lifecycle: every batch enqueued, dispatched, replied.
        batches = {r["batch"] for r in merged.query(kind="enqueue")}
        assert len(batches) > 0
        assert {r["batch"] for r in merged.query(kind="reply")} == batches
        dispatched = {r["batch"] for r in merged.query(kind="dispatch")}
        assert dispatched == batches

        # Worker-side wall-clock spans and lifecycle events.
        for source in ("worker-0", "worker-1"):
            span_names = {s["name"] for s in merged.spans(source=source)}
            assert {"prepare", "execute", "batch"} <= span_names
            assert merged.query(kind="prepare", source=source)
        executes = merged.query(kind="execute")
        assert {r["batch"] for r in executes} == batches

        # Final pool metrics snapshot mirrors the report.
        final = merged.latest_metrics("pool")
        assert final["completed"] == report.snapshot()["completed"]
        # Worker metrics flushed at close (final=True) under Session names.
        for source in ("worker-0", "worker-1"):
            worker_metrics = merged.latest_metrics(source)
            assert any(
                k.startswith("engine_launches_total") for k in worker_metrics
            )

        # Shard headers carry the engine for the dashboard/trace labels.
        headers = merged.headers()
        assert headers["worker-0"]["engine"]
        assert headers["pool"]["workers"] == 2

    def test_no_events_path_means_no_shards_and_no_overhead(self, tmp_path):
        trace = small_trace(8)
        with WorkerPool(num_workers=1, compute="simulate") as pool:
            pool.run_trace(trace)
            assert pool.event_shard_paths() == []


class TestCrashSurvival:
    """S1: a killed worker's pre-crash spans survive in the merged trace."""

    def test_pre_crash_spans_survive_in_merged_trace(self, tmp_path):
        prefix = tmp_path / "chaos"
        plan = FaultPlan(
            name="crash-mid-run",
            faults=(FaultSpec(kind="crash", worker=0, at_batch=2),),
        )
        trace = small_trace(48)
        # Three in flight: worker 0 takes three of the trace's six batches
        # in the first dispatch pass, so the crash at its third batch fires
        # however fast a batch runs (with two, an idle worker 1 can take
        # the remaining batches first).
        with WorkerPool(
            num_workers=2, compute="simulate", fault_plan=plan,
            events_path=str(prefix), max_inflight=3,
        ) as pool:
            report = pool.run_trace(trace)
        assert report.respawns >= 1

        merged = MergedEvents.from_prefix(prefix)
        assert merged.validate() == []

        # The generation-0 shard of the crashed worker is still there, with
        # the spans it flushed before os._exit: batches 0..N plus the fatal
        # batch itself (spans flush BEFORE the reply window the crash fires
        # in), and the fault_injected marker as its last record.
        g0 = [s for s in worker_shards_of(merged, 0) if s.endswith(".g0.jsonl")]
        assert len(g0) == 1
        g0_records = [r for r in merged.records if r.get("shard") == g0[0]]
        g0_batches = [
            r for r in g0_records
            if r["kind"] == "span" and r.get("name") == "batch"
        ]
        assert len(g0_batches) == 3  # batches up to and including the fatal one
        by_seq = sorted(g0_records, key=lambda r: r["seq"])
        assert by_seq[-1]["kind"] == "fault_injected"
        assert by_seq[-1]["fault"] == "crash"

        # The respawned generation wrote its own shard...
        assert any(s.endswith(".g1.jsonl") for s in worker_shards_of(merged, 0))
        respawns = merged.query(kind="respawn")
        assert respawns and respawns[0]["worker"] == 0

        # ...and the Chrome render keeps the dead incarnation's spans, with
        # zero orphans (spans are only ever written complete).
        chrome = to_chrome(merged)
        assert validate_chrome_trace(chrome, min_worker_tracks=2) == []
        w0_spans = [
            e for e in chrome["traceEvents"]
            if e["ph"] == "X" and e["pid"] == 100 and e["name"] == "batch"
        ]
        assert len(w0_spans) >= 3


class TestSnapshotNameAudit:
    """S2: measured and modelled snapshots share names for shared meanings."""

    #: Keys naming the same quantity in both snapshots — the columns where
    #: a results store lines modelled and measured runs up side by side.
    SHARED = {
        "completed",
        "latency_p50_ms",
        "latency_p95_ms",
        "latency_p99_ms",
        "throughput_rps",
        "aggregate_mteps",
        "makespan_seconds",
        "prepare_count",
    }

    def test_wallclock_snapshot_names_align_with_telemetry(self):
        trace = small_trace(8)
        with WorkerPool(num_workers=0, compute="simulate") as pool:
            measured = pool.run_trace(trace).snapshot()
        modelled = ServiceTelemetry().snapshot()
        assert self.SHARED <= set(measured)
        assert self.SHARED <= set(modelled)
        # The old wall-clock-only name for the completed count is gone; a
        # dashboard keyed on the telemetry names reads both snapshots.
        assert "requests" not in measured
        assert "completed" in measured


class TestStandardPlanEvents:
    """S3: the committed fault plan replays with full event coverage."""

    def test_standard_plan_faults_all_visible_in_merged_trace(self, tmp_path):
        prefix = tmp_path / "standard"
        plan = load_fault_plan(STANDARD_PLAN)
        trace = small_trace(240)
        with WorkerPool(
            num_workers=2, compute="simulate", fault_plan=plan,
            events_path=str(prefix),
        ) as pool:
            report = pool.run_trace(trace)
        assert report.faults_planned == 3

        merged = MergedEvents.from_prefix(prefix)
        assert merged.validate() == []

        # Every planned fault fired and is first-class in the feed: the
        # crash on worker 0, the slowdown and the hang on worker 1.
        fired = {
            (r["fault"], r["worker"]) for r in merged.query(kind="fault_injected")
        }
        assert fired == {("crash", 0), ("slow", 1), ("hang", 1)}

        # The crash and the hang each force a respawn; the lost batches
        # come back as retry events.
        respawned = [r["worker"] for r in merged.query(kind="respawn")]
        assert sorted(set(respawned)) == [0, 1]
        assert len(merged.query(kind="retry")) >= 1

        # Zero orphaned spans in the merged Chrome trace, by construction.
        chrome = to_chrome(merged)
        assert validate_chrome_trace(chrome, min_worker_tracks=2) == []

    def test_breaker_transitions_become_events(self, tmp_path):
        prefix = tmp_path / "breaker"
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
        with WorkerPool(
            num_workers=1, compute="simulate", fault_plan=plan,
            breaker=breakers, events_path=str(prefix),
        ) as pool:
            pool.run_trace(trace)
        merged = MergedEvents.from_prefix(prefix)
        kinds = [r["kind"] for r in merged.query(
            kind=("breaker_open", "breaker_half_open", "breaker_close")
        )]
        # The full cycle, in order: trip open, cooldown probe, close.
        assert kinds[:3] == ["breaker_open", "breaker_half_open", "breaker_close"]
        opens = merged.query(kind="breaker_open")
        assert opens[0]["worker"] == 0
        assert opens[0]["old_state"] == "closed"
        assert opens[0]["trips"] >= 1


class TestCliAcceptance:
    """The issue's acceptance command, end to end through the CLI."""

    def test_four_worker_fault_run_produces_merged_trace(self, capsys, tmp_path):
        # 720 requests → ~90 batches over 4 workers, so even the slowed
        # worker 1 (which frees its slots least often) clears the standard
        # plan's highest per-worker fault ordinal (hang at its 9th batch)
        # with margin under a loaded machine.
        trace_path = tmp_path / "out.json"
        code = main([
            "serve-bench",
            "--scenario", SCENARIO,
            "--requests", "720",
            "--devices", "2",
            "--seed", str(SEED),
            "--max-batch", "8",
            "--wall-clock", "--workers", "4",
            "--fault-plan", str(STANDARD_PLAN),
            "--trace", str(trace_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "fault plan standard" in out
        assert "event-shard sources" in out

        trace = json.loads(trace_path.read_text())
        events = trace["traceEvents"]

        # One process track per worker (pids 100+N), at least 4 of them,
        # next to the virtual-time tracer's tracks — a single merged file.
        assert validate_chrome_trace(trace, min_worker_tracks=4) == []
        worker_pids = {
            e["pid"]
            for e in events
            if e.get("ph") == "M"
            and e.get("name") == "process_name"
            and str(e.get("args", {}).get("name", "")).startswith("worker-")
        }
        assert worker_pids >= {100, 101, 102, 103}

        # Wall-clock prepare and execute spans on every worker track.
        for pid in sorted(worker_pids):
            span_names = {
                e["name"] for e in events
                if e.get("ph") == "X" and e["pid"] == pid
            }
            assert {"prepare", "execute"} <= span_names, (
                f"worker pid {pid} missing wall-clock spans: {span_names}"
            )

        # Every injected fault, retry and respawn is visible as an instant.
        instants = [e for e in events if e.get("ph") == "i"]
        instant_names = {e["name"] for e in instants}
        assert {"fault_injected", "respawn", "retry"} <= instant_names
        faults = {
            (e["args"]["fault"], e["args"]["worker"])
            for e in instants
            if e["name"] == "fault_injected"
        }
        assert faults == {("crash", 0), ("slow", 1), ("hang", 1)}
        # Fault instants render on the faulting worker's own track.
        for event in instants:
            if event["name"] == "fault_injected":
                assert event["pid"] == 100 + event["args"]["worker"]
