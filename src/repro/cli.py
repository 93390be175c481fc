"""Command-line interface for regenerating the paper's tables and figures.

Usage (after ``pip install -e .``)::

    python -m repro.cli list
    python -m repro.cli table4 --scale 0.05
    python -m repro.cli figure3 --count 500
    python -m repro.cli all --scale 0.02 --output results.txt

Each experiment prints the same rows the paper's corresponding table or
figure reports, rendered as an aligned text table.  ``--scale`` shrinks the
synthetic stand-ins of the twelve large matrices (1.0 reproduces the
published sizes; smaller values run proportionally faster while preserving
the relative comparisons).

Beyond the paper experiments, ``serve-bench`` exercises the multi-
accelerator serving layer::

    python -m repro.cli serve-bench --devices 4 --requests 2000 --scenario mixed --seed 0

It replays one load-generator trace under naive dispatch, batched FIFO and
batched SJF scheduling, and reports throughput, tail latency and program-
cache behaviour for each.  ``--wall-clock --workers N`` additionally serves
the same trace on a pool of real engine worker processes (shared-memory
transport), batched by the same FIFO scheduler as the ``batched-fifo``
variant, and prints measured latency percentiles and mean batch size next
to the modelled ones.  By default every request is due at once (saturation);
``--open-loop`` instead admits each request at its recorded arrival time
(scaled by ``--arrival-scale``) and measures its latency from then,
``--deadline-ms`` gives every request a latency budget from its due time
(a request still queued past it is shed, not served late), and
``--fault-plan PLAN`` injects a declarative fault schedule (worker crashes,
hangs, slowdowns, dropped replies) to exercise the resilience machinery::

    python -m repro.cli serve-bench --wall-clock --workers 2 \
        --fault-plan benchmarks/faults_standard.toml --deadline-ms 2000
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List, Optional

from .eval.experiments import (
    render_channel_scaling_sweep,
    render_coalescing_ablation,
    render_figure2,
    render_figure3,
    render_reorder_window_sweep,
    render_segment_width_sweep,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
    render_table6,
    render_table7,
    render_table8,
    run_channel_scaling_sweep,
    run_coalescing_ablation,
    run_figure2,
    run_figure3,
    run_reorder_window_sweep,
    run_segment_width_sweep,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
    run_table7,
    run_table8,
)

__all__ = ["main", "EXPERIMENTS", "SERVE_SCENARIOS", "run_experiment"]

#: Scenario names accepted by serve-bench.  Listed statically so building
#: the parser never imports the serving layer; a test asserts this stays in
#: sync with :data:`repro.serve.SCENARIOS`.
SERVE_SCENARIOS = ("cold-churn", "mixed", "pagerank", "solver-burst", "sparse-nn")


def _table1(args: argparse.Namespace) -> str:
    return render_table1()


def _table2(args: argparse.Namespace) -> str:
    return render_table2()


def _table3(args: argparse.Namespace) -> str:
    return render_table3(run_table3(collection_count=args.count, seed=args.seed))


def _table4(args: argparse.Namespace) -> str:
    return render_table4(run_table4(scale=args.scale))


def _table5(args: argparse.Namespace) -> str:
    return render_table5(run_table5(scale=args.scale))


def _table6(args: argparse.Namespace) -> str:
    return render_table6(run_table6())


def _table7(args: argparse.Namespace) -> str:
    return render_table7(run_table7(scale=args.scale))


def _table8(args: argparse.Namespace) -> str:
    return render_table8(run_table8(scale=args.scale))


def _figure2(args: argparse.Namespace) -> str:
    return render_figure2(run_figure2())


def _figure3(args: argparse.Namespace) -> str:
    return render_figure3(run_figure3(count=args.count, seed=args.seed))


def _ablation_coalescing(args: argparse.Namespace) -> str:
    return render_coalescing_ablation(run_coalescing_ablation(scale=args.scale))


def _ablation_segment(args: argparse.Namespace) -> str:
    return render_segment_width_sweep(run_segment_width_sweep(scale=args.scale))


def _ablation_window(args: argparse.Namespace) -> str:
    return render_reorder_window_sweep(run_reorder_window_sweep(scale=args.scale))


def _ablation_channels(args: argparse.Namespace) -> str:
    return render_channel_scaling_sweep(run_channel_scaling_sweep(scale=args.scale))


def _backends(args: argparse.Namespace) -> str:
    # Imported here so building the parser never instantiates engines.
    from .backends import describe, create
    from .eval.reporting import format_table

    rows = []
    for registration in describe():
        engine = create(registration.name)
        spec = engine.spec()
        max_rows = engine.max_rows
        rows.append(
            [
                registration.name,
                spec.name,
                spec.frequency_mhz,
                spec.bandwidth_gbps,
                spec.bandwidth_kind,
                spec.power_watts,
                f"{max_rows:,}" if max_rows is not None else "unbounded",
                registration.description,
            ]
        )
    return format_table(
        [
            "engine",
            "spec name",
            "MHz",
            "GB/s",
            "bandwidth",
            "W",
            "max rows",
            "description",
        ],
        rows,
        title="Registered SpMV engines (Table 2 specifications)",
    )


def _serve_bench_payload(args: argparse.Namespace, tracer=None):
    """Run every serve-bench variant; returns (payload, rendered report).

    ``payload`` is the machine-readable result: the run configuration plus
    one flat telemetry snapshot per variant.  It is what ``--json`` prints
    and what the results store and ``BENCH_serve.json`` snapshots persist.
    When a ``tracer`` is given it is attached to the *final* variant's
    drain, so the exported trace covers exactly one timeline.
    """
    # Imported here so the experiment registry stays importable even if the
    # serving layer is being refactored.
    from .autotune import EngineRouter
    from .backends import ENGINE_SERPENS_A16, ENGINE_SERPENS_A24
    from .eval.reporting import format_table
    from .serpens import SERPENS_A16, SERPENS_A24
    from .serve import AcceleratorPool, SpMVService, generate_trace

    if args.engines:
        configs = [name.strip() for name in args.engines.split(",") if name.strip()]
        if not configs:
            raise ValueError("--engines must name at least one backend")
        pool_label = f"{len(configs)} devices ({args.engines})"
        engine_names = list(configs)
    else:
        if args.devices < 1:
            raise ValueError("--devices must be positive")
        num_a24 = args.a24 if args.a24 is not None else args.devices // 4
        if not 0 <= num_a24 <= args.devices:
            raise ValueError("--a24 must be between 0 and --devices")
        configs = [SERPENS_A24] * num_a24 + [SERPENS_A16] * (args.devices - num_a24)
        pool_label = f"{args.devices} devices ({num_a24}x A24)"
        engine_names = [ENGINE_SERPENS_A24] * num_a24 + [ENGINE_SERPENS_A16] * (
            args.devices - num_a24
        )

    # label, scheduler policy, max batch, placement policy, routed?
    variants = [
        ("naive-fifo", "fifo", 1, "least_loaded", False),
        ("batched-fifo", "fifo", args.max_batch, "least_loaded", False),
        ("batched-sjf", "sjf", args.max_batch, "least_loaded", False),
    ]
    if args.autotune:
        # The routed configuration is judged against blind round-robin
        # placement, the comparison the autotune acceptance criterion names.
        variants.append(("round-robin", "fifo", args.max_batch, "round_robin", False))
        variants.append(("autotuned-sjf", "sjf", args.max_batch, "least_loaded", True))

    rows = []
    last_report = None
    variant_payloads: Dict[str, Dict[str, float]] = {}
    for index, (label, policy, max_batch, placement, routed) in enumerate(variants):
        is_last = index == len(variants) - 1
        trace = generate_trace(
            args.scenario, args.requests, seed=args.seed, gap_scale=args.gap_scale
        )
        pool = AcceleratorPool(list(configs), placement_policy=placement)
        router = None
        if routed:
            # Calibrate the per-engine cost model on the trace's own matrix
            # set (executed, cycle-accurate measurements); the fitted
            # predictor then drives placement hints and the SJF cost oracle.
            router = EngineRouter.for_pool(pool)
            router.calibrate(
                [w.matrix for w in trace.matrices],
                names=[w.name for w in trace.matrices],
            )
        service = SpMVService(
            pool=pool,
            policy=policy,
            max_batch=max_batch,
            cache_capacity=args.cache_capacity,
            router=router,
        )
        if is_last and tracer is not None and not args.autotune:
            service.attach_tracer(tracer)
        report = service.run_trace(trace)
        if args.autotune:
            # Steady-state comparison: a second identical drain reuses the
            # resident programs, so placement quality is not drowned out by
            # the one-time cold-build costs every variant pays identically.
            # The trace (if any) captures only this steady-state drain.
            if is_last and tracer is not None:
                service.attach_tracer(tracer)
            report = service.run_trace(trace)
        telemetry = report.telemetry
        overall = telemetry.latency()
        rows.append(
            [
                label,
                telemetry.completed,
                telemetry.throughput_rps,
                overall.p50 * 1e3,
                overall.p95 * 1e3,
                overall.p99 * 1e3,
                report.scheduler_stats["mean_batch_size"],
                100 * report.cache_stats["hit_rate"],
                telemetry.prepare_count,
            ]
        )
        variant_payloads[label] = {
            **telemetry.snapshot(),
            "mean_batch_size": report.scheduler_stats["mean_batch_size"],
        }
        last_report = report

    wallclock_rendered = None
    if getattr(args, "wall_clock", False):
        # Measured counterpart to the modelled variants above: the same
        # trace served by real engine worker processes over shared memory,
        # batched by the same FIFO scheduler policy.  Saturation by default;
        # --open-loop admits each request at its recorded arrival instead.
        # Latencies are wall-clock milliseconds, not virtual time.
        from .parallel import WorkerPool

        fault_plan = None
        if getattr(args, "fault_plan", None):
            from .resilience import load_fault_plan

            fault_plan = load_fault_plan(args.fault_plan)
        deadline_s = (
            args.deadline_ms / 1e3
            if getattr(args, "deadline_ms", None)
            else None
        )
        trace = generate_trace(
            args.scenario, args.requests, seed=args.seed, gap_scale=args.gap_scale
        )
        events_prefix = getattr(args, "events", None)
        live_thread = live_stop = None
        if events_prefix and getattr(args, "live", False):
            # The dashboard polls the event shards the pool is writing; it
            # runs as a daemon thread on stderr so stdout stays the tables.
            import threading

            from .obs.live import PoolDashboard

            dashboard = PoolDashboard(
                events_prefix, interval=getattr(args, "interval", 1.0)
            )
            live_stop = threading.Event()
            live_thread = threading.Thread(
                target=dashboard.run,
                kwargs={"stream": sys.stderr, "stop": live_stop},
                daemon=True,
                name="repro-live-top",
            )
            live_thread.start()
        try:
            with WorkerPool(
                num_workers=args.workers,
                engines=engine_names,
                compute="simulate",
                max_batch=args.max_batch,
                results_path=args.results_db,
                scenario=args.scenario,
                fault_plan=fault_plan,
                events_path=events_prefix,
            ) as wc_pool:
                wc_report = wc_pool.run_trace(
                    trace,
                    open_loop=bool(getattr(args, "open_loop", False)),
                    arrival_scale=getattr(args, "arrival_scale", 1.0),
                    deadline_s=deadline_s,
                )
        finally:
            if live_stop is not None:
                live_stop.set()
                live_thread.join(timeout=5.0)
        snapshot = wc_report.snapshot()
        variant_payloads[f"wallclock-w{args.workers}"] = snapshot
        wallclock_rendered = format_table(
            [
                "workers",
                "completed",
                "req/s",
                "p50 ms",
                "p95 ms",
                "p99 ms",
                "makespan s",
                "MTEPS",
                "mean batch",
                "retries",
                "respawns",
                "inline",
                "degraded",
                "shed",
                "ddl miss",
                "faults",
            ],
            [
                [
                    args.workers,
                    int(snapshot["completed"]),
                    snapshot["throughput_rps"],
                    snapshot["latency_p50_ms"],
                    snapshot["latency_p95_ms"],
                    snapshot["latency_p99_ms"],
                    snapshot["makespan_seconds"],
                    snapshot["aggregate_mteps"],
                    snapshot["mean_batch_size"],
                    int(snapshot["retries"]),
                    int(snapshot["respawns"]),
                    int(snapshot["inline_requests"]),
                    int(snapshot["degraded_batches"]),
                    int(snapshot["shed_requests"]),
                    int(snapshot["deadline_misses"]),
                    int(snapshot["faults_planned"]),
                ]
            ],
            title=(
                f"Wall-clock serving (measured) — engine {wc_report.engine}, "
                f"compute={wc_report.compute}"
                + (", open-loop" if getattr(args, "open_loop", False) else "")
                + (
                    f", fault plan {fault_plan.name}"
                    if fault_plan is not None
                    else ""
                )
            ),
        )

    comparison = format_table(
        [
            "scheduler",
            "completed",
            "req/s",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "mean batch",
            "cache hit %",
            "cold builds",
        ],
        rows,
        title=(
            f"Serving benchmark — scenario={args.scenario}, "
            f"{args.requests} requests, {pool_label}, seed={args.seed}"
            + (", steady-state (warm cache)" if args.autotune else "")
        ),
    )
    # Enough to reconstruct the exact run: the regression gate re-runs the
    # baseline snapshot's stored config, so the device shape must round-trip.
    config = {
        "scenario": args.scenario,
        "requests": args.requests,
        "seed": args.seed,
        "gap_scale": args.gap_scale,
        "max_batch": args.max_batch,
        "cache_capacity": args.cache_capacity,
        "devices": args.devices,
        "a24": args.a24,
        "engines": args.engines,
        "pool": pool_label,
        "autotune": bool(args.autotune),
        "wall_clock": bool(getattr(args, "wall_clock", False)),
        "workers": getattr(args, "workers", None),
        "fault_plan": getattr(args, "fault_plan", None),
        "deadline_ms": getattr(args, "deadline_ms", None),
        "open_loop": bool(getattr(args, "open_loop", False)),
        "arrival_scale": getattr(args, "arrival_scale", 1.0),
    }
    payload = {
        "experiment": "serve-bench",
        "scenario": args.scenario,
        "config": config,
        "variants": variant_payloads,
    }
    rendered = comparison + "\n\n" + last_report.render()
    if wallclock_rendered is not None:
        rendered += "\n\n" + wallclock_rendered
    return payload, rendered


def _serve_bench(args: argparse.Namespace) -> str:
    from .obs import Tracer

    tracer = Tracer() if args.trace else None
    if (
        getattr(args, "wall_clock", False)
        and not getattr(args, "events", None)
        and (args.trace or getattr(args, "live", False))
    ):
        # A merged trace / live dashboard needs event shards; derive a
        # prefix beside the trace file (or a temp one for --live alone).
        if args.trace:
            args.events = f"{args.trace}.events"
        else:
            import tempfile

            args.events = os.path.join(
                tempfile.mkdtemp(prefix="repro-live-"), "events"
            )
    payload, rendered = _serve_bench_payload(args, tracer=tracer)
    notes = []
    if tracer is not None:
        chrome = tracer.to_chrome()
        events_prefix = getattr(args, "events", None)
        merged_sources = 0
        if events_prefix:
            from .obs.merge import MergedEvents, merge_chrome, to_chrome

            merged = MergedEvents.from_prefix(events_prefix)
            if merged.records:
                # One file: the modelled virtual-time service (pids 1/2)
                # next to the measured pool and worker processes (10, 100+).
                chrome = merge_chrome(chrome, to_chrome(merged))
                merged_sources = len(merged.sources)
        import json as json_module

        with open(args.trace, "w") as handle:
            json_module.dump(chrome, handle, indent=1)
        notes.append(
            f"wrote Chrome trace ({len(chrome['traceEvents'])} events"
            + (f", {merged_sources} event-shard sources" if merged_sources else "")
            + f") to {args.trace}"
        )
    if args.results_db:
        from .obs import ResultsStore

        with ResultsStore(args.results_db) as store:
            for label, metrics in payload["variants"].items():
                record = store.record(
                    topic="serve-bench",
                    scenario=args.scenario,
                    engine=payload["config"]["pool"],
                    config={**payload["config"], "variant": label},
                    metrics=metrics,
                )
            notes.append(
                f"recorded {len(payload['variants'])} runs in {args.results_db} "
                f"(latest id {record.run_id}, rev {record.git_rev})"
            )
    if args.emit_bench:
        from .obs import emit_bench_snapshot

        path = emit_bench_snapshot(
            args.emit_bench,
            topic="serve",
            scenario=args.scenario,
            config=payload["config"],
            variants=payload["variants"],
            variant_noise_bands=_wallclock_variant_bands(payload["variants"]),
        )
        notes.append(f"wrote bench snapshot to {path}")
    if args.json:
        import json

        return json.dumps(payload, indent=2, sort_keys=True, default=str)
    return "\n\n".join([rendered] + notes)


def _tune(args: argparse.Namespace) -> str:
    """Design-space exploration over a small generator suite."""
    from .autotune import (
        DesignSpaceExplorer,
        default_design_space,
        tuned_fraction_within,
    )
    from .eval.reporting import format_table
    from .generators import sample_collection

    channel_counts = tuple(
        int(token) for token in args.channels.split(",") if token.strip()
    )
    if not channel_counts:
        raise ValueError("--channels must name at least one channel count")
    if args.tune_matrices < 1:
        raise ValueError("--tune-matrices must be positive")

    collection = sample_collection(
        count=args.tune_matrices, seed=args.seed, nnz_min=2_000, nnz_max=30_000
    )
    matrices = [entry.materialize() for entry in collection]
    names = [entry.name for entry in collection]

    candidates = default_design_space(channel_counts=channel_counts)
    explorer = DesignSpaceExplorer(candidates, strategy=args.strategy)
    # One explorer does both passes: calibration memoises its executed
    # measurements, so tuning the same suite never re-simulates a pair.
    cost_model = explorer.calibrate(matrices, names=names)
    reports = explorer.tune_suite(matrices, names=names)

    fit_rows = [
        [
            row["engine"],
            int(row["samples"]),
            row["rms_log_error_before"],
            row["rms_log_error_after"],
        ]
        for row in cost_model.fit_report()
    ]
    summary_rows = []
    for report in reports:
        chosen = report.chosen
        summary_rows.append(
            [
                report.matrix_name,
                report.nnz,
                report.winner_key,
                chosen.predicted_seconds * 1e3 if chosen else None,
                (
                    chosen.measured_seconds * 1e3
                    if chosen and chosen.measured_seconds is not None
                    else None
                ),
                100 * report.regret if report.regret is not None else None,
            ]
        )
    fraction_within = tuned_fraction_within(reports, 0.10)
    parts = [
        format_table(
            ["engine", "samples", "rms log err (raw)", "rms log err (fit)"],
            fit_rows,
            title="Cost-model calibration (analytic estimate vs executed run)",
        ),
        format_table(
            ["matrix", "nnz", "chosen", "predicted ms", "measured ms", "regret %"],
            summary_rows,
            title=(
                f"Per-matrix tuning — strategy={args.strategy}, "
                f"{len(reports)} matrices, seed={args.seed}"
            ),
        ),
        (
            f"chosen config within 10% of measured best on "
            f"{100 * fraction_within:.0f}% of matrices"
        ),
        reports[-1].render(),
    ]

    config = {
        "strategy": args.strategy,
        "channels": args.channels,
        "tune_matrices": args.tune_matrices,
        "seed": args.seed,
    }
    regrets = [r.regret for r in reports if r.regret is not None]
    metrics = {
        "fraction_within_10pct": fraction_within,
        "mean_regret": sum(regrets) / len(regrets) if regrets else 0.0,
        "matrices": float(len(reports)),
    }
    for row in cost_model.fit_report():
        key = str(row["engine"]).replace("-", "_")
        metrics[f"rms_log_error_after_{key}"] = float(row["rms_log_error_after"])
    payload = {
        "experiment": "tune",
        "config": config,
        "metrics": metrics,
        "matrices": [
            {
                "matrix": report.matrix_name,
                "nnz": report.nnz,
                "chosen": report.winner_key,
                "regret": report.regret,
            }
            for report in reports
        ],
    }
    if args.results_db:
        from .obs import ResultsStore

        with ResultsStore(args.results_db) as store:
            record = store.record(
                topic="tune",
                scenario=f"generator-suite-{args.tune_matrices}",
                engine=args.strategy,
                config=config,
                metrics=metrics,
            )
        parts.append(
            f"recorded run {record.run_id} (rev {record.git_rev}) in {args.results_db}"
        )
    if args.json:
        import json

        return json.dumps(payload, indent=2, sort_keys=True, default=str)
    return "\n\n".join(parts)


#: Default location of the committed serve-bench regression baseline.
DEFAULT_BENCH_BASELINE = "benchmarks/BENCH_serve.json"

#: Gate tolerance for measured wall-clock variants.  Real processes on a
#: shared CI box are far noisier than the deterministic model — one global
#: 5% band would flap constantly; these wide bands still catch order-of-
#: magnitude regressions (a serialised pool, a lost-batch stall).
WALLCLOCK_NOISE_BANDS = {"latency_p95_ms": 0.75, "throughput_rps": 0.60}


def _wallclock_variant_bands(variants) -> Optional[Dict[str, Dict[str, float]]]:
    """Per-variant noise bands: measured wall-clock variants get wide ones."""
    bands = {
        label: dict(WALLCLOCK_NOISE_BANDS)
        for label in variants
        if label.startswith("wallclock-")
    }
    return bands or None


def _gate_args_from_config(config: Dict) -> argparse.Namespace:
    """Rebuild serve-bench CLI args from a bench snapshot's stored config.

    The regression gate must replay *exactly* the configuration the baseline
    was recorded under — scenario, trace size, seed, pool shape — so the
    committed snapshot, not the gate invocation, pins the workload.
    """
    argv = [
        "serve-bench",
        "--scenario", str(config["scenario"]),
        "--requests", str(config["requests"]),
        "--seed", str(config["seed"]),
        "--gap-scale", str(config["gap_scale"]),
        "--max-batch", str(config["max_batch"]),
    ]
    if config.get("cache_capacity") is not None:
        argv += ["--cache-capacity", str(config["cache_capacity"])]
    if config.get("engines"):
        argv += ["--engines", str(config["engines"])]
    else:
        argv += ["--devices", str(config.get("devices", 4))]
        if config.get("a24") is not None:
            argv += ["--a24", str(config["a24"])]
    if config.get("autotune"):
        argv.append("--autotune")
    # Baselines written before the wall-clock mode existed have no
    # wall_clock/workers keys; .get keeps them replayable.  The same goes
    # for the resilience knobs added later.
    if config.get("wall_clock"):
        argv += ["--wall-clock", "--workers", str(config.get("workers") or 2)]
        if config.get("fault_plan"):
            argv += ["--fault-plan", str(config["fault_plan"])]
        if config.get("deadline_ms"):
            argv += ["--deadline-ms", str(config["deadline_ms"])]
        if config.get("open_loop"):
            argv.append("--open-loop")
        if config.get("arrival_scale") not in (None, 1.0):
            argv += ["--arrival-scale", str(config["arrival_scale"])]
    return build_parser().parse_args(argv)


def _results_gate(args: argparse.Namespace) -> tuple:
    """``results gate``: re-run the pinned scenario, judge against baseline."""
    from .obs import emit_bench_snapshot, load_bench_snapshot, regression_gate

    baseline_path = args.baseline or DEFAULT_BENCH_BASELINE
    if args.update_baseline:
        payload, __ = _serve_bench_payload(args)
        path = emit_bench_snapshot(
            baseline_path,
            topic="serve",
            scenario=args.scenario,
            config=payload["config"],
            variants=payload["variants"],
            variant_noise_bands=_wallclock_variant_bands(payload["variants"]),
        )
        return f"wrote regression baseline ({payload['config']}) to {path}", 0
    baseline = load_bench_snapshot(baseline_path)
    payload, __ = _serve_bench_payload(_gate_args_from_config(baseline["config"]))
    result = regression_gate(baseline, payload["variants"])
    return result.render(), 0 if result.passed else 1


def _results(args: argparse.Namespace) -> tuple:
    """The ``results`` command: list/show/compare stored runs, or gate CI.

    Returns ``(rendered text, exit code)``; only ``gate`` (on regression)
    and usage errors exit non-zero.
    """
    from .eval.reporting import format_float, format_table
    from .obs import ResultsStore, compare_runs

    sub = args.subcommand or "list"
    if sub == "gate":
        return _results_gate(args)
    if sub not in ("list", "show", "compare", "merge"):
        return (
            f"unknown results subcommand {sub!r}; "
            "use list, show, compare, merge or gate",
            2,
        )
    if not args.results_db:
        return ("the results command needs --results-db PATH", 2)

    if sub == "merge":
        if not args.source:
            return ("results merge needs at least one --source PATH", 2)
        missing = [path for path in args.source if not os.path.exists(path)]
        if missing:
            return (f"no such results database: {', '.join(missing)}", 2)
        lines = []
        with ResultsStore(args.results_db) as store:
            for path in args.source:
                lines.append(f"merged {store.merge(path)} runs from {path}")
        lines.append(f"into {args.results_db}")
        return ("\n".join(lines), 0)

    with ResultsStore(args.results_db) as store:
        if sub == "list":
            runs = store.list_runs(limit=args.limit)
            if not runs:
                return (f"no runs recorded in {args.results_db}", 0)
            rows = [
                [
                    r.run_id,
                    r.recorded_at,
                    r.git_rev,
                    r.topic,
                    r.scenario,
                    r.config.get("variant", "-"),
                    r.config_fingerprint,
                    (
                        format_float(r.metrics["latency_p95_ms"])
                        if "latency_p95_ms" in r.metrics
                        else "-"
                    ),
                    (
                        format_float(r.metrics["throughput_rps"])
                        if "throughput_rps" in r.metrics
                        else "-"
                    ),
                ]
                for r in runs
            ]
            return (
                format_table(
                    [
                        "id",
                        "recorded",
                        "rev",
                        "topic",
                        "scenario",
                        "variant",
                        "config",
                        "p95 ms",
                        "req/s",
                    ],
                    rows,
                    title=f"Recorded runs — {args.results_db} (newest first)",
                ),
                0,
            )

        candidate = store.get(args.run) if args.run is not None else store.latest()
        if candidate is None:
            return (f"no runs recorded in {args.results_db}", 1)

        if sub == "show":
            metric_rows = [
                [name, candidate.metrics[name]] for name in sorted(candidate.metrics)
            ]
            header = (
                f"run {candidate.run_id} — {candidate.topic}/{candidate.scenario} "
                f"on {candidate.engine}\n"
                f"recorded {candidate.recorded_at} at rev {candidate.git_rev}, "
                f"config {candidate.config_fingerprint}\n"
                + "\n".join(
                    f"  {key} = {candidate.config[key]}"
                    for key in sorted(candidate.config)
                )
            )
            return (
                header
                + "\n\n"
                + format_table(["metric", "value"], metric_rows, title="Metrics"),
                0,
            )

        # compare: explicit baseline run, or the newest earlier run with the
        # same identity key (topic/scenario/engine/config fingerprint).
        if args.baseline_run is not None:
            baseline = store.get(args.baseline_run)
        else:
            baseline = next(
                (
                    r
                    for r in store.list_runs(
                        topic=candidate.topic,
                        scenario=candidate.scenario,
                        engine=candidate.engine,
                    )
                    if r.run_id < candidate.run_id
                    and r.config_fingerprint == candidate.config_fingerprint
                ),
                None,
            )
            if baseline is None:
                return (
                    f"no earlier run matches run {candidate.run_id}'s key; "
                    "pass --baseline-run ID",
                    1,
                )
        return (compare_runs(baseline, candidate).render(), 0)


def _analyze(args: argparse.Namespace) -> tuple:
    """The ``analyze`` command: run the static analyzer over the tree.

    Returns ``(rendered text, exit code)``.  Findings are always rendered;
    only ``--strict`` (the CI gate) turns them into a non-zero exit.  The
    ``rules`` subcommand lists every RPR code with its rationale.
    """
    import json as json_module
    from pathlib import Path

    from .analysis import CODE_DESCRIPTIONS, analyze_tree, load_config

    if args.subcommand == "rules":
        width = max(len(code) for code in CODE_DESCRIPTIONS)
        return (
            "\n".join(
                f"{code.ljust(width)}  {description}"
                for code, description in sorted(CODE_DESCRIPTIONS.items())
            ),
            0,
        )
    if args.subcommand not in (None, "tree"):
        return (
            f"unknown analyze subcommand {args.subcommand!r}; "
            "use 'tree' (default) or 'rules'",
            2,
        )
    try:
        config = load_config(Path(args.layers) if args.layers else None)
    except (FileNotFoundError, ValueError) as error:
        return (str(error), 2)
    report = analyze_tree(config=config)
    if args.json:
        text = json_module.dumps(report.as_payload(), indent=2, sort_keys=True)
    else:
        text = report.render(verbose=args.strict)
    return text, (1 if args.strict and not report.clean else 0)


def _top(args: argparse.Namespace) -> tuple:
    """The ``top`` command: live dashboard over a run's event shards.

    Returns ``(rendered text, exit code)``.  ``--once`` renders a single
    frame and exits (scriptable / testable); without it the dashboard
    polls ``--interval`` seconds until Ctrl-C.
    """
    if not args.events:
        return ("top requires --events PREFIX (the serve-bench --events prefix)", 2)
    from .obs.live import PoolDashboard

    dashboard = PoolDashboard(args.events, interval=args.interval)
    if args.once:
        return (dashboard.render(), 0)
    dashboard.run()
    return ("", 0)


def _events(args: argparse.Namespace) -> tuple:
    """The ``events`` command: schema-check shards and/or a Chrome trace.

    ``events validate --events PREFIX [--trace FILE]`` mirrors the results
    gate's exit-code contract: 0 = valid, 1 = findings, 2 = usage error.
    The CI chaos-smoke job runs it over the artifacts it uploads.
    """
    subcommand = args.subcommand or "validate"
    if subcommand != "validate":
        return (f"unknown events subcommand {subcommand!r}; use 'validate'", 2)
    if not args.events and not args.trace:
        return ("events validate needs --events PREFIX and/or --trace PATH", 2)
    from .obs.merge import MergedEvents, discover_shards, validate_chrome_trace

    lines: List[str] = []
    findings: List[str] = []
    if args.events:
        shards = discover_shards(args.events)
        if not shards:
            findings.append(f"no event shards under prefix {args.events}")
        else:
            merged = MergedEvents.from_prefix(args.events)
            findings.extend(merged.validate())
            lines.append(
                f"events: {len(shards)} shard(s), {len(merged.records)} "
                f"record(s), sources: {', '.join(merged.sources)}"
            )
    if args.trace:
        chrome_findings = validate_chrome_trace(
            args.trace, min_worker_tracks=args.min_worker_tracks
        )
        findings.extend(chrome_findings)
        lines.append(
            f"chrome trace {args.trace}: "
            + ("ok" if not chrome_findings else f"{len(chrome_findings)} finding(s)")
        )
    if findings:
        lines.extend(f"FINDING: {finding}" for finding in findings)
        lines.append(f"{len(findings)} finding(s)")
        return ("\n".join(lines), 1)
    lines.append("ok")
    return ("\n".join(lines), 0)


#: Registry of experiment name -> (description, runner).
EXPERIMENTS: Dict[str, tuple] = {
    "table1": ("Serpens design parameters", _table1),
    "table2": ("Evaluated accelerator specifications", _table2),
    "table3": ("Evaluated matrices and collection statistics", _table3),
    "table4": ("Main comparison on twelve large matrices", _table4),
    "table5": ("Design comparison and SpMV/SpMM cross-over", _table5),
    "table6": ("FPGA resource utilisation", _table6),
    "table7": ("Peak performance versus other SpMV accelerators", _table7),
    "table8": ("Serpens-A24 channel scaling", _table8),
    "figure2": ("Non-zero reordering example", _figure2),
    "figure3": ("SuiteSparse-scale sweep versus the K80", _figure3),
    "ablation-coalescing": ("Index coalescing ablation", _ablation_coalescing),
    "ablation-segment": ("Segment length sweep", _ablation_segment),
    "ablation-window": ("Reordering window sweep", _ablation_window),
    "ablation-channels": ("HBM channel scaling sweep", _ablation_channels),
    "serve-bench": ("Multi-accelerator serving benchmark", _serve_bench),
    "backends": ("Registered backend engines and their Table-2 specs", _backends),
    "tune": ("Cost-model-driven design-space exploration", _tune),
}


def run_experiment(name: str, args: argparse.Namespace) -> str:
    """Run one registered experiment and return its rendered table."""
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; see 'list'")
    __, runner = EXPERIMENTS[name]
    return runner(args)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the evaluation tables and figures of the Serpens paper.",
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment to run: one of %s, 'all', 'list', 'results', "
            "'analyze', 'top', or 'events'" % ", ".join(EXPERIMENTS)
        ),
    )
    parser.add_argument(
        "subcommand",
        nargs="?",
        default=None,
        help="subcommand for 'results': list (default), show, compare, "
        "merge or gate; for 'analyze': tree (default) or rules; for "
        "'events': validate (default)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.02,
        help="linear NNZ scale for the twelve large matrices (default 0.02; 1.0 = published sizes)",
    )
    parser.add_argument(
        "--count",
        type=int,
        default=400,
        help="matrices in the SuiteSparse-like collection sweep (paper uses 2519)",
    )
    parser.add_argument("--seed", type=int, default=2022, help="collection sampling seed")
    parser.add_argument(
        "--output",
        type=str,
        default=None,
        help="also write the rendered tables to this file",
    )
    serving = parser.add_argument_group("serve-bench options")
    serving.add_argument(
        "--devices", type=int, default=4, help="accelerators in the serving pool"
    )
    serving.add_argument(
        "--requests", type=int, default=2000, help="requests in the generated trace"
    )
    serving.add_argument(
        "--scenario",
        type=str,
        default="mixed",
        choices=SERVE_SCENARIOS,
        help="load scenario for serve-bench",
    )
    serving.add_argument(
        "--max-batch", type=int, default=32, help="largest same-matrix batch"
    )
    serving.add_argument(
        "--cache-capacity",
        type=int,
        default=None,
        help="program-cache capacity in entries (default: unbounded)",
    )
    serving.add_argument(
        "--gap-scale",
        type=float,
        default=1.0,
        help="multiplier on arrival gaps (<1 compresses the trace)",
    )
    serving.add_argument(
        "--a24",
        type=int,
        default=None,
        help="devices built as Serpens-A24 (default: one quarter of the pool)",
    )
    serving.add_argument(
        "--engines",
        type=str,
        default=None,
        help=(
            "comma-separated backend registry names for a heterogeneous pool "
            "(e.g. 'serpens-a16,serpens-a24,sextans'; overrides --devices/--a24)"
        ),
    )
    serving.add_argument(
        "--wall-clock",
        action="store_true",
        help=(
            "also serve the trace on a real worker-process pool (shared-"
            "memory transport, one engine per worker) and report measured "
            "wall-clock latency percentiles and throughput next to the "
            "modelled numbers"
        ),
    )
    serving.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes for --wall-clock (0 = serve inline)",
    )
    serving.add_argument(
        "--fault-plan",
        type=str,
        default=None,
        metavar="PLAN",
        help=(
            "TOML/JSON fault plan injected into the --wall-clock worker "
            "pool (crashes, hangs, slowdowns, dropped replies; see "
            "benchmarks/faults_standard.toml)"
        ),
    )
    serving.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help=(
            "per-request latency budget for --wall-clock, counted from the "
            "request's due time; a request still queued when it passes is "
            "shed instead of served late"
        ),
    )
    serving.add_argument(
        "--open-loop",
        action="store_true",
        help=(
            "in --wall-clock, admit each request at its recorded arrival "
            "time (open-loop load) and measure its latency from then, "
            "instead of making every request due at once"
        ),
    )
    serving.add_argument(
        "--arrival-scale",
        type=float,
        default=1.0,
        help=(
            "multiplier on each request's arrival time for --open-loop: "
            "it falls due arrival x scale seconds after the run starts "
            "(>1 slows the trace down, <1 compresses it)"
        ),
    )
    serving.add_argument(
        "--autotune",
        action="store_true",
        help=(
            "add routed variants to serve-bench: a round-robin placement "
            "baseline and an autotuned pool whose calibrated cost model "
            "drives placement hints and the SJF cost oracle"
        ),
    )
    tuning = parser.add_argument_group("tune options")
    tuning.add_argument(
        "--strategy",
        type=str,
        default="exhaustive",
        choices=("exhaustive", "halving"),
        help="design-space search strategy for 'tune'",
    )
    tuning.add_argument(
        "--channels",
        type=str,
        default="8,12,16,20,24",
        help="comma-separated Serpens sparse-channel counts to explore",
    )
    tuning.add_argument(
        "--tune-matrices",
        type=int,
        default=6,
        help="matrices in the tuning suite (sampled small for simulation)",
    )
    obs = parser.add_argument_group("observability options")
    obs.add_argument(
        "--json",
        action="store_true",
        help="emit the run's machine-readable payload instead of tables "
        "(serve-bench and tune)",
    )
    obs.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event JSON of the final serve-bench "
        "variant's drain (open in chrome://tracing or Perfetto)",
    )
    obs.add_argument(
        "--results-db",
        type=str,
        default=None,
        metavar="PATH",
        help="SQLite results store to record runs in / read with 'results'",
    )
    obs.add_argument(
        "--emit-bench",
        type=str,
        default=None,
        metavar="PATH",
        help="write a BENCH_serve.json snapshot of the serve-bench variants",
    )
    obs.add_argument(
        "--run",
        type=int,
        default=None,
        help="run id for 'results show/compare' (default: the latest run)",
    )
    obs.add_argument(
        "--baseline-run",
        type=int,
        default=None,
        help="baseline run id for 'results compare' (default: the newest "
        "earlier run with the same identity key)",
    )
    obs.add_argument(
        "--baseline",
        type=str,
        default=None,
        metavar="PATH",
        help=f"bench snapshot for 'results gate' (default {DEFAULT_BENCH_BASELINE})",
    )
    obs.add_argument(
        "--update-baseline",
        action="store_true",
        help="with 'results gate': (re)write the baseline snapshot from a "
        "fresh run instead of judging against it",
    )
    obs.add_argument(
        "--source",
        type=str,
        action="append",
        default=None,
        metavar="PATH",
        help="shard database(s) folded into --results-db by 'results merge' "
        "(repeatable)",
    )
    obs.add_argument(
        "--limit",
        type=int,
        default=20,
        help="rows shown by 'results list'",
    )
    obs.add_argument(
        "--events",
        type=str,
        default=None,
        metavar="PREFIX",
        help="event-shard prefix: serve-bench --wall-clock writes "
        "<PREFIX>.pool.jsonl plus one <PREFIX>.workerN.gG.jsonl per worker "
        "incarnation; 'top' and 'events validate' read the same prefix",
    )
    obs.add_argument(
        "--live",
        action="store_true",
        help="with serve-bench --wall-clock: render the live 'top' "
        "dashboard (on stderr) while the pool run is in flight",
    )
    obs.add_argument(
        "--once",
        action="store_true",
        help="with 'top': render a single frame and exit",
    )
    obs.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="poll interval in seconds for 'top' and --live (default 1.0)",
    )
    obs.add_argument(
        "--min-worker-tracks",
        type=int,
        default=0,
        help="with 'events validate --trace': fail unless the Chrome trace "
        "has at least this many worker process tracks",
    )
    analysis = parser.add_argument_group("analyze options")
    analysis.add_argument(
        "--strict",
        action="store_true",
        help="with 'analyze': exit non-zero when any finding remains "
        "(the CI invariants gate)",
    )
    analysis.add_argument(
        "--layers",
        type=str,
        default=None,
        metavar="PATH",
        help="layer-contract TOML for 'analyze' (default: the committed "
        "analysis/layers.toml found above the package)",
    )
    return parser


#: Experiments that read ``--scale``.
_SCALED_EXPERIMENTS = (
    "table4", "table5", "table7", "table8", "ablation-coalescing",
    "ablation-segment", "ablation-window", "ablation-channels",
)


def _bad_input(args: argparse.Namespace) -> Optional[str]:
    """A one-line error for a path, fault plan or flag value that cannot work.

    Checked before any experiment or serving run starts, so a typo costs no
    run and prints no traceback: ``main`` exits 2 on it, the contract
    ``analyze --layers`` and ``results merge --source`` follow.  Returns
    None when everything can work.
    """
    command = args.experiment
    every = command == "all"
    serving = every or command == "serve-bench"
    gate = command == "results" and args.subcommand == "gate"
    flags = []
    if serving:
        deadline, capacity = args.deadline_ms, args.cache_capacity
        flags += [
            ("--requests", args.requests, args.requests >= 1, "at least 1"),
            ("--max-batch", args.max_batch, args.max_batch >= 1, "at least 1"),
            ("--workers", args.workers, args.workers >= 0, "at least 0 (0 serves inline)"),
            ("--arrival-scale", args.arrival_scale, args.arrival_scale > 0, "positive"),
            ("--deadline-ms", deadline, deadline is None or deadline > 0, "positive"),
            ("--gap-scale", args.gap_scale, args.gap_scale > 0, "positive"),
            ("--cache-capacity", capacity, capacity is None or capacity >= 1, "at least 1"),
        ]
        if args.engines:
            from .backends import available, describe

            names = [name.strip().lower() for name in args.engines.split(",") if name.strip()]
            known = {alias for entry in describe() for alias in (entry.name, *entry.aliases)}
            flags.append(
                ("--engines", args.engines, names and set(names) <= known,
                 "registered backend names, comma-separated: " + ", ".join(available()))
            )
        else:
            a24 = args.a24
            flags += [
                ("--devices", args.devices, args.devices >= 1, "at least 1"),
                ("--a24", a24, a24 is None or 0 <= a24 <= args.devices,
                 f"between 0 and --devices ({args.devices})"),
            ]
    if every or command in _SCALED_EXPERIMENTS:
        flags.append(("--scale", args.scale, 0 < args.scale <= 1, "in (0, 1]"))
    if every or command in ("table3", "figure3"):
        flags.append(("--count", args.count, args.count >= 1, "at least 1"))
    if every or command == "tune":
        channels = [token.strip() for token in args.channels.split(",") if token.strip()]
        flags += [
            ("--tune-matrices", args.tune_matrices, args.tune_matrices >= 1, "at least 1"),
            ("--channels", args.channels,
             channels and all(t.isdigit() and int(t) >= 1 for t in channels),
             "positive integers, comma-separated"),
        ]
    for flag, value, ok, need in flags:
        if not ok:
            return f"{flag} {value}: must be {need}"
    written = [("--output", args.output)]
    if serving or command in ("tune", "results"):
        written.append(("--results-db", args.results_db))
    if serving:
        written += [
            ("--trace", args.trace),
            ("--events", args.events),
            ("--emit-bench", args.emit_bench),
        ]
    if gate and args.update_baseline:
        written.append(("--baseline", args.baseline))
    for flag, path in written:
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            return f"{flag} {path}: directory does not exist"
    if gate and not args.update_baseline:
        baseline = args.baseline or DEFAULT_BENCH_BASELINE
        if not os.path.isfile(baseline):
            return f"--baseline {baseline}: no such bench snapshot"
    if serving and args.fault_plan:
        from .resilience import load_fault_plan

        try:
            load_fault_plan(args.fault_plan)
        except (OSError, TypeError, ValueError) as error:
            return f"--fault-plan {args.fault_plan}: {error}"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _bad_input(args)
    if problem is not None:
        print(problem)
        return 2

    if args.experiment == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name, (description, __) in EXPERIMENTS.items():
            print(f"{name.ljust(width)}  {description}")
        return 0

    if args.experiment == "results":
        # Not an experiment (kept out of EXPERIMENTS so 'all' stays a pure
        # paper-reproduction sweep): inspect/compare the results store, or
        # run the CI regression gate.
        text, code = _results(args)
        print(text)
        return code

    if args.experiment == "analyze":
        # Also not an experiment: the architecture-invariant linter over
        # the installed package tree ('analyze --strict' is the CI gate).
        text, code = _analyze(args)
        print(text)
        return code

    if args.experiment == "top":
        # Live dashboard over a wall-clock run's event shards.
        text, code = _top(args)
        if text:
            print(text)
        return code

    if args.experiment == "events":
        # Event-shard / merged-trace schema validation (CI artifact check).
        text, code = _events(args)
        print(text)
        return code

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if any(name not in EXPERIMENTS for name in names):
        parser.error(f"unknown experiment {args.experiment!r}; use 'list' to see options")

    outputs = []
    for name in names:
        start = time.perf_counter()
        rendered = run_experiment(name, args)
        elapsed = time.perf_counter() - start
        if args.json:
            # Machine-readable mode: no headers, so stdout parses as JSON.
            print(rendered)
            outputs.append(rendered)
            continue
        header = f"### {name} ({EXPERIMENTS[name][0]}) — {elapsed:.1f}s"
        block = f"{header}\n\n{rendered}\n"
        print(block)
        outputs.append(block)

    if args.output:
        with open(args.output, "w") as handle:
            handle.write("\n".join(outputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
