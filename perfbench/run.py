#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sim-large --seed 0 --seconds 10 --trace 0

Workloads: sim-large, serve-closed, serve-open, serve-virtual (documented in
``perfbench/workloads.json``).  ``--trace 0`` prints every end-to-end metric
of ``BENCHMARK.json``; ``--trace 1`` runs the workload once untraced and once
with every layer's public functions wrapped, and prints every per-layer
metric plus ``trace_overhead_frac``.  Each metric is printed with its unit
and sample count, after a provenance line (seed, host fingerprint,
revision); the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record, spans and
event shards are written under ``.perfbench/<workload>-s<seed>-t<trace>/``.

Exit codes: 0 when every answer was correct, 1 on a wrong or lost answer or
when no request was answered at all, 2 on bad arguments or when the
``repro`` package cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = tuple(json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def source_digest() -> str:
    """sha256 over the package sources: a revision id that needs no git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, seeds) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": seeds["default"],
        "held_out_seed": seeds["held_out"],
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "revision": git_revision(),
        "source_digest": source_digest(),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def stop_resource_tracker() -> None:
    """Stop the resource tracker the worker pool starts, and wait for it.

    It would exit by itself soon after this process; stopping it here means
    no process of the run outlives the run.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def untraced_run(args, stats, workloads):
    """The workload with tracing off: every end-to-end metric."""
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.reference()
    phase = workload.run_phase(args.seconds, workload.cfg["setup_repeats"])
    return phase.accounting, phase.metrics + [
        stats.Metric("setup_s", stats.median(phase.setup_s), "s", len(phase.setup_s)),
        stats.Metric("peak_rss_mb", peak_rss_mb(), "MB", 1),
    ]


def traced_run(args, out_dir, layers, stats, workloads):
    """The workload untraced, then traced: per-layer metrics and the overhead."""
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.reference()
    untraced = workload.run_phase(args.seconds, 1)
    (out_dir / "events").mkdir()
    tracer = layers.LayerTracer(out_dir / "spans")
    tracer.install()
    try:
        traced = workload.run_phase(args.seconds, 1, events=out_dir / "events")
    finally:
        tracer.uninstall()
    accounting = stats.Accounting.total([untraced.accounting, traced.accounting])
    metrics = layers.layer_metrics(tracer.collect(), traced.setups, traced.drains) + traced.layer + [
        stats.Metric("trace_overhead_frac", traced.cpu_per_request / untraced.cpu_per_request - 1.0, "frac", 2),
    ]
    return accounting, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro  # noqa: F401
        from perfbench import layers, stats, workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    try:
        contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    record = {"provenance": provenance(args, workloads.CONFIG["seeds"])}
    print("# provenance " + json.dumps(record["provenance"]), flush=True)

    try:
        if args.trace:
            accounting, metrics = traced_run(args, out_dir, layers, stats, workloads)
            declared = contract["per_layer"]
            produced = {m.name for m in metrics}
            # Layers this workload never reaches read 0 (the predicted no-change).
            metrics += [stats.Metric(d["name"], 0.0, d["unit"], 0) for d in declared if d["name"] not in produced]
        else:
            accounting, metrics = untraced_run(args, stats, workloads)
            declared = contract["end_to_end"]
    finally:
        stop_resource_tracker()

    units = {d["name"]: d["unit"] for d in declared}
    unknown = sorted({m.name for m in metrics} - set(units))
    missing = sorted(set(units) - {m.name for m in metrics})
    if unknown or missing:
        print(f"perfbench: metrics out of step with BENCHMARK.json: extra {unknown}, missing {missing}",
              file=sys.stderr)
        return 2
    metrics.sort(key=lambda m: list(units).index(m.name))

    for metric in metrics:
        print(metric.line())
    print(
        f"# accounting sent={accounting.sent} failed={accounting.failed} shed={accounting.shed} "
        f"missing={accounting.missing} wrong={accounting.wrong} failed_frac={accounting.failed_frac:.6g}"
    )
    record.update(
        correct=accounting.correct,
        accounting=vars(accounting),
        metrics=[vars(m) for m in metrics],
    )
    (out_dir / "result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": accounting.correct,
        "attempted": accounting.sent,
        "failed": accounting.misses,
        "metrics": stats.as_json_metrics(metrics),
    }), flush=True)
    return 0 if accounting.correct else 1


if __name__ == "__main__":
    sys.exit(main())
