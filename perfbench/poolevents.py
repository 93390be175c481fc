"""Pool per-layer figures from the pool's own event shards.

The pool writes ``enqueue``/``dispatch``/``reply`` events and each worker a
``batch`` span (task picked up to computed) and an ``execute`` span (the
launches) per batch; :class:`repro.obs.MergedEvents` puts them on one
wall-clock timeline.  Batch ids restart at 0 on every ``run_trace`` call,
so events are split into passes at each ``enqueue`` of batch 0.

* queue wait: batch release (pass start; open loop: plus the first
  request's scaled arrival) to the worker picking the batch up,
* transport: dispatch (or the worker's previous batch ending, if later) to
  pick-up, plus the batch ending to the pool handling its reply.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import MergedEvents

from .stats import Metric, percentile


def _passes(pool_records: List[dict]) -> List[dict]:
    passes: List[dict] = []
    for record in pool_records:
        kind = record.get("kind")
        if kind == "enqueue":
            if record["batch"] == 0:
                passes.append({"first_wall": record["wall"], "sizes": [], "first_request": [],
                               "dispatch": {}, "reply": {}})
            run = passes[-1]
            run["start"] = record["wall"]
            # Batches take consecutive requests in trace order.
            run["first_request"].append(run["first_request"][-1] + run["sizes"][-1] if run["sizes"] else 0)
            run["sizes"].append(record["requests"])
        elif kind == "dispatch" and passes:
            passes[-1]["dispatch"][record["batch"]] = record["wall"]
        elif kind == "reply" and passes:
            passes[-1]["reply"][record["batch"]] = record["wall"]
    return passes


def pool_metrics(
    shard_paths: Sequence,
    arrival_times: Sequence[float],
    arrival_scale: Optional[float],
    num_workers: int,
    serving_s: float,
) -> List[Metric]:
    merged = MergedEvents.load(shard_paths)
    passes = _passes([r for r in merged.records if r.get("source") == "pool"])
    firsts = [p["first_wall"] for p in passes]

    # worker -> [(start, end, batch, pass)] of picked-up batches, in time order.
    batches: Dict[str, List[Tuple[float, float, int, int]]] = {}
    execute_ms: List[float] = []
    for span in merged.spans():
        source = span.get("source", "")
        if not source.startswith("worker-"):
            continue
        if span["name"] == "execute":
            execute_ms.append(span["dur"] * 1e3)
        elif span["name"] == "batch":
            start = span["wall"] - span["dur"]
            index = bisect.bisect_right(firsts, start) - 1
            if index >= 0:
                batches.setdefault(source, []).append((start, span["wall"], span["batch"], index))

    queue_ms: List[float] = []
    transport_ms: List[float] = []
    busy = 0.0
    for spans in batches.values():
        spans.sort()
        previous_end = 0.0
        for start, end, batch, index in spans:
            run = passes[index]
            busy += end - start
            release = run["start"]
            if arrival_scale is not None:
                release += arrival_times[run["first_request"][batch]] * arrival_scale
            queue_ms.append(max(0.0, start - release) * 1e3)
            dispatched = run["dispatch"].get(batch)
            replied = run["reply"].get(batch)
            if dispatched is not None and replied is not None:
                pick_up = max(0.0, start - max(dispatched, previous_end))
                transport_ms.append((pick_up + max(0.0, replied - end)) * 1e3)
            previous_end = end

    def pct(values: List[float], q: float) -> float:
        return percentile(values, q) if values else 0.0

    sizes = [size for run in passes for size in run["sizes"]]
    return [
        Metric("parallel.queue_wait_ms_p50", pct(queue_ms, 50), "ms", len(queue_ms)),
        Metric("parallel.queue_wait_ms_p95", pct(queue_ms, 95), "ms", len(queue_ms)),
        Metric("parallel.execute_ms_p50", pct(execute_ms, 50), "ms", len(execute_ms)),
        Metric("parallel.execute_ms_p95", pct(execute_ms, 95), "ms", len(execute_ms)),
        Metric("parallel.transport_ms_p50", pct(transport_ms, 50), "ms", len(transport_ms)),
        Metric("parallel.transport_ms_p95", pct(transport_ms, 95), "ms", len(transport_ms)),
        Metric("parallel.batch_size_mean", sum(sizes) / len(sizes) if sizes else 0.0, "count", len(sizes)),
        Metric("parallel.batches", len(sizes) / len(passes) if passes else 0.0, "count", len(passes)),
        Metric(
            "parallel.worker_busy_frac",
            busy / (num_workers * serving_s) if serving_s else 0.0,
            "frac",
            sum(len(s) for s in batches.values()),
        ),
    ]
