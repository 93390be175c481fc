"""Live terminal dashboard over a wall-clock run's event shards.

``serpens-repro top --events <prefix>`` (or ``serve-bench --live``) renders
the same event shards :mod:`repro.obs.merge` aligns after the fact — but
*while the run is happening*.  The shards are append-only JSONL written
line-buffered by every process, so the dashboard needs no channel to the
pool at all: each poll simply re-reads the files (they are small — one line
per batch lifecycle step) and recomputes the picture:

* per worker: engine, generation (respawn count), breaker state, batches
  inflight, wall-clock utilisation (busy span time / elapsed), batches
  done, injected faults observed,
* pool-wide: queue depth (enqueued, not yet dispatched), done/total
  batches, shed rate, and rolling p50/p95 batch latency over the last
  :attr:`PoolDashboard.window` replies.

Rendering is plain ANSI (clear + home between frames) rather than curses,
so it works in CI logs and over ssh; :meth:`PoolDashboard.render` returns
the frame as a string, which is also what the tests assert against.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from .events import read_events
from .merge import discover_shards

__all__ = ["PoolDashboard"]

_BREAKER_EVENTS = {
    "breaker_open": "open",
    "breaker_half_open": "half-open",
    "breaker_close": "closed",
}


class PoolDashboard:
    """Polls a run's event shards and renders a terminal status frame."""

    def __init__(
        self,
        prefix: Union[str, Path],
        interval: float = 1.0,
        window: int = 50,
    ) -> None:
        self.prefix = Path(prefix)
        self.interval = max(0.05, float(interval))
        #: Replies in the rolling latency window.
        self.window = max(1, int(window))

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self) -> Dict[str, Any]:
        """One self-contained snapshot computed from the shards on disk."""
        records: List[Dict[str, Any]] = []
        for shard in discover_shards(self.prefix):
            try:
                records.extend(read_events(shard))
            except (OSError, ValueError):  # pragma: no cover - racing writer
                continue
        walls = [r["wall"] for r in records if "wall" in r]
        epoch = min(walls) if walls else 0.0
        elapsed = (max(walls) - epoch) if walls else 0.0
        records.sort(key=lambda r: (r.get("wall", 0.0), r.get("seq", 0)))

        workers: Dict[int, Dict[str, Any]] = {}

        def worker(worker_id: int) -> Dict[str, Any]:
            return workers.setdefault(
                worker_id,
                {
                    "engine": "?",
                    "generation": 0,
                    "breaker": "closed",
                    "inflight": 0,
                    "busy_seconds": 0.0,
                    "batches": 0,
                    "faults": 0,
                },
            )

        # Batch lifecycle replayed from the pool's shard: enqueue → pending,
        # dispatch → inflight on a worker, retry → back to pending,
        # reply/shed → done.  Recomputing from scratch each poll keeps the
        # dashboard stateless across respawns and torn tails.
        pending: set = set()
        inflight: Dict[int, int] = {}
        done: set = set()
        latencies_ms: List[float] = []
        enqueued_requests = 0
        shed_requests = 0
        hedges = 0

        for record in records:
            kind = record.get("kind")
            source = str(record.get("source", ""))
            if kind == "shard_header" and source.startswith("worker-"):
                worker_id = int(source.split("-", 1)[1])
                row = worker(worker_id)
                row["engine"] = record.get("engine", row["engine"])
                row["generation"] = max(
                    row["generation"], int(record.get("generation", 0))
                )
            elif kind == "enqueue":
                pending.add(record.get("batch"))
                enqueued_requests += int(record.get("requests", 0))
            elif kind == "dispatch":
                batch = record.get("batch")
                pending.discard(batch)
                inflight[batch] = int(record.get("worker", -1))
            elif kind == "retry":
                inflight.pop(record.get("batch"), None)
                pending.add(record.get("batch"))
            elif kind == "reply":
                batch = record.get("batch")
                pending.discard(batch)
                inflight.pop(batch, None)
                done.add(batch)
                latencies_ms.append(float(record.get("latency_s", 0.0)) * 1e3)
            elif kind in ("deadline_shed", "overload_shed"):
                # The pool sheds queued requests before they form a batch.
                if "batch" in record:
                    pending.discard(record["batch"])
                    inflight.pop(record["batch"], None)
                    done.add(record["batch"])
                shed_requests += int(record.get("requests", 0))
            elif kind == "hedge_fired":
                hedges += 1
            elif kind in _BREAKER_EVENTS:
                worker(int(record.get("worker", -1)))["breaker"] = (
                    _BREAKER_EVENTS[kind]
                )
            elif kind == "fault_injected" and "worker" in record:
                worker(int(record["worker"]))["faults"] += 1
            elif kind == "span" and record.get("name") == "batch":
                if source.startswith("worker-"):
                    row = worker(int(source.split("-", 1)[1]))
                    row["busy_seconds"] += float(record.get("dur", 0.0))
                    row["batches"] += 1
            elif kind == "respawn":
                worker(int(record.get("worker", -1)))["generation"] = max(
                    worker(int(record.get("worker", -1)))["generation"],
                    int(record.get("generation", 0)),
                )

        for worker_id, count in _count_values(inflight).items():
            if worker_id >= 0:
                worker(worker_id)["inflight"] = count
        for row in workers.values():
            row["utilisation"] = (
                min(1.0, row["busy_seconds"] / elapsed) if elapsed > 0 else 0.0
            )
        window = latencies_ms[-self.window:]
        return {
            "elapsed": elapsed,
            "workers": {k: workers[k] for k in sorted(workers)},
            "queue_depth": len(pending),
            "inflight": len(inflight),
            "done_batches": len(done),
            "total_batches": len(pending) + len(inflight) + len(done),
            "enqueued_requests": enqueued_requests,
            "shed_requests": shed_requests,
            "shed_rate": (
                shed_requests / enqueued_requests if enqueued_requests else 0.0
            ),
            "hedges": hedges,
            "latency_p50_ms": float(np.percentile(window, 50)) if window else 0.0,
            "latency_p95_ms": float(np.percentile(window, 95)) if window else 0.0,
        }

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self, snapshot: Optional[Dict[str, Any]] = None) -> str:
        """One frame as text (what ``run`` writes between ANSI clears)."""
        snap = self.sample() if snapshot is None else snapshot
        lines = [
            f"repro top — {self.prefix}  t={snap['elapsed']:.1f}s",
            (
                f"batches {snap['done_batches']}/{snap['total_batches']} done"
                f"  queue {snap['queue_depth']}  inflight {snap['inflight']}"
                f"  shed {100.0 * snap['shed_rate']:.1f}%"
                f"  hedges {snap['hedges']}"
                f"  p50 {snap['latency_p50_ms']:.1f}ms"
                f"  p95 {snap['latency_p95_ms']:.1f}ms"
            ),
        ]
        if not snap["workers"]:
            lines.append("(no worker shards yet)")
            return "\n".join(lines) + "\n"
        header = (
            "worker", "engine", "gen", "breaker", "inflight",
            "util%", "batches", "faults",
        )
        rows = [header]
        for worker_id, row in snap["workers"].items():
            rows.append(
                (
                    str(worker_id),
                    str(row["engine"]),
                    str(row["generation"]),
                    row["breaker"],
                    str(row["inflight"]),
                    f"{100.0 * row['utilisation']:.0f}",
                    str(row["batches"]),
                    str(row["faults"]),
                )
            )
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        for row in rows:
            lines.append("  ".join(col.ljust(w) for col, w in zip(row, widths)))
        return "\n".join(lines) + "\n"

    def run(
        self,
        stream=None,
        once: bool = False,
        stop=None,
        clear: bool = True,
    ) -> None:
        """Poll-and-render loop; ``stop`` is an optional ``threading.Event``.

        Ctrl-C exits cleanly (the run it is watching is a different
        process writing the shards; killing the viewer loses nothing).
        """
        stream = sys.stdout if stream is None else stream
        try:
            while True:
                frame = self.render()
                if clear and not once:
                    stream.write("\x1b[2J\x1b[H")
                stream.write(frame)
                stream.flush()
                if once or (stop is not None and stop.is_set()):
                    return
                if stop is not None:
                    if stop.wait(self.interval):
                        # One final frame so the end state is on screen.
                        stream.write("\x1b[2J\x1b[H" if clear else "")
                        stream.write(self.render())
                        stream.flush()
                        return
                else:
                    time.sleep(self.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            return


def _count_values(mapping: Dict[Any, int]) -> Dict[int, int]:
    counts: Dict[int, int] = {}
    for value in mapping.values():
        counts[value] = counts.get(value, 0) + 1
    return counts
