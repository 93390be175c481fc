"""Derivations the benchmark reports: percentiles with sample counts,
request accounting, rate conversion and run-to-run spread.

Pure functions over plain numbers, so the tests in ``test_perfbench.py``
can check them on a tiny trace without timing anything.
"""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Sequence

import numpy as np


@dataclass(frozen=True)
class Metric:
    """One reported number: value, unit and how many samples produced it."""

    name: str
    value: float
    unit: str
    samples: int

    def line(self) -> str:
        return f"{self.name:<34} {self.value:>16.6g} {self.unit:<10} n={self.samples}"


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear interpolation; needs samples."""
    if not len(samples):
        raise ValueError("percentile of an empty sample set")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def iqr_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    The same figure the acceptance check takes over repeated runs:
    ``statistics.quantiles(values, n=4)`` first and third quartiles.
    """
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else float("inf")


@dataclass
class Accounting:
    """What happened to every request a workload sent.

    ``failed`` counts exceptions, ``shed`` refused requests, ``missing``
    requests that never came back and ``wrong`` answers that failed a
    correctness check.  Each of them is a miss for :meth:`on_time_frac`,
    whatever its latency.
    """

    sent: int = 0
    failed: int = 0
    shed: int = 0
    missing: int = 0
    wrong: int = 0

    @classmethod
    def total(cls, parts: Iterable["Accounting"]) -> "Accounting":
        parts = list(parts)
        return cls(**{f.name: sum(getattr(p, f.name) for p in parts) for f in fields(cls)})

    @property
    def misses(self) -> int:
        return self.failed + self.shed + self.missing + self.wrong

    @property
    def correct(self) -> bool:
        """No wrong or lost answer, and at least one request answered."""
        return self.wrong == 0 and self.missing == 0 and self.misses < self.sent

    @property
    def failed_frac(self) -> float:
        return self.misses / self.sent if self.sent else 1.0

    def on_time_frac(self, answered_latencies: Sequence[float], limit: float) -> float:
        """Share of *sent* requests answered correctly within ``limit``.

        ``answered_latencies`` holds one latency per correctly answered
        request; requests that failed, were shed, went missing or were wrong
        are in ``sent`` but not in it, so they count as late.
        """
        if not self.sent:
            return 0.0
        on_time = sum(1 for latency in answered_latencies if latency <= limit)
        return on_time / self.sent


def arrival_scale_for_rate(num_requests: int, trace_duration: float, rate_rps: float) -> float:
    """The ``arrival_scale`` that replays a trace at ``rate_rps`` requests/s.

    The pool releases each batch at ``arrival_time * arrival_scale`` seconds
    after the run starts, so stretching the trace's arrival span to
    ``num_requests / rate_rps`` seconds gives that mean offered rate.
    """
    if num_requests < 1 or trace_duration <= 0 or rate_rps <= 0:
        raise ValueError("need requests, a positive trace duration and a positive rate")
    return num_requests / (rate_rps * trace_duration)


def latency_metrics(prefix: str, samples_ms: Sequence[float], unit: str = "ms") -> List[Metric]:
    """``<prefix>_p50_ms`` and ``<prefix>_p95_ms`` with their sample counts."""
    n = len(samples_ms)
    return [
        Metric(f"{prefix}_p50_ms", percentile(samples_ms, 50), unit, n),
        Metric(f"{prefix}_p95_ms", percentile(samples_ms, 95), unit, n),
    ]


def cpu_seconds() -> float:
    """User + system CPU of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def as_json_metrics(metrics: Iterable[Metric]) -> Dict[str, Dict[str, object]]:
    return {m.name: {"value": m.value, "unit": m.unit} for m in metrics}
