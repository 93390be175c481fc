"""Request queue and dispatch policies for the serving layer.

The scheduler owns everything between ``submit`` and a device picking work
up: admission, per-matrix FIFO queues, deadline expiry and the batching
decision.  Admission always queues; a request leaves the queue only in a
batch from :meth:`Scheduler.next_batch`, or through
:meth:`Scheduler.expire` once its deadline has passed.  The virtual-time
service and the wall-clock worker pool both admit through this one rule.

Batching matters for the same reason it does on real cards: switching the
resident sparse-matrix program costs a stream-buffer reload over the host
link, so launching k same-matrix SpMVs back-to-back pays that cost once
instead of k times.

Two policies are provided:

* ``"fifo"`` — dispatch in arrival order; the batch coalesces the queued
  requests that target the same matrix as the oldest request,
* ``"sjf"`` — shortest-job-first across matrices: dispatch the queued
  matrix with the smallest estimated per-launch time (classic latency
  optimisation for mixed workloads; needs a cost oracle from the service).

``max_batch=1`` degenerates either policy into naive one-request dispatch,
which is the baseline the benchmarks compare against.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set

import numpy as np

__all__ = ["Request", "Scheduler", "SCHEDULING_POLICIES"]

SCHEDULING_POLICIES = ("fifo", "sjf")


@dataclass
class Request:
    """One queued SpMV launch request."""

    request_id: int
    tenant: str
    fingerprint: str
    x: np.ndarray
    arrival_time: float = 0.0
    y: Optional[np.ndarray] = None
    alpha: float = 1.0
    beta: float = 0.0
    seq: int = field(default=0, compare=False)
    #: Absolute virtual-time deadline; ``None`` = no latency budget.
    deadline: Optional[float] = None


class Scheduler:
    """Request queue with same-matrix batching and deadline expiry.

    Parameters
    ----------
    policy:
        ``"fifo"`` or ``"sjf"``.
    max_batch:
        Most requests coalesced into one dispatch (1 = no batching).
    tracer:
        Optional :class:`repro.obs.Tracer` (duck-typed).  When attached,
        every admission emits an ``admit`` instant on the ``scheduler``
        track at the request's arrival time, and every expiry a ``shed``
        instant carrying the reason ``deadline_expired``.
    """

    def __init__(
        self,
        policy: str = "fifo",
        max_batch: int = 32,
        tracer=None,
    ) -> None:
        if policy not in SCHEDULING_POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; use one of {SCHEDULING_POLICIES}"
            )
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.policy = policy
        self.max_batch = max_batch
        self.tracer = tracer
        self._queues: "OrderedDict[str, Deque[Request]]" = OrderedDict()
        self._depth = 0
        self._cost_fn: Optional[Callable[[str], float]] = None
        self._seq = 0
        self._sjf_fallback_warned = False
        self.admitted = 0
        #: Requests shed by :meth:`expire` past their deadline.
        self.rejected = 0
        self.dispatched = 0
        self.batches = 0
        self.peak_depth = 0
        self.sjf_fallbacks = 0
        #: Whether any admitted request carried a deadline (gates the
        #: per-event-loop-step expiry scan).
        self._has_deadlines = False
        #: Requests dispatched per matrix fingerprint — the routing-decision
        #: record telemetry joins against per-engine dispatch counts.
        self.dispatch_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Requests currently queued.

        A running count, kept by :meth:`admit`, :meth:`next_batch` and
        :meth:`expire`, so every serving-loop step reads it in O(1).
        """
        return self._depth

    def admit(self, request: Request) -> None:
        """Queue a request.

        It leaves the queue only in a batch from :meth:`next_batch`, or
        through :meth:`expire` once its deadline has passed.
        """
        request.seq = self._seq
        self._seq += 1
        if request.deadline is not None:
            self._has_deadlines = True
        self._queues.setdefault(request.fingerprint, deque()).append(request)
        self.admitted += 1
        self._depth += 1
        self.peak_depth = max(self.peak_depth, self._depth)
        self._trace_admission("admit", request)

    def expire(self, now: float) -> List[Request]:
        """Pop and return queued requests whose deadline has passed.

        Called by both clocks' serving loops before dispatch so doomed
        requests stop occupying the queue; each is counted as a
        ``deadline_expired`` shed.  Cheap when no admitted request ever
        carried a deadline.
        """
        if not self._has_deadlines:
            return []
        expired: List[Request] = []
        for fingerprint in list(self._queues):
            queue = self._queues[fingerprint]
            keep = deque(
                r for r in queue if r.deadline is None or r.deadline > now
            )
            if len(keep) != len(queue):
                expired.extend(
                    r for r in queue if r.deadline is not None and r.deadline <= now
                )
                if keep:
                    self._queues[fingerprint] = keep
                else:
                    del self._queues[fingerprint]
        self.rejected += len(expired)
        self._depth -= len(expired)
        for request in expired:
            self._trace_admission("shed", request, reason="deadline_expired")
        return expired

    def next_deadline(self) -> Optional[float]:
        """Earliest deadline among queued requests, ``None`` when none.

        The service's event loop adds this to its next-wakeup candidates so
        a doomed request expires at its deadline instead of waiting for the
        next arrival or completion to advance the clock.
        """
        if not self._has_deadlines:
            return None
        deadlines = [
            r.deadline
            for queue in self._queues.values()
            for r in queue
            if r.deadline is not None
        ]
        return min(deadlines) if deadlines else None

    def _trace_admission(
        self, outcome: str, request: Request, reason: Optional[str] = None
    ) -> None:
        if self.tracer is not None:
            extra = {} if reason is None else {"reason": reason}
            self.tracer.instant(
                outcome,
                request.arrival_time,
                track="scheduler",
                category="scheduler",
                request_id=request.request_id,
                tenant=request.tenant,
                matrix=request.fingerprint[:8],
                depth=self.depth,
                **extra,
            )

    def set_cost_fn(self, cost_fn: Callable[[str], float]) -> None:
        """Install the per-launch cost oracle the SJF policy ranks by."""
        self._cost_fn = cost_fn

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def queued_fingerprints(self) -> List[str]:
        """Fingerprints with at least one queued request."""
        return [fp for fp, q in self._queues.items() if q]

    def next_batch(
        self, runnable: Optional[Set[str]] = None
    ) -> List[Request]:
        """Pop the next batch of same-matrix requests.

        ``runnable`` restricts the choice to matrices resident on the
        device asking for work; ``None`` considers every queued matrix.
        Returns an empty list when nothing dispatchable is queued.
        """
        fingerprint = self._pick_fingerprint(runnable)
        if fingerprint is None:
            return []
        queue = self._queues[fingerprint]
        batch = [queue.popleft() for __ in range(min(self.max_batch, len(queue)))]
        if not queue:
            del self._queues[fingerprint]
        self._depth -= len(batch)
        self.dispatched += len(batch)
        self.batches += 1
        self.dispatch_counts[fingerprint] = (
            self.dispatch_counts.get(fingerprint, 0) + len(batch)
        )
        return batch

    def _pick_fingerprint(self, runnable: Optional[Set[str]]) -> Optional[str]:
        candidates = [
            (fp, queue[0])
            for fp, queue in self._queues.items()
            if queue and (runnable is None or fp in runnable)
        ]
        if not candidates:
            return None
        if self.policy == "sjf":
            if self._cost_fn is not None:
                # Shortest estimated launch first; oldest request breaks ties.
                return min(
                    candidates, key=lambda item: (self._cost_fn(item[0]), item[1].seq)
                )[0]
            # No cost oracle installed: the policy cannot rank jobs, so make
            # the FIFO fallback loud (once) and visible in stats() instead of
            # silently degrading into arrival-order dispatch.
            self.sjf_fallbacks += 1
            if not self._sjf_fallback_warned:
                self._sjf_fallback_warned = True
                warnings.warn(
                    "Scheduler(policy='sjf') is dispatching without a cost "
                    "oracle and falls back to FIFO order; install one with "
                    "set_cost_fn() to get shortest-job-first behaviour",
                    RuntimeWarning,
                    stacklevel=3,
                )
        return min(candidates, key=lambda item: item[1].seq)[0]

    def stats(self) -> Dict[str, float]:
        """Counter snapshot for telemetry."""
        stats = {
            "admitted": float(self.admitted),
            "rejected": float(self.rejected),
            "dispatched": float(self.dispatched),
            "batches": float(self.batches),
            "mean_batch_size": (
                self.dispatched / self.batches if self.batches else 0.0
            ),
            "peak_depth": float(self.peak_depth),
            "depth": float(self.depth),
            "sjf_fallbacks": float(self.sjf_fallbacks),
            "distinct_matrices": float(len(self.dispatch_counts)),
            "has_cost_oracle": 1.0 if self._cost_fn is not None else 0.0,
        }
        if self.rejected:
            stats["sheds_deadline_expired"] = float(self.rejected)
        stats["deadline_misses"] = float(self.rejected)
        return stats
