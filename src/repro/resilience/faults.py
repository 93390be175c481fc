"""Declarative fault plans for the serving stack.

Failure handling is only trustworthy if it can be *exercised*: this module
turns "what can go wrong" into data — a :class:`FaultPlan` of typed
:class:`FaultSpec` entries, loadable from TOML or JSON and committed next to
the benchmarks that replay it — so a chaos run is exactly reproducible from
the plan file and a seed.

Fault kinds
-----------

``crash``
    The worker process exits hard (``os._exit``) — at a batch ordinal
    (*after* computing the batch, *before* replying: the window a naive pool
    would silently lose work in), or at a registration ordinal
    (``at_register``), which models a crash during prepare.
``hang``
    The worker sleeps ``seconds`` before replying to one batch.  With
    ``seconds`` above the pool's batch timeout this exercises the
    wedged-worker detection; below it, late replies.
``slow``
    From batch ordinal ``at_batch`` onward, every execution on the worker is
    stretched by ``factor`` (a sick-but-alive worker, the case circuit
    breakers exist for).
``shm_attach_fail``
    The ``at_register``-th registration on the worker raises, as a real
    ``shm_open`` failure on a respawned worker would.
``reply_drop``
    One batch's reply is computed and then never sent (a torn pipe), which
    the pool must treat exactly like a wedge.

Every spec may pin ``worker`` / ``at_batch`` explicitly; unset fields are
resolved deterministically from the plan seed (:meth:`FaultPlan.scheduled`),
so "one crash somewhere" is still the *same* crash on every run.

The plan is injected through ``WorkerPool(fault_plan=...)``.  Every kind
runs in a worker process, through one picklable :class:`WorkerFaultInjector`
built from the specs relevant to that worker.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..tomlsubset import load_toml

__all__ = [
    "FAULT_EXIT_CODE",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "ShmAttachFault",
    "WorkerFaultInjector",
    "load_fault_plan",
]

#: Exit code of an injected worker death, distinguishable from a real crash.
FAULT_EXIT_CODE = 13

#: Every fault kind a plan may declare.
FAULT_KINDS = ("crash", "hang", "slow", "shm_attach_fail", "reply_drop")

#: Batch-ordinal horizon used when a spec leaves ``at_batch`` unpinned and
#: the seed must choose one.
_SCHEDULE_HORIZON = 8


class ShmAttachFault(RuntimeError):
    """Raised by the injector to model a shared-memory attach failure."""


@dataclass(frozen=True)
class FaultSpec:
    """One declared fault.

    ``worker`` and the ordinal fields may be left unset; the plan resolves
    them deterministically from its seed.  For ``slow``, ``at_batch`` is the
    first affected ordinal and the slowdown *persists* from there on; every
    other batch-scoped kind fires exactly once.
    """

    kind: str
    worker: Optional[int] = None
    #: 0-based executed-batch ordinal on the worker (post-respawn ordinals
    #: restart at 0 for ``on_respawn`` specs).
    at_batch: Optional[int] = None
    #: 0-based registration ordinal (``crash`` during prepare and
    #: ``shm_attach_fail`` only).
    at_register: Optional[int] = None
    #: Hang duration (``hang`` only).
    seconds: float = 0.0
    #: Slowdown multiplier (``slow`` only).
    factor: float = 1.0
    #: Fire only in a respawned worker (generation >= 1) instead of the
    #: first incarnation — e.g. "the replacement worker's shm attach fails".
    on_respawn: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; use one of {FAULT_KINDS}"
            )
        if self.kind == "hang" and self.seconds <= 0:
            raise ValueError("hang faults need seconds > 0")
        if self.kind == "slow" and self.factor <= 0:
            raise ValueError("slow faults need factor > 0")
        if self.kind == "shm_attach_fail" and self.at_batch is not None:
            raise ValueError("shm_attach_fail faults use at_register, not at_batch")
        if self.worker is not None and self.worker < 0:
            raise ValueError("worker must be non-negative")

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"kind": self.kind}
        for key in ("worker", "at_batch", "at_register"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        if self.seconds:
            payload["seconds"] = self.seconds
        if self.factor != 1.0:
            payload["factor"] = self.factor
        if self.on_respawn:
            payload["on_respawn"] = True
        if self.name:
            payload["name"] = self.name
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object], name: str = "") -> "FaultSpec":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C401 - tiny
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown fault spec field(s) {sorted(unknown)} in {payload!r}"
            )
        merged = dict(payload)
        merged.setdefault("name", name)
        return cls(**merged)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of fault specs plus pool-tuning hints.

    ``batch_timeout`` is advice to the worker pool: chaos plans whose hangs
    must trip the wedge detector carry the timeout that makes them bite, so
    the plan file — not every invocation — pins the experiment.
    """

    name: str = "adhoc"
    seed: int = 0
    faults: Tuple[FaultSpec, ...] = ()
    batch_timeout: Optional[float] = None

    # ------------------------------------------------------------------
    # Deterministic scheduling
    # ------------------------------------------------------------------
    def scheduled(self, num_workers: int) -> Tuple[FaultSpec, ...]:
        """Every spec with ``worker`` / ordinals resolved to concrete values.

        Unpinned fields draw from ``default_rng([seed, spec_index])``, so the
        resolution depends only on (plan, num_workers) — the same fault plan
        replays identically run after run.
        """
        if num_workers < 1:
            return ()
        resolved: List[FaultSpec] = []
        for index, spec in enumerate(self.faults):
            rng = np.random.default_rng([self.seed, index])
            updates: Dict[str, object] = {}
            if spec.worker is None:
                updates["worker"] = int(rng.integers(0, num_workers))
            if spec.kind in ("crash", "hang", "slow", "reply_drop"):
                if spec.at_batch is None and spec.at_register is None:
                    updates["at_batch"] = int(rng.integers(0, _SCHEDULE_HORIZON))
            if spec.kind == "shm_attach_fail" and spec.at_register is None:
                updates["at_register"] = 0
            resolved.append(replace(spec, **updates) if updates else spec)
        return tuple(resolved)

    def faults_for_worker(
        self, worker_id: int, num_workers: int
    ) -> Tuple[FaultSpec, ...]:
        """The resolved specs one worker process must honour."""
        return tuple(
            spec for spec in self.scheduled(num_workers) if spec.worker == worker_id
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "plan": {"name": self.name, "seed": self.seed},
            "fault": {
                spec.name or f"fault-{index}": spec.to_dict()
                for index, spec in enumerate(self.faults)
            },
        }
        if self.batch_timeout is not None:
            payload["plan"]["batch_timeout"] = self.batch_timeout  # type: ignore[index]
        return payload

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "FaultPlan":
        meta = document.get("plan", {})
        if not isinstance(meta, dict):
            raise ValueError("[plan] must be a table")
        tables = document.get("fault", {})
        if not isinstance(tables, dict):
            raise ValueError("[fault.*] entries must be tables")
        faults = []
        for name in tables:
            spec = tables[name]
            if not isinstance(spec, dict):
                raise ValueError(f"[fault.{name}] must be a table")
            faults.append(FaultSpec.from_dict(spec, name=str(name)))
        timeout = meta.get("batch_timeout")
        return cls(
            name=str(meta.get("name", "adhoc")),
            seed=int(meta.get("seed", 0)),  # type: ignore[arg-type]
            faults=tuple(faults),
            batch_timeout=None if timeout is None else float(timeout),  # type: ignore[arg-type]
        )

    def describe(self) -> str:
        """One line per fault, for CLI banners and logs."""
        if not self.faults:
            return f"fault plan {self.name!r}: empty"
        lines = [f"fault plan {self.name!r} (seed {self.seed}):"]
        for spec in self.faults:
            where = "any worker" if spec.worker is None else f"worker {spec.worker}"
            detail = ""
            if spec.kind == "hang":
                detail = f" for {spec.seconds}s"
            elif spec.kind == "slow":
                detail = f" x{spec.factor}"
            at = ""
            if spec.at_register is not None:
                at = f" at register {spec.at_register}"
            elif spec.at_batch is not None:
                at = f" at batch {spec.at_batch}"
            respawn = " (on respawn)" if spec.on_respawn else ""
            lines.append(f"  - {spec.kind}{detail} on {where}{at}{respawn}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Plan loading (TOML or JSON)
# ----------------------------------------------------------------------
def load_fault_plan(path: Union[str, Path]) -> FaultPlan:
    """Load a fault plan from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no fault plan at {path}")
    if path.suffix.lower() == ".json":
        return FaultPlan.from_dict(json.loads(path.read_text()))
    return FaultPlan.from_dict(load_toml(path))


# ----------------------------------------------------------------------
# Worker-side injection
# ----------------------------------------------------------------------
@dataclass
class WorkerFaultInjector:
    """Executes one worker's share of a fault plan at its install points.

    Built (or unpickled) inside the worker process from the resolved specs
    for that worker id.  ``generation`` is the respawn count: generation-0
    specs fire only in the first incarnation, ``on_respawn`` specs only in
    replacements — so an injected crash never re-fires after recovery, and
    "the respawned worker is also sick" is expressible.

    ``observer`` is a duck-typed hook called as ``observer(spec, ordinal)``
    immediately *before* a fault fires — before the ``os._exit`` of a
    crash, before a hang's sleep — so an event log attached by the worker
    can record the injection even when the process never returns from it.
    A persistent ``slow`` notifies once (its first affected batch), not on
    every stretched execution.
    """

    specs: Tuple[FaultSpec, ...] = ()
    generation: int = 0
    #: Worker-observable injections (crashes are not observable: the process
    #: is gone before it could count).
    injected: int = 0
    #: Pre-firing hook, set post-construction by the worker (not pickled
    #: state): ``observer(spec, ordinal)``; exceptions are swallowed.
    observer: Optional[object] = field(default=None, repr=False, compare=False)
    _slow_from: Optional[int] = field(default=None, repr=False)
    _slow_factor: float = field(default=1.0, repr=False)
    _slow_notified: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        self.specs = tuple(
            spec
            for spec in self.specs
            if (self.generation >= 1) == bool(spec.on_respawn)
        )
        for spec in self.specs:
            if spec.kind == "slow" and spec.at_batch is not None:
                self._slow_from = (
                    spec.at_batch
                    if self._slow_from is None
                    else min(self._slow_from, spec.at_batch)
                )
                self._slow_factor *= spec.factor

    def _firing(self, kind: str, ordinal: int, register: bool) -> Optional[FaultSpec]:
        for spec in self.specs:
            if spec.kind != kind:
                continue
            pinned = spec.at_register if register else spec.at_batch
            if pinned == ordinal:
                return spec
        return None

    def _notify(self, spec: FaultSpec, ordinal: int) -> None:
        if self.observer is None:
            return
        try:
            self.observer(spec, ordinal)
        except Exception:  # noqa: BLE001 - observability never adds faults
            pass

    def on_register(self, ordinal: int) -> None:
        """Install point before the ``ordinal``-th registration's attach."""
        spec = self._firing("crash", ordinal, register=True)
        if spec is not None:
            self._notify(spec, ordinal)
            os._exit(FAULT_EXIT_CODE)
        spec = self._firing("shm_attach_fail", ordinal, register=True)
        if spec is not None:
            self.injected += 1
            self._notify(spec, ordinal)
            raise ShmAttachFault(
                f"injected shm attach failure at registration {ordinal}"
            )

    def execute_factor(self, ordinal: int) -> float:
        """Slowdown multiplier for the ``ordinal``-th executed batch."""
        if self._slow_from is not None and ordinal >= self._slow_from:
            self.injected += 1
            if not self._slow_notified:
                self._slow_notified = True
                for spec in self.specs:
                    if spec.kind == "slow":
                        self._notify(spec, ordinal)
            return self._slow_factor
        return 1.0

    def before_reply(self, ordinal: int) -> bool:
        """Install point between computing a batch and sending its reply.

        Returns whether the reply should be sent; may sleep (hang) or never
        return (crash).
        """
        spec = self._firing("crash", ordinal, register=False)
        if spec is not None:
            self._notify(spec, ordinal)
            os._exit(FAULT_EXIT_CODE)
        spec = self._firing("hang", ordinal, register=False)
        if spec is not None:
            self.injected += 1
            self._notify(spec, ordinal)
            time.sleep(spec.seconds)
        spec = self._firing("reply_drop", ordinal, register=False)
        if spec is not None:
            self.injected += 1
            self._notify(spec, ordinal)
            return False
        return True
