"""Per-matrix engine routing: fingerprint → (engine, config, predicted cost).

The serving layer historically placed matrices blindly (least-loaded or
round-robin over whatever cards exist).  The :class:`EngineRouter` closes
the loop the autotuner opens: given a matrix, it ranks the candidate engines
by *predicted* latency — analytic estimates corrected by the calibrated
:class:`~repro.autotune.CostModel` — and remembers the decision per content
fingerprint, so repeated registrations and scheduler queries are O(1).

Serving integration points:

* :meth:`EngineRouter.hint` produces the
  :class:`~repro.serve.RoutingHint` that
  :meth:`~repro.serve.AcceleratorPool.place` uses to prefer devices whose
  engine the router ranked best,
* :meth:`EngineRouter.cost_fn` is a drop-in SJF cost oracle for
  :meth:`~repro.serve.Scheduler.set_cost_fn` (eliminating the
  ``sjf_fallbacks`` warning path in the tuned configuration),
* :meth:`EngineRouter.for_pool` derives the candidate set from the distinct
  engines of an existing pool, and :meth:`EngineRouter.calibrate` fits the
  cost model in place against executed measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..formats import COOMatrix
from .costmodel import CostModel
from .features import MatrixFeatures, extract_features
from .search import CandidateSpec, DesignSpaceExplorer, default_design_space

__all__ = ["EngineRouter", "RoutingDecision", "UnroutableMatrixError"]


class UnroutableMatrixError(ValueError):
    """No candidate engine can run the matrix as a whole.

    A distinct type so callers with a fallback — the serving layer can still
    row-shard such a matrix across devices — can catch exactly this case
    without swallowing unrelated configuration errors."""


@dataclass(frozen=True)
class RoutingDecision:
    """Where one matrix should run, and why.

    ``ranking`` lists every capable candidate best-first with its predicted
    per-launch seconds; ``engine_key`` is the head of that list.
    """

    fingerprint: str
    matrix_name: str
    engine_key: str
    predicted_seconds: float
    ranking: Tuple[Tuple[str, float], ...]
    features: MatrixFeatures

    @property
    def engine_names(self) -> Tuple[str, ...]:
        """Candidate keys best-first (the placement preference order)."""
        return tuple(key for key, __ in self.ranking)


class EngineRouter:
    """Map matrices to their predicted-best engine and configuration.

    Parameters
    ----------
    candidates:
        The design space routed over; defaults to
        :func:`~repro.autotune.default_design_space`.
    cost_model:
        Optional calibrated predictor (fit one in place with
        :meth:`calibrate`); without it, routing ranks raw estimates.
    timing_model:
        Estimate model backing the predictions.
    hint_tolerance:
        Placement hints include every engine whose predicted latency is
        within this factor of the best (default 2.0), so a pool can balance
        load across near-equivalent devices; the SJF cost oracle still uses
        the single best prediction.
    """

    def __init__(
        self,
        candidates: Optional[Sequence[CandidateSpec]] = None,
        cost_model: Optional[CostModel] = None,
        timing_model: str = "detailed",
        hint_tolerance: float = 2.0,
    ) -> None:
        if hint_tolerance < 1.0:
            raise ValueError("hint_tolerance must be >= 1.0")
        self.hint_tolerance = hint_tolerance
        self._explorer = DesignSpaceExplorer(
            candidates=(
                candidates if candidates is not None else default_design_space()
            ),
            cost_model=cost_model,
            strategy="exhaustive",
            timing_model=timing_model,
            measure=False,
        )
        self._decisions: Dict[str, RoutingDecision] = {}

    @classmethod
    def for_pool(
        cls,
        pool,
        cost_model: Optional[CostModel] = None,
        timing_model: str = "detailed",
    ) -> "EngineRouter":
        """A router whose candidates are the pool's distinct device engines.

        Candidate keys are the engines' registry names, which is exactly what
        :meth:`~repro.serve.AcceleratorPool.place` matches routing hints
        against — so every routing decision is directly placeable.
        """
        engines = {}
        for device in pool.devices:
            engines.setdefault(device.engine.name, device.engine)
        candidates = [
            CandidateSpec(key=name, spec=engine, description="pooled device engine")
            for name, engine in sorted(engines.items())
        ]
        return cls(candidates=candidates, cost_model=cost_model, timing_model=timing_model)

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    @property
    def cost_model(self) -> Optional[CostModel]:
        return self._explorer.cost_model

    @property
    def candidates(self) -> List[CandidateSpec]:
        return list(self._explorer.candidates)

    def calibrate(
        self,
        matrices: Sequence[COOMatrix],
        names: Optional[Sequence[str]] = None,
        ridge: float = 1e-3,
    ) -> CostModel:
        """Fit the cost model in place against executed measurements.

        Fits are keyed by candidate key (so the fitted corrections feed the
        same predictions :meth:`route` ranks by) and run through the
        explorer's calibration path; previously cached decisions are
        invalidated because the predictor changed.
        """
        model = self._explorer.calibrate(matrices, names=names, ridge=ridge)
        self._decisions.clear()
        return model

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, matrix: COOMatrix, name: str = "matrix") -> RoutingDecision:
        """Choose (and memoise) the predicted-best engine for one matrix."""
        # Imported lazily: the serve package imports nothing from autotune at
        # module level, and keeping this import out of module scope preserves
        # that one-way layering.
        from ..serve.cache import matrix_fingerprint

        fingerprint = matrix_fingerprint(matrix)
        cached = self._decisions.get(fingerprint)
        if cached is not None:
            return cached

        features = extract_features(matrix)
        results = self._explorer.predict(matrix, name=name, features=features)
        ranked = sorted(
            (
                (r.key, float(r.predicted_seconds))
                for r in results
                if r.supported and r.predicted_seconds is not None
            ),
            key=lambda item: item[1],
        )
        if not ranked:
            reasons = "; ".join(
                f"{r.key}: {r.reason}" for r in results if not r.supported
            )
            raise UnroutableMatrixError(
                f"no routing candidate supports matrix {name!r} "
                f"({matrix.num_rows}x{matrix.num_cols}): {reasons}"
            )
        decision = RoutingDecision(
            fingerprint=fingerprint,
            matrix_name=name,
            engine_key=ranked[0][0],
            predicted_seconds=ranked[0][1],
            ranking=tuple(ranked),
            features=features,
        )
        self._decisions[fingerprint] = decision
        return decision

    def decision(self, fingerprint: str) -> Optional[RoutingDecision]:
        """The memoised decision for a fingerprint, if routed already."""
        return self._decisions.get(fingerprint)

    def predicted_seconds(self, fingerprint: str) -> float:
        """Predicted per-launch seconds for a routed fingerprint (inf if not)."""
        decision = self._decisions.get(fingerprint)
        return decision.predicted_seconds if decision is not None else float("inf")

    def cost_fn(self) -> Callable[[str], float]:
        """A fingerprint → seconds oracle for ``Scheduler.set_cost_fn``."""
        return self.predicted_seconds

    def hint(self, fingerprint: str):
        """The placement hint for a routed fingerprint (``None`` if unknown).

        The hint names every candidate predicted within ``hint_tolerance``
        of the best, best-first, so placement can spread load over
        near-equivalent devices while still excluding clearly slower ones.
        """
        from ..serve.pool import RoutingHint

        decision = self._decisions.get(fingerprint)
        if decision is None:
            return None
        cutoff = decision.predicted_seconds * self.hint_tolerance
        names = tuple(
            key for key, seconds in decision.ranking if seconds <= cutoff
        )
        return RoutingHint(
            engine_names=names or decision.engine_names[:1],
            predicted_seconds=decision.predicted_seconds,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Routing counters: total routes and per-engine chosen counts."""
        stats: Dict[str, float] = {"routed_matrices": float(len(self._decisions))}
        for decision in self._decisions.values():
            key = f"routed_to_{decision.engine_key}"
            stats[key] = stats.get(key, 0.0) + 1.0
        return stats

    def publish(self, registry) -> None:
        """Publish routing decisions into a metrics registry.

        ``registry`` is a :class:`repro.obs.MetricsRegistry` (duck-typed):
        a ``router_routed_matrices`` gauge plus one labelled
        ``router_decisions`` gauge per chosen engine, so routing skew is
        queryable next to the serving metrics.
        """
        registry.gauge(
            "router_routed_matrices", "matrices with a memoised routing decision"
        ).set(float(len(self._decisions)))
        per_engine: Dict[str, float] = {}
        for decision in self._decisions.values():
            per_engine[decision.engine_key] = per_engine.get(decision.engine_key, 0.0) + 1
        decisions = registry.gauge(
            "router_decisions", "routing decisions per chosen engine"
        )
        for engine_key, count in per_engine.items():
            decisions.set(count, engine=engine_key)
