"""Design-space exploration over Serpens builds and registered backends.

The paper's evaluation picks configurations by sweeping (Tables 7–8); this
module turns that sweep into a reusable explorer.  A design space is a list
of :class:`CandidateSpec` — Serpens channel/PE variants built through
:meth:`~repro.serpens.SerpensConfig.scaled_channels` next to every
registered backend — and the :class:`DesignSpaceExplorer` ranks them for one
matrix:

* ``"exhaustive"`` — estimate, predict (through the calibrated
  :class:`~repro.autotune.CostModel`) and measure every capable candidate;
  the winner is the candidate with the smallest *predicted* latency, and the
  measured column quantifies how good that choice was,
* ``"halving"`` — successive halving: rank by predicted latency, keep the
  best half each round, and only run the expensive measured simulation on
  the finalists.  This is the budgeted path for wide design spaces.

Candidates that cannot run the matrix (``capabilities()``) are filtered the
same way the paper's tables skip matrices Sextans cannot hold.  The
resulting :class:`TuningReport` carries per-candidate predicted vs. measured
latency, the chosen winner, and a Table-8-style channel-scaling view of the
Serpens variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..backends import (
    ENGINE_GRAPHLILY,
    ENGINE_K80,
    ENGINE_SEXTANS,
    SpMVEngine,
    available,
    resolve,
)
from ..eval.reporting import render_tuning_report
from ..formats import COOMatrix
from ..serpens import SERPENS_A16, SERPENS_A24, SerpensConfig
from .costmodel import CostModel, fit_cost_model, measure_seconds
from .features import MatrixFeatures, extract_features

__all__ = [
    "SEARCH_STRATEGIES",
    "CandidateResult",
    "CandidateSpec",
    "DesignSpaceExplorer",
    "TuningReport",
    "default_design_space",
    "serpens_channel_candidates",
    "tuned_fraction_within",
]

SEARCH_STRATEGIES = ("exhaustive", "halving")

#: Backends included in the default design space.  The CPU reference is
#: excluded because its measured wall-clock timing is host-dependent, which
#: would make tuning reports non-deterministic.
DEFAULT_BACKENDS = (ENGINE_SEXTANS, ENGINE_GRAPHLILY, ENGINE_K80)


def _scaled_frequency(num_channels: int) -> float:
    """Clock estimate for a scaled build, interpolating the published pair.

    Serpens-A16 closed timing at 223 MHz and Serpens-A24 at 270 MHz (with
    TAPA/AutoBridge floorplanning); intermediate and extrapolated channel
    counts follow the line through those two points, floored well above
    degenerate values.
    """
    a16, a24 = SERPENS_A16, SERPENS_A24
    slope = (a24.frequency_mhz - a16.frequency_mhz) / (
        a24.num_sparse_channels - a16.num_sparse_channels
    )
    frequency = a16.frequency_mhz + slope * (num_channels - a16.num_sparse_channels)
    return max(100.0, frequency)


@dataclass(frozen=True)
class CandidateSpec:
    """One point of the design space: a buildable engine specification."""

    key: str
    spec: Union[str, SerpensConfig]
    description: str = ""

    def build(self) -> SpMVEngine:
        """The candidate's engine (an engine-instance spec is returned as-is)."""
        return resolve(self.spec)

    @property
    def num_sparse_channels(self) -> Optional[int]:
        """Sparse-channel count for Serpens variants, ``None`` otherwise."""
        if isinstance(self.spec, SerpensConfig):
            return self.spec.num_sparse_channels
        return None


def serpens_channel_candidates(
    channel_counts: Sequence[int] = (8, 12, 16, 20, 24),
    base: SerpensConfig = SERPENS_A16,
) -> List[CandidateSpec]:
    """Serpens builds scaled across sparse-channel counts (the Table-8 axis)."""
    candidates = []
    for count in channel_counts:
        config = base.scaled_channels(count, frequency_mhz=_scaled_frequency(count))
        candidates.append(
            CandidateSpec(
                key=config.name.lower(),
                spec=config,
                description=(
                    f"Serpens, {count} sparse channels @ "
                    f"{config.frequency_mhz:.0f} MHz"
                ),
            )
        )
    return candidates


def default_design_space(
    channel_counts: Sequence[int] = (8, 12, 16, 20, 24),
    backends: Sequence[str] = DEFAULT_BACKENDS,
) -> List[CandidateSpec]:
    """Serpens channel variants plus the registered baseline backends."""
    candidates = serpens_channel_candidates(channel_counts)
    taken = {c.key for c in candidates}
    registered = set(available())
    for name in backends:
        if name in taken or name not in registered:
            continue
        candidates.append(
            CandidateSpec(key=name, spec=name, description=f"registry backend {name!r}")
        )
    return candidates


@dataclass
class CandidateResult:
    """One candidate's outcome for one matrix."""

    key: str
    engine_name: str
    num_sparse_channels: Optional[int]
    frequency_mhz: float
    supported: bool
    reason: Optional[str] = None
    estimated_seconds: Optional[float] = None
    predicted_seconds: Optional[float] = None
    measured_seconds: Optional[float] = None
    rounds_survived: int = 0

    def gflops(self, nnz: int, seconds: Optional[float]) -> Optional[float]:
        """Throughput implied by a latency column (2 flops per non-zero)."""
        if seconds is None or seconds <= 0:
            return None
        return 2.0 * nnz / seconds / 1e9


@dataclass
class TuningReport:
    """Everything one tuning run produced for one matrix."""

    matrix_name: str
    strategy: str
    features: MatrixFeatures
    candidates: List[CandidateResult]
    winner_key: Optional[str]
    calibrated: bool = False

    @property
    def nnz(self) -> int:
        return self.features.nnz

    def candidate(self, key: str) -> CandidateResult:
        for result in self.candidates:
            if result.key == key:
                return result
        raise KeyError(f"unknown candidate {key!r}")

    @property
    def chosen(self) -> Optional[CandidateResult]:
        return self.candidate(self.winner_key) if self.winner_key else None

    @property
    def best_measured(self) -> Optional[CandidateResult]:
        """The true winner among measured candidates, if any were measured."""
        measured = [c for c in self.candidates if c.measured_seconds is not None]
        if not measured:
            return None
        return min(measured, key=lambda c: c.measured_seconds)

    @property
    def regret(self) -> Optional[float]:
        """Relative excess of the chosen candidate over the measured best.

        0.0 means the predictor picked the true best; 0.08 means the chosen
        configuration is 8% slower than the best measured candidate.  ``None``
        when either side lacks a measurement.
        """
        chosen = self.chosen
        best = self.best_measured
        if chosen is None or best is None or chosen.measured_seconds is None:
            return None
        if best.measured_seconds <= 0:
            return 0.0
        return chosen.measured_seconds / best.measured_seconds - 1.0

    def rows(self) -> List[Dict[str, object]]:
        """Per-candidate report rows, fastest predicted first."""
        ordered = sorted(
            self.candidates,
            key=lambda c: (
                not c.supported,
                c.predicted_seconds if c.predicted_seconds is not None else math.inf,
            ),
        )
        rows = []
        for result in ordered:
            rows.append(
                {
                    "candidate": result.key,
                    "channels": result.num_sparse_channels,
                    "MHz": result.frequency_mhz,
                    "predicted_ms": (
                        result.predicted_seconds * 1e3
                        if result.predicted_seconds is not None
                        else None
                    ),
                    "measured_ms": (
                        result.measured_seconds * 1e3
                        if result.measured_seconds is not None
                        else None
                    ),
                    "GFLOP/s": result.gflops(
                        self.nnz,
                        (
                            result.measured_seconds
                            if result.measured_seconds is not None
                            else result.predicted_seconds
                        ),
                    ),
                    "chosen": result.key == self.winner_key,
                    "note": result.reason if not result.supported else None,
                }
            )
        return rows

    def channel_scaling_rows(self) -> List[Dict[str, object]]:
        """Table-8-style view of the Serpens channel variants only."""
        rows = []
        for result in sorted(
            (c for c in self.candidates if c.num_sparse_channels is not None),
            key=lambda c: c.num_sparse_channels,
        ):
            seconds = (
                result.measured_seconds
                if result.measured_seconds is not None
                else result.predicted_seconds
            )
            rows.append(
                {
                    "channels": result.num_sparse_channels,
                    "MHz": result.frequency_mhz,
                    "GFLOP/s": result.gflops(self.nnz, seconds),
                    "chosen": result.key == self.winner_key,
                }
            )
        return rows

    def render(self) -> str:
        """Human-readable report (threaded through ``eval.reporting``)."""
        return render_tuning_report(
            matrix_name=self.matrix_name,
            strategy=self.strategy,
            calibrated=self.calibrated,
            candidate_rows=self.rows(),
            channel_rows=self.channel_scaling_rows(),
            regret=self.regret,
        )


class DesignSpaceExplorer:
    """Rank a design space for individual matrices.

    Parameters
    ----------
    candidates:
        The design space; defaults to :func:`default_design_space`.
    cost_model:
        Optional calibrated predictor; without one, predictions equal the
        analytic estimates.
    strategy:
        ``"exhaustive"`` or ``"halving"`` (see module docstring).
    timing_model:
        Estimate model (``"detailed"`` / ``"analytic"``) used for the
        prediction backbone.
    finalists:
        Candidates the halving strategy still measures after the last cut.
    measure:
        Whether to run the executed measurement at all; prediction-only
        tuning (``measure=False``) is what the online router uses.
    """

    def __init__(
        self,
        candidates: Optional[Sequence[CandidateSpec]] = None,
        cost_model: Optional[CostModel] = None,
        strategy: str = "exhaustive",
        timing_model: str = "detailed",
        finalists: int = 3,
        measure: bool = True,
    ) -> None:
        if strategy not in SEARCH_STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; use one of {SEARCH_STRATEGIES}"
            )
        if finalists < 1:
            raise ValueError("finalists must be >= 1")
        self.candidates = list(
            candidates if candidates is not None else default_design_space()
        )
        if not self.candidates:
            raise ValueError("the design space needs at least one candidate")
        keys = [c.key for c in self.candidates]
        if len(set(keys)) != len(keys):
            raise ValueError("candidate keys must be unique")
        self.cost_model = cost_model
        self.strategy = strategy
        self.timing_model = timing_model
        self.finalists = finalists
        self.measure = measure
        self._engines: Dict[str, SpMVEngine] = {}
        # Executed-run measurements memoised by (candidate, matrix content),
        # so calibrating and then tuning the same suite simulates each
        # (engine, matrix) pair once.  Engines here are deterministic models
        # (the wall-clock CPU reference is excluded from the default space).
        self._measurements: Dict[Tuple[str, str], float] = {}

    # ------------------------------------------------------------------
    # Engines
    # ------------------------------------------------------------------
    def engine(self, key: str) -> SpMVEngine:
        """The (cached) engine instance behind one candidate key."""
        if key not in self._engines:
            candidate = next(c for c in self.candidates if c.key == key)
            self._engines[key] = candidate.build()
        return self._engines[key]

    def measure_candidate(
        self, key: str, matrix: COOMatrix, name: str = "matrix"
    ) -> float:
        """Measured per-launch seconds of one candidate (memoised)."""
        # Imported lazily to keep autotune -> serve a one-way, call-time
        # dependency (see EngineRouter.route).
        from ..serve.cache import matrix_fingerprint

        memo_key = (key, matrix_fingerprint(matrix))
        if memo_key not in self._measurements:
            self._measurements[memo_key] = measure_seconds(
                self.engine(key), matrix, matrix_name=name
            )
        return self._measurements[memo_key]

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def calibrate(
        self,
        matrices: Sequence[COOMatrix],
        names: Optional[Sequence[str]] = None,
        ridge: float = 1e-3,
    ) -> CostModel:
        """Fit the explorer's cost model in place against executed runs.

        Delegates to :func:`~repro.autotune.fit_cost_model`, fitting the
        residuals against this explorer's own ``timing_model`` (the same
        baseline :meth:`predict` applies corrections to) and measuring
        through the explorer's memo — so a subsequent :meth:`tune_suite`
        over the same matrices reuses every executed measurement instead of
        re-simulating.
        """
        keys = [candidate.key for candidate in self.candidates]
        engines = [self.engine(key) for key in keys]
        key_of = {id(engine): key for engine, key in zip(engines, keys)}

        def memoised_measure(engine: SpMVEngine, matrix: COOMatrix, name: str) -> float:
            return self.measure_candidate(key_of[id(engine)], matrix, name)

        self.cost_model = fit_cost_model(
            engines,
            matrices,
            matrix_names=names,
            ridge=ridge,
            model=self.cost_model or CostModel(),
            engine_keys=keys,
            timing_model=self.timing_model,
            measure_fn=memoised_measure,
        )
        return self.cost_model

    # ------------------------------------------------------------------
    # Tuning
    # ------------------------------------------------------------------
    def predict(
        self,
        matrix: COOMatrix,
        name: str = "matrix",
        features: Optional[MatrixFeatures] = None,
    ) -> List[CandidateResult]:
        """Estimate + predict every capable candidate, without measuring."""
        if features is None:
            features = extract_features(matrix)
        return self._predict_with_features(matrix, name, features)

    def _predict_with_features(
        self, matrix: COOMatrix, name: str, features: MatrixFeatures
    ) -> List[CandidateResult]:
        results = []
        for candidate in self.candidates:
            engine = self.engine(candidate.key)
            spec = engine.spec()
            capabilities = engine.capabilities(matrix)
            result = CandidateResult(
                key=candidate.key,
                engine_name=spec.name,
                num_sparse_channels=candidate.num_sparse_channels,
                frequency_mhz=spec.frequency_mhz,
                supported=capabilities.supported,
                reason=capabilities.reason,
            )
            if capabilities.supported:
                estimated = float(
                    engine.estimate(
                        matrix, matrix_name=name, model=self.timing_model
                    ).seconds
                )
                result.estimated_seconds = estimated
                if self.cost_model is not None:
                    result.predicted_seconds = self.cost_model.predict_seconds(
                        candidate.key, features, estimated
                    )
                else:
                    result.predicted_seconds = estimated
            results.append(result)
        return results

    def tune(self, matrix: COOMatrix, name: str = "matrix") -> TuningReport:
        """Explore the design space for one matrix."""
        features = extract_features(matrix)
        results = self._predict_with_features(matrix, name, features)
        supported = [r for r in results if r.supported]
        if self.strategy == "exhaustive":
            to_measure = supported
        else:
            to_measure = self._halve(supported)
        if self.measure:
            for result in to_measure:
                result.measured_seconds = self.measure_candidate(
                    result.key, matrix, name
                )
        winner = self._pick_winner(supported, to_measure)
        return TuningReport(
            matrix_name=name,
            strategy=self.strategy,
            features=features,
            candidates=results,
            winner_key=winner,
            calibrated=self.cost_model is not None
            and any(self.cost_model.is_calibrated(c.key) for c in self.candidates),
        )

    def _halve(self, supported: List[CandidateResult]) -> List[CandidateResult]:
        """Successive halving on predicted latency down to the finalists."""
        survivors = sorted(
            supported,
            key=lambda r: (
                r.predicted_seconds if r.predicted_seconds is not None else math.inf
            ),
        )
        round_index = 0
        while len(survivors) > self.finalists:
            round_index += 1
            keep = max(self.finalists, math.ceil(len(survivors) / 2))
            survivors = survivors[:keep]
            for result in survivors:
                result.rounds_survived = round_index
        return survivors

    def _pick_winner(
        self,
        supported: List[CandidateResult],
        measured: List[CandidateResult],
    ) -> Optional[str]:
        if not supported:
            return None
        if self.strategy == "halving" and self.measure and measured:
            # The finalists were measured at full fidelity; trust that.
            best = min(
                measured,
                key=lambda r: (
                    r.measured_seconds
                    if r.measured_seconds is not None
                    else math.inf
                ),
            )
            return best.key
        # Exhaustive (and prediction-only) tuning chooses on the predictor —
        # the measured column then scores the predictor's choice.
        best = min(
            supported,
            key=lambda r: (
                r.predicted_seconds if r.predicted_seconds is not None else math.inf
            ),
        )
        return best.key

    def tune_suite(
        self,
        matrices: Sequence[COOMatrix],
        names: Optional[Sequence[str]] = None,
    ) -> List[TuningReport]:
        """Tune every matrix of a suite."""
        if names is None:
            names = [f"matrix-{i}" for i in range(len(matrices))]
        if len(names) != len(matrices):
            raise ValueError("names must match matrices")
        return [self.tune(matrix, name) for matrix, name in zip(matrices, names)]


def tuned_fraction_within(
    reports: Sequence[TuningReport], tolerance: float = 0.10
) -> float:
    """Fraction of reports whose chosen config is within ``tolerance`` of the
    measured best (the acceptance metric of the autotune subsystem)."""
    scored = [r.regret for r in reports if r.regret is not None]
    if not scored:
        return 0.0
    return sum(1 for regret in scored if regret <= tolerance) / len(scored)
