"""Adapter engines wrapping the Serpens simulator and every baseline model.

Each adapter folds one pre-existing entry point behind the
:class:`~repro.backends.SpMVEngine` contract:

* :class:`SerpensEngine` — the cycle-accurate simulator
  (:class:`~repro.serpens.SerpensAccelerator`); ``execute`` runs the real
  datapath, ``estimate`` the detailed/analytic cycle model.
* :class:`SextansEngine`, :class:`GraphLilyEngine`, :class:`K80Engine` —
  the analytic baselines.  Their timing is modelled, so ``execute`` returns
  the golden-kernel numerics together with the modelled report ("reference
  numerics, modelled clock").
* :class:`CPUEngine` — the numpy CSR reference, which actually executes and
  reports measured wall-clock time.

The module registers all of them (plus convenience aliases) on import, so
``backends.available()`` always lists the paper's full Table 2 line-up.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

import numpy as np

from ..baselines import CPUReference, GraphLilyModel, K80Model, SextansModel
from ..formats import COOMatrix, CSRMatrix
from ..metrics import (
    GRAPHLILY_POWER,
    K80_POWER,
    SERPENS_POWER,
    SEXTANS_POWER,
    ExecutionReport,
)
from ..preprocess import PartitionParams
from ..serpens import SERPENS_A16, SERPENS_A24, SerpensAccelerator, SerpensConfig
from . import names
from .base import EngineSpec, PreparedMatrix, SpMVEngine, SpMVResult
from .registry import register

__all__ = [
    "CPUEngine",
    "GraphLilyEngine",
    "K80Engine",
    "SerpensEngine",
    "SextansEngine",
]


class SerpensEngine(SpMVEngine):
    """The cycle-accurate Serpens simulator behind the engine contract.

    ``mode`` selects the simulator execution engine and ``build_mode`` the
    program builder ``prepare`` runs: ``"fast"`` (default, vectorised) or
    ``"reference"`` (per-element oracle) for either; see
    :data:`repro.serpens.EXECUTION_MODES` and
    :data:`repro.preprocess.BUILD_MODES`.
    """

    def __init__(
        self,
        config: SerpensConfig = SERPENS_A16,
        mode: str = "fast",
        build_mode: str = "fast",
    ):
        self.config = config
        self.mode = mode
        self.build_mode = build_mode
        self.accelerator = SerpensAccelerator(config, mode=mode, build_mode=build_mode)
        self.name = config.name.lower()

    def spec(self) -> EngineSpec:
        return EngineSpec(
            name=self.config.name,
            frequency_mhz=self.config.frequency_mhz,
            bandwidth_gbps=self.config.utilized_bandwidth_gbps,
            bandwidth_kind="utilized",
            power_watts=SERPENS_POWER.measured(),
        )

    @property
    def max_rows(self) -> Optional[int]:
        return self.config.max_rows

    def build_payload(self, matrix: COOMatrix) -> Any:
        return self.accelerator.preprocess(matrix)

    def execute(
        self,
        prepared: PreparedMatrix,
        x: np.ndarray,
        y: Optional[np.ndarray] = None,
        alpha: float = 1.0,
        beta: float = 0.0,
    ) -> SpMVResult:
        y_out, report = self.accelerator.run(
            prepared.matrix,
            x,
            y,
            alpha,
            beta,
            program=prepared.payload,
            matrix_name=prepared.name,
        )
        return SpMVResult(y=y_out, report=report)

    def estimate(
        self,
        matrix: COOMatrix,
        matrix_name: str = "matrix",
        model: str = "detailed",
    ) -> ExecutionReport:
        return self.accelerator.estimate(matrix, matrix_name, model=model)

    def cache_params(self) -> Optional[PartitionParams]:
        return self.config.to_partition_params()

    def program_key(self, fingerprint: str) -> str:
        # The bare-fingerprint disk layout: one file per matrix, whatever
        # the build; the cache's params check disambiguates builds.
        return fingerprint


@dataclass
class _ModelPayload:
    """Prepared artefact of a model-timed engine.

    The CSR view feeds the golden-kernel numerics; the report template is
    the (matrix-dependent, launch-independent) modelled timing, computed once
    per matrix instead of per launch.
    """

    csr: CSRMatrix
    report: ExecutionReport

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    @property
    def num_rows(self) -> int:
        return self.csr.num_rows


class _ModelTimedEngine(SpMVEngine):
    """Shared behaviour of the analytic baselines.

    Timing comes from the wrapped performance model; numerics come from the
    exact CSR kernel, so these engines still drive solvers end-to-end.
    """

    @property
    def config(self):
        """The wrapped model's design-parameter dataclass."""
        return self.model.config

    def build_payload(self, matrix: COOMatrix) -> Any:
        return _ModelPayload(
            csr=CSRMatrix.from_coo(matrix),
            report=self.estimate(matrix),
        )

    def execute(
        self,
        prepared: PreparedMatrix,
        x: np.ndarray,
        y: Optional[np.ndarray] = None,
        alpha: float = 1.0,
        beta: float = 0.0,
    ) -> SpMVResult:
        payload: _ModelPayload = prepared.payload
        y_out = alpha * payload.csr.matvec(np.asarray(x, dtype=np.float64))
        if y is not None and beta != 0.0:
            y_out = y_out + beta * np.asarray(y, dtype=np.float64)
        report = replace(payload.report, matrix_name=prepared.name)
        return SpMVResult(y=y_out, report=report)


class SextansEngine(_ModelTimedEngine):
    """The Sextans SpMM accelerator running SpMV (FPGA'22 baseline)."""

    name = "sextans"

    def __init__(self, model: Optional[SextansModel] = None):
        self.model = model if model is not None else SextansModel()

    def spec(self) -> EngineSpec:
        return EngineSpec(
            name=self.model.config.name,
            frequency_mhz=self.model.config.frequency_mhz,
            bandwidth_gbps=self.model.config.utilized_bandwidth_gbps,
            bandwidth_kind="utilized",
            power_watts=SEXTANS_POWER.measured(),
        )

    @property
    def max_rows(self) -> Optional[int]:
        return self.model.config.max_output_rows

    def estimate(
        self,
        matrix: COOMatrix,
        matrix_name: str = "matrix",
        model: str = "detailed",
    ) -> ExecutionReport:
        return self.model.run_spmv(matrix, matrix_name)


class GraphLilyEngine(_ModelTimedEngine):
    """The GraphLily graph-linear-algebra overlay (ICCAD'21 baseline)."""

    name = "graphlily"

    def __init__(self, model: Optional[GraphLilyModel] = None):
        self.model = model if model is not None else GraphLilyModel()

    def spec(self) -> EngineSpec:
        return EngineSpec(
            name=self.model.config.name,
            frequency_mhz=self.model.config.frequency_mhz,
            bandwidth_gbps=self.model.config.utilized_bandwidth_gbps,
            bandwidth_kind="utilized",
            power_watts=GRAPHLILY_POWER.measured(),
        )

    def estimate(
        self,
        matrix: COOMatrix,
        matrix_name: str = "matrix",
        model: str = "detailed",
    ) -> ExecutionReport:
        return self.model.run_spmv(matrix, matrix_name)


class K80Engine(_ModelTimedEngine):
    """The cuSPARSE-on-Tesla-K80 roofline model (the paper's GPU baseline)."""

    name = "k80"

    def __init__(self, model: Optional[K80Model] = None):
        self.model = model if model is not None else K80Model()

    def spec(self) -> EngineSpec:
        return EngineSpec(
            name="Tesla K80",
            frequency_mhz=self.model.config.frequency_mhz,
            bandwidth_gbps=self.model.config.board_bandwidth_gbps,
            bandwidth_kind="maximum",
            power_watts=K80_POWER.measured(),
        )

    def estimate(
        self,
        matrix: COOMatrix,
        matrix_name: str = "matrix",
        model: str = "detailed",
    ) -> ExecutionReport:
        return self.model.run_spmv(matrix, matrix_name)


class CPUEngine(SpMVEngine):
    """The numpy CSR reference: measured wall-clock, exact numerics."""

    name = "cpu"

    def __init__(self, reference: Optional[CPUReference] = None):
        self.reference = reference if reference is not None else CPUReference()

    @property
    def config(self):
        """The reference executor doubles as its own configuration record."""
        return self.reference

    def spec(self) -> EngineSpec:
        # The CPU reference reports measured seconds directly, so its nominal
        # frequency is the 1 MHz placeholder its reports carry.
        return EngineSpec(
            name=self.reference.name,
            frequency_mhz=1.0,
            bandwidth_gbps=self.reference.memory_bandwidth_gbps,
            bandwidth_kind="maximum",
            power_watts=self.reference.power_watts,
        )

    def build_payload(self, matrix: COOMatrix) -> Any:
        return CSRMatrix.from_coo(matrix)

    def execute(
        self,
        prepared: PreparedMatrix,
        x: np.ndarray,
        y: Optional[np.ndarray] = None,
        alpha: float = 1.0,
        beta: float = 0.0,
    ) -> SpMVResult:
        y_out, report = self.reference.run_spmv(
            prepared.payload, x, y, alpha, beta, matrix_name=prepared.name, repeats=1
        )
        return SpMVResult(y=y_out, report=report)

    def estimate(
        self,
        matrix: COOMatrix,
        matrix_name: str = "matrix",
        model: str = "detailed",
    ) -> ExecutionReport:
        __, report = self.reference.run_spmv(matrix, matrix_name=matrix_name)
        return report


def _a24_engine(
    config: SerpensConfig = SERPENS_A24, mode: str = "fast", build_mode: str = "fast"
) -> SerpensEngine:
    return SerpensEngine(config, mode=mode, build_mode=build_mode)


#: (name, factory, description, aliases) of every built-in engine.
BUILTIN_ENGINES = (
    (
        names.ENGINE_SERPENS_A16,
        SerpensEngine,
        "Cycle-accurate Serpens simulator, 16 sparse HBM channels (223 MHz)",
        ("serpens",),
    ),
    (
        names.ENGINE_SERPENS_A24,
        _a24_engine,
        "Cycle-accurate Serpens simulator, 24 sparse HBM channels (270 MHz)",
        (),
    ),
    (
        names.ENGINE_SEXTANS,
        SextansEngine,
        "Sextans SpMM accelerator in SpMV mode (analytic timing)",
        (),
    ),
    (
        names.ENGINE_GRAPHLILY,
        GraphLilyEngine,
        "GraphLily graph-linear-algebra overlay (analytic timing)",
        (),
    ),
    (
        names.ENGINE_K80,
        K80Engine,
        "cuSPARSE csrmv roofline on an Nvidia Tesla K80",
        ("tesla-k80",),
    ),
    (
        names.ENGINE_CPU,
        CPUEngine,
        "Numpy CSR reference on the host CPU (measured timing)",
        ("cpu-numpy",),
    ),
)


def register_builtin_engines() -> None:
    """Register the paper's Table-2 line-up plus the CPU reference.

    Idempotent: calling it again (e.g. from a test that pruned the registry)
    only fills in whatever is missing.
    """
    from .registry import available

    registered = set(available())
    for name, factory, description, aliases in BUILTIN_ENGINES:
        if name not in registered:
            register(name, factory, description=description, aliases=aliases)
