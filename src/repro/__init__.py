"""Serpens reproduction: an HBM-based general-purpose SpMV accelerator, in Python.

This package reproduces *Serpens: A High Bandwidth Memory Based Accelerator
for General-Purpose Sparse Matrix-Vector Multiplication* (DAC 2022) as a
cycle-accurate simulator plus the full evaluation harness: sparse formats and
generators, the host-side preprocessing pipeline (segment partitioning, index
coalescing, conflict-aware non-zero reordering), the HBM memory model, the
Serpens accelerator itself, the baselines it is compared against (Sextans,
GraphLily, a Tesla K80 roofline model), and experiment runners regenerating
every table and figure of the paper's evaluation section.

Quickstart::

    import numpy as np
    from repro import SerpensAccelerator
    from repro.generators import random_uniform

    matrix = random_uniform(num_rows=2000, num_cols=2000, nnz=40_000, seed=1)
    x = np.random.default_rng(0).uniform(-1, 1, matrix.num_cols)
    accelerator = SerpensAccelerator()
    y, report = accelerator.run(matrix, x, matrix_name="demo")
    print(report.milliseconds, "ms ->", report.gflops, "GFLOP/s")
"""

from . import autotune, backends
from .autotune import CostModel, EngineRouter, MatrixFeatures, extract_features
from .backends import MatrixHandle, Session, SpMVEngine
from .formats import COOMatrix, CSCMatrix, CSRMatrix
from .metrics import ExecutionReport
from .serpens import (
    SERPENS_A16,
    SERPENS_A24,
    SerpensAccelerator,
    SerpensConfig,
)
from .serve import (
    AcceleratorPool,
    LoadTrace,
    ProgramCache,
    RequestResult,
    Scheduler,
    ServiceHandle,
    ServiceReport,
    ServiceTelemetry,
    SpMVService,
    generate_trace,
)
from .spmv import spmv

__version__ = "1.3.0"

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "ExecutionReport",
    "SerpensAccelerator",
    "SerpensConfig",
    "Session",
    "SpMVEngine",
    "MatrixHandle",
    "CostModel",
    "EngineRouter",
    "MatrixFeatures",
    "extract_features",
    "autotune",
    "backends",
    "SERPENS_A16",
    "SERPENS_A24",
    "AcceleratorPool",
    "LoadTrace",
    "ProgramCache",
    "RequestResult",
    "Scheduler",
    "ServiceHandle",
    "ServiceReport",
    "ServiceTelemetry",
    "SpMVService",
    "generate_trace",
    "spmv",
    "__version__",
]
