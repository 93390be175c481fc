"""Sparse matrix formats used throughout the Serpens reproduction.

The accelerator pipeline, segment partitioner included, consumes
:class:`COOMatrix` arrays; the CPU and GPU baselines consume
:class:`CSRMatrix`; :class:`CSCMatrix` is the column-major view, exported
for callers and used by no pipeline stage.  Matrix Market I/O is provided
so users with real SuiteSparse downloads can feed them straight into the
simulator.
"""

from .coo import COOMatrix
from .csr import CSRMatrix
from .csc import CSCMatrix
from .ell import ELLMatrix, HybridMatrix
from .matrix_market import MatrixMarketError, read_matrix_market, write_matrix_market

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "ELLMatrix",
    "HybridMatrix",
    "MatrixMarketError",
    "read_matrix_market",
    "write_matrix_market",
]
