"""Analytic and detailed performance models for Serpens.

Three fidelity levels are available, trading accuracy for speed:

1. :func:`analytic_cycles` — the paper's closed-form Eq. (4):
   ``#Cycle = (M + K) / 16 + NNZ / (8 * HA)``.
   It assumes perfect load balance and no hazard padding, so it is a lower
   bound; the paper itself uses it only for first-order reasoning.

2. :func:`detailed_cycles` — adds the two dominant second-order effects the
   real accelerator suffers: per-lane load imbalance (a segment finishes when
   its slowest lane finishes) and read-after-write hazard padding (elements
   accumulating into the same URAM entry must be ``T`` cycles apart).  Both
   are computed with vectorised numpy from the matrix structure, so the model
   handles matrices with 100M+ non-zeros in seconds.

3. The cycle-accurate simulator (:mod:`repro.serpens.simulator`) — replays the
   preprocessed element stream slot by slot and additionally verifies the
   numerical result; intended for matrices up to a few million non-zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..formats import COOMatrix
from ..hbm import FLOATS_PER_WORD
from ..preprocess import PartitionParams, map_rows, partition_statistics
from .config import SerpensConfig

__all__ = [
    "CycleBreakdown",
    "analytic_cycles",
    "analytic_seconds",
    "estimate_hazard_slots",
    "detailed_cycles",
]

@dataclass(frozen=True)
class CycleBreakdown:
    """Cycle count split into the phases of one SpMV run.

    Attributes
    ----------
    x_stream_cycles:
        Streaming the dense x vector, one channel, 16 floats per cycle.
    y_stream_cycles:
        Streaming y-in and writing y-out (the two run in parallel).
    compute_cycles:
        PE-array issue slots spent on sparse elements, including imbalance
        and hazard padding where the model accounts for them.
    overhead_cycles:
        Fixed per-run overhead (stream pipeline fill, control).
    """

    x_stream_cycles: int
    y_stream_cycles: int
    compute_cycles: int
    overhead_cycles: int = 0

    @property
    def total(self) -> int:
        """Total cycles of the run."""
        return (
            self.x_stream_cycles
            + self.y_stream_cycles
            + self.compute_cycles
            + self.overhead_cycles
        )

    def as_dict(self) -> Dict[str, int]:
        """Phase breakdown as a dictionary (for reports and tests)."""
        return {
            "x_stream": self.x_stream_cycles,
            "y_stream": self.y_stream_cycles,
            "compute": self.compute_cycles,
            "overhead": self.overhead_cycles,
            "total": self.total,
        }


def analytic_cycles(num_rows: int, num_cols: int, nnz: int, config: SerpensConfig) -> CycleBreakdown:
    """The paper's Eq. (4) cycle count.

    ``(M + K) / 16`` covers the dense-vector streams (x takes ``K/16``, the
    parallel y-in / y-out pair takes ``M/16``); ``NNZ / (8 * HA)`` covers the
    computation with all PEs perfectly utilised.
    """
    if num_rows < 0 or num_cols < 0 or nnz < 0:
        raise ValueError("matrix dimensions and nnz must be non-negative")
    x_cycles = -(-num_cols // FLOATS_PER_WORD)
    y_cycles = -(-num_rows // FLOATS_PER_WORD)
    compute = -(-nnz // config.total_pes) if nnz else 0
    return CycleBreakdown(
        x_stream_cycles=x_cycles,
        y_stream_cycles=y_cycles,
        compute_cycles=compute,
    )


def analytic_seconds(num_rows: int, num_cols: int, nnz: int, config: SerpensConfig) -> float:
    """Eq. (4) converted to seconds at the configuration's clock."""
    return analytic_cycles(num_rows, num_cols, nnz, config).total / (config.frequency_mhz * 1e6)


def estimate_hazard_slots(matrix: COOMatrix, params: PartitionParams) -> int:
    """Lower bound on PE issue slots including RAW hazard padding.

    For one lane in one segment, a valid schedule needs at least

    ``max(lane_count, (max_entry_count - 1) * T + 1)``

    slots, where ``max_entry_count`` is the largest number of elements that
    accumulate into a single URAM entry within the segment (those elements
    must be ``T`` cycles apart, forcing padding when one entry dominates).
    The run needs, per segment, the maximum of that bound over all lanes; the
    total is the sum over segments.  This matches the greedy scheduler's
    output closely (the scheduler achieves the bound unless several hot
    entries interleave badly) at a tiny fraction of its cost.
    """
    if matrix.nnz == 0:
        return 0
    segment_idx = matrix.cols // params.segment_width
    mapping = map_rows(matrix.rows, params)
    total_pes = params.total_pes

    # Composite key per (segment, pe): used for per-lane counts.
    lane_key = segment_idx * total_pes + mapping.pe
    num_segments = int(segment_idx.max()) + 1
    lane_counts = np.bincount(lane_key, minlength=num_segments * total_pes)

    # Composite key per (segment, pe, uram entry): used for hot-entry counts.
    # URAM entries per PE are bounded by urams_per_pe * uram_depth.
    entries_per_pe = params.urams_per_pe * params.uram_depth
    entry_key = (segment_idx * total_pes + mapping.pe) * np.int64(entries_per_pe) + mapping.uram_entry
    unique_entry_keys, entry_counts = np.unique(entry_key, return_counts=True)
    # Map each unique entry back to its (segment, pe) lane to take the max.
    entry_lane = unique_entry_keys // entries_per_pe
    max_entry_per_lane = np.zeros(num_segments * total_pes, dtype=np.int64)
    np.maximum.at(max_entry_per_lane, entry_lane, entry_counts)

    hazard_bound = np.maximum(
        lane_counts,
        np.where(max_entry_per_lane > 0, (max_entry_per_lane - 1) * params.dsp_latency + 1, 0),
    )
    per_segment = hazard_bound.reshape(num_segments, total_pes).max(axis=1)
    return int(per_segment.sum())


def detailed_cycles(
    matrix: COOMatrix,
    config: SerpensConfig,
    include_hazards: bool = True,
) -> CycleBreakdown:
    """Performance model including load imbalance and hazard padding.

    Parameters
    ----------
    matrix:
        The sparse matrix (only its structure is inspected).
    config:
        Serpens configuration.
    include_hazards:
        When False, only load imbalance is modelled (useful to attribute the
        gap between the analytic model and the detailed model in ablations).
    """
    params = config.to_partition_params()
    stats = partition_statistics(matrix, params)

    x_cycles = -(-matrix.num_cols // FLOATS_PER_WORD)
    y_cycles = -(-matrix.num_rows // FLOATS_PER_WORD)

    if include_hazards and matrix.nnz:
        compute = estimate_hazard_slots(matrix, params)
    else:
        compute = stats.total_compute_slots()

    # Fixed per-run overhead: stream pipeline fill on every channel plus the
    # host-side kernel dispatch, a few microseconds at a couple hundred MHz.
    overhead = 2_000 + 64 * stats.num_segments
    return CycleBreakdown(
        x_stream_cycles=x_cycles,
        y_stream_cycles=y_cycles,
        compute_cycles=compute,
        overhead_cycles=overhead,
    )
