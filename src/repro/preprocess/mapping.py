"""Row-to-PE mapping and index coalescing (paper Sections 3.3 and 3.4).

Serpens distributes output rows across ``8 * HA`` processing engines.  With
index coalescing, two values whose destination row indices are consecutive
share one 72-bit URAM entry; both rows therefore have to live in the same PE,
so the ownership unit is the *row pair*:

* ``pair        = row // 2``
* ``global PE   = pair % (8 * HA)``       (round-robin over PEs)
* ``channel     = PE // 8``,  ``lane = PE % 8``
* ``URAM entry  = pair // (8 * HA)``      (disjoint address space per PE)
* ``half        = row % 2``               (which 32-bit half of the entry)

Without coalescing (the ablation configuration) the ownership unit is the
single row and each URAM entry holds one value, halving the on-chip capacity
exactly as Eq. (3) of the paper predicts.

The mapping is pure index arithmetic — vectorised over numpy arrays — and is
inverted by :func:`local_to_global_row` when the CompY stage drains the
accumulation buffers back into the output vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import PartitionParams

__all__ = [
    "RowMapping",
    "CapacityError",
    "map_rows",
    "local_to_global_row",
    "check_capacity",
]


class CapacityError(ValueError):
    """Raised when a matrix does not fit the on-chip accumulation buffers."""


@dataclass(frozen=True)
class RowMapping:
    """Vectorised mapping of global row indices onto the PE array.

    All arrays are parallel to the row-index array passed to :func:`map_rows`.

    Attributes
    ----------
    channel:
        HBM channel index in ``[0, HA)`` owning each element.
    lane:
        PE lane within the channel in ``[0, pes_per_channel)``.
    pe:
        Global PE index ``channel * pes_per_channel + lane``.
    uram_entry:
        URAM address within the PE's accumulation buffer.
    half:
        Which half of the 72-bit entry the value occupies (always 0 when
        coalescing is disabled).
    local_row:
        The packed local row address stored in the encoded element
        (``uram_entry * 2 + half`` with coalescing, ``uram_entry`` without).
    """

    channel: np.ndarray
    lane: np.ndarray
    pe: np.ndarray
    uram_entry: np.ndarray
    half: np.ndarray
    local_row: np.ndarray


def check_capacity(num_rows: int, params: PartitionParams) -> None:
    """Validate that ``num_rows`` output rows fit on chip.

    Serpens accumulates the whole output vector on chip (output-stationary
    processing), so the row count is bounded by Eq. (3):
    ``16 * HA * U * D`` with coalescing.
    """
    if num_rows > params.max_rows:
        raise CapacityError(
            f"matrix has {num_rows} rows but the configuration can only "
            f"accumulate {params.max_rows} rows on chip "
            f"(HA={params.num_channels}, U={params.urams_per_pe}, "
            f"D={params.uram_depth}, coalescing={params.coalesce_rows})"
        )


def map_rows(rows: np.ndarray, params: PartitionParams) -> RowMapping:
    """Map global row indices to (channel, lane, URAM entry, half).

    Parameters
    ----------
    rows:
        Array of global row indices (one per non-zero element).
    params:
        Architecture parameters; ``coalesce_rows`` selects the ownership
        granularity.
    """
    rows = np.asarray(rows, dtype=np.int64)
    total_pes = params.total_pes

    if params.coalesce_rows:
        pair = rows // 2
        half = rows % 2
        pe = pair % total_pes
        uram_entry = pair // total_pes
        local_row = uram_entry * 2 + half
    else:
        pe = rows % total_pes
        uram_entry = rows // total_pes
        half = np.zeros_like(rows)
        local_row = uram_entry

    channel = pe // params.pes_per_channel
    lane = pe % params.pes_per_channel
    return RowMapping(
        channel=channel,
        lane=lane,
        pe=pe,
        uram_entry=uram_entry,
        half=half,
        local_row=local_row,
    )


def local_to_global_row(
    pe: np.ndarray,
    local_row: np.ndarray,
    params: PartitionParams,
) -> np.ndarray:
    """Invert :func:`map_rows`: recover global rows from (PE, local row).

    Used by the CompY / write-back stage of the simulator and by tests that
    assert the mapping is a bijection over the row range.  Computes in the
    inputs' integer dtype, so the simulator's int32 element streams map
    without widening; a build with more rows than int32 holds widens to
    int64.
    """
    pe = np.asarray(pe)
    local_row = np.asarray(local_row)
    if params.max_rows > np.iinfo(np.int32).max:
        pe, local_row = pe.astype(np.int64), local_row.astype(np.int64)
    total_pes = params.total_pes

    if params.coalesce_rows:
        # pair = (local_row // 2) * total_pes + pe, then 2 * pair + local_row % 2
        return (local_row >> 1) * (2 * total_pes) + (pe << 1) + (local_row & 1)
    return local_row * total_pes + pe


def rows_owned_by_pe(pe: int, num_rows: int, params: PartitionParams) -> np.ndarray:
    """All global rows assigned to one PE, in increasing order.

    Useful for draining a PE's accumulation buffer: the simulator walks the
    PE's URAM entries in address order, which corresponds to this row order.
    """
    if not 0 <= pe < params.total_pes:
        raise ValueError(f"PE index {pe} out of range")
    rows = np.arange(num_rows, dtype=np.int64)
    mapping = map_rows(rows, params)
    return rows[mapping.pe == pe]
