"""Columnar (structure-of-arrays) view of a preprocessed program.

The object form of a :class:`~repro.preprocess.SerpensProgram` — lists of
:class:`~repro.preprocess.EncodedElement` per lane — is the right shape for
inspecting individual wire words, but replaying it element by element costs a
Python function call per encoded slot.  This module packs each segment's lane
streams into flat NumPy arrays once, so the simulator's fast path can check
the whole program with a sorted issue-cycle scan for the hazard window and
compile it into a row-ordered launch plan, whose launches are vectorised fp32
gathers, multiplies and adds.

The decode happens once per program (lazily, cached on the program object via
:meth:`SerpensProgram.columnar`), mirroring how the real deployment amortises
preprocessing across thousands of launches.

Array layout per segment
------------------------

Real (non-padding) elements are stored lane-major: all of lane 0's elements
in slot order, then lane 1's, and so on across channels.  Because every
URAM entry is owned by exactly one PE (and each PE is fed by exactly one
lane), this ordering preserves the per-accumulator accumulation order of the
per-element model, which is what makes the fast path's fp32 results
bit-identical to the reference model's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List

import numpy as np

from .params import PartitionParams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .program import SerpensProgram

__all__ = ["BUFFER_DTYPES", "ColumnarSegment", "ColumnarProgram", "build_columnar"]


@dataclass(frozen=True)
class ColumnarSegment:
    """One x segment's element streams as parallel packed arrays.

    All per-element arrays are parallel and hold only real (non-padding)
    elements in lane-major slot order; padding is accounted for by the
    per-PE / per-channel slot counters.

    Attributes
    ----------
    segment_index, col_start, col_end:
        The segment's position and x-vector column range.
    pe:
        Global PE index owning each element.
    local_row:
        Row address inside the owning PE's accumulation buffer.
    column_offset:
        Column offset within this segment (``col - col_start``).
    value:
        Matrix values pre-rounded to fp32 (the wire precision).
    issue_slot:
        Issue slot of each element within the segment, the per-segment
        cycle offset the hazard check measures distances in.
    lane_slots:
        Per-PE issue slots this segment (padding included), length
        ``total_pes``.
    lane_real:
        Per-PE real elements this segment, length ``total_pes``.
    channel_slots:
        Lock-step cycle count per sparse channel, length ``num_channels``.
    """

    segment_index: int
    col_start: int
    col_end: int
    pe: np.ndarray
    local_row: np.ndarray
    column_offset: np.ndarray
    value: np.ndarray
    issue_slot: np.ndarray
    lane_slots: np.ndarray
    lane_real: np.ndarray
    channel_slots: np.ndarray

    @property
    def segment_length(self) -> int:
        """Number of x elements covered by the segment."""
        return self.col_end - self.col_start

    @property
    def compute_slots(self) -> int:
        """Cycles the PE array spends on this segment (slowest channel)."""
        return int(self.channel_slots.max()) if self.channel_slots.size else 0

    @property
    def num_real(self) -> int:
        """Real non-zeros carried by this segment."""
        return int(self.value.size)

    @classmethod
    def from_parts(
        cls,
        segment_index: int,
        col_start: int,
        col_end: int,
        pe_parts: List[np.ndarray],
        row_parts: List[np.ndarray],
        col_parts: List[np.ndarray],
        val_parts: List[np.ndarray],
        slot_parts: List[np.ndarray],
        lane_slots: np.ndarray,
        lane_real: np.ndarray,
        channel_slots: np.ndarray,
    ) -> "ColumnarSegment":
        """Assemble one segment from per-lane (or per-channel) array chunks.

        Shared by every producer that accumulates the lane-major element
        arrays piecewise (the object-form decoder, the deserialiser), so the
        empty-segment fallbacks and dtypes live in one place.
        """
        empty_i32 = np.empty(0, dtype=np.int32)
        return cls(
            segment_index=segment_index,
            col_start=col_start,
            col_end=col_end,
            pe=np.concatenate(pe_parts) if pe_parts else empty_i32,
            local_row=np.concatenate(row_parts) if row_parts else empty_i32,
            column_offset=np.concatenate(col_parts) if col_parts else empty_i32,
            value=(
                np.concatenate(val_parts)
                if val_parts
                else np.empty(0, dtype=np.float32)
            ),
            issue_slot=np.concatenate(slot_parts) if slot_parts else empty_i32,
            lane_slots=lane_slots,
            lane_real=lane_real,
            channel_slots=channel_slots,
        )


#: Dtypes of the flat buffer export (:meth:`ColumnarProgram.to_buffers`).
#: Every per-element array is ``int32`` except ``value`` (``float32``, the
#: wire precision); every per-segment counter table is ``int64``.
BUFFER_DTYPES: Dict[str, str] = {
    "shape": "int64",
    "params": "int64",
    "segment_bounds": "int64",
    "segment_offsets": "int64",
    "channel_slots": "int64",
    "lane_slots": "int64",
    "lane_real": "int64",
    "pe": "int32",
    "local_row": "int32",
    "column_offset": "int32",
    "issue_slot": "int32",
    "value": "float32",
}


@dataclass(frozen=True)
class ColumnarProgram:
    """A fully preprocessed matrix in structure-of-arrays form.

    ``validation_cache`` memoises the simulator's hazard-scan / address-check
    verdict (total hazard violations) per simulator
    :class:`~repro.preprocess.PartitionParams`, and ``launch_plans`` the
    fast engine's launch plan of a hazard-free program per simulator params
    (int32 global columns and fp32 values grouped by output row, each row in
    issue order, laid out as jagged diagonals, plus the launch's
    x-independent report), so repeated launches of a warm program skip
    validation and pay only their numerics.  Both are bookkeeping, not
    identity, and are excluded from equality.
    """

    params: PartitionParams
    num_rows: int
    num_cols: int
    nnz: int
    segments: List[ColumnarSegment]
    validation_cache: Dict[PartitionParams, int] = field(
        default_factory=dict, compare=False, repr=False
    )
    launch_plans: Dict[PartitionParams, Any] = field(
        default_factory=dict, compare=False, repr=False
    )

    # ------------------------------------------------------------------
    # Flat buffer export (one codec for serialisation and shm transport)
    # ------------------------------------------------------------------
    def to_buffers(self) -> Dict[str, np.ndarray]:
        """Export the program as named contiguous arrays.

        The layout (dtypes in :data:`BUFFER_DTYPES`, ``S`` segments, ``C``
        channels, ``P`` total PEs, ``N`` real elements overall):

        * ``shape`` — ``int64[3]``: num_rows, num_cols, nnz,
        * ``params`` — ``int64[7]``: num_channels, pes_per_channel,
          segment_width, urams_per_pe, uram_depth, dsp_latency,
          coalesce_rows (0/1),
        * ``segment_bounds`` — ``int64[S, 2]``: each segment's
          ``(col_start, col_end)``,
        * ``segment_offsets`` — ``int64[S + 1]``: slice boundaries of each
          segment's elements inside the flat element arrays,
        * ``channel_slots`` / ``lane_slots`` / ``lane_real`` —
          ``int64[S, C]`` / ``int64[S, P]`` / ``int64[S, P]`` counter tables,
        * ``pe``, ``local_row``, ``column_offset``, ``issue_slot`` —
          ``int32[N]`` and ``value`` — ``float32[N]``: the per-element
          streams of every segment concatenated in segment order (each
          segment keeping its lane-major slot order).

        Every consumer of a serialised program — the ``.npz`` writer in
        :mod:`repro.preprocess.serialize` and the shared-memory transport in
        :mod:`repro.parallel.shm` — shares this one layout, and
        :meth:`from_buffers` reconstructs the program from zero-copy views
        of the arrays.
        """
        counts = np.array([seg.value.size for seg in self.segments], dtype=np.int64)
        offsets = np.zeros(len(self.segments) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])

        def flat(field_name: str, dtype: str) -> np.ndarray:
            parts = [getattr(seg, field_name) for seg in self.segments]
            if not parts:
                return np.empty(0, dtype=dtype)
            return np.concatenate(parts).astype(dtype, copy=False)

        params = self.params
        num_segments = len(self.segments)
        return {
            "shape": np.array([self.num_rows, self.num_cols, self.nnz], dtype=np.int64),
            "params": np.array(
                [
                    params.num_channels,
                    params.pes_per_channel,
                    params.segment_width,
                    params.urams_per_pe,
                    params.uram_depth,
                    params.dsp_latency,
                    1 if params.coalesce_rows else 0,
                ],
                dtype=np.int64,
            ),
            "segment_bounds": np.array(
                [[seg.col_start, seg.col_end] for seg in self.segments],
                dtype=np.int64,
            ).reshape(num_segments, 2),
            "segment_offsets": offsets,
            "channel_slots": np.vstack(
                [seg.channel_slots for seg in self.segments]
            ).astype(np.int64, copy=False)
            if num_segments
            else np.empty((0, params.num_channels), dtype=np.int64),
            "lane_slots": np.vstack([seg.lane_slots for seg in self.segments]).astype(
                np.int64, copy=False
            )
            if num_segments
            else np.empty((0, params.total_pes), dtype=np.int64),
            "lane_real": np.vstack([seg.lane_real for seg in self.segments]).astype(
                np.int64, copy=False
            )
            if num_segments
            else np.empty((0, params.total_pes), dtype=np.int64),
            "pe": flat("pe", "int32"),
            "local_row": flat("local_row", "int32"),
            "column_offset": flat("column_offset", "int32"),
            "issue_slot": flat("issue_slot", "int32"),
            "value": flat("value", "float32"),
        }

    @classmethod
    def from_buffers(cls, buffers: Dict[str, np.ndarray]) -> "ColumnarProgram":
        """Rebuild a program from :meth:`to_buffers` arrays.

        Per-segment element arrays are *views* (zero-copy slices) into the
        given flat arrays, so a program mapped out of shared memory never
        duplicates the element streams — the caller just has to keep the
        backing buffer alive for the program's lifetime.
        """
        missing = sorted(set(BUFFER_DTYPES) - set(buffers))
        if missing:
            raise KeyError(f"program buffers are missing arrays: {missing}")
        p = np.asarray(buffers["params"], dtype=np.int64)
        params = PartitionParams(
            num_channels=int(p[0]),
            pes_per_channel=int(p[1]),
            segment_width=int(p[2]),
            urams_per_pe=int(p[3]),
            uram_depth=int(p[4]),
            dsp_latency=int(p[5]),
            coalesce_rows=bool(p[6]),
        )
        num_rows, num_cols, nnz = (int(v) for v in buffers["shape"])
        bounds = np.asarray(buffers["segment_bounds"], dtype=np.int64).reshape(-1, 2)
        offsets = np.asarray(buffers["segment_offsets"], dtype=np.int64)
        num_segments = bounds.shape[0]
        if offsets.shape != (num_segments + 1,):
            raise ValueError(
                f"segment_offsets has shape {offsets.shape}, expected "
                f"({num_segments + 1},)"
            )
        channel_slots = np.asarray(buffers["channel_slots"], dtype=np.int64)
        lane_slots = np.asarray(buffers["lane_slots"], dtype=np.int64)
        lane_real = np.asarray(buffers["lane_real"], dtype=np.int64)
        elements = {
            name: np.asarray(buffers[name], dtype=BUFFER_DTYPES[name])
            for name in ("pe", "local_row", "column_offset", "issue_slot", "value")
        }
        segments = []
        for index in range(num_segments):
            lo, hi = int(offsets[index]), int(offsets[index + 1])
            segments.append(
                ColumnarSegment(
                    segment_index=index,
                    col_start=int(bounds[index, 0]),
                    col_end=int(bounds[index, 1]),
                    pe=elements["pe"][lo:hi],
                    local_row=elements["local_row"][lo:hi],
                    column_offset=elements["column_offset"][lo:hi],
                    value=elements["value"][lo:hi],
                    issue_slot=elements["issue_slot"][lo:hi],
                    lane_slots=lane_slots[index],
                    lane_real=lane_real[index],
                    channel_slots=channel_slots[index],
                )
            )
        return cls(
            params=params,
            num_rows=num_rows,
            num_cols=num_cols,
            nnz=nnz,
            segments=segments,
        )

    @property
    def num_segments(self) -> int:
        """Number of x segments."""
        return len(self.segments)

    @property
    def total_compute_slots(self) -> int:
        """Total PE-array cycles spent on sparse elements (incl. padding)."""
        return sum(seg.compute_slots for seg in self.segments)

    @property
    def stored_elements(self) -> int:
        """Elements stored in the accelerator-side format, padding included.

        Every slot of every lane is materialised as a 64-bit element in HBM,
        so this is ``pes_per_channel`` times the channel slot total.
        """
        return self.params.pes_per_channel * sum(
            int(seg.channel_slots.sum()) for seg in self.segments
        )


def build_columnar(program: "SerpensProgram") -> ColumnarProgram:
    """Decode a program's lane streams into packed NumPy arrays.

    Runs once per program; :meth:`SerpensProgram.columnar` caches the result
    so repeated fast-path launches never re-decode.  Raises ``IndexError``
    when an element addresses a row or column outside the ranges the
    program's own parameters allow (the same malformed streams the
    per-element model rejects).
    """
    params = program.params
    total_pes = params.total_pes
    rows_per_pe = params.rows_per_pe

    segments: List[ColumnarSegment] = []
    for seg in program.segments:
        pe_parts: List[np.ndarray] = []
        row_parts: List[np.ndarray] = []
        col_parts: List[np.ndarray] = []
        val_parts: List[np.ndarray] = []
        slot_parts: List[np.ndarray] = []
        lane_slots = np.zeros(total_pes, dtype=np.int64)
        lane_real = np.zeros(total_pes, dtype=np.int64)
        channel_slots = np.zeros(params.num_channels, dtype=np.int64)

        for channel_segment in seg.channels:
            channel_slots[channel_segment.channel] = channel_segment.num_slots
            for lane_stream in channel_segment.lanes:
                pe = (
                    channel_segment.channel * params.pes_per_channel
                    + lane_stream.lane
                )
                lane_slots[pe] = lane_stream.num_slots
                real = [
                    (slot, element)
                    for slot, element in enumerate(lane_stream.elements)
                    if not element.is_padding
                ]
                lane_real[pe] = len(real)
                if not real:
                    continue
                pe_parts.append(np.full(len(real), pe, dtype=np.int32))
                row_parts.append(
                    np.fromiter(
                        (e.local_row for __, e in real), dtype=np.int32, count=len(real)
                    )
                )
                col_parts.append(
                    np.fromiter(
                        (e.column_offset for __, e in real),
                        dtype=np.int32,
                        count=len(real),
                    )
                )
                val_parts.append(
                    np.fromiter(
                        (e.value for __, e in real), dtype=np.float32, count=len(real)
                    )
                )
                slot_parts.append(
                    np.fromiter((s for s, __ in real), dtype=np.int32, count=len(real))
                )

        columnar = ColumnarSegment.from_parts(
            segment_index=seg.segment_index,
            col_start=seg.col_start,
            col_end=seg.col_end,
            pe_parts=pe_parts,
            row_parts=row_parts,
            col_parts=col_parts,
            val_parts=val_parts,
            slot_parts=slot_parts,
            lane_slots=lane_slots,
            lane_real=lane_real,
            channel_slots=channel_slots,
        )
        if columnar.local_row.size:
            worst_row = int(columnar.local_row.max())
            if worst_row >= rows_per_pe:
                raise IndexError(
                    f"segment {seg.segment_index}: local row {worst_row} is beyond "
                    f"the {rows_per_pe} rows one PE's accumulation buffer holds"
                )
            worst_col = int(columnar.column_offset.max())
            if worst_col >= columnar.segment_length:
                raise IndexError(
                    f"segment {seg.segment_index}: column offset {worst_col} is "
                    f"outside the {columnar.segment_length}-element x segment"
                )
        segments.append(columnar)

    return ColumnarProgram(
        params=params,
        num_rows=program.num_rows,
        num_cols=program.num_cols,
        nnz=program.nnz,
        segments=segments,
    )
