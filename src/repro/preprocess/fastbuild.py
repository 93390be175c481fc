"""Vectorized program builder: COO arrays to a packed program in NumPy.

This is the fast counterpart of the reference (per-element) preprocessing
pipeline in :mod:`repro.preprocess.program`.  The reference path builds one
Python :class:`~repro.preprocess.EncodedElement` per non-zero, schedules every
lane with a per-element heap and re-decodes the objects into arrays for the
fast simulator; this module produces the same program — bit-identically, down
to slot order, padding bubbles and reorder statistics — with array passes:

* row mapping and segment/channel/lane routing are pure index arithmetic
  (:func:`repro.preprocess.map_rows` plus one composite-key sort),
* the hazard-window scheduler reproduces
  :func:`~repro.preprocess.schedule_conflict_free`'s longest-queue-first
  greedy: only *contended* conflict keys (two or more elements in a lane) are
  stepped cycle by cycle — in lock-step across every lane of every segment
  at once — while the long tail of single-element keys is scheduled
  analytically as the sorted "parade" the greedy degenerates to, and a lane
  leaves the loop as soon as the rest of its schedule has a closed form,
* the packed :class:`~repro.preprocess.ColumnarProgram` is assembled directly
  from the scheduled arrays; the per-element object form is only materialised
  lazily if a consumer asks for it.

The scheduler equivalence argument, in brief: the greedy pops, per cycle, the
ready key with the largest remaining count (ties by smallest key).  Keys with
one element never re-enter cooldown, so among them the greedy always prefers
the smallest — a sorted parade consumed head-first.  Keys with two or more
elements ("hot" keys) are the only source of cooldown and padding, so they
are simulated exactly until their lane reaches one of two states that last:

* *quiesced* — every hot key is down to at most one element and out of its
  hazard window, so every remaining element is ready forever and the greedy
  pops them in ascending key order with no further padding;
* *locked* — the parade is spent and every key still holding elements was
  issued within the last ``window`` cycles, so releases are distinct, the
  released key is the only one ready, and each key issues its remaining
  elements at ``release, release + window, ...``.  A lane with no parade and
  at most ``window`` hot keys is locked from cycle 0, its keys issued first
  in priority order.

Small matrices mostly have lanes of the second kind, so their builds step few
or no cycles; each state is emitted in one vectorised pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ..formats import COOMatrix
from .columnar import ColumnarProgram, ColumnarSegment
from .encode import validate_packed_fields
from .mapping import check_capacity, map_rows
from .params import PartitionParams
from .partition import num_segments, segment_bounds
from .reorder import ReorderStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .program import SerpensProgram

__all__ = ["build_program_fast", "schedule_lane_issue_slots"]


def schedule_lane_issue_slots(
    lane: np.ndarray, key: np.ndarray, window: int
) -> np.ndarray:
    """Per-lane conflict-free issue slots, bit-identical to the reference.

    Parameters
    ----------
    lane:
        Integer lane id per element; lanes are scheduled independently, so
        callers fold (segment, channel, lane) into one id.
    key:
        Conflict key per element (the URAM entry).  Elements sharing a key
        within a lane are kept at least ``window`` slots apart.
    window:
        The DSP accumulation latency ``T``.

    Returns the issue slot of every element within its lane — exactly the
    slot :func:`~repro.preprocess.schedule_conflict_free` would assign when
    run on the lane's elements in storage order (padding bubbles appear as
    gaps in the returned slots).
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    lane = np.asarray(lane, dtype=np.int64)
    key = np.asarray(key, dtype=np.int64)
    n = lane.size
    issue = np.empty(n, dtype=np.int64)
    if n == 0:
        return issue
    key_floor = int(key.min())
    if key_floor < 0:
        # The priority encoding assumes non-negative keys; a uniform shift
        # preserves the greedy's (count, smallest-key) ordering exactly.
        key = key - key_floor
    if window == 1:
        # No hazard constraint: the reference keeps storage order per lane.
        order = np.argsort(lane, kind="stable")
        ls = lane[order]
        starts = np.flatnonzero(np.r_[True, ls[1:] != ls[:-1]])
        sizes = np.diff(np.r_[starts, n])
        issue[order] = np.arange(n) - np.repeat(starts, sizes)
        return issue

    order = _stable_lane_key_order(lane, key)
    gs = lane[order]
    ks = key[order]
    grp_start = _run_starts(gs, ks)
    grp_count = np.diff(np.append(grp_start, n))

    # Compact lane numbering over the lanes actually present.
    grp_lane_g = gs[grp_start]
    grp_lane = np.concatenate(([0], np.cumsum(grp_lane_g[1:] != grp_lane_g[:-1])))
    num_lanes = int(grp_lane[-1]) + 1

    issue_s = np.full(n, -1, dtype=np.int64)
    quiesce_t = np.zeros(num_lanes, dtype=np.int64)

    multi = grp_count >= 2
    if multi.any():
        quiesce_t = _simulate_contention(
            issue_s, grp_start, grp_count, grp_lane, multi, num_lanes, window
        )

    # Quiesced tail: every remaining element is the last of its key and out
    # of cooldown, so the greedy pops them consecutively in ascending key
    # order — which is exactly the (lane, key)-sorted residue of issue_s.
    tail = (issue_s == -1).nonzero()[0]
    if tail.size:
        tl = np.repeat(grp_lane, grp_count)[tail]
        tstarts = _run_starts(tl)
        tsizes = np.diff(np.append(tstarts, tail.size))
        ranks = np.arange(tail.size) - np.repeat(tstarts, tsizes)
        issue_s[tail] = quiesce_t[tl] + ranks
    issue[order] = issue_s
    return issue


def _run_starts(a: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
    """Start index of every run of equal values (equal pairs with ``b``)."""
    change = a[1:] != a[:-1]
    if b is not None:
        change |= b[1:] != b[:-1]
    return np.concatenate(([0], change.nonzero()[0] + 1))


def _stable_lane_key_order(lane: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Stable sort by (lane, key): one composite quicksort when the bits fit."""
    n = lane.size
    gb = int(lane.max()).bit_length()
    kb = int(key.max()).bit_length()
    nb = (n - 1).bit_length()
    if gb + kb + nb <= 62 and lane.min() >= 0 and key.min() >= 0:
        composite = (
            (lane << np.int64(kb + nb))
            | (key << np.int64(nb))
            | np.arange(n, dtype=np.int64)
        )
        return np.argsort(composite)
    return np.lexsort((key, lane))


def _simulate_contention(
    issue_s: np.ndarray,
    grp_start: np.ndarray,
    grp_count: np.ndarray,
    grp_lane: np.ndarray,
    multi: np.ndarray,
    num_lanes: int,
    window: int,
) -> np.ndarray:
    """Cycle-step the hot keys of every lane in lock-step.

    State lives in the compact space of lanes that own a hot key (two or
    more elements).  A hot key keeps only its priority: remaining count,
    then smallest key, with a reversed (lane, key) rank in the low bits so
    that a lane's best priority names its winner.  ``eprio`` holds
    it while the key is ready; a key issued at cycle ``t`` comes back from
    ``ring[t % window]`` at ``t + window``.  The head of each lane's sorted
    single-element "parade" competes as one extra candidate, and every
    cycle pops at most one winner per lane, exactly as the reference greedy.

    Quiesced and locked lanes (see the module docstring) persist, so they
    are looked for every ``window`` cycles and retired in one vectorised
    pass: a locked lane's remaining slots are written here, a quiesced
    lane's by the caller's tail from the returned per-lane cycle.
    """
    hot = multi.nonzero()[0]
    shift = (2 * hot.size).bit_length()
    low_mask = (1 << shift) - 1
    one = 1 << shift
    seg_start = _run_starts(grp_lane[hot])
    seg_end = np.append(seg_start[1:], hot.size)
    lanes_u = grp_lane[hot[seg_start]]
    hot_end = grp_start[hot] + grp_count[hot]
    # Hot key i ranks 2 * (H - 1 - i) + 1; a single between hot keys i - 1
    # and i ranks 2 * (H - i), so ranks fall as keys rise within a lane.
    low = 2 * (hot.size - 1 - np.arange(hot.size)) + 1
    prio = (grp_count[hot] << shift) | low
    eprio = prio.copy()  # the priority while ready, -1 while cooling down
    hot_of_low = np.zeros(2 * hot.size, dtype=np.int64)
    hot_of_low[low] = np.arange(hot.size)
    lane_release = np.zeros(lanes_u.size, dtype=np.int64)
    active = np.ones(lanes_u.size, dtype=bool)
    quiesce_t = np.zeros(num_lanes, dtype=np.int64)

    # Each hot lane's parade, in key order, then a -1 sentinel.
    head = np.full(lanes_u.size, -1, dtype=np.int64)
    single = (~multi).nonzero()[0]
    if single.size:
        hot_of_lane = np.full(num_lanes, -1, dtype=np.int64)
        hot_of_lane[lanes_u] = np.arange(lanes_u.size)
        single_hl = hot_of_lane[grp_lane[single]]
        single, single_hl = single[single_hl >= 0], single_hl[single_hl >= 0]
        at = np.arange(single.size) + single_hl
        par_len = np.bincount(single_hl, minlength=lanes_u.size) + 1
        par_ptr = np.cumsum(par_len) - par_len
        par_prio = np.full(at.size + lanes_u.size, -1, dtype=np.int64)
        par_prio[at] = one | (2 * (hot.size - np.searchsorted(hot, single)))
        par_elem = np.zeros(at.size + lanes_u.size, dtype=np.int64)
        par_elem[at] = grp_start[single]
        head = par_prio[par_ptr]

    def retire(lanes: np.ndarray, release: Optional[np.ndarray]) -> None:
        """Drop ``lanes`` from the loop; issue locked lanes' remaining keys."""
        keys = _concat_ranges(seg_start[lanes], seg_end[lanes])
        if release is not None:
            left = prio[keys] >> shift
            keys, left = keys[left > 0], left[left > 0]
            j = np.arange(int(left.sum())) - np.repeat(np.cumsum(left) - left, left)
            issue_s[np.repeat(hot_end[keys] - left, left) + j] = (
                np.repeat(release[keys], left) + window * j
            )
        prio[keys] = -1
        eprio[keys] = -1
        head[lanes] = -1
        active[lanes] = False

    # Locked from cycle 0: a lane with no parade and at most ``window`` keys
    # issues them in priority order, and none comes back before all are out.
    sizes = seg_end - seg_start
    lanes = ((sizes <= window) & (head < 0)).nonzero()[0]
    if lanes.size:
        keys = _concat_ranges(seg_start[lanes], seg_end[lanes])
        n = sizes[lanes]
        release = np.empty(hot.size, dtype=np.int64)
        release[keys[np.lexsort((-prio[keys], np.repeat(lanes, n)))]] = np.arange(
            keys.size
        ) - np.repeat(np.cumsum(n) - n, n)
        retire(lanes, release)

    ring = [hot[:0]] * window  # keys issued at t - window come back at t
    t = 0
    while True:
        slot = t % window
        if slot == 0:
            if t:
                quiet = np.maximum.reduceat(prio, seg_start) < 2 * one
                lanes = (active & quiet & (lane_release <= t)).nonzero()[0]
                if lanes.size:
                    quiesce_t[lanes_u[lanes]] = t
                    retire(lanes, None)
                ready = np.maximum.reduceat(eprio, seg_start)
                lanes = (active & (ready < 0) & (head < 0)).nonzero()[0]
                if lanes.size:
                    # Cooling keys sit in the ring by release: t, t + 1, ...
                    release = np.empty(hot.size, dtype=np.int64)
                    for d, keys in enumerate(ring):
                        release[keys] = t + d
                    retire(lanes, release)
            if not active.any():
                return quiesce_t
            parade = bool((head >= 0).any())
        back = ring[slot]
        eprio[back] = prio[back]
        best = np.maximum.reduceat(eprio, seg_start)

        wl = (best > head).nonzero()[0]
        widx = hot_of_low[best[wl] & low_mask]
        p = prio[widx]
        left = p >> shift
        issue_s[hot_end[widx] - left] = t
        prio[widx] = p - one
        eprio[widx] = -1
        again = left > 1
        ring[slot] = widx[again]
        lane_release[wl[again]] = t + window

        if parade:
            pl = (head > best).nonzero()[0]
            if pl.size:
                ptr = par_ptr[pl]
                issue_s[par_elem[ptr]] = t
                ptr += 1
                par_ptr[pl] = ptr
                head[pl] = par_prio[ptr]
        t += 1


def _concat_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``np.r_[starts[0]:ends[0], starts[1]:ends[1], ...]`` in one pass."""
    sizes = ends - starts
    return np.repeat(starts - (np.cumsum(sizes) - sizes), sizes) + np.arange(
        int(sizes.sum())
    )


def build_program_fast(matrix: COOMatrix, params: PartitionParams) -> "SerpensProgram":
    """Run the preprocessing pipeline entirely on arrays.

    Produces a :class:`~repro.preprocess.SerpensProgram` backed by its packed
    columnar form, bit-identical to ``build_program(..., "reference")`` in
    encoded words, lane schedules, padding and statistics.
    """
    from .program import SerpensProgram

    check_capacity(matrix.num_rows, params)
    segment_count = num_segments(matrix.num_cols, params)
    nnz = matrix.nnz
    total_pes = params.total_pes

    if nnz == 0:
        segments = [
            _empty_segment(s, matrix.num_cols, params) for s in range(segment_count)
        ]
        return SerpensProgram(
            params=params,
            num_rows=matrix.num_rows,
            num_cols=matrix.num_cols,
            nnz=0,
            reorder_stats=ReorderStats(0, 0, 0),
            columnar=ColumnarProgram(
                params=params,
                num_rows=matrix.num_rows,
                num_cols=matrix.num_cols,
                nnz=0,
                segments=segments,
            ),
        )

    mapping = map_rows(matrix.rows, params)
    seg_idx = matrix.cols // params.segment_width
    column_offset = matrix.cols - seg_idx * params.segment_width
    lane_id = seg_idx * total_pes + mapping.pe

    # The same range validation the reference path performs element by
    # element (EncodedElement.__post_init__ and build_columnar).
    validate_packed_fields(mapping.local_row, column_offset)
    worst_row = int(mapping.local_row.max())
    if worst_row >= params.rows_per_pe:
        raise IndexError(
            f"local row {worst_row} is beyond the {params.rows_per_pe} rows one "
            f"PE's accumulation buffer holds"
        )

    issue = schedule_lane_issue_slots(lane_id, mapping.uram_entry, params.dsp_latency)

    # Final columnar order: lane-major (pe ascending within segment), slot
    # ascending within lane.
    order = _lane_slot_order(lane_id, issue, int(issue.max()))
    sorted_lane = lane_id[order]
    issue_sorted64 = issue[order]
    seg_bounds = np.searchsorted(
        sorted_lane, np.arange(segment_count + 1, dtype=np.int64) * total_pes
    )

    # Per-lane aggregates over the dense (segment, pe) lane space: the last
    # element of each lane's sorted run carries the lane's highest slot.
    lane_space = segment_count * total_pes
    lane_real_full = np.bincount(lane_id, minlength=lane_space)
    run_end = np.r_[sorted_lane[1:] != sorted_lane[:-1], True]
    lane_last = np.full(lane_space, -1, dtype=np.int64)
    lane_last[sorted_lane[run_end]] = issue_sorted64[run_end]
    pre_align_slots = lane_last + 1  # 0 for empty lanes

    # Reorder statistics are pre-alignment, exactly as the reference
    # accumulates them lane by lane.
    total_slots = int(pre_align_slots.sum())
    stats = ReorderStats(
        num_elements=nnz, num_slots=total_slots, num_padding=total_slots - nnz
    )

    # Lock-step alignment: every lane of a channel runs as long as the
    # channel's slowest lane.
    by_channel = pre_align_slots.reshape(
        segment_count, params.num_channels, params.pes_per_channel
    )
    channel_slots = by_channel.max(axis=2)  # (segments, channels)
    lane_slots_aligned = np.repeat(
        channel_slots, params.pes_per_channel, axis=1
    )  # (segments, total_pes)

    pe_sorted = mapping.pe[order].astype(np.int32)
    row_sorted = mapping.local_row[order].astype(np.int32)
    col_sorted = column_offset[order].astype(np.int32)
    val_sorted = matrix.values[order].astype(np.float32)
    issue_sorted = issue_sorted64.astype(np.int32)

    segments: List[ColumnarSegment] = []
    for s in range(segment_count):
        lo, hi = int(seg_bounds[s]), int(seg_bounds[s + 1])
        col_start, col_end = segment_bounds(s, matrix.num_cols, params)
        segments.append(
            ColumnarSegment(
                segment_index=s,
                col_start=col_start,
                col_end=col_end,
                pe=pe_sorted[lo:hi],
                local_row=row_sorted[lo:hi],
                column_offset=col_sorted[lo:hi],
                value=val_sorted[lo:hi],
                issue_slot=issue_sorted[lo:hi],
                lane_slots=lane_slots_aligned[s].astype(np.int64),
                lane_real=lane_real_full[s * total_pes : (s + 1) * total_pes].astype(
                    np.int64
                ),
                channel_slots=channel_slots[s].astype(np.int64),
            )
        )

    columnar = ColumnarProgram(
        params=params,
        num_rows=matrix.num_rows,
        num_cols=matrix.num_cols,
        nnz=nnz,
        segments=segments,
    )
    return SerpensProgram(
        params=params,
        num_rows=matrix.num_rows,
        num_cols=matrix.num_cols,
        nnz=nnz,
        reorder_stats=stats,
        columnar=columnar,
    )


def _lane_slot_order(
    lane_id: np.ndarray, issue: np.ndarray, max_slot_bound: int
) -> np.ndarray:
    """Sort elements by (lane, issue slot); slots are unique within a lane."""
    lb = int(lane_id.max()).bit_length()
    sb = max(max_slot_bound, 1).bit_length()
    if lb + sb <= 62:
        return np.argsort((lane_id << np.int64(sb)) | issue)
    return np.lexsort((issue, lane_id))


def _empty_segment(
    segment: int, num_cols: int, params: PartitionParams
) -> ColumnarSegment:
    col_start, col_end = segment_bounds(segment, num_cols, params)
    empty_i32 = np.empty(0, dtype=np.int32)
    return ColumnarSegment(
        segment_index=segment,
        col_start=col_start,
        col_end=col_end,
        pe=empty_i32,
        local_row=empty_i32,
        column_offset=empty_i32,
        value=np.empty(0, dtype=np.float32),
        issue_slot=empty_i32,
        lane_slots=np.zeros(params.total_pes, dtype=np.int64),
        lane_real=np.zeros(params.total_pes, dtype=np.int64),
        channel_slots=np.zeros(params.num_channels, dtype=np.int64),
    )
