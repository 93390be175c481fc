"""Cycle-accurate simulator of the Serpens accelerator.

The simulator replays a preprocessed :class:`~repro.preprocess.SerpensProgram`
module by module, mirroring Figure 1 of the paper:

* ``RdX`` streams the current x segment from its HBM channel into the BRAM
  copies shared by the PEs (16 floats per cycle),
* each ``RdA`` channel streams 8 encoded sparse elements per cycle, one to
  each of its 8 PEs, which multiply against the resident x segment and
  accumulate into their private URAM buffers,
* after the last segment, ``RdY`` streams the input y vector while ``CompY``
  applies the ``alpha`` / ``beta`` scaling to the drained accumulator values
  and ``WrY`` writes the result back, 16 floats per cycle.

The simulator is functional *and* timed: it produces the numerical result
(which tests compare against the golden SpMV) and a cycle count with a phase
breakdown (which the performance evaluation uses), and it verifies along the
way that the preprocessed stream never violates the accumulation hazard
window or touches off-chip memory randomly.

Two execution modes produce that result:

* ``mode="fast"`` (default) runs a *launch plan*.  A program's first fast
  launch on a build makes one vectorised pass over its packed columnar
  streams (:meth:`~repro.preprocess.SerpensProgram.columnar`): it checks
  every address, scans the hazard window with a sorted per-URAM-entry
  issue-cycle scan, and compiles the program into a row-ordered,
  jagged-diagonal layout of (global column, fp32 value) pairs plus the
  launch's x-independent report (cycles, traffic, utilisation).  Each
  output row's elements keep their issue order; the rows are ranked by
  length, and step ``j`` holds every row's ``j``-th element contiguously.
  The plan is cached on the columnar program per simulator build, so every
  later launch gathers x once, adds each step that still has at least
  :data:`HEAD_MIN_ROWS` rows as one contiguous fp32 slice, and adds the
  short tail of the longest rows with one ``np.add.at``, which applies
  repeated indices in array order.  Every row thus sums ``0 + p0 + p1 +
  ...`` in issue order, so the numerics are bit-identical to the
  per-element model.
* ``mode="reference"`` replays every encoded element through the
  :class:`~repro.serpens.pe.ProcessingEngine` datapath model.  It is orders
  of magnitude slower and exists as the verification oracle the fast path is
  proven against (and as the only engine that can *emulate* broken hardware:
  with ``strict_hazard_check=False`` a hazardful stream needs element-by-
  element stale-read modelling, so the fast path delegates that case to it).
  Only this engine drives the PE array, so only it builds one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..formats import COOMatrix
from ..hbm import BoardMemorySystem, FLOATS_PER_WORD
from ..preprocess import (
    ColumnarProgram,
    ColumnarSegment,
    PartitionParams,
    SerpensProgram,
    build_program,
    local_to_global_row,
)
from .config import SerpensConfig
from .cycle_model import CycleBreakdown
from .pe import AccumulationHazardError, ProcessingEngine

__all__ = ["EXECUTION_MODES", "SimulationResult", "SerpensSimulator"]

#: Execution modes of :class:`SerpensSimulator`.
EXECUTION_MODES = ("fast", "reference")


@dataclass
class SimulationResult:
    """Outcome of one simulated SpMV run.

    Attributes
    ----------
    y:
        The computed output vector ``alpha * A @ x + beta * y_in``.
    cycles:
        Phase-level cycle breakdown.
    pe_utilisation:
        Mean fraction of PE issue slots carrying real elements, averaged
        over *every* PE of the array — a PE idled by load imbalance counts
        as 0, so whole idle channels drag the mean down the way they drag
        real throughput down.
    bytes_moved:
        Total off-chip traffic of the run.
    traffic_by_role:
        Bytes moved per channel role (sparse_A, dense_x, dense_y_in, ...).
    busy_pe_utilisation:
        The historical utilisation number: the mean over only the PEs that
        received at least one issue slot.
    hazard_violations:
        Accumulation-hazard violations observed in the stream (always 0 for
        a correctly reordered program; non-zero only with
        ``strict_hazard_check=False`` on ablation streams).
    """

    y: np.ndarray
    cycles: CycleBreakdown
    pe_utilisation: float
    bytes_moved: int
    traffic_by_role: Dict[str, int] = field(default_factory=dict)
    busy_pe_utilisation: float = 0.0
    hazard_violations: int = 0

    @property
    def total_cycles(self) -> int:
        """Total cycles of the run."""
        return self.cycles.total


#: A jagged-diagonal step joins the plan's head, and is added as one
#: contiguous slice, only while at least this many rows still have an element
#: at that step; shorter steps go to the ``np.add.at`` tail, whose per-element
#: cost beats a slice add's fixed cost on a few rows.
HEAD_MIN_ROWS = 256


@dataclass(frozen=True)
class _LaunchPlan:
    """A hazard-free program compiled for one simulator build.

    Every element that lands in the output is stored in jagged-diagonal
    order: the output rows (mapped through the simulator's build) are ranked
    by length, longest first, and step ``j`` holds the ``j``-th element, in
    issue order, of every row longer than ``j``, in rank order.  ``cols``
    (int32 global x columns) and ``values`` (fp32) are in that order, so
    each step is one contiguous run.

    The steps that still have at least :data:`HEAD_MIN_ROWS` rows form the
    *head*; ``head_counts`` gives their lengths.  Each adds into a
    rank-ordered fp32 accumulator as one slice, which is then scattered to
    ``head_rows``.  The remaining elements form the *tail*, added by one
    ``np.add.at`` into ``tail_rows``.  A row's tail elements come after its
    head ones, so every row still sums ``0 + p0 + p1 + ...`` in issue order,
    as the datapath does.  The plan holds 8 bytes per non-zero, 4 more per
    tail element and at most 4 per output row.  ``report`` is the launch's
    x-independent result (cycles, traffic, utilisation) with an empty ``y``.
    """

    num_rows: int
    cols: np.ndarray
    values: np.ndarray
    head_counts: Tuple[int, ...]
    head_rows: np.ndarray
    tail_rows: np.ndarray
    report: SimulationResult

    @classmethod
    def from_issue_order(
        cls,
        num_rows: int,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        report: SimulationResult,
    ) -> "_LaunchPlan":
        """Lay out elements given in issue order, dropping row ``num_rows``.

        ``rows`` are int32 output rows, with ``num_rows`` standing for every
        row CompY does not drain; a stable sort groups the elements by row,
        so each row keeps its issue order and the dropped ones sort last.
        """
        order = _stable_order(rows)
        lengths = np.bincount(rows, minlength=num_rows)[:num_rows]
        by_length = np.argsort(-lengths, kind="stable").astype(np.int32)
        # active[j]: rows longer than j, non-increasing in j.  Step j lists
        # the j-th element of each of them, in rank order, from step_start[j].
        active = num_rows - np.cumsum(np.bincount(lengths))[:-1]
        step_start = np.zeros(active.size + 1, dtype=np.int64)
        np.cumsum(active, out=step_start[1:])
        # Each plan slot's rank (its row is by_length[rank]) and step: its
        # element sits at that row's start plus the step in ``order``.
        rank = np.arange(step_start[-1], dtype=np.int32)
        rank -= np.repeat(step_start[:-1].astype(np.int32), active)
        row_start = (np.cumsum(lengths) - lengths)[by_length].astype(np.int32)
        position = np.take(row_start, rank)
        position += np.repeat(np.arange(active.size, dtype=np.int32), active)
        element = np.take(order, position)
        del order, position
        head_steps = int(np.count_nonzero(active >= HEAD_MIN_ROWS))
        tail_start = int(step_start[head_steps])
        return cls(
            num_rows=num_rows,
            cols=np.take(cols, element),
            values=np.take(values, element),
            head_counts=tuple(active[:head_steps].tolist()),
            head_rows=by_length[: int(active[0]) if head_steps else 0],
            tail_rows=np.take(by_length, rank[tail_start:]),
            report=report,
        )

    def accumulate(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` with the datapath's fp32 products and accumulation order."""
        products = np.take(x.astype(np.float32), self.cols)
        np.multiply(self.values, products, out=products)
        accumulator = np.zeros(self.num_rows, dtype=np.float32)
        start = 0
        if self.head_counts:
            head = np.zeros(self.head_counts[0], dtype=np.float32)
            for count in self.head_counts:
                head[:count] += products[start : start + count]
                start += count
            accumulator[self.head_rows] = head
        np.add.at(accumulator, self.tail_rows, products[start:])
        # repro: ignore[RPR201] fp32 accumulation is already complete; the
        # widening here is the float64 output ABI shared with the oracle.
        return accumulator.astype(np.float64)


class SerpensSimulator:
    """Replay a preprocessed program on a module-level model of Serpens.

    Parameters
    ----------
    config:
        The Serpens build to model.
    strict_hazard_check:
        When True (default) a stream violating the accumulation hazard
        window raises; when False the violation is counted and the broken
        hardware behaviour is emulated (the ablation configuration).
    mode:
        ``"fast"`` (default) runs the vectorised launch plan,
        ``"reference"`` the per-element datapath model.  Both produce
        bit-identical fp32 results, cycle breakdowns and traffic.
    """

    def __init__(
        self,
        config: SerpensConfig,
        strict_hazard_check: bool = True,
        mode: str = "fast",
    ):
        if mode not in EXECUTION_MODES:
            raise ValueError(
                f"unknown execution mode {mode!r}; use one of {EXECUTION_MODES}"
            )
        self.config = config
        self.params: PartitionParams = config.to_partition_params()
        self.strict_hazard_check = strict_hazard_check
        self.mode = mode

    # ------------------------------------------------------------------
    # Construction (on first use: a warm fast launch needs neither)
    # ------------------------------------------------------------------
    @cached_property
    def memory(self) -> BoardMemorySystem:
        """The board's channels, traffic-accounted by reference runs and plan compiles."""
        memory = BoardMemorySystem()
        memory.allocate("sparse_A", self.config.num_sparse_channels, kind="hbm")
        memory.allocate("dense_x", 1, kind="hbm")
        memory.allocate("dense_y_in", 1, kind="hbm")
        memory.allocate("dense_y_out", 1, kind="hbm")
        return memory

    @cached_property
    def pes(self) -> List[ProcessingEngine]:
        """The PE array the reference engine drives."""
        entries = self.params.urams_per_pe * self.params.uram_depth
        return [
            ProcessingEngine(
                pe_id=pe,
                num_entries=entries,
                rows_per_entry=self.params.rows_per_uram_entry,
                dsp_latency=self.params.dsp_latency,
                strict_hazard_check=self.strict_hazard_check,
            )
            for pe in range(self.params.total_pes)
        ]

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def run(
        self,
        program_or_matrix,
        x: np.ndarray,
        y_in: Optional[np.ndarray] = None,
        alpha: float = 1.0,
        beta: float = 0.0,
    ) -> SimulationResult:
        """Simulate ``y = alpha * A @ x + beta * y_in``.

        ``program_or_matrix`` may be an already preprocessed
        :class:`SerpensProgram` (preferred when the same matrix is reused
        across runs, matching how the real accelerator amortises
        preprocessing) or a raw :class:`COOMatrix`, which is preprocessed on
        the fly.
        """
        if isinstance(program_or_matrix, COOMatrix):
            program = build_program(program_or_matrix, self.params)
        elif isinstance(program_or_matrix, SerpensProgram):
            program = program_or_matrix
        else:
            raise TypeError(
                "run() expects a SerpensProgram or a COOMatrix, got "
                f"{type(program_or_matrix).__name__}"
            )
        self._check_build(program.params)

        x = np.asarray(x, dtype=np.float64)
        if x.shape != (program.num_cols,):
            raise ValueError(f"x must have length {program.num_cols}, got {x.shape}")
        if y_in is None:
            y_in = np.zeros(program.num_rows, dtype=np.float64)
        else:
            y_in = np.asarray(y_in, dtype=np.float64)
            if y_in.shape != (program.num_rows,):
                raise ValueError(f"y must have length {program.num_rows}, got {y_in.shape}")

        plan = self._launch_plan(program) if self.mode == "fast" else None
        if plan is None:
            return self._run_reference(program, x, y_in, alpha, beta)
        report = plan.report
        return replace(
            report,
            y=alpha * plan.accumulate(x) + beta * y_in,
            traffic_by_role=dict(report.traffic_by_role),
        )

    def _check_build(self, program_params: PartitionParams) -> None:
        """Reject a program that needs channels or PEs this build lacks.

        A replayed program's elements land on PE ``channel * P + lane`` with
        this build's lanes-per-channel stride ``P``
        (:meth:`_remap_program_pes`), so its last PE must exist here.  That
        also covers channels: a program with more channels than this build
        always overshoots.
        """
        own = self.params
        last_pe = (
            (program_params.num_channels - 1) * own.pes_per_channel
            + program_params.pes_per_channel
            - 1
        )
        if last_pe >= own.total_pes:
            raise ValueError(
                f"a program built for {program_params.num_channels} channels x "
                f"{program_params.pes_per_channel} PEs cannot run on "
                f"{self.config.name} ({own.num_channels} channels x "
                f"{own.pes_per_channel} PEs): its lanes reach PE {last_pe}, this "
                f"build has {own.total_pes}"
            )

    def _summarise(
        self,
        num_rows: int,
        y: np.ndarray,
        x_stream_cycles: int,
        compute_cycles: int,
        lane_slots: np.ndarray,
        lane_real: np.ndarray,
        hazard_violations: int,
    ) -> SimulationResult:
        """Phase 2 — stream y through CompY / WrY — and the run's report."""
        self.memory.allocation("dense_y_in")[0].stream_read(4 * num_rows)
        self.memory.allocation("dense_y_out")[0].stream_write(4 * num_rows)
        mean_utilisation, busy_utilisation = _utilisation_summary(lane_slots, lane_real)
        return SimulationResult(
            y=y,
            cycles=CycleBreakdown(
                x_stream_cycles=x_stream_cycles,
                y_stream_cycles=-(-num_rows // FLOATS_PER_WORD),
                compute_cycles=compute_cycles,
                overhead_cycles=0,
            ),
            pe_utilisation=mean_utilisation,
            bytes_moved=self.memory.total_bytes,
            traffic_by_role=self.memory.traffic_by_role(),
            busy_pe_utilisation=busy_utilisation,
            hazard_violations=hazard_violations,
        )

    # ------------------------------------------------------------------
    # Reference engine: one ProcessingEngine.process call per issue slot
    # ------------------------------------------------------------------
    def _run_reference(
        self,
        program: SerpensProgram,
        x: np.ndarray,
        y_in: np.ndarray,
        alpha: float,
        beta: float,
    ) -> SimulationResult:
        self.memory.reset_traffic()
        for pe in self.pes:
            pe.reset_accumulator()
        x_channel = self.memory.allocation("dense_x")[0]
        sparse_channels = self.memory.allocation("sparse_A")

        x_stream_cycles = 0
        compute_cycles = 0
        global_cycle = 0
        for segment in program.segments:
            segment_x = x[segment.col_start : segment.col_end]
            x_channel.stream_read(4 * len(segment_x))
            x_load_cycles = -(-len(segment_x) // FLOATS_PER_WORD)
            x_stream_cycles += x_load_cycles
            global_cycle += x_load_cycles

            segment_slots = 0
            for channel_segment in segment.channels:
                channel = sparse_channels[channel_segment.channel]
                # Every issue slot of every lane is stored as an 8-byte
                # element in HBM; the channel streams 8 of them per cycle.
                stored_elements = (
                    channel_segment.num_slots * self.params.pes_per_channel
                )
                channel.stream_read(8 * stored_elements)
                segment_slots = max(segment_slots, channel_segment.num_slots)

                for lane_stream in channel_segment.lanes:
                    pe_index = (
                        channel_segment.channel * self.params.pes_per_channel
                        + lane_stream.lane
                    )
                    pe = self.pes[pe_index]
                    for slot, element in enumerate(lane_stream.elements):
                        pe.process(element, segment_x, global_cycle + slot)

            compute_cycles += segment_slots
            # The accumulator pipeline drains before the next x segment is
            # swapped in, so consecutive segments can never violate the
            # hazard window across the boundary.
            global_cycle += segment_slots + self.params.dsp_latency

        accumulated = self._gather_output(program.num_rows)
        return self._summarise(
            program.num_rows,
            alpha * accumulated + beta * y_in,
            x_stream_cycles,
            compute_cycles,
            np.array([pe.cycles_busy for pe in self.pes], dtype=np.int64),
            np.array([pe.elements_processed for pe in self.pes], dtype=np.int64),
            sum(pe.hazard_violations for pe in self.pes),
        )

    def _gather_output(self, num_rows: int) -> np.ndarray:
        """Drain every PE's accumulator back into a global row vector."""
        y = np.zeros(num_rows, dtype=np.float64)
        rows_per_pe_buffer = (
            self.params.urams_per_pe
            * self.params.uram_depth
            * self.params.rows_per_uram_entry
        )
        local_rows = np.arange(rows_per_pe_buffer, dtype=np.int64)
        for pe in self.pes:
            buffer = pe.accumulator()
            global_rows = local_to_global_row(
                np.full(rows_per_pe_buffer, pe.pe_id, dtype=np.int64),
                local_rows,
                self.params,
            )
            valid = global_rows < num_rows
            y[global_rows[valid]] = buffer[valid]
        return y

    # ------------------------------------------------------------------
    # Fast engine: a launch plan compiled once per (program, build)
    # ------------------------------------------------------------------
    def _remap_program_pes(self, program_params: PartitionParams) -> Optional[np.ndarray]:
        """Program-PE → simulator-PE translation for cross-config replay.

        A program carries PE ids computed with *its own* lanes-per-channel
        stride; the reference engine re-derives the PE from (channel, lane)
        with the simulator's stride, so replaying a program on a different
        build lands elements on the PEs that build would feed.  Returns the
        per-program-PE id table, or ``None`` when the layouts match and ids
        pass through unchanged.
        """
        if (
            program_params.pes_per_channel == self.params.pes_per_channel
            and program_params.total_pes == self.params.total_pes
        ):
            return None
        program_pe = np.arange(program_params.total_pes, dtype=np.int64)
        channel = program_pe // program_params.pes_per_channel
        lane = program_pe % program_params.pes_per_channel
        return channel * self.params.pes_per_channel + lane

    def _launch_plan(self, program: SerpensProgram) -> Optional[_LaunchPlan]:
        """This build's cached plan of ``program``; ``None`` for a hazardful one.

        The plan and the validation verdict are pure functions of (program,
        simulator params), so both are cached on the columnar view and
        repeated launches skip the O(nnz) compile entirely.  A violating
        stream either raises (strict mode, which compiles again to name the
        pair) or — since broken-hardware numerics depend on element-by-element
        stale reads — gets no plan and runs on the reference engine, which
        models them.
        """
        columnar = program.columnar()
        plan = columnar.launch_plans.get(self.params)
        if plan is None and (
            self.params not in columnar.validation_cache or self.strict_hazard_check
        ):
            self._compile(program, columnar)
            plan = columnar.launch_plans.get(self.params)
        return plan

    def _compile(self, program: SerpensProgram, columnar: ColumnarProgram) -> None:
        """Validate ``program`` on this build and, when clean, cache its plan.

        One pass over the packed segments, before any launch state exists:
        every address is checked against this build, and everything a launch
        needs that does not depend on x is gathered — the traffic and cycles
        of the x and sparse streams, the per-PE issue counters, and each
        element's global output row, global column, value and issue cycle.
        A stable sort of every element by URAM entry feeds the hazard scan,
        and a stable sort by output row lists each row's elements in issue
        order for the plan.
        """
        params = self.params
        pe_remap = self._remap_program_pes(program.params)
        self.memory.reset_traffic()
        x_channel = self.memory.allocation("dense_x")[0]
        sparse_channels = self.memory.allocation("sparse_A")

        x_stream_cycles = 0
        compute_cycles = 0
        issue_cycle = 0  # the reference engine's global cycle
        lane_slots = np.zeros(params.total_pes, dtype=np.int64)
        lane_real = np.zeros(params.total_pes, dtype=np.int64)
        rows: List[np.ndarray] = []
        cols: List[np.ndarray] = []
        values: List[np.ndarray] = []
        issues: List[np.ndarray] = []
        for segment in columnar.segments:
            segment_length = segment.segment_length
            x_channel.stream_read(4 * segment_length)
            x_load_cycles = -(-segment_length // FLOATS_PER_WORD)
            x_stream_cycles += x_load_cycles
            issue_cycle += x_load_cycles
            for channel, slots in enumerate(segment.channel_slots):
                sparse_channels[channel].stream_read(
                    8 * int(slots) * params.pes_per_channel
                )
            compute_cycles += segment.compute_slots
            if pe_remap is None:
                lane_slots += segment.lane_slots
                lane_real += segment.lane_real
            else:
                np.add.at(lane_slots, pe_remap, segment.lane_slots)
                np.add.at(lane_real, pe_remap, segment.lane_real)

            if segment.value.size:
                self._check_addresses(segment, params.rows_per_pe)
                pe = segment.pe if pe_remap is None else pe_remap[segment.pe]
                # Lane-major slot order within a segment, segments in order:
                # the datapath's processing order, which a stable sort keeps.
                rows.append(local_to_global_row(pe, segment.local_row, params))
                cols.append(segment.column_offset + segment.col_start)
                values.append(segment.value)
                issues.append(segment.issue_slot + issue_cycle)
            # The accumulator pipeline drains before the next x segment.
            issue_cycle += segment.compute_slots + params.dsp_latency

        row, issue = _joined(rows, np.int32), _joined(issues, np.int32)
        col, value = _joined(cols, np.int32), _joined(values, np.float32)
        del rows, issues, cols, values
        # Within one lane, consecutive issues to an entry are always >= 1
        # slot apart, so a window of 1 cannot be violated.  Under a lane-
        # collapsing remap a later-processed lane can revisit an entry at an
        # earlier or equal cycle (diff <= 0 < window), so the scan must run.
        if row.size > 1 and (params.dsp_latency > 1 or pe_remap is not None):
            # local_to_global_row puts the rows of one PE's URAM entry at
            # global rows entry * rows_per_uram_entry + k.
            entry = row >> 1 if params.coalesce_rows else row
            by_entry = _stable_order(entry)
            violations = self._scan_hazards(
                np.take(entry, by_entry), np.take(issue, by_entry)
            )
            del entry, by_entry
            if violations:
                columnar.validation_cache[params] = violations
                return
        del issue

        report = self._summarise(
            program.num_rows,
            np.empty(0),
            x_stream_cycles,
            compute_cycles,
            lane_slots,
            lane_real,
            hazard_violations=0,
        )
        # Rows CompY does not drain all become row num_rows.
        row = np.minimum(row, program.num_rows).astype(np.int32, copy=False)
        columnar.launch_plans[params] = _LaunchPlan.from_issue_order(
            program.num_rows, row, col, value, report
        )
        columnar.validation_cache[params] = 0

    def _check_addresses(self, segment: ColumnarSegment, rows_per_pe: int) -> None:
        """Reject elements outside this build's URAM or segment ranges.

        The columnar build already validates against the *program's* own
        parameters; this re-checks against the simulator's build, which may
        be smaller when a program is replayed on a different configuration.
        """
        worst_row = int(segment.local_row.max())
        if worst_row >= rows_per_pe:
            raise IndexError(
                f"local row {worst_row} maps beyond the {rows_per_pe} rows one "
                f"PE's accumulation buffer holds in this configuration"
            )
        worst_col = int(segment.column_offset.max())
        if worst_col >= segment.segment_length:
            raise IndexError(
                f"column offset {worst_col} outside the "
                f"{segment.segment_length}-element x segment"
            )

    def _scan_hazards(self, entry: np.ndarray, issue: np.ndarray) -> int:
        """Count hazard-window violations over the whole program, vectorised.

        ``entry`` numbers each element's URAM entry (``local entry * total
        PEs + PE``) and ``issue`` gives its global issue cycle, both sorted
        *stably* by entry, so within one entry the elements stay in the
        per-element model's processing order (segment, then lane-major,
        slot-ascending).  Consecutive issue-cycle differences are then
        compared against the DSP latency — including the negative
        differences that arise when a cross-config replay collapses two
        program lanes onto one PE and a later-processed lane revisits an
        entry at an earlier cycle, exactly the pairs the reference model's
        last-issue tracking flags.  Consecutive segments are never closer
        than the window, because the pipeline drains between them.  In
        strict mode a violation raises, naming the first pair in entry order.
        """
        window = self.params.dsp_latency
        violating = entry[1:] == entry[:-1]
        violating &= (issue[1:] - issue[:-1]) < window
        count = int(np.count_nonzero(violating))
        if count and self.strict_hazard_check:
            first = int(np.argmax(violating))
            pe_entry = divmod(int(entry[first]), self.params.total_pes)
            raise AccumulationHazardError(
                f"PE {pe_entry[1]}: URAM entry {pe_entry[0]} accessed at cycles "
                f"{int(issue[first])} and {int(issue[first + 1])}, "
                f"closer than the DSP latency {window}"
            )
        return count


def _stable_order(key: np.ndarray) -> np.ndarray:
    """Positions of the non-negative ``key`` in stable ascending order.

    NumPy radix-sorts 16-bit integers, several times faster than its timsort
    of wider keys, so a key whose values fit is narrowed first.
    """
    if key.size and int(key.max()) < 1 << 16:
        key = key.astype(np.uint16)
    return np.argsort(key, kind="stable")


def _joined(parts: List[np.ndarray], dtype) -> np.ndarray:
    """Per-segment parts as one array; a lone part is used as it is."""
    if not parts:
        return np.empty(0, dtype=dtype)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _utilisation_summary(
    lane_slots: np.ndarray, lane_real: np.ndarray
) -> Tuple[float, float]:
    """Per-PE utilisation ratios reduced to (all-PE mean, busy-PE mean)."""
    slots = np.asarray(lane_slots, dtype=np.float64)
    real = np.asarray(lane_real, dtype=np.float64)
    busy = slots > 0
    ratios = np.divide(real, slots, out=np.zeros_like(real), where=busy)
    mean_all = float(np.mean(ratios)) if ratios.size else 0.0
    mean_busy = float(np.mean(ratios[busy])) if busy.any() else 0.0
    return mean_all, mean_busy
