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
  issue-cycle scan, and compiles the program into issue-ordered
  (global row, global column, fp32 value) triples plus the launch's
  x-independent report (cycles, traffic, utilisation).  The plan is cached
  on the columnar program per simulator build, so every later launch is one
  fp32 multiply and one ``np.add.at`` into a ``num_rows``-long fp32
  accumulator.  ``np.add.at`` applies repeated indices in array order, which
  is each accumulator's issue order, so the numerics are bit-identical to
  the per-element model.
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


@dataclass(frozen=True)
class _LaunchPlan:
    """A hazard-free program compiled for one simulator build.

    ``rows``, ``cols`` and ``values`` hold every element that lands in the
    output, in issue order: int32 global output rows (mapped through the
    simulator's build), int32 global x columns and fp32 matrix values — at
    most 12 bytes per non-zero, since a one-segment program's values are
    the program's own array.  ``report`` is the launch's x-independent
    result (cycles, traffic, utilisation) with an empty ``y``.
    """

    num_rows: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    report: SimulationResult

    def accumulate(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` with the datapath's fp32 products and accumulation order."""
        accumulator = np.zeros(self.num_rows, dtype=np.float32)
        np.add.at(accumulator, self.rows, self.values * x.astype(np.float32)[self.cols])
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
        repeated launches skip the O(nnz log nnz) scan entirely.  A violating
        stream either raises (strict mode) or — since broken-hardware
        numerics depend on element-by-element stale reads — gets no plan and
        runs on the reference engine, which models them.
        """
        columnar = program.columnar()
        if self.params not in columnar.validation_cache:
            self._compile(program, columnar)
        plan = columnar.launch_plans.get(self.params)
        if plan is None and self.strict_hazard_check:
            pe_remap = self._remap_program_pes(program.params)
            for segment in columnar.segments:  # cold path: re-find the
                self._scan_hazards(segment, pe_remap, True)  # first pair
        return plan

    def _compile(self, program: SerpensProgram, columnar: ColumnarProgram) -> None:
        """Validate ``program`` on this build and, when clean, cache its plan.

        One pass over the packed segments, before any launch state exists:
        every address is checked against this build, hazard-window
        violations are counted, and everything a launch needs that does not
        depend on x is gathered — the traffic and cycles of the x and sparse
        streams, the per-PE issue counters, and each element's global output
        row, global column and value.
        """
        params = self.params
        pe_remap = self._remap_program_pes(program.params)
        self.memory.reset_traffic()
        x_channel = self.memory.allocation("dense_x")[0]
        sparse_channels = self.memory.allocation("sparse_A")

        violations = 0
        x_stream_cycles = 0
        compute_cycles = 0
        lane_slots = np.zeros(params.total_pes, dtype=np.int64)
        lane_real = np.zeros(params.total_pes, dtype=np.int64)
        rows: List[np.ndarray] = []
        cols: List[np.ndarray] = []
        values: List[np.ndarray] = []
        for segment in columnar.segments:
            segment_length = segment.segment_length
            x_channel.stream_read(4 * segment_length)
            x_stream_cycles += -(-segment_length // FLOATS_PER_WORD)
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

            if segment.value.size == 0:
                continue
            self._check_addresses(segment, params.rows_per_pe)
            violations += self._scan_hazards(segment, pe_remap, False)
            pe = segment.pe if pe_remap is None else pe_remap[segment.pe]
            # Lane-major slot order within a segment, segments in order: each
            # output row's elements stay in the datapath's accumulation order.
            row = local_to_global_row(pe, segment.local_row, params)
            col = segment.column_offset + segment.col_start
            value = segment.value
            kept = row < program.num_rows  # the rows CompY drains
            if not kept.all():
                row, col, value = row[kept], col[kept], value[kept]
            rows.append(row.astype(np.int32, copy=False))
            cols.append(col.astype(np.int32, copy=False))
            values.append(value)

        if not violations:
            report = self._summarise(
                program.num_rows,
                np.empty(0),
                x_stream_cycles,
                compute_cycles,
                lane_slots,
                lane_real,
                hazard_violations=0,
            )
            columnar.launch_plans[params] = _LaunchPlan(
                num_rows=program.num_rows,
                rows=_joined(rows, np.int32),
                cols=_joined(cols, np.int32),
                values=_joined(values, np.float32),
                report=report,
            )
        columnar.validation_cache[params] = violations

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

    def _scan_hazards(
        self,
        segment: ColumnarSegment,
        pe_remap: Optional[np.ndarray],
        raise_on_violation: bool,
    ) -> int:
        """Count hazard-window violations in one segment, vectorised.

        Elements are keyed by their URAM entry (per PE) and grouped with a
        *stable* sort, so within one entry they stay in the per-element
        model's processing order (lane-major, slot-ascending); consecutive
        issue-slot differences are then compared against the DSP latency —
        including the negative differences that arise when a cross-config
        replay collapses two program lanes onto one PE and a later-processed
        lane revisits an entry at an earlier cycle, exactly the pairs the
        reference model's last-issue tracking flags.  Segment boundaries need
        no special casing: the pipeline drain between segments always exceeds
        the hazard window.
        """
        window = self.params.dsp_latency
        if segment.local_row.size < 2:
            return 0
        if window <= 1 and pe_remap is None:
            # Within one lane, consecutive issues to an entry are always >= 1
            # slot apart, so a window of 1 cannot be violated.  Under a lane-
            # collapsing remap that shortcut is unsound: a later-processed
            # lane can revisit an entry at an *earlier or equal* cycle
            # (diff <= 0 < window), so the scan must run.
            return 0
        entries_per_pe = self.params.urams_per_pe * self.params.uram_depth
        entry = segment.local_row // self.params.rows_per_uram_entry
        pe = segment.pe.astype(np.int64)
        if pe_remap is not None:
            pe = pe_remap[pe]
        entry_code = pe * entries_per_pe + entry
        order = np.argsort(entry_code, kind="stable")
        sorted_code = entry_code[order]
        sorted_slot = segment.issue_slot[order].astype(np.int64)
        same_entry = sorted_code[1:] == sorted_code[:-1]
        too_close = (sorted_slot[1:] - sorted_slot[:-1]) < window
        violating = same_entry & too_close
        count = int(np.count_nonzero(violating))
        if count and raise_on_violation:
            first = int(np.argmax(violating))
            code = int(sorted_code[first])
            raise AccumulationHazardError(
                f"PE {code // entries_per_pe}: URAM entry {code % entries_per_pe} "
                f"accessed at segment-{segment.segment_index} slots "
                f"{int(sorted_slot[first])} and {int(sorted_slot[first + 1])}, "
                f"closer than the DSP latency {window}"
            )
        return count


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
