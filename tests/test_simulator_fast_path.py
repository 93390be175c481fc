"""Fast-path / reference equivalence tests for the Serpens simulator.

The fast columnar engine is only trustworthy if it is *indistinguishable*
from the per-element reference model: bit-identical fp32 numerics, identical
cycle breakdowns and off-chip traffic, identical utilisation statistics, and
identical hazard detection on streams that violate the accumulation window.
These tests prove that contract across the generator suite and the ablation
configurations.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.generators import (
    banded_matrix,
    block_sparse_matrix,
    laplacian_2d,
    random_uniform,
    random_with_dense_rows,
    rmat_graph,
)
from repro.preprocess import ColumnarProgram, build_program
from repro.serpens import (
    EXECUTION_MODES,
    AccumulationHazardError,
    SerpensConfig,
    SerpensSimulator,
)
from repro.spmv import spmv


def small_config(**overrides):
    defaults = dict(
        name="Serpens-fastpath",
        num_sparse_channels=2,
        pes_per_channel=4,
        urams_per_pe=2,
        uram_depth=128,
        segment_width=64,
        dsp_latency=4,
    )
    defaults.update(overrides)
    return SerpensConfig(**defaults)


def launch_both(program, config, x, y=None, alpha=1.0, beta=0.0):
    """One launch of ``program`` on ``config`` through each engine."""
    fast = SerpensSimulator(config, mode="fast").run(program, x, y, alpha, beta)
    reference = SerpensSimulator(config, mode="reference").run(
        program, x, y, alpha, beta
    )
    return fast, reference


def run_both_modes(matrix, config=None, alpha=1.0, beta=0.0, seed=0, replay_on=None):
    """Run one SpMV through both engines on a shared program.

    ``replay_on`` runs the program, built for ``config``, on another build.
    """
    config = config or small_config()
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, matrix.num_cols)
    y = rng.uniform(-1, 1, matrix.num_rows)
    program = build_program(matrix, config.to_partition_params())
    fast, reference = launch_both(program, replay_on or config, x, y, alpha, beta)
    return fast, reference, (x, y)


def launch_plan(program, config):
    """The fast engine's cached plan of ``program`` on ``config``."""
    return program.columnar().launch_plans[config.to_partition_params()]


def assert_equivalent(fast, reference):
    """The full fast-vs-reference contract, down to the bit."""
    assert np.array_equal(fast.y, reference.y), "fp32 results must be bit-identical"
    assert fast.cycles == reference.cycles
    assert fast.total_cycles == reference.total_cycles
    assert fast.bytes_moved == reference.bytes_moved
    assert fast.traffic_by_role == reference.traffic_by_role
    assert fast.pe_utilisation == reference.pe_utilisation
    assert fast.busy_pe_utilisation == reference.busy_pe_utilisation
    assert fast.hazard_violations == reference.hazard_violations


#: (label, builder) for every generator family of the suite.
GENERATOR_SUITE = [
    ("random", lambda seed: random_uniform(240, 200, 2500, seed=seed)),
    ("random-hot-rows", lambda seed: random_with_dense_rows(
        180, 180, 2600, dense_row_share=0.6, seed=seed
    )),
    ("rmat", lambda seed: rmat_graph(300, 3200, seed=seed)),
    ("banded", lambda seed: banded_matrix(220, bandwidth=5, seed=seed)),
    ("block", lambda seed: block_sparse_matrix(
        20, 20, block_size=10, block_density=0.02, seed=seed
    )),
    ("laplacian", lambda seed: laplacian_2d(15, 14)),
]


#: A replay target for programs built with :func:`small_config`: twice the
#: channels, twice the lanes per channel.
WIDER_BUILD = small_config(num_sparse_channels=4, pes_per_channel=8)


class TestEquivalenceAcrossGenerators:
    @pytest.mark.parametrize("label,builder", GENERATOR_SUITE, ids=[g[0] for g in GENERATOR_SUITE])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_bitwise_equivalence(self, label, builder, seed):
        matrix = builder(seed)
        fast, reference, (x, y) = run_both_modes(
            matrix, alpha=1.5, beta=-0.5, seed=seed
        )
        assert_equivalent(fast, reference)
        golden = spmv(matrix, x, y, 1.5, -0.5)
        np.testing.assert_allclose(fast.y, golden, rtol=1e-4, atol=1e-5)
        # The same program replayed on a wider build: rows map through the
        # simulator's build (some land past num_rows and are dropped), so
        # the engines must agree although the answer is no longer golden.
        fast, reference, __ = run_both_modes(
            matrix, alpha=1.5, beta=-0.5, seed=seed, replay_on=WIDER_BUILD
        )
        assert_equivalent(fast, reference)

    def test_equivalence_without_coalescing(self):
        matrix = random_uniform(200, 200, 2200, seed=3)
        fast, reference, __ = run_both_modes(
            matrix, config=small_config(coalesce_rows=False)
        )
        assert_equivalent(fast, reference)

    def test_equivalence_on_paper_configuration(self):
        from repro.serpens import SERPENS_A16

        matrix = rmat_graph(1500, 15_000, seed=5)
        fast, reference, __ = run_both_modes(matrix, config=SERPENS_A16)
        assert_equivalent(fast, reference)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(num_sparse_channels=4),  # more channels, same lane stride
            dict(pes_per_channel=8),  # different lane stride
        ],
        ids=["more-channels", "wider-channels"],
    )
    def test_equivalence_replaying_on_a_larger_build(self, overrides):
        # A program built for a small build replayed on a larger simulator:
        # the reference engine re-derives PE ids with the simulator's stride,
        # and the fast engine must land every element on the same PEs.
        matrix = random_uniform(200, 200, 2500, seed=4)
        program = build_program(matrix, small_config().to_partition_params())
        bigger = small_config(**overrides)
        x = np.random.default_rng(0).uniform(-1, 1, matrix.num_cols)
        fast = SerpensSimulator(bigger, mode="fast").run(program, x)
        reference = SerpensSimulator(bigger, mode="reference").run(program, x)
        assert_equivalent(fast, reference)

    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(num_sparse_channels=1),  # a channel the build lacks
            dict(pes_per_channel=2),  # lanes remapped past the last PE
        ],
        ids=["fewer-channels", "narrower-channels"],
    )
    def test_replaying_on_a_smaller_build_is_rejected(self, overrides, mode):
        # Unchecked, the first case would index past the build's channel list
        # and the second would fold PE 5 of a 4-PE build onto PE 1's rows.
        matrix = random_uniform(200, 200, 2500, seed=4)
        program = build_program(matrix, small_config().to_partition_params())
        smaller = small_config(**overrides)
        x = np.random.default_rng(0).uniform(-1, 1, matrix.num_cols)
        expected = (
            "built for 2 channels x 4 PEs cannot run on Serpens-fastpath "
            rf"\({smaller.num_sparse_channels} channels x {smaller.pes_per_channel} PEs\)"
        )
        with pytest.raises(ValueError, match=expected):
            SerpensSimulator(smaller, mode=mode).run(program, x)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equivalence_replaying_on_a_narrower_build(self, seed):
        # The lossy direction: a program built for wider channels replayed on
        # a narrower build collapses several program lanes onto one simulator
        # PE.  The merged streams usually violate the hazard window, so both
        # engines must agree on detection (strict) and on the violation count
        # plus the broken-hardware numerics (non-strict).
        wide = small_config(pes_per_channel=8)
        narrow = small_config(num_sparse_channels=4, pes_per_channel=4)
        matrix = random_uniform(200, 200, 2500, seed=seed)
        program = build_program(matrix, wide.to_partition_params())
        x = np.random.default_rng(seed).uniform(-1, 1, matrix.num_cols)

        outcomes = []
        for mode in EXECUTION_MODES:
            try:
                outcomes.append(SerpensSimulator(narrow, mode=mode).run(program, x))
            except AccumulationHazardError:
                outcomes.append("hazard")
        if isinstance(outcomes[0], str) or isinstance(outcomes[1], str):
            assert outcomes[0] == outcomes[1]
        else:
            assert_equivalent(outcomes[0], outcomes[1])

        fast = SerpensSimulator(narrow, strict_hazard_check=False, mode="fast").run(
            program, x
        )
        reference = SerpensSimulator(
            narrow, strict_hazard_check=False, mode="reference"
        ).run(program, x)
        assert_equivalent(fast, reference)

    def test_lane_collapse_detects_hazards_even_with_window_one(self):
        # A window of 1 is unviolable within one lane, but a lane-collapsing
        # replay lets a later-processed lane revisit an entry at an earlier
        # or equal cycle (diff <= 0 < 1) — the reference engine flags those,
        # and the fast scan's window<=1 shortcut must not skip them.
        wide = small_config(pes_per_channel=4, dsp_latency=1)
        narrow = small_config(
            num_sparse_channels=4, pes_per_channel=2, dsp_latency=1
        )
        matrix = random_uniform(120, 100, 900, seed=17)
        program = build_program(matrix, wide.to_partition_params())
        x = np.random.default_rng(17).uniform(-1, 1, matrix.num_cols)
        for mode in EXECUTION_MODES:
            with pytest.raises(AccumulationHazardError):
                SerpensSimulator(narrow, mode=mode).run(program, x)
        fast = SerpensSimulator(narrow, strict_hazard_check=False, mode="fast").run(
            program, x
        )
        reference = SerpensSimulator(
            narrow, strict_hazard_check=False, mode="reference"
        ).run(program, x)
        assert fast.hazard_violations > 0
        assert_equivalent(fast, reference)

    def test_validation_verdict_is_cached_per_build(self):
        config = small_config()
        matrix = random_uniform(120, 120, 1200, seed=16)
        program = build_program(matrix, config.to_partition_params())
        simulator = SerpensSimulator(config, mode="fast")
        x = np.ones(matrix.num_cols)
        simulator.run(program, x)
        cache = program.columnar().validation_cache
        assert cache == {config.to_partition_params(): 0}
        # A different build gets its own verdict entry.
        other = small_config(num_sparse_channels=4)
        SerpensSimulator(other, mode="fast").run(program, x)
        assert cache[other.to_partition_params()] == 0
        assert len(cache) == 2

    def test_equivalence_on_empty_matrix(self):
        from repro.formats import COOMatrix

        fast, reference, __ = run_both_modes(COOMatrix.empty(30, 30), beta=0.75)
        assert_equivalent(fast, reference)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_rows=st.integers(min_value=1, max_value=120),
        num_cols=st.integers(min_value=1, max_value=120),
        density=st.floats(min_value=0.005, max_value=0.2),
        alpha=st.floats(min_value=-2.0, max_value=2.0),
        beta=st.floats(min_value=-2.0, max_value=2.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_equivalence_property(self, num_rows, num_cols, density, alpha, beta, seed):
        nnz = max(1, int(num_rows * num_cols * density))
        matrix = random_uniform(num_rows, num_cols, nnz, seed=seed)
        fast, reference, __ = run_both_modes(matrix, alpha=alpha, beta=beta, seed=seed)
        assert_equivalent(fast, reference)


class TestJaggedDiagonalPlan:
    """The plan's head (slice adds), tail (``np.add.at``) and sort paths.

    The generator suite and the small-matrix property above mostly have
    fewer than :data:`~repro.serpens.simulator.HEAD_MIN_ROWS` non-empty
    rows, so their plans are all tail; these cases make the head run.
    """

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_rows=st.integers(min_value=300, max_value=1500),
        per_row=st.integers(min_value=6, max_value=12),
        dense_row_share=st.floats(min_value=0.1, max_value=0.5),
        alpha=st.floats(min_value=-2.0, max_value=2.0),
        beta=st.floats(min_value=-2.0, max_value=2.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_head_and_tail_property(
        self, num_rows, per_row, dense_row_share, alpha, beta, seed
    ):
        # Hot rows run far past the steps that keep >= 256 rows active, so
        # each of them adds a head and then a tail, in that order.
        matrix = random_with_dense_rows(
            num_rows,
            num_rows,
            num_rows * per_row,
            dense_row_share=dense_row_share,
            seed=seed,
        )
        config = small_config()
        program = build_program(matrix, config.to_partition_params())
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, matrix.num_cols)
        y = rng.uniform(-1, 1, matrix.num_rows)
        fast, reference = launch_both(program, config, x, y, alpha, beta)
        assert_equivalent(fast, reference)
        plan = launch_plan(program, config)
        assert plan.head_counts and plan.tail_rows.size

    def test_equivalence_past_16_bit_sort_keys(self):
        # More rows than a uint16 holds, and more URAM entries too: both of
        # the compile's stable sorts take the wide-key path.
        from repro.serpens import SERPENS_A16

        matrix = random_uniform(140_000, 2_000, 20_000, seed=23)
        fast, reference, __ = run_both_modes(
            matrix, config=SERPENS_A16, alpha=1.5, beta=-0.5, seed=23
        )
        assert_equivalent(fast, reference)

    def test_negative_zero_products_sum_from_positive_zero(self):
        # Negative values against x == +0.0 give -0.0 products.  The
        # datapath adds a row's products to +0.0, so a row of them sums to
        # +0.0.  beta * y_in is -0.0, so a row summed to -0.0 would stay
        # -0.0 in y.
        matrix = random_uniform(
            600, 600, 3000, seed=24, value_low=-1.0, value_high=-0.5
        )
        config = small_config()
        program = build_program(matrix, config.to_partition_params())
        rng = np.random.default_rng(24)
        x = np.zeros(matrix.num_cols)
        x[::7] = -rng.uniform(0.5, 1.0, x[::7].size)
        y = -np.ones(matrix.num_rows)
        fast, reference = launch_both(program, config, x, y, alpha=1.0, beta=0.0)
        assert_equivalent(fast, reference)
        assert launch_plan(program, config).head_counts
        zero_rows = fast.y == 0
        assert zero_rows.sum() > 100 and not np.signbit(fast.y[zero_rows]).any()

    def test_head_replayed_on_a_wider_build(self):
        # The wider build maps many rows past num_rows; CompY drops them, so
        # the plan keeps fewer elements than the matrix has, head included.
        matrix = random_uniform(2000, 2000, 12_000, seed=25)
        program = build_program(matrix, small_config().to_partition_params())
        rng = np.random.default_rng(25)
        x = rng.uniform(-1, 1, matrix.num_cols)
        y = rng.uniform(-1, 1, matrix.num_rows)
        fast, reference = launch_both(program, WIDER_BUILD, x, y, 1.5, -0.5)
        assert_equivalent(fast, reference)
        plan = launch_plan(program, WIDER_BUILD)
        assert plan.head_counts
        assert plan.cols.size < matrix.nnz


class TestHazardParity:
    """Both engines must agree on streams that violate the hazard window."""

    def hazardful_program(self, matrix, config):
        # Reorder with window 1 (no constraint), then simulate with a larger
        # window — the ablation showing the reordering is load-bearing.
        loose = replace(config.to_partition_params(), dsp_latency=1)
        return build_program(matrix, loose)

    def test_strict_mode_raises_in_both_engines(self):
        config = small_config()
        matrix = random_uniform(200, 200, 3000, seed=9)
        program = self.hazardful_program(matrix, config)
        x = np.random.default_rng(0).uniform(-1, 1, matrix.num_cols)
        for mode in EXECUTION_MODES:
            with pytest.raises(AccumulationHazardError):
                SerpensSimulator(config, mode=mode).run(program, x)

    def test_non_strict_counts_and_numerics_match(self):
        config = small_config()
        matrix = random_uniform(200, 200, 3000, seed=9)
        program = self.hazardful_program(matrix, config)
        x = np.random.default_rng(0).uniform(-1, 1, matrix.num_cols)
        fast = SerpensSimulator(config, strict_hazard_check=False, mode="fast").run(
            program, x
        )
        reference = SerpensSimulator(
            config, strict_hazard_check=False, mode="reference"
        ).run(program, x)
        assert fast.hazard_violations > 0
        assert_equivalent(fast, reference)

    def test_clean_stream_reports_zero_violations(self):
        matrix = random_uniform(150, 150, 1800, seed=10)
        fast, reference, __ = run_both_modes(matrix)
        assert fast.hazard_violations == 0
        assert reference.hazard_violations == 0


class TestColumnarView:
    def test_columnar_is_cached_on_the_program(self):
        config = small_config()
        matrix = random_uniform(100, 100, 900, seed=11)
        program = build_program(matrix, config.to_partition_params())
        first = program.columnar()
        assert isinstance(first, ColumnarProgram)
        assert program.columnar() is first

    def test_columnar_accounts_for_every_nonzero(self):
        config = small_config()
        matrix = random_uniform(130, 140, 1500, seed=12)
        program = build_program(matrix, config.to_partition_params())
        columnar = program.columnar()
        assert columnar.nnz == matrix.nnz
        assert sum(seg.num_real for seg in columnar.segments) == matrix.nnz
        assert sum(int(seg.lane_real.sum()) for seg in columnar.segments) == matrix.nnz
        for seg, obj_seg in zip(columnar.segments, program.segments):
            assert seg.compute_slots == obj_seg.compute_slots
            assert int(seg.lane_slots.sum()) >= int(seg.lane_real.sum())

    def test_columnar_survives_serialisation_round_trip(self, tmp_path):
        from repro.preprocess import load_program, save_program

        config = small_config()
        matrix = random_uniform(90, 90, 800, seed=13)
        program = build_program(matrix, config.to_partition_params())
        save_program(tmp_path / "p.npz", program)
        reloaded = load_program(tmp_path / "p.npz")
        x = np.random.default_rng(1).uniform(-1, 1, matrix.num_cols)
        original = SerpensSimulator(config, mode="fast").run(program, x)
        replayed = SerpensSimulator(config, mode="fast").run(reloaded, x)
        assert np.array_equal(original.y, replayed.y)
        assert original.cycles == replayed.cycles

    def test_program_reuse_across_fast_runs(self):
        config = small_config()
        matrix = random_uniform(150, 150, 1500, seed=14)
        program = build_program(matrix, config.to_partition_params())
        simulator = SerpensSimulator(config, mode="fast")
        rng = np.random.default_rng(15)
        for __ in range(3):
            x = rng.uniform(-1, 1, matrix.num_cols)
            result = simulator.run(program, x)
            np.testing.assert_allclose(result.y, spmv(matrix, x), rtol=1e-4, atol=1e-5)


class TestLaunchPlan:
    """The fast engine's per-(program, build) plan and what a warm launch pays."""

    def test_plan_is_cached_per_build_and_reused_by_fresh_simulators(self):
        config = small_config()
        params = config.to_partition_params()
        matrix = random_uniform(120, 120, 1200, seed=16)
        program = build_program(matrix, params)
        x = np.ones(matrix.num_cols)
        plans = program.columnar().launch_plans
        SerpensSimulator(config, mode="reference").run(program, x)
        assert plans == {}  # the reference engine compiles nothing
        SerpensSimulator(config).run(program, x)
        plan = plans[params]
        fresh = SerpensSimulator(config)
        fresh.run(program, x)
        assert plans[params] is plan
        # A warm launch builds neither the PE array nor the memory system.
        assert "pes" not in vars(fresh) and "memory" not in vars(fresh)
        other = small_config(num_sparse_channels=4)
        SerpensSimulator(other).run(program, x)
        assert set(plans) == {params, other.to_partition_params()}

    def test_hazardful_stream_gets_a_verdict_but_no_plan(self):
        config = small_config()
        loose = replace(config.to_partition_params(), dsp_latency=1)
        matrix = random_uniform(200, 200, 3000, seed=9)
        program = build_program(matrix, loose)
        x = np.ones(matrix.num_cols)
        SerpensSimulator(config, strict_hazard_check=False).run(program, x)
        columnar = program.columnar()
        assert columnar.validation_cache[config.to_partition_params()] > 0
        assert columnar.launch_plans == {}

    def test_launches_return_independent_traffic(self):
        config = small_config()
        matrix = random_uniform(150, 150, 1500, seed=19)
        program = build_program(matrix, config.to_partition_params())
        simulator = SerpensSimulator(config)
        x = np.random.default_rng(19).uniform(-1, 1, matrix.num_cols)
        first = simulator.run(program, x)
        expected = dict(first.traffic_by_role)
        first.traffic_by_role["sparse_A"] = -1
        first.traffic_by_role.clear()
        second = simulator.run(program, x)
        assert second.traffic_by_role == expected
        assert second.traffic_by_role is not first.traffic_by_role
        reference = SerpensSimulator(config, mode="reference").run(program, x)
        assert_equivalent(second, reference)

    def test_warm_launches_return_fresh_outputs(self):
        # Callers keep and compare earlier answers (a benchmark checks every
        # repeated launch bitwise against the first), so a launch must never
        # hand out a buffer a later launch writes into.
        config = small_config()
        matrix = random_uniform(1000, 1000, 8000, seed=26)
        program = build_program(matrix, config.to_partition_params())
        simulator = SerpensSimulator(config)
        x = np.random.default_rng(26).uniform(-1, 1, matrix.num_cols)
        first = simulator.run(program, x).y
        second = simulator.run(program, x).y
        assert launch_plan(program, config).head_counts
        assert not np.shares_memory(first, second)
        expected = second.tobytes()
        first[:] = 7.0
        assert second.tobytes() == expected
        assert simulator.run(program, x).y.tobytes() == expected

    def test_plan_holds_eight_bytes_per_kept_nonzero_plus_its_tail(self):
        # A multi-segment program: the values are gathered into plan order,
        # and no issue-ordered row array is kept.
        config = small_config()
        matrix = random_uniform(1000, 1000, 20_000, seed=27)
        program = build_program(matrix, config.to_partition_params())
        assert len(program.columnar().segments) > 1
        SerpensSimulator(config).run(program, np.ones(matrix.num_cols))
        plan = launch_plan(program, config)
        held = sum(a.nbytes for a in vars(plan).values() if isinstance(a, np.ndarray))
        kept, tail = plan.cols.size, plan.tail_rows.size
        assert kept == matrix.nnz and tail < kept // 4
        assert held <= 8 * kept + 4 * tail + 4 * matrix.num_rows

    def test_warm_launch_allocates_only_its_numerics(self):
        # A warm Serpens-A16 launch of a ~2k-nnz matrix: with the PE array
        # (128 x 24,576 float64) and a hardware-sized fp32 accumulator it
        # would peak near 38 MB; the plan needs a few num_rows-long vectors.
        import tracemalloc

        from repro.serpens import SERPENS_A16

        matrix = random_uniform(2000, 2000, 2000, seed=20)
        program = build_program(matrix, SERPENS_A16.to_partition_params())
        x = np.random.default_rng(20).uniform(-1, 1, matrix.num_cols)
        first = SerpensSimulator(SERPENS_A16).run(program, x)  # compiles the plan
        tracemalloc.start()
        try:
            warm = SerpensSimulator(SERPENS_A16).run(program, x)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(warm.y, first.y)
        assert peak < 1 << 20, f"warm launch peaked at {peak / 1e6:.1f} MB"


class TestModeSelection:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="execution mode"):
            SerpensSimulator(small_config(), mode="warp-speed")

    def test_fast_is_the_default(self):
        assert SerpensSimulator(small_config()).mode == "fast"

    def test_utilisation_counts_idle_pes(self):
        # One non-zero on a 2-channel build: only one channel's lanes get an
        # issue slot (the owning lane carries the element, its siblings a
        # padding bubble), the other channel idles entirely.  The busy-PE
        # mean sees only the first channel; the all-PE mean also charges the
        # idle channel, halving the number.
        from repro.formats import COOMatrix

        config = small_config()
        matrix = COOMatrix.from_triples(16, 16, [(0, 0, 2.0)])
        x = np.ones(16)
        for mode in EXECUTION_MODES:
            result = SerpensSimulator(config, mode=mode).run(matrix, x)
            assert result.busy_pe_utilisation == pytest.approx(
                1.0 / config.pes_per_channel
            )
            assert result.pe_utilisation == pytest.approx(1.0 / config.total_pes)
            assert result.pe_utilisation < result.busy_pe_utilisation
