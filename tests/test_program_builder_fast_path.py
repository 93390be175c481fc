"""Fast/reference equivalence tests for the vectorized program builder.

The vectorized builder is only trustworthy if it is indistinguishable from
the per-element reference pipeline: identical encoded words, identical lane
schedules (slot order and padding bubbles), identical reorder statistics and
identical packed columnar arrays.  These tests prove that contract across
the generator suite, the ablation configurations and a Hypothesis property
sweep, and cover the bulk codecs plus the build mode the accelerator takes
at construction.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.formats import COOMatrix
from repro.generators import (
    banded_matrix,
    block_sparse_matrix,
    laplacian_2d,
    random_uniform,
    random_with_dense_rows,
    rmat_graph,
)
from repro.preprocess import (
    BUILD_MODES,
    PAD_WORD,
    build_program,
    decode_array,
    decode_element,
    encode_array,
    encode_element,
    make_padding,
    program_channel_words,
    schedule_conflict_free,
    schedule_lane_issue_slots,
)
from repro.serpens import SerpensConfig

COLUMNAR_FIELDS = (
    "pe",
    "local_row",
    "column_offset",
    "value",
    "issue_slot",
    "lane_slots",
    "lane_real",
    "channel_slots",
)


def small_config(**overrides):
    defaults = dict(
        name="Serpens-buildpath",
        num_sparse_channels=2,
        pes_per_channel=4,
        urams_per_pe=2,
        uram_depth=128,
        segment_width=64,
        dsp_latency=4,
    )
    defaults.update(overrides)
    return SerpensConfig(**defaults)


def assert_programs_identical(matrix, params):
    """The full fast-vs-reference builder contract, down to the wire bits."""
    fast = build_program(matrix, params, build_mode="fast")
    reference = build_program(matrix, params, build_mode="reference")

    assert fast.reorder_stats == reference.reorder_stats
    assert fast.total_compute_slots == reference.total_compute_slots
    assert fast.total_padding_slots == reference.total_padding_slots
    assert fast.stored_elements == reference.stored_elements
    assert fast.num_segments == reference.num_segments
    assert np.array_equal(fast.channel_slot_totals(), reference.channel_slot_totals())

    # The wire truth: every channel's HBM words, padding sentinels included.
    for channel in range(params.num_channels):
        assert np.array_equal(
            program_channel_words(fast, channel),
            program_channel_words(reference, channel),
        ), f"channel {channel} words differ"

    # The packed columnar arrays the fast simulator runs.
    for seg_fast, seg_ref in zip(fast.columnar().segments, reference.columnar().segments):
        for field in COLUMNAR_FIELDS:
            assert np.array_equal(
                getattr(seg_fast, field), getattr(seg_ref, field)
            ), f"segment {seg_ref.segment_index} field {field} differs"

    # The lazily materialised object form: same schedules, same padding.
    for seg_fast, seg_ref in zip(fast.segments, reference.segments):
        for ch_fast, ch_ref in zip(seg_fast.channels, seg_ref.channels):
            assert ch_fast.num_slots == ch_ref.num_slots
            for lane_fast, lane_ref in zip(ch_fast.lanes, ch_ref.lanes):
                assert lane_fast.num_real == lane_ref.num_real
                assert lane_fast.num_padding == lane_ref.num_padding
                assert [e.is_padding for e in lane_fast.elements] == [
                    e.is_padding for e in lane_ref.elements
                ]
                for e_fast, e_ref in zip(lane_fast.elements, lane_ref.elements):
                    if not e_fast.is_padding:
                        assert e_fast.local_row == e_ref.local_row
                        assert e_fast.column_offset == e_ref.column_offset
                        # the object values carry fp32 wire precision
                        assert np.float32(e_fast.value) == np.float32(e_ref.value)
    return fast, reference


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


class TestBuilderEquivalenceAcrossGenerators:
    @pytest.mark.parametrize(
        "label,builder", GENERATOR_SUITE, ids=[g[0] for g in GENERATOR_SUITE]
    )
    @pytest.mark.parametrize("seed", [1, 7])
    def test_bitwise_equivalence(self, label, builder, seed):
        matrix = builder(seed)
        assert_programs_identical(matrix, small_config().to_partition_params())

    def test_equivalence_without_coalescing(self):
        matrix = random_uniform(200, 200, 2200, seed=3)
        assert_programs_identical(
            matrix, small_config(coalesce_rows=False).to_partition_params()
        )

    @pytest.mark.parametrize("window", [1, 2, 8])
    def test_equivalence_across_hazard_windows(self, window):
        matrix = random_with_dense_rows(150, 150, 2000, seed=4)
        assert_programs_identical(
            matrix, small_config(dsp_latency=window).to_partition_params()
        )

    def test_equivalence_on_paper_configuration(self):
        from repro.serpens import SERPENS_A16

        matrix = rmat_graph(1500, 15_000, seed=5)
        assert_programs_identical(matrix, SERPENS_A16.to_partition_params())

    def test_equivalence_on_empty_matrix(self):
        assert_programs_identical(
            COOMatrix.empty(30, 30), small_config().to_partition_params()
        )

    def test_equivalence_on_single_hot_row(self):
        # Every element lands in one URAM entry: the schedule is almost all
        # padding, the hardest case for the contention simulator.
        matrix = COOMatrix.from_triples(8, 40, [(0, c, 1.0) for c in range(40)])
        fast, __ = assert_programs_identical(
            matrix, small_config().to_partition_params()
        )
        assert fast.reorder_stats.num_padding > 0

    def test_unknown_build_mode_rejected(self):
        with pytest.raises(ValueError, match="build mode"):
            build_program(
                COOMatrix.empty(4, 4),
                small_config().to_partition_params(),
                build_mode="warp-speed",
            )
        assert BUILD_MODES == ("fast", "reference")

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_rows=st.integers(min_value=1, max_value=120),
        num_cols=st.integers(min_value=1, max_value=120),
        density=st.floats(min_value=0.005, max_value=0.25),
        window=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_equivalence_property(self, num_rows, num_cols, density, window, seed):
        nnz = max(1, int(num_rows * num_cols * density))
        matrix = random_uniform(num_rows, num_cols, nnz, seed=seed)
        assert_programs_identical(
            matrix, small_config(dsp_latency=window).to_partition_params()
        )


class TestVectorizedScheduler:
    """schedule_lane_issue_slots against the per-lane heap scheduler."""

    @staticmethod
    def reference_slots(lanes, keys, window):
        lanes = np.asarray(lanes, dtype=np.int64)
        keys = np.asarray(keys, dtype=np.int64)
        issue = np.full(lanes.size, -1, dtype=np.int64)
        for lane in np.unique(lanes):
            positions = np.flatnonzero(lanes == lane)
            schedule, __ = schedule_conflict_free(
                [int(k) for k in keys[positions]], window
            )
            for slot, item in enumerate(schedule):
                if item is not None:
                    issue[positions[item]] = slot
        return issue

    @pytest.mark.parametrize("window", [1, 2, 3, 5, 8])
    def test_matches_heap_scheduler(self, window):
        rng = np.random.default_rng(window)
        for __ in range(30):
            n = int(rng.integers(0, 150))
            lanes = rng.integers(0, 5, n) * 3
            keys = rng.integers(0, int(rng.integers(1, 16)), n)
            fast = schedule_lane_issue_slots(lanes, keys, window)
            assert np.array_equal(fast, self.reference_slots(lanes, keys, window))

    def test_hot_key_padding_matches(self):
        # Few keys, high counts: cooldown stalls dominate the schedule.
        rng = np.random.default_rng(9)
        for __ in range(20):
            n = int(rng.integers(1, 60))
            lanes = rng.integers(0, 2, n)
            keys = rng.integers(0, 3, n)
            fast = schedule_lane_issue_slots(lanes, keys, 6)
            assert np.array_equal(fast, self.reference_slots(lanes, keys, 6))

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            schedule_lane_issue_slots(np.zeros(1), np.zeros(1), 0)

    def test_negative_keys_match_heap_scheduler(self):
        # The priority encoding shifts negative keys; the greedy's
        # (count, smallest-key) order must survive the shift exactly.
        rng = np.random.default_rng(3)
        for window in (2, 4):
            for __ in range(15):
                n = int(rng.integers(1, 80))
                lanes = rng.integers(-2, 3, n)
                keys = rng.integers(-40, 8, n)
                fast = schedule_lane_issue_slots(lanes, keys, window)
                assert np.array_equal(
                    fast, self.reference_slots(lanes, keys, window)
                )

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data(), window=st.integers(2, 8), negative=st.booleans())
    def test_lock_boundary_property(self, data, window, negative):
        # Lanes of 1 to window + 2 hot keys, some with a few singles: lanes
        # with at most `window` keys and no singles lock at once, larger ones
        # lock once enough keys drain, and lanes with singles never lock.
        lanes, keys = [], []
        for lane in range(data.draw(st.integers(1, 4))):
            counts = data.draw(
                st.lists(st.integers(2, 40), min_size=1, max_size=window + 2)
            )
            singles = data.draw(st.sampled_from([0, 0, 1, 3]))
            values = data.draw(
                st.lists(
                    st.integers(0, 60),
                    min_size=len(counts) + singles,
                    max_size=len(counts) + singles,
                    unique=True,
                )
            )
            lane_keys = np.r_[np.repeat(values[: len(counts)], counts), values[len(counts) :]]
            lanes.append(np.full(lane_keys.size, lane))
            keys.append(lane_keys - (30 if negative else 0))
        lane_ids = np.concatenate(lanes)
        key_ids = np.concatenate(keys).astype(np.int64)
        perm = np.random.default_rng(data.draw(st.integers(0, 2**16))).permutation(
            lane_ids.size
        )
        lane_ids, key_ids = lane_ids[perm], key_ids[perm]
        fast = schedule_lane_issue_slots(lane_ids, key_ids, window)
        assert np.array_equal(fast, self.reference_slots(lane_ids, key_ids, window))

    def test_early_locked_lane_beside_a_long_contended_lane(self):
        # Lane 0 holds two hot keys and nothing else: from cycle 2 on both
        # keys cool down at once, so each issues every `window` cycles.
        # Lane 1 keeps singles and more than `window` hot keys for hundreds
        # of cycles, so the lanes are scheduled side by side throughout.
        window = 4
        lane0 = np.repeat([5, 9], [30, 25])
        rng = np.random.default_rng(4)
        lane1 = np.r_[np.repeat(np.arange(6) * 2, [90, 80, 80, 70, 60, 50]), 1 + 2 * np.arange(20)]
        lane_ids = np.r_[np.zeros(lane0.size, dtype=np.int64), np.ones(lane1.size, dtype=np.int64)]
        key_ids = np.r_[lane0, lane1]
        perm = rng.permutation(lane_ids.size)
        lane_ids, key_ids = lane_ids[perm], key_ids[perm]
        fast = schedule_lane_issue_slots(lane_ids, key_ids, window)
        assert np.array_equal(fast, self.reference_slots(lane_ids, key_ids, window))
        # The busier key goes first; every key then issues once per window.
        for key, first in ((5, 0), (9, 1)):
            mine = np.sort(fast[(lane_ids == 0) & (key_ids == key)])
            assert np.array_equal(mine, first + window * np.arange(mine.size))
        assert fast[lane_ids == 1].max() >= 400

    def test_large_staggered_lanes_exercise_compaction(self):
        # Many hot groups, with lane sizes staggered so lanes quiesce or lock
        # at very different times while the others keep being stepped.
        rng = np.random.default_rng(21)
        lanes, keys = [], []
        for lane in range(24):
            n = int(rng.integers(0, 500))
            key_space = max(2, n // 3)
            lanes.append(np.full(n, lane * 3))
            keys.append(rng.integers(0, key_space, n))
        lane_ids = np.concatenate(lanes)
        key_ids = np.concatenate(keys)
        perm = rng.permutation(lane_ids.size)
        lane_ids, key_ids = lane_ids[perm], key_ids[perm]
        fast = schedule_lane_issue_slots(lane_ids, key_ids, 5)
        assert np.array_equal(fast, self.reference_slots(lane_ids, key_ids, 5))


class TestBulkCodecs:
    def test_encode_array_matches_scalar_encoder(self):
        rng = np.random.default_rng(0)
        n = 500
        rows = rng.integers(0, 1 << 18, n)
        cols = rng.integers(0, (1 << 14) - 1, n)
        values = rng.uniform(-5, 5, n).astype(np.float32)
        pad = rng.uniform(size=n) < 0.2
        words = encode_array(rows, cols, values, is_padding=pad)
        for i in range(n):
            if pad[i]:
                assert words[i] == PAD_WORD
            else:
                element = decode_element(int(words[i]))
                assert element.local_row == rows[i]
                assert element.column_offset == cols[i]
                assert np.float32(element.value) == values[i]
                assert words[i] == encode_element(element)

    def test_decode_array_round_trip(self):
        rng = np.random.default_rng(1)
        n = 400
        rows = rng.integers(0, 1 << 18, n)
        cols = rng.integers(0, (1 << 14) - 1, n)
        values = rng.uniform(-5, 5, n).astype(np.float32)
        pad = rng.uniform(size=n) < 0.25
        words = encode_array(rows, cols, values, is_padding=pad)
        out_rows, out_cols, out_values, out_pad = decode_array(words)
        assert np.array_equal(out_pad, pad)
        assert np.array_equal(out_rows[~pad], rows[~pad])
        assert np.array_equal(out_cols[~pad], cols[~pad])
        assert np.array_equal(out_values[~pad], values[~pad])
        assert np.all(out_values[pad] == 0.0)
        # padding decodes to the canonical padding element fields
        padding = make_padding()
        assert np.all(out_rows[pad] == padding.local_row)
        assert np.all(out_cols[pad] == padding.column_offset)

    def test_encode_array_range_validation(self):
        with pytest.raises(ValueError, match="column offset"):
            encode_array(np.array([0]), np.array([1 << 14]), np.array([1.0]))
        with pytest.raises(ValueError, match="local row"):
            encode_array(np.array([1 << 18]), np.array([0]), np.array([1.0]))
        # The sentinel offset is reserved for padding: a real element carrying
        # it must raise (as EncodedElement does), not encode as a bubble.
        from repro.preprocess import PAD_COLUMN_SENTINEL

        with pytest.raises(ValueError, match="column offset"):
            encode_array(np.array([5]), np.array([PAD_COLUMN_SENTINEL]), np.array([2.5]))
        # ... but the same offset under the padding mask is fine.
        words = encode_array(
            np.array([5]),
            np.array([PAD_COLUMN_SENTINEL]),
            np.array([2.5]),
            is_padding=np.array([True]),
        )
        assert words[0] == PAD_WORD

    def test_serialize_round_trip_through_bulk_codecs(self, tmp_path):
        from repro.preprocess import load_program, save_program
        from repro.serpens import SerpensSimulator

        config = small_config()
        matrix = random_with_dense_rows(150, 150, 1800, seed=6)
        program = build_program(matrix, config.to_partition_params())
        save_program(tmp_path / "p.npz", program)
        loaded = load_program(tmp_path / "p.npz")

        assert loaded.reorder_stats == program.reorder_stats
        assert loaded.params == program.params
        assert loaded.stored_elements == program.stored_elements
        for channel in range(config.to_partition_params().num_channels):
            assert np.array_equal(
                program_channel_words(loaded, channel),
                program_channel_words(program, channel),
            )
        x = np.random.default_rng(2).uniform(-1, 1, matrix.num_cols)
        original = SerpensSimulator(config).run(program, x)
        replayed = SerpensSimulator(config).run(loaded, x)
        assert np.array_equal(original.y, replayed.y)
        assert original.cycles == replayed.cycles


class TestProgramBackCompat:
    def test_fast_program_materialises_lazily(self):
        params = small_config().to_partition_params()
        matrix = random_uniform(100, 100, 900, seed=7)
        program = build_program(matrix, params)
        assert program._segments is None  # packed arrays are the source of truth
        assert program.columnar() is program._columnar
        segments = program.segments
        assert program.segments is segments  # materialised once

    def test_lane_counters_are_precomputed(self):
        params = small_config().to_partition_params()
        matrix = random_uniform(100, 100, 900, seed=8)
        program = build_program(matrix, params)
        for segment in program.segments:
            for channel_segment in segment.channels:
                for lane in channel_segment.lanes:
                    # pre-seeded by the materialiser, not re-scanned
                    assert "num_real" in lane.__dict__
                    assert lane.num_real == sum(
                        1 for e in lane.elements if not e.is_padding
                    )

    def test_reference_program_still_builds_columnar(self):
        params = small_config().to_partition_params()
        matrix = random_uniform(100, 100, 900, seed=9)
        program = build_program(matrix, params, build_mode="reference")
        columnar = program.columnar()
        assert columnar.nnz == matrix.nnz
        assert program.columnar() is columnar


class TestBuildModeThreading:
    def test_accelerator_build_mode(self):
        from repro.serpens import SerpensAccelerator

        accelerator = SerpensAccelerator(small_config(), build_mode="reference")
        matrix = random_uniform(60, 60, 300, seed=10)
        program = accelerator.preprocess(matrix)
        assert program._segments is not None  # reference path builds objects
        with pytest.raises(ValueError, match="build mode"):
            SerpensAccelerator(small_config(), build_mode="bogus")

    def test_session_records_prepare_seconds(self):
        from repro.backends import Session

        session = Session(small_config())
        matrix = random_uniform(60, 60, 300, seed=11)
        handle = session.register(matrix, "m")
        stats = session.statistics(handle)
        assert "prepare_seconds" in stats
        assert stats["prepare_seconds"] > 0.0
        # re-registering the same content must not add prepare time
        session.register(matrix, "m")
        assert session.statistics(handle)["prepare_seconds"] == stats["prepare_seconds"]

    def test_service_surfaces_prepare_telemetry(self):
        from repro.serve import SpMVService

        service = SpMVService(num_devices=1, config=small_config())
        matrix = random_uniform(60, 60, 400, seed=13)
        handle = service.register(matrix, "m")
        service.submit(handle, np.ones(60))
        report = service.drain()
        telemetry = report.telemetry
        assert telemetry.prepare_count == 1
        assert telemetry.prepare_seconds > 0.0
        snapshot = telemetry.snapshot()
        assert snapshot["prepare_count"] == 1.0
        assert snapshot["prepare_seconds"] == telemetry.prepare_seconds
        assert "cold builds" in telemetry.render()
        # a warm second drain pays no host preprocessing
        service.submit(handle, np.ones(60))
        second = service.drain()
        assert second.telemetry.prepare_count == 0
