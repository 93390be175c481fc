"""Micro-benchmarks of the library's own kernels.

Unlike the table/figure benchmarks (which reproduce the paper's results and
run once), these measure the library's hot paths — golden SpMV, preprocessing,
cycle-accurate simulation, and the analytic models — with pytest-benchmark's
normal multi-round statistics, so performance regressions in the reproduction
itself are visible.
"""

import numpy as np
import pytest

from repro.generators import random_uniform, rmat_graph
from repro.preprocess import build_program, partition_statistics
from repro.serpens import (
    SERPENS_A16,
    SerpensAccelerator,
    SerpensConfig,
    SerpensSimulator,
    analytic_cycles,
    detailed_cycles,
)
from repro.spmv import spmv


@pytest.fixture(scope="module")
def medium_matrix():
    return random_uniform(20_000, 20_000, 400_000, seed=5)


@pytest.fixture(scope="module")
def small_graph():
    return rmat_graph(3_000, 60_000, seed=6)


def test_bench_reference_spmv(benchmark, medium_matrix):
    x = np.random.default_rng(0).uniform(-1, 1, medium_matrix.num_cols)
    result = benchmark(spmv, medium_matrix, x)
    assert result.shape == (medium_matrix.num_rows,)


def test_bench_partition_statistics(benchmark, medium_matrix):
    params = SERPENS_A16.to_partition_params()
    stats = benchmark(partition_statistics, medium_matrix, params)
    assert stats.nnz == medium_matrix.nnz


def test_bench_detailed_cycle_model(benchmark, medium_matrix):
    breakdown = benchmark(detailed_cycles, medium_matrix, SERPENS_A16)
    assert breakdown.total > 0


def test_bench_analytic_cycle_model(benchmark):
    breakdown = benchmark(
        analytic_cycles, 1_000_000, 1_000_000, 50_000_000, SERPENS_A16
    )
    assert breakdown.total > 0


def test_bench_preprocessing_pipeline(benchmark, small_graph):
    config = SerpensConfig(
        name="bench", num_sparse_channels=4, pes_per_channel=4, segment_width=1024
    )
    program = benchmark.pedantic(
        build_program, args=(small_graph, config.to_partition_params()), rounds=2, iterations=1
    )
    assert program.nnz == small_graph.nnz


@pytest.mark.parametrize("mode", ["fast", "reference"])
def test_bench_cycle_accurate_simulation(benchmark, small_graph, mode):
    config = SerpensConfig(
        name="bench", num_sparse_channels=4, pes_per_channel=4, segment_width=1024
    )
    simulator = SerpensSimulator(config, mode=mode)
    program = build_program(small_graph, config.to_partition_params())
    if mode == "fast":
        program.columnar()  # decode once up front, as a warm deployment would
    x = np.random.default_rng(1).uniform(-1, 1, small_graph.num_cols)
    result = benchmark.pedantic(simulator.run, args=(program, x), rounds=2, iterations=1)
    np.testing.assert_allclose(result.y, spmv(small_graph, x), rtol=1e-4, atol=1e-5)


def test_fast_path_speedup_on_100k_nnz():
    """The fast engine must stay >= 10x the reference in element throughput.

    This is the regression guard behind the README's "Simulator execution
    modes" numbers: a 100k-non-zero matrix replayed through both engines on
    one shared program, whose launch plan the warm-up run compiles.  The
    measured gap is ~1,100x on a 2-core Xeon VM (1,088-1,140x: a warm fast
    launch 0.23-0.24 ms, the reference 0.26-0.27 s), so the 10x floor has
    headroom against CI noise while still catching any change that quietly
    drops the fast path back onto the per-element model.
    """
    import time

    matrix = random_uniform(20_000, 20_000, 100_000, seed=7)
    config = SerpensConfig(
        name="bench", num_sparse_channels=4, pes_per_channel=4, segment_width=1024
    )
    program = build_program(matrix, config.to_partition_params())
    x = np.random.default_rng(2).uniform(-1, 1, matrix.num_cols)

    fast = SerpensSimulator(config, mode="fast")
    reference = SerpensSimulator(config, mode="reference")
    fast.run(program, x)  # warm run decodes the program and compiles its plan

    # Best-of-3 for the (millisecond-scale) fast runs so one scheduler blip
    # on a noisy CI runner cannot inflate the denominator into a flake; the
    # reference run is seconds-scale, where that noise is negligible.
    fast_seconds = float("inf")
    for __ in range(3):
        start = time.perf_counter()
        fast_result = fast.run(program, x)
        fast_seconds = min(fast_seconds, time.perf_counter() - start)

    start = time.perf_counter()
    reference_result = reference.run(program, x)
    reference_seconds = time.perf_counter() - start

    assert np.array_equal(fast_result.y, reference_result.y)
    assert fast_result.cycles == reference_result.cycles
    speedup = reference_seconds / fast_seconds
    assert speedup >= 10.0, (
        f"fast path is only {speedup:.1f}x the reference engine "
        f"({matrix.nnz / fast_seconds:.0f} vs "
        f"{matrix.nnz / reference_seconds:.0f} elements/s)"
    )


def test_bench_estimate_api(benchmark, medium_matrix):
    accelerator = SerpensAccelerator()
    report = benchmark(accelerator.estimate, medium_matrix, "bench")
    assert report.gflops > 0
