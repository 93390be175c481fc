"""Tests for the serving-layer load generator."""

import pytest

from repro.serve import SCENARIOS, generate_trace


class TestTraceGeneration:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_every_scenario_produces_requested_count(self, scenario):
        trace = generate_trace(scenario, num_requests=120, seed=1)
        assert trace.num_requests == 120
        assert trace.scenario == scenario
        assert len(trace.matrices) >= 1
        # Arrivals are sorted and non-negative.
        arrivals = [r.arrival_time for r in trace.requests]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] >= 0.0
        # Every request targets a registered matrix.
        assert all(0 <= r.matrix_id < len(trace.matrices) for r in trace.requests)
        # x seeds are unique so inputs are independent.
        assert len({r.x_seed for r in trace.requests}) == 120

    def test_same_seed_is_byte_identical(self):
        a = generate_trace("mixed", num_requests=200, seed=7)
        b = generate_trace("mixed", num_requests=200, seed=7)
        assert a.requests == b.requests
        assert [m.name for m in a.matrices] == [m.name for m in b.matrices]
        for ma, mb in zip(a.matrices, b.matrices):
            assert ma.matrix.nnz == mb.matrix.nnz
            assert (ma.matrix.rows == mb.matrix.rows).all()
            assert (ma.matrix.values == mb.matrix.values).all()

    def test_different_seeds_differ(self):
        a = generate_trace("mixed", num_requests=200, seed=7)
        b = generate_trace("mixed", num_requests=200, seed=8)
        assert a.requests != b.requests

    def test_mixed_covers_all_tenants(self):
        trace = generate_trace("mixed", num_requests=400, seed=2)
        assert trace.tenants == ["analytics", "batch", "inference", "solver"]

    def test_single_tenant_scenarios(self):
        assert generate_trace("pagerank", 50, seed=3).tenants == ["analytics"]
        assert generate_trace("solver-burst", 50, seed=3).tenants == ["solver"]
        assert generate_trace("sparse-nn", 50, seed=3).tenants == ["inference"]
        assert generate_trace("cold-churn", 50, seed=3).tenants == ["batch"]

    def test_cold_churn_has_many_matrices(self):
        trace = generate_trace("cold-churn", num_requests=240, seed=4)
        assert len(trace.matrices) >= 20
        uses = {}
        for request in trace.requests:
            uses[request.matrix_id] = uses.get(request.matrix_id, 0) + 1
        # Long tail: no matrix dominates the trace.
        assert max(uses.values()) <= 18

    def test_gap_scale_stretches_the_trace(self):
        tight = generate_trace("pagerank", 100, seed=5, gap_scale=1.0)
        slack = generate_trace("pagerank", 100, seed=5, gap_scale=4.0)
        assert slack.duration > tight.duration

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            generate_trace("unknown", 10)
        with pytest.raises(ValueError):
            generate_trace("mixed", 0)
        with pytest.raises(ValueError):
            generate_trace("mixed", 10, gap_scale=0.0)

    def test_cli_scenario_choices_stay_in_sync(self):
        from repro.cli import SERVE_SCENARIOS

        assert list(SERVE_SCENARIOS) == sorted(SCENARIOS)


class TestServeBenchCLI:
    def test_rejects_bad_device_mix(self):
        from repro.cli import build_parser, run_experiment

        parser = build_parser()
        args = parser.parse_args(
            ["serve-bench", "--devices", "2", "--a24", "-1", "--requests", "10"]
        )
        with pytest.raises(ValueError):
            run_experiment("serve-bench", args)
        args = parser.parse_args(
            ["serve-bench", "--devices", "2", "--a24", "5", "--requests", "10"]
        )
        with pytest.raises(ValueError):
            run_experiment("serve-bench", args)

    def test_small_serve_bench_runs(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "serve-bench",
                    "--devices",
                    "2",
                    "--requests",
                    "60",
                    "--scenario",
                    "pagerank",
                    "--seed",
                    "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Serving benchmark" in out
        assert "p99 ms" in out
        assert "cache hit %" in out


class TestShardedTraces:
    def test_shards_are_reproducible_and_independent(self):
        first = generate_trace("mixed", num_requests=100, seed=3, shard=(0, 4))
        again = generate_trace("mixed", num_requests=100, seed=3, shard=(0, 4))
        other = generate_trace("mixed", num_requests=100, seed=3, shard=(1, 4))
        assert first.shard == (0, 4)
        assert first.requests == again.requests
        # Sibling shards draw from independent substreams of the same root.
        assert first.requests != other.requests

    def test_shard_index_feeds_x_vectors(self):
        shard_a = generate_trace("pagerank", num_requests=10, seed=5, shard=(0, 2))
        shard_b = generate_trace("pagerank", num_requests=10, seed=5, shard=(1, 2))
        cols = shard_a.matrices[0].matrix.num_cols
        # Even if two shards happened to draw the same x_seed, the shard
        # index in the stream key keeps their input vectors distinct.
        request_a, request_b = shard_a.requests[0], shard_b.requests[0]
        xa = shard_a.x_vector(request_a, cols)
        xb = shard_b.x_vector(
            type(request_b)(
                arrival_time=request_b.arrival_time,
                matrix_id=request_b.matrix_id,
                tenant=request_b.tenant,
                x_seed=request_a.x_seed,
            ),
            cols,
        )
        assert not (xa == xb).all()

    def test_x_vector_is_deterministic(self):
        trace = generate_trace("mixed", num_requests=20, seed=9)
        request = trace.requests[0]
        cols = trace.matrices[request.matrix_id].matrix.num_cols
        assert (trace.x_vector(request, cols) == trace.x_vector(request, cols)).all()

    def test_invalid_shard_rejected(self):
        with pytest.raises(ValueError):
            generate_trace("mixed", num_requests=10, seed=0, shard=(4, 4))
        with pytest.raises(ValueError):
            generate_trace("mixed", num_requests=10, seed=0, shard=(-1, 2))
