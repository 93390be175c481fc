"""Bad paths, fault plans and flag values end in one line and exit code 2,
before any run."""

import pytest

from repro import cli

CASES = {
    "events-dir": ["serve-bench", "--wall-clock", "--events", "{missing}/run"],
    "plan-missing": ["serve-bench", "--fault-plan", "{missing}.toml"],
    "plan-syntax": ["serve-bench", "--fault-plan", "{bad_syntax}"],
    "plan-kind": ["serve-bench", "--fault-plan", "{unknown_kind}"],
    "plan-misestimate": ["serve-bench", "--wall-clock", "--fault-plan", "{misestimate}"],
    "trace-dir": ["serve-bench", "--trace", "{missing}/t.json"],
    "results-db-dir": ["serve-bench", "--results-db", "{missing}/x.sqlite"],
    "emit-bench-dir": ["serve-bench", "--emit-bench", "{missing}/b.json"],
    "output-dir": ["table1", "--output", "{missing}/out.txt"],
    "update-baseline-dir": [
        "results", "gate", "--update-baseline", "--baseline", "{missing}/b.json"
    ],
    "gate-baseline": ["results", "gate", "--baseline", "{missing}.json"],
    "list-results-db": ["results", "list", "--results-db", "{missing}/x.sqlite"],
    "workers": ["serve-bench", "--wall-clock", "--workers", "-1"],
    "requests": ["serve-bench", "--requests", "0"],
    "arrival-scale": [
        "serve-bench", "--open-loop", "--wall-clock", "--arrival-scale", "-1"
    ],
    "devices": ["serve-bench", "--devices", "0"],
    "max-batch": ["serve-bench", "--max-batch", "0"],
    "deadline-ms": ["serve-bench", "--wall-clock", "--deadline-ms", "-5"],
    "gap-scale": ["serve-bench", "--requests", "20", "--gap-scale", "0"],
    "cache-capacity": ["serve-bench", "--requests", "20", "--cache-capacity", "0"],
    "a24": ["serve-bench", "--requests", "20", "--devices", "4", "--a24", "9"],
    "engines-empty": ["serve-bench", "--engines", ","],
    "engines-unknown": ["serve-bench", "--engines", "nosuch"],
    "tune-matrices": ["tune", "--tune-matrices", "0"],
    "channels-empty": ["tune", "--channels", ","],
    "channels-word": ["tune", "--channels", "8,abc"],
    "scale": ["table4", "--scale", "0"],
    "count": ["figure3", "--count", "0"],
}


@pytest.mark.parametrize("argv", list(CASES.values()), ids=list(CASES))
def test_bad_path_exits_2_with_one_line(argv, tmp_path, monkeypatch, capsys):
    bad_syntax = tmp_path / "syntax.toml"
    bad_syntax.write_text('[plan\nname = "broken"\n')
    unknown_kind = tmp_path / "kind.toml"
    unknown_kind.write_text('[fault.f]\nkind = "meteor"\n')
    misestimate = tmp_path / "misestimate.toml"
    misestimate.write_text('[fault.f]\nkind = "misestimate"\nfactor = 4.0\n')
    paths = {
        "missing": str(tmp_path / "missing" / "dir"),
        "bad_syntax": str(bad_syntax),
        "unknown_kind": str(unknown_kind),
        "misestimate": str(misestimate),
    }

    def no_serving(*args, **kwargs):
        raise AssertionError("serving work started despite a bad path")

    monkeypatch.setattr(cli, "_serve_bench_payload", no_serving)
    code = cli.main([arg.format(**paths) for arg in argv])
    out = capsys.readouterr()
    assert code == 2
    assert out.err == ""
    lines = out.out.strip().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(argv[-2])
