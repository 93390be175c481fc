#!/usr/bin/env python3
"""Run a workload over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workload sim-large --seeds 0 1 2 3 4

Runs ``perfbench/run.py`` once per seed (sequentially, ``run_seconds`` from
``BENCHMARK.json`` unless ``--seconds`` is given) and prints, per end-to-end
metric, the median, the inter-quartile distance as a share of the median
(``statistics.quantiles(values, n=4)``) and the metric's bound.  A metric,
``setup_s`` included, is steady when its spread stays under a third of its
bound.  Exits 1 when a run fails or a spread is too wide.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import iqr_spread  # noqa: E402


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    values = {}
    ok = True
    for seed in args.seeds:
        command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            print(f"seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= bool(result["correct"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
              flush=True)

    if args.trace or len(args.seeds) < 2:
        return 0 if ok else 1
    print(f"\n{'metric':<24} {'median':>14} {'spread':>8} {'bound':>6}  verdict")
    for entry in contract["end_to_end"]:
        series = values.get(entry["name"], [])
        if len(series) < 2:
            continue
        spread = iqr_spread(series)
        steady = spread < entry["bound"] / 3
        ok &= steady
        verdict = "steady" if steady else "TOO WIDE"
        print(f"{entry['name']:<24} {statistics.median(series):>14.6g} {spread:>8.4f} {entry['bound']:>6}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
