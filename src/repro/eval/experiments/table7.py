"""Experiment: Table 7 — peak SpMV performance versus other accelerators.

The paper reports the peak GFLOP/s each accelerator reaches together with its
memory bandwidth, making the point that Serpens-A16/A24 deliver more
performance per unit of bandwidth than the FPGA accelerator of Sadi et al.
(MICRO'19), the HBM SpMV study of Du et al. (FPGA'22) and the SparseP PIM
system.  The Serpens rows are measured from our models (the maximum GFLOP/s
over the twelve large matrices); the external accelerators are published
constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ...serpens import SERPENS_A16, SERPENS_A24, SerpensAccelerator
from ..matrices import TWELVE_LARGE_MATRICES, MatrixSpec
from ..reporting import format_table

__all__ = ["Table7Result", "run_table7", "render_table7", "EXTERNAL_ACCELERATORS"]

#: Published (bandwidth, peak GFLOP/s) of the external comparison points.
EXTERNAL_ACCELERATORS: Dict[str, Dict[str, float]] = {
    "Du et al. [11] (FPGA'22)": {"bandwidth_gbps": 258.0, "peak_gflops": 25.0},
    "Sadi et al. [25] (MICRO'19)": {"bandwidth_gbps": 357.0, "peak_gflops": 34.0},
    "SparseP [13] (PIM)": {"bandwidth_gbps": 1770.0, "peak_gflops": 4.66},
}

#: Default NNZ scale (matches table4.DEFAULT_SCALE).
DEFAULT_SCALE = 0.05


@dataclass
class Table7Result:
    """Peak performance and bandwidth per accelerator."""

    rows: List[Dict[str, float]]

    def peak_of(self, name: str) -> float:
        """Peak GFLOP/s of one accelerator row."""
        for row in self.rows:
            if row["name"] == name:
                return float(row["peak_gflops"])
        raise KeyError(f"unknown accelerator {name!r}")

    def bandwidth_of(self, name: str) -> float:
        """Bandwidth of one accelerator row."""
        for row in self.rows:
            if row["name"] == name:
                return float(row["bandwidth_gbps"])
        raise KeyError(f"unknown accelerator {name!r}")


def run_table7(
    scale: float = DEFAULT_SCALE,
    matrices: Optional[Sequence[MatrixSpec]] = None,
) -> Table7Result:
    """Measure Serpens-A16 / A24 peaks and tabulate against published systems."""
    matrices = list(matrices if matrices is not None else TWELVE_LARGE_MATRICES)
    configs = (SERPENS_A16, SERPENS_A24)
    accelerators = [SerpensAccelerator(config) for config in configs]
    peaks = [0.0] * len(configs)
    # Each stand-in is generated once and measured on every build, so only
    # one is alive at a time.
    for spec in matrices:
        matrix = spec.materialize(scale=scale)
        for index, accelerator in enumerate(accelerators):
            report = accelerator.estimate(matrix, spec.graph_id, model="detailed")
            peaks[index] = max(peaks[index], report.gflops)
    rows: List[Dict[str, float]] = [
        {
            "name": config.name,
            "bandwidth_gbps": config.utilized_bandwidth_gbps,
            "peak_gflops": peak,
        }
        for config, peak in zip(configs, peaks)
    ]

    for name, values in EXTERNAL_ACCELERATORS.items():
        rows.append(
            {
                "name": name,
                "bandwidth_gbps": values["bandwidth_gbps"],
                "peak_gflops": values["peak_gflops"],
            }
        )
    return Table7Result(rows=rows)


def render_table7(result: Table7Result) -> str:
    """Render the Table 7 layout."""
    headers = ["Accelerator", "Bandwidth (GB/s)", "Peak Performance (GFLOP/s)"]
    rows = [
        [row["name"], row["bandwidth_gbps"], row["peak_gflops"]] for row in result.rows
    ]
    return format_table(headers, rows, title="Comparison with other SpMV accelerators")
