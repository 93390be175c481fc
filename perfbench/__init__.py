"""Repository benchmark: four workloads across the simulator, the worker
pool and the virtual-time service, plus a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload sim-large --seed 0 --seconds 10 --trace 0

``perfbench/workloads.json`` documents each workload (loop kind, rate or
client count, latency definition, why it was chosen), the fixed latency
limits, the default and held-out seeds, and which end-to-end metric each
per-layer metric is expected to move.
"""
