"""Benchmark harness for solvsph: workloads, reference answers and tracing.

Run ``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``bench/NOTES.md``.
"""
