"""Benchmark harness for readmit: three desk-scale workloads, checks and tracing.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>``; see
``perfbench/README.md`` for the workloads, metrics and baseline.
"""
