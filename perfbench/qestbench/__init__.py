"""Benchmark harness for the qest package: workloads, tracing and runners.

Run it through `perfbench/run.py`; see `perfbench/README.md`.
"""
