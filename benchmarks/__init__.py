"""Benchmark suite: kernel, subsystem and paper-figure benches.

A package so the figure benches can share ``conftest`` helpers with
``from .conftest import ...``; run a module with
``python -m pytest benchmarks/<module>.py``.
"""
