"""End-to-end and per-layer benchmark of the sweeps and the analysis service.

``perfbench/run.py`` performs one measured run of one workload in a fresh
process; ``perfbench/bench.py`` repeats runs and reports medians and
quartiles.  See ``perfbench/README.md``.
"""
