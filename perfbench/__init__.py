"""Benchmark for flexshop; see README.md.  Run ``python3 perfbench/run.py``."""
