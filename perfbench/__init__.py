"""Benchmark for nlgap: see run.py."""
