"""Repo-wide pytest configuration.

The destructive-read baseline (``repro.baselines.destructive``) recurses
in Python once per list node, so its long-list workloads (remove_tail on
1024 nodes in ``benchmarks/test_writes.py``) need a roomier recursion
limit than CPython's default 1000.
"""

import sys

sys.setrecursionlimit(100_000)
