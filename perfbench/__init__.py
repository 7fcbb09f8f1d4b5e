"""perfbench: the end-to-end and per-layer benchmark of this repository.

Run ``python3 -m perfbench --workload NAME`` from the repository root; see
README.md in this directory for workloads, metrics and baselines.
"""
