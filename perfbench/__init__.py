"""The repository benchmark: deploy, extract and serve workloads.

Run one measurement with ``python3 perfbench/run.py --workload NAME
--seed N --seconds S --trace 0|1``; see ``perfbench/README.md``.
"""
