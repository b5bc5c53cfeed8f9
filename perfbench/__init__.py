"""The repository's seeded end-to-end benchmark (see ``README.md`` here).

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root runs one workload and prints its metrics.
"""
