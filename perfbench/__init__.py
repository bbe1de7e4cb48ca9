"""The repository benchmark: seeded workloads that time the sparse-grid
solver end to end through its public entry points, plus a traced
per-layer breakdown measured from outside the program.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``--compare A B`` compares two
directories of result records.  The self-tests run with
``python3 -m pytest perfbench -q``.
"""
