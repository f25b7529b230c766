"""The repository benchmark: three DDA pipeline workloads.

``python3 ddabench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload in a fresh process and prints its
metrics; ``ddabench/README.md`` documents the workloads, the metrics and
the traced run. ``BENCHMARK.json`` at the repository root declares the
metric vocabulary this package prints.
"""
