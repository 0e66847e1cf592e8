"""The repo's benchmark: five workloads, end-to-end metrics, per-layer ledger.

``python3 bench/run.py --help`` is the entry point; ``bench/README.md`` is the
manual.  Nothing in ``src/`` imports this package.
"""
