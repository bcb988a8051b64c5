"""End-to-end ActiveIter benchmark: workloads, labeler-wait latency and
per-layer self time.  Run it with ``python3 e2ebench/run.py --help``."""
