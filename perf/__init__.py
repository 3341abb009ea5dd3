"""The repo benchmark: five engine workloads, end-to-end metrics and a per-layer ledger.

See ``perf/README.md``.  Everything here drives ``repro``'s public API from
the outside; nothing under ``src/`` imports this package.
"""
