#!/usr/bin/env python3
"""Head-to-head write-amplification comparison (a miniature Fig. 9).

Runs the same random-write workload against the three systems — RocksDB-like
LSM, the conventional (WiredTiger-like, the paper's baseline) B-tree, and the
B⁻-tree — on identical simulated compressing drives, and prints the paper's
WA decomposition for each.

Run:  python examples/wa_comparison.py
"""

from repro.bench import ExperimentSpec, format_table, run_experiment

SYSTEMS = ["rocksdb", "wiredtiger", "bminus"]


def main() -> None:
    rows = []
    for system in SYSTEMS:
        spec = ExperimentSpec(
            system=system,
            n_records=30_000,
            record_size=128,
            page_size=8192,
            n_threads=4,
            steady_ops=30_000,
            log_flush_policy="commit",
        )
        print(f"running {spec.label()} ...")
        result = run_experiment(spec)
        wa = result.wa
        rows.append([
            system,
            wa.wa_total,
            wa.wa_log,
            wa.wa_pg,
            wa.wa_e,
            wa.wa_total_logical,
            f"{result.physical_usage / 1e6:.1f}MB",
        ])
    print(format_table(
        "Write amplification, random updates, 128B records, 8KB pages, "
        "log-flush-per-commit",
        ["system", "WA", "WA_log", "WA_pg", "WA_e", "WA (logical)", "flash used"],
        rows,
        note="WA counts post-compression bytes physically written, "
             "per the paper's definition (Eq. 2)",
    ))
    bminus = rows[-1][1]
    rocksdb = rows[0][1]
    baseline = rows[2][1]
    print(f"\nB- vs baseline B-tree: {baseline / bminus:.1f}x lower WA")
    print(f"B- vs RocksDB        : {rocksdb / bminus:.1f}x lower WA")


if __name__ == "__main__":
    main()
