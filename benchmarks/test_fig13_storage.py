"""Fig. 13: logical and physical storage usage of RocksDB, WiredTiger and B⁻.

Expected shapes (8KB pages):

* B⁻ has the largest *logical* footprint (a live slot plus a dedicated 4KB
  delta block per page, with the shadow slot trimmed);
* after in-storage compression, the conventional B-trees use the least
  flash, and B⁻ lands near RocksDB (paper: within ~5% at 500GB, T=2KB).
"""

from conftest import emit, scaled

from repro.bench.harness import ExperimentSpec, run_experiment
from repro.bench.paper import FIG13_PHYSICAL_GB
from repro.bench.reporting import format_table

SYSTEMS = ["rocksdb", "wiredtiger", "bminus"]


def run_fig13():
    results = {}
    for system in SYSTEMS:
        spec = ExperimentSpec(
            system=system,
            n_records=scaled(110_000),
            record_size=128,
            n_threads=4,
            steady_ops=scaled(110_000),
            wal_enabled=False,
        )
        results[system] = run_experiment(spec)
    return results


def test_fig13_storage(once):
    results = once(run_fig13)
    dataset = results["rocksdb"].spec.dataset_bytes
    rows = []
    for system in SYSTEMS:
        res = results[system]
        rows.append([
            system,
            f"{res.logical_usage / (1 << 20):.1f}",
            f"{res.physical_usage / (1 << 20):.1f}",
            f"{res.logical_usage / dataset:.2f}x",
            f"{res.physical_usage / dataset:.2f}x",
        ])
    emit("fig13", format_table(
        "Fig 13: logical vs physical storage usage (8KB pages, T=2KB)",
        ["system", "logical MB", "physical MB", "logical/data", "physical/data"],
        rows,
        note=f"paper (500GB): RocksDB physical {FIG13_PHYSICAL_GB['rocksdb']}GB, "
             f"B- {FIG13_PHYSICAL_GB['bminus_t2k']}GB (~5% apart)",
    ))
    # B- has the largest logical footprint (extra delta block per page).
    for system in ("rocksdb", "wiredtiger"):
        assert results["bminus"].logical_usage > results[system].logical_usage
    # Conventional B-trees use the least flash after compression.
    for system in ("rocksdb", "bminus"):
        assert results["wiredtiger"].physical_usage < results[system].physical_usage
    # B- physical lands within ~35% of RocksDB (paper: ~5% at full scale).
    ratio = results["bminus"].physical_usage / results["rocksdb"].physical_usage
    assert 0.7 < ratio < 1.35
