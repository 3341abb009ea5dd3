"""Fig. 16: random range-scan TPS (100 consecutive records per scan).

Expected shapes:

* B⁻'s read-path overheads amortise across the 100 records, so it sits much
  closer to the normal B-tree than in the point-read figure;
* RocksDB trails both B-trees, but by a small factor, not an order of
  magnitude: a scan merges one sorted run per level plus every L0 table, so
  it reads a handful of blocks where a B-tree reads one leaf chain — read
  amplification the bloom filter cannot help with.  It must not read one
  block from every *table*; the lower bound below is the guard for that.
"""

from conftest import emit, scaled

from repro.bench.harness import ExperimentSpec, full_mode, run_experiment
from repro.bench.reporting import format_series
from repro.bench.speed import SpeedModel

SYSTEMS = ["wiredtiger", "bminus", "rocksdb"]
SCAN_LENGTH = 100


def thread_counts():
    return [1, 2, 4, 8, 16] if full_mode() else [1, 4, 16]


def run_fig16():
    model = SpeedModel()
    tps = {}
    for system in SYSTEMS:
        for t in thread_counts():
            spec = ExperimentSpec(
                system=system,
                n_records=scaled(40_000),
                record_size=128,
                n_threads=t,
                steady_ops=scaled(3_000),  # scans touch 100 records each
                workload="scan",
                scan_length=SCAN_LENGTH,
            )
            result = run_experiment(spec)
            tps[(system, t)] = model.tps(result.steady, result.engine, t)
    return tps


def test_fig16_range_scan(once):
    tps = once(run_fig16)
    threads = thread_counts()
    series = {system: [tps[(system, t)] for t in threads] for system in SYSTEMS}
    emit("fig16", format_series(
        "Fig 16: range-scan TPS, 100 records/scan (simulated time)",
        "threads", threads, series,
        note="B- within reach of the normal B-tree; RocksDB pays one "
             "sorted run per level plus L0 (merge read amplification)",
    ))
    hi = threads[-1]
    # RocksDB trails both B-trees on scans.
    assert tps[("rocksdb", hi)] < tps[("wiredtiger", hi)]
    assert tps[("rocksdb", hi)] < tps[("bminus", hi)]
    # ...by the cost of its runs, not of its tables (0.05x when every table
    # above the start key was opened, ~0.5x with one run per level).
    assert tps[("rocksdb", hi)] > 0.2 * tps[("wiredtiger", hi)]
    # B- is much closer to the normal B-tree here than on point reads.
    assert tps[("bminus", hi)] > 0.6 * tps[("wiredtiger", hi)]
