"""Fig. 15: random point-read TPS (150GB regime, 128B records, 8KB pages).

Simulated-time TPS from the device/host latency model (see
repro.bench.speed).  Expected shapes:

* in the paper the normal B-tree leads; in the model the leader is the
  system that reads least per lookup: an LSM get reads one 4KB data block
  (its bloom filters turn away the other tables), a B-tree miss an 8KB
  page and a B⁻ miss 12KB, so RocksDB can lead.  The note names the
  leader from the rows;
* B⁻ trails the normal B-tree (extra 4KB delta block + trimmed-slot
  transfer + in-memory reconstruction), landing near RocksDB;
* TPS scales with the thread count until device limits bite.
"""

from conftest import emit, scaled

from repro.bench.harness import ExperimentSpec, full_mode, run_experiment
from repro.bench.paper import FIG15_POINT_READ_TPS
from repro.bench.reporting import format_series
from repro.bench.speed import SpeedModel

SYSTEMS = ["wiredtiger", "rocksdb", "bminus"]
NAMES = {"wiredtiger": "WiredTiger", "rocksdb": "RocksDB", "bminus": "B-"}


def thread_counts():
    return [1, 2, 4, 8, 16] if full_mode() else [1, 4, 16]


def run_fig15():
    model = SpeedModel()
    tps = {}
    for system in SYSTEMS:
        for t in thread_counts():
            spec = ExperimentSpec(
                system=system,
                n_records=scaled(40_000),
                record_size=128,
                n_threads=t,
                steady_ops=scaled(20_000),
                workload="read",
            )
            result = run_experiment(spec)
            tps[(system, t)] = model.tps(result.steady, result.engine, t)
    return tps


def test_fig15_point_read(once):
    tps = once(run_fig15)
    threads = thread_counts()
    series = {
        system: [tps[(system, t)] for t in threads] for system in SYSTEMS
    }
    series["paper@16thr"] = [""] * (len(threads) - 1) + [
        " / ".join(f"{s}:{v:,}" for s, v in FIG15_POINT_READ_TPS.items())
    ]
    leaders = {t: max(SYSTEMS, key=lambda s: tps[(s, t)]) for t in threads}
    if len(set(leaders.values())) == 1:
        lead = f"{NAMES[leaders[threads[0]]]} leads at every thread count"
    else:
        lead = "leader by threads: " + ", ".join(
            f"{t}: {NAMES[s]}" for t, s in leaders.items()
        )
    emit("fig15", format_series(
        "Fig 15: random point-read TPS (simulated time; shapes, not absolutes)",
        "threads", threads, series,
        note=f"{lead}; B- pays the extra 4KB read + reconstruction",
    ))
    hi = threads[-1]
    # The normal B-tree out-reads B⁻, which pays for the delta block.
    assert tps[("wiredtiger", hi)] >= tps[("bminus", hi)]
    # B- lands in RocksDB's neighbourhood (paper: both ~20% behind WT).
    ratio = tps[("bminus", hi)] / tps[("rocksdb", hi)]
    assert 0.5 < ratio < 1.5
    # Throughput rises with the thread count.
    for system in SYSTEMS:
        assert tps[(system, hi)] > tps[(system, threads[0])]
