"""Fig. 10: WA under log-flush-per-minute at the "500GB / 15GB cache" point.

Same grid as Fig. 9 but with the larger dataset-to-memtable ratio (more LSM
levels -> higher RocksDB WA) and the richer 15:500 cache ratio.  Expected
shapes: RocksDB's WA rises versus Fig. 9 while the B-trees' barely move, so
B⁻ wins over RocksDB across more of the grid (paper: at 32B/8KB, B⁻ = 28 vs
RocksDB = 38).
"""

from conftest import emit, scaled

from repro.bench.harness import ExperimentSpec, full_mode, run_experiment
from repro.bench.paper import FIG10_WA_32B_4T
from repro.bench.parallel import run_grid
from repro.bench.reporting import format_table

CACHE_FRACTION = 15.0 / 500.0


def grid():
    record_sizes = [128, 32, 16] if full_mode() else [128, 32]
    threads = [1, 2, 4, 8, 16] if full_mode() else [4]
    systems = ["rocksdb", "wiredtiger", "bminus"]
    page_sizes = [8192, 16384] if full_mode() else [8192, 16384]
    return record_sizes, threads, systems, page_sizes


def records_for(record_size):
    # The "500GB" point: a larger population than Fig 9 at the same record
    # geometry (3.3x, mirroring 500/150).
    return scaled({128: 120_000, 32: 180_000, 16: 240_000}[record_size])


def run_fig10():
    record_sizes, threads, systems, page_sizes = grid()
    specs = {}
    for page_size in page_sizes:
        for record_size in record_sizes:
            for system in systems:
                if system == "rocksdb" and page_size != page_sizes[0]:
                    continue  # page size is a B-tree-only knob
                for t in threads:
                    specs[(page_size, record_size, system, t)] = ExperimentSpec(
                        system=system,
                        n_records=records_for(record_size),
                        record_size=record_size,
                        page_size=page_size,
                        cache_fraction=CACHE_FRACTION,
                        n_threads=t,
                        steady_ops=min(records_for(record_size), scaled(60_000)),
                        log_flush_policy="interval",
                    )
    return run_grid(specs)  # fans out across REPRO_JOBS workers


def test_fig10_wa_500g(once):
    results = once(run_fig10)
    record_sizes, threads, systems, page_sizes = grid()
    rows = []
    for key, res in results.items():
        page_size, record_size, system, t = key
        rows.append([
            f"{page_size // 1024}KB", f"{record_size}B", system, t, res.wa_total,
        ])
    paper_rows = [
        ["(paper)", "32B", f"{name}", 4, f"~{value}"]
        for name, value in FIG10_WA_32B_4T.items()
    ]
    emit("fig10", format_table(
        "Fig 10: WA, log-flush-per-minute, 500GB-regime (cache 15/500 of data)",
        ["page", "record", "system", "threads", "WA"],
        rows + paper_rows,
        note="larger dataset -> more LSM levels -> RocksDB WA rises; "
             "B-tree WA is insensitive to dataset size",
    ))
    t = threads[0]
    wa = lambda sys, rs, pg=8192: results[(pg, rs, sys, t)].wa_total
    # B- stays far below the conventional B-tree.  (The paper additionally
    # reports B- beating RocksDB at 32B here; at our scale RocksDB's level
    # count — and hence its WA — is lower than the paper's, so that
    # crossover does not reproduce.  See EXPERIMENTS.md.)
    assert wa("bminus", 32) < 0.45 * wa("wiredtiger", 32)
    # The paper's Fig 9-vs-10 observation: a larger dataset means more LSM
    # levels and higher RocksDB WA, while the B-trees barely move.
    control = run_experiment(ExperimentSpec(
        system="rocksdb", n_records=records_for(32) // 3, record_size=32,
        cache_fraction=CACHE_FRACTION, n_threads=t,
        steady_ops=min(records_for(32) // 3, scaled(40_000)),
        log_flush_policy="interval",
    ))
    assert wa("rocksdb", 32) > control.wa_total * 0.95
    # 16KB pages roughly double normal-B-tree WA; B- grows sub-linearly.
    wt_growth = wa("wiredtiger", 32, 16384) / wa("wiredtiger", 32)
    bm_growth = wa("bminus", 32, 16384) / wa("bminus", 32)
    assert wt_growth > 1.5
    assert bm_growth < wt_growth
