"""Fig. 9: WA under log-flush-per-minute, "150GB" dataset, 1GB:150GB cache.

Grid: record size {128, 32, 16}B x systems {RocksDB, WiredTiger, B⁻-tree} x
client threads, 8KB pages (REPRO_FULL adds 16KB pages and D_s = 256B).  The
paper's WiredTiger and baseline B-tree coincide (both shadow pages
conventionally), so the ``wiredtiger`` rows stand for both.  Expected shapes:

* normal B-tree WA scales ~linearly with page_size/record_size; B⁻ scales
  sub-linearly, closing the gap with RocksDB;
* the paper has B⁻ ≈ or beating RocksDB at 128B and RocksDB winning at
  16B; at this scale RocksDB forms fewer levels and leads at every record
  size (ROADMAP finding 1), so the note prints "trails" from the rows;
* B-tree WA declines with thread count, B⁻'s barely moves.
"""

from conftest import emit, scaled

from repro.bench.harness import ExperimentSpec, full_mode
from repro.bench.paper import FIG9_WA_8K
from repro.bench.parallel import run_grid
from repro.bench.reporting import format_table


def grid():
    record_sizes = [128, 32, 16]
    threads = [1, 2, 4, 8, 16] if full_mode() else [1, 16]
    systems = ["rocksdb", "wiredtiger", "bminus"]
    page_sizes = [8192, 16384] if full_mode() else [8192]
    return record_sizes, threads, systems, page_sizes


def records_for(record_size):
    # Fix the dataset's *byte* size across record sizes, like the paper, but
    # cap the op count so 16B-record runs stay tractable.
    return scaled({128: 50_000, 32: 100_000, 16: 120_000}[record_size])


def run_fig9():
    record_sizes, threads, systems, page_sizes = grid()
    specs = {}
    for page_size in page_sizes:
        for record_size in record_sizes:
            for system in systems:
                for t in threads:
                    specs[(page_size, record_size, system, t)] = ExperimentSpec(
                        system=system,
                        n_records=records_for(record_size),
                        record_size=record_size,
                        page_size=page_size,
                        n_threads=t,
                        steady_ops=min(records_for(record_size), scaled(60_000)),
                        log_flush_policy="interval",
                    )
    return run_grid(specs)  # fans out across REPRO_JOBS workers


def test_fig9_wa_150g(once):
    results = once(run_fig9)
    record_sizes, threads, systems, page_sizes = grid()
    rows = []
    for page_size in page_sizes:
        for record_size in record_sizes:
            for system in systems:
                paper = FIG9_WA_8K.get(system, {}).get(record_size, "")
                row = [f"{page_size // 1024}KB", f"{record_size}B", system]
                for t in threads:
                    row.append(results[(page_size, record_size, system, t)].wa_total)
                row.append(f"~{paper}" if paper else "")
                rows.append(row)
    t_hi = threads[-1]
    verdicts = []
    for page_size in page_sizes:
        cells = []
        for rs in record_sizes:
            bminus, rocks = (results[(page_size, rs, s, t_hi)].wa_total
                             for s in ("bminus", "rocksdb"))
            cells.append(f"{'beats' if bminus < rocks else 'trails'} RocksDB at {rs}B")
        verdicts.append(f"{page_size // 1024}KB pages: B- " + ", ".join(cells))
    emit("fig9", format_table(
        "Fig 9: WA, log-flush-per-minute, 150GB-regime (cache 1/150 of data)",
        ["page", "record", "system"] + [f"WA@{t}thr" for t in threads] + ["paper(8K)"],
        rows,
        note="; ".join(verdicts) + f" ({t_hi} threads); "
             "normal B-tree scales ~linearly in 1/record_size",
    ))
    for page_size in page_sizes:
        wa = lambda sys, rs, t=t_hi: results[(page_size, rs, sys, t)].wa_total
        # B- slashes the conventional B-tree's WA at every record size.
        for rs in record_sizes:
            assert wa("bminus", rs) < 0.5 * wa("wiredtiger", rs), (page_size, rs)
        # At 128B records, B- lands at or near RocksDB (paper: 8 vs 14; at
        # our scale RocksDB holds ~2 fewer levels, so its WA is lower than
        # the paper's and the comparison is tighter — see EXPERIMENTS.md).
        # Only meaningful when the scaled LSM actually formed >= 4 levels.
        rocks_levels = sum(
            1 for b in results[(page_size, 128, "rocksdb", t_hi)].level_shape if b
        )
        if rocks_levels >= 4:
            assert wa("bminus", 128) < 1.6 * wa("rocksdb", 128)
        # Normal B-tree WA grows as records shrink; RocksDB barely moves.
        assert wa("wiredtiger", 16) > 2.5 * wa("wiredtiger", 128)
        assert wa("rocksdb", 16) < 3.0 * wa("rocksdb", 128)
