"""Fig. 11: log-induced WA (the α_log·WA_log term) under log-flush-per-commit.

Expected shapes:

* packed logging (RocksDB, WiredTiger, baseline): log WA falls ~1/threads
  as group commit coalesces transactions per flush;
* B⁻'s sparse logging: log WA low and nearly flat in the thread count;
* halving the record size roughly doubles packed log WA, sparse barely moves.
"""

from conftest import emit, scaled

from repro.bench.harness import ExperimentSpec, full_mode, run_experiment
from repro.bench.reporting import format_table


def grid():
    record_sizes = [128, 32, 16] if full_mode() else [128, 16]
    threads = [1, 2, 4, 8, 16] if full_mode() else [1, 4, 16]
    systems = ["rocksdb", "wiredtiger", "bminus"]
    return record_sizes, threads, systems


def run_fig11():
    record_sizes, threads, systems = grid()
    results = {}
    for record_size in record_sizes:
        n_records = scaled(30_000 if record_size == 128 else 60_000)
        for system in systems:
            for t in threads:
                spec = ExperimentSpec(
                    system=system,
                    n_records=n_records,
                    record_size=record_size,
                    n_threads=t,
                    steady_ops=scaled(25_000),
                    log_flush_policy="commit",
                )
                results[(record_size, system, t)] = run_experiment(spec)
    return results


def test_fig11_log_wa(once):
    results = once(run_fig11)
    record_sizes, threads, systems = grid()
    rows = []
    for record_size in record_sizes:
        for system in systems:
            row = [f"{record_size}B", system]
            for t in threads:
                row.append(results[(record_size, system, t)].wa.wa_log)
            rows.append(row)
    emit("fig11", format_table(
        "Fig 11: log-induced WA (alpha_log * WA_log), log-flush-per-commit",
        ["record", "system"] + [f"logWA@{t}thr" for t in threads],
        rows,
        note="packed logs fall ~1/threads via group commit; "
             "B-'s sparse log is low and flat",
    ))
    lo, hi = threads[0], threads[-1]
    log_wa = lambda sys, rs, t: results[(rs, sys, t)].wa.wa_log
    for rs in record_sizes:
        # Packed logging coalesces with concurrency.
        assert log_wa("wiredtiger", rs, hi) < 0.5 * log_wa("wiredtiger", rs, lo)
        assert log_wa("rocksdb", rs, hi) < 0.5 * log_wa("rocksdb", rs, lo)
        # Sparse logging is far cheaper at low concurrency...
        assert log_wa("bminus", rs, lo) < 0.35 * log_wa("wiredtiger", rs, lo)
        # ...and much flatter across thread counts.
        spread_bm = log_wa("bminus", rs, lo) / max(log_wa("bminus", rs, hi), 1e-9)
        spread_wt = log_wa("wiredtiger", rs, lo) / max(log_wa("wiredtiger", rs, hi), 1e-9)
        assert spread_bm < spread_wt
    # Packed log WA grows as records shrink.
    assert log_wa("wiredtiger", record_sizes[-1], lo) > 2.0 * log_wa(
        "wiredtiger", 128, lo)
