"""Fig. 12: total WA under log-flush-per-commit (150GB regime).

Versus Fig. 9 (per-minute flushing), every packed-log system pays visibly
more — especially at low thread counts — while the B⁻-tree's total barely
changes thanks to sparse redo logging, so B⁻ beats RocksDB across more of
the grid.
"""

from conftest import emit, scaled

from repro.bench.harness import ExperimentSpec, full_mode
from repro.bench.parallel import run_grid
from repro.bench.reporting import format_table


def grid():
    threads = [1, 2, 4, 8, 16] if full_mode() else [1, 4, 16]
    record_sizes = [128, 32, 16] if full_mode() else [128]
    systems = ["rocksdb", "wiredtiger", "bminus"]
    return record_sizes, threads, systems


def run_fig12():
    record_sizes, threads, systems = grid()
    specs = {}
    for record_size in record_sizes:
        for system in systems:
            for t in threads:
                for policy in ("commit", "interval"):
                    if policy == "interval" and (t != threads[0] or record_size != 128):
                        continue  # one per-minute reference point per system
                    specs[(record_size, system, t, policy)] = ExperimentSpec(
                        system=system,
                        n_records=scaled(40_000),
                        record_size=record_size,
                        n_threads=t,
                        steady_ops=scaled(30_000),
                        log_flush_policy=policy,
                    )
    return run_grid(specs)  # fans out across REPRO_JOBS workers


def test_fig12_wa_per_commit(once):
    results = once(run_fig12)
    record_sizes, threads, systems = grid()
    rows = []
    for record_size in record_sizes:
        for system in systems:
            row = [f"{record_size}B", system]
            for t in threads:
                row.append(results[(record_size, system, t, "commit")].wa_total)
            ref = results.get((128, system, threads[0], "interval"))
            row.append(ref.wa_total if ref else "")
            rows.append(row)
    emit("fig12", format_table(
        "Fig 12: total WA, log-flush-per-commit (vs per-minute reference)",
        ["record", "system"] + [f"WA@{t}thr" for t in threads]
        + [f"per-minute@{threads[0]}thr"],
        rows,
        note="per-commit flushing inflates packed-log systems, barely moves B-",
    ))
    lo = threads[0]
    wa = lambda sys, t, pol="commit": results[(128, sys, t, pol)].wa_total
    log_wa = lambda sys, t, pol="commit": results[(128, sys, t, pol)].wa.wa_log
    # Switching to per-commit barely moves B- ...
    assert wa("bminus", lo) < 1.3 * wa("bminus", lo, "interval")
    # ... but blows up the packed-log component at low concurrency ...
    assert log_wa("wiredtiger", lo) > 3.0 * log_wa("wiredtiger", lo, "interval")
    assert log_wa("rocksdb", lo) > 3.0 * log_wa("rocksdb", lo, "interval")
    # ... which visibly lifts their totals.
    assert wa("wiredtiger", lo) > 1.08 * wa("wiredtiger", lo, "interval")
    assert wa("rocksdb", lo) > 1.3 * wa("rocksdb", lo, "interval")
    # At low concurrency (where packed logs hurt most) B- beats RocksDB.
    assert wa("bminus", lo) < wa("rocksdb", lo)
    # B-'s total stays essentially flat across thread counts.
    hi = threads[-1]
    assert wa("bminus", hi) > 0.7 * wa("bminus", lo)
