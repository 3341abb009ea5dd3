"""Fig. 14: B⁻-tree WA under different thresholds T (log-flush-per-minute).

Expected shape: raising T lets more modification logs accumulate per page
before a full-page reset, so WA falls monotonically as T grows from 1KB to
4KB; the reduction is larger at smaller record sizes.
"""

from conftest import emit, scaled

from repro.bench.harness import ExperimentSpec, full_mode, run_experiment
from repro.bench.reporting import format_table

THRESHOLDS = [1024, 2048, 4096]


def grid():
    record_sizes = [128, 32, 16] if full_mode() else [128, 32]
    threads = [1, 2, 4, 8, 16] if full_mode() else [1, 16]
    return record_sizes, threads


def run_fig14():
    record_sizes, threads = grid()
    results = {}
    for record_size in record_sizes:
        for threshold in THRESHOLDS:
            for t in threads:
                spec = ExperimentSpec(
                    system="bminus",
                    n_records=scaled(40_000 if record_size == 128 else 80_000),
                    record_size=record_size,
                    threshold_t=threshold,
                    segment_size=128,
                    n_threads=t,
                    steady_ops=scaled(40_000),
                    log_flush_policy="interval",
                )
                results[(record_size, threshold, t)] = run_experiment(spec)
    return results


def test_fig14_threshold(once):
    results = once(run_fig14)
    record_sizes, threads = grid()
    rows = []
    for record_size in record_sizes:
        for threshold in THRESHOLDS:
            row = [f"{record_size}B", f"T={threshold // 1024}KB"]
            for t in threads:
                row.append(results[(record_size, threshold, t)].wa_total)
            rows.append(row)
    emit("fig14", format_table(
        "Fig 14: B--tree WA vs threshold T (Ds=128B, log-flush-per-minute)",
        ["record", "threshold"] + [f"WA@{t}thr" for t in threads],
        rows,
        note="paper reports monotone reduction up to T=4KB; our measurement "
             "finds the optimum near 2KB — every delta flush rewrites the "
             "full accumulated delta, whose average size grows with T "
             "(see EXPERIMENTS.md)",
    ))
    for record_size in record_sizes:
        for t in threads:
            wa = lambda thr: results[(record_size, thr, t)].wa_total
            # Raising T away from the smallest value reduces WA (the paper's
            # low-T side, unambiguously reproduced)...
            assert wa(1024) > wa(2048), (record_size, t)
            # ...and T's whole effect stays within a ~2x band (no cliff).
            values = [wa(thr) for thr in THRESHOLDS]
            assert max(values) < 2.0 * min(values), (record_size, t)
