"""Strategy sweep: LSM WA across compaction strategies × KV separation.

Not a figure from the source paper — its evaluation runs a single leveled
LSM.  This sweep adds the two directions PAPERS.md names on top of the
transparent-compression stack: BVLSM-style WAL-time key-value separation
(values above a threshold move to a value log at WAL time and stop riding
compaction) and the CS265-style tiered / lazy-leveled / partial compaction
strategies.

Expected shape: at the large record size, separation cuts WA for *every*
strategy — the large values no longer rewrite on each merge — while at the
small record size (below the threshold) separation is a no-op and the WA
matches the unseparated run of the same strategy.
"""

from conftest import emit, scaled

from repro.bench.harness import ExperimentSpec, full_mode, run_experiment
from repro.bench.reporting import format_table
from repro.lsm.strategy import STRATEGIES

THRESHOLD = 256


def grid():
    record_sizes = [64, 256, 512] if full_mode() else [64, 512]
    return sorted(STRATEGIES), record_sizes


def run_sweep():
    strategies, record_sizes = grid()
    results = {}
    for strategy in strategies:
        for record_size in record_sizes:
            for threshold in (None, THRESHOLD):
                spec = ExperimentSpec(
                    system="rocksdb",
                    n_records=scaled(6000),
                    record_size=record_size,
                    steady_ops=scaled(6000),
                    compaction_strategy=strategy,
                    value_separation_threshold=threshold,
                )
                results[(strategy, record_size, threshold)] = (
                    run_experiment(spec)
                )
    return results


def test_strategy_sweep(once):
    results = once(run_sweep)
    strategies, record_sizes = grid()
    rows = []
    for strategy in strategies:
        for record_size in record_sizes:
            plain = results[(strategy, record_size, None)]
            sep = results[(strategy, record_size, THRESHOLD)]
            occ = sep.engine.vlog_occupancy()
            live = (f"{occ['live_bytes'] / occ['data_bytes']:.2f}"
                    if occ and occ["data_bytes"] else "-")
            rows.append([
                strategy, f"{record_size}B",
                plain.wa_total, sep.wa_total,
                f"{plain.wa_total / sep.wa_total:.2f}x", live,
            ])
    emit("fig_strategy_sweep", format_table(
        "Strategy sweep: LSM WA per compaction strategy x record size, "
        f"KV separation off vs on (threshold {THRESHOLD}B)",
        ["strategy", "record", "WA", "WA (KV-sep)", "gain", "vlog live"],
        rows,
        note="beyond the paper: BVLSM-style WAL-time separation + CS265 "
             "compaction strategies on the transparent-compression stack",
    ))
    large = max(record_sizes)
    small = min(record_sizes)
    baseline = results[("leveled", large, None)]
    for strategy in strategies:
        sep = results[(strategy, large, THRESHOLD)]
        # Separation removes large values from the compaction path: the
        # page-write component must fall vs the unseparated leveled run.
        assert sep.wa.wa_pg < baseline.wa.wa_pg, strategy
        assert sep.wa_total < baseline.wa_total, strategy
        # Small records sit below the threshold: separation never engages
        # (the value log stays empty), so WA matches the plain run to
        # within the manifest-extension noise (its threshold and vlog state
        # compress slightly differently; the data path is untouched).
        sep_small = results[(strategy, small, THRESHOLD)]
        occ = sep_small.engine.vlog_occupancy()
        assert occ["appended_records"] == 0, strategy
        plain_small = results[(strategy, small, None)]
        assert abs(sep_small.wa_total - plain_small.wa_total) \
            < 0.01 * plain_small.wa_total, strategy
