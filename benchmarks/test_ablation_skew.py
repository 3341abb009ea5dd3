"""Ablation: access skew (YCSB Zipf 0.99) vs the paper's uniform writes.

Beyond the paper: skewed updates concentrate on hot pages, so every B-tree
variant coalesces more updates per page flush and WA falls; the B⁻-tree
additionally keeps re-dirtying the *same* segments, so its deltas stay short.
Hot-key clustering (adjacent hot keys share pages) helps more than the
scattered worst case.
"""

from conftest import emit, scaled

from repro.bench.harness import ExperimentSpec
from repro.bench.parallel import run_grid
from repro.bench.reporting import format_table

#: Column label -> the harness workload that produces it.
COLUMNS = {
    "uniform": "write",
    "zipf-clustered": "zipf",
    "zipf-scattered": "zipf-scattered",
}


def run_skew_ablation():
    specs = {
        (system, column): ExperimentSpec(
            system=system, n_records=scaled(40_000), record_size=128,
            n_threads=4, steady_ops=scaled(30_000), workload=workload,
        )
        for system in ("wiredtiger", "bminus")
        for column, workload in COLUMNS.items()
    }
    return run_grid(specs)  # fans out across REPRO_JOBS workers


def test_ablation_skew(once):
    results = once(run_skew_ablation)
    rows = []
    for system in ("wiredtiger", "bminus"):
        row = [system]
        for workload in COLUMNS:
            row.append(results[(system, workload)].wa_total)
        rows.append(row)
    emit("ablation_skew", format_table(
        "Ablation: WA under uniform vs Zipf(0.99) updates (128B, 8KB pages)",
        ["system"] + list(COLUMNS),
        rows,
        note="skew coalesces updates on hot pages: WA falls for every "
             "variant; clustering hot keys helps most",
    ))
    for system in ("wiredtiger", "bminus"):
        uniform = results[(system, "uniform")].wa_total
        clustered = results[(system, "zipf-clustered")].wa_total
        scattered = results[(system, "zipf-scattered")].wa_total
        # Skew reduces WA for every variant...
        assert clustered < 0.8 * uniform, system
        assert scattered < uniform, system
        # ...and page-level clustering beats the scattered worst case.
        assert clustered <= scattered * 1.05, system
