"""Ablation: segment size D_s from the tracking grain up to 512B.

Extends the paper's D_s = {128B, 256B} comparison down to the dirty-tracking
grain (64B) and up to 512B.  Expected shape (paper §4.2): WA grows with
D_s — modification logging is done in units of segments, so coarser
segments inflate every Δ — and the effect is strongest for small records.
The β overhead moves only marginally (paper Table 2).
"""

from conftest import emit, scaled

from repro.bench.harness import ExperimentSpec, run_experiment
from repro.bench.reporting import format_table

SEGMENT_SIZES = [64, 128, 256, 512]


def run_segment_ablation():
    results = {}
    for record_size in (128, 16):
        for seg in SEGMENT_SIZES:
            spec = ExperimentSpec(
                system="bminus",
                n_records=scaled(30_000 if record_size == 128 else 80_000),
                record_size=record_size,
                segment_size=seg,
                n_threads=4,
                steady_ops=scaled(30_000),
            )
            results[(record_size, seg)] = run_experiment(spec)
    return results


def test_ablation_segment_size(once):
    results = once(run_segment_ablation)
    rows = []
    for record_size in (128, 16):
        row = [f"{record_size}B"]
        for seg in SEGMENT_SIZES:
            row.append(results[(record_size, seg)].wa_total)
        row.append(f"{results[(record_size, 128)].beta * 100:.1f}%"
                   f" / {results[(record_size, 256)].beta * 100:.1f}%")
        rows.append(row)
    emit("ablation_segment_size", format_table(
        "Ablation: B- WA vs segment size Ds (8KB pages, T=2KB)",
        ["record"] + [f"Ds={s}B" for s in SEGMENT_SIZES] + ["beta 128/256"],
        rows,
        note="coarser segments inflate every delta; the effect is strongest "
             "for small records (paper §4.2)",
    ))
    for record_size in (128, 16):
        wa = lambda seg: results[(record_size, seg)].wa_total
        # WA grows with the segment size...
        assert wa(512) > wa(128), record_size
        assert wa(256) >= wa(128) * 0.95, record_size
    # ...and the impact of Ds is larger at 16B records than at 128B.
    growth_small = results[(16, 512)].wa_total / results[(16, 128)].wa_total
    growth_large = results[(128, 512)].wa_total / results[(128, 128)].wa_total
    assert growth_small > growth_large * 0.9
