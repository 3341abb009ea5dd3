#!/usr/bin/env python3
"""The T knob: write amplification vs storage overhead (Fig. 14 + Table 2).

Sweeps the page-modification-logging threshold T and prints, for each value,
the measured write amplification and the storage usage overhead factor β
(Eq. 4) — the trade-off §3.2 and §4.4 discuss: larger T means fewer
full-page resets (lower WA) but more delta bytes resident on flash
(higher β).

Run:  python examples/threshold_tradeoff.py
"""

from repro.bench import ExperimentSpec, format_table, run_experiment


def main() -> None:
    rows = []
    for page_size in (8192, 16384):
        for threshold in (1024, 2048, 4096):
            spec = ExperimentSpec(
                system="bminus",
                n_records=25_000,
                record_size=128,
                page_size=page_size,
                threshold_t=threshold,
                segment_size=128,
                n_threads=4,
                steady_ops=25_000,
            )
            print(f"running {spec.label()} ...")
            result = run_experiment(spec)
            rows.append([
                f"{page_size // 1024}KB",
                f"{threshold // 1024}KB",
                result.wa.wa_total,
                f"{result.beta * 100:.1f}%",
                result.engine.pager.stats.delta_flushes,
                result.engine.pager.stats.full_flushes,
            ])
    print(format_table(
        "B--tree: threshold T vs (write amplification, storage overhead beta)",
        ["page", "T", "WA", "beta", "delta flushes", "full flushes"],
        rows,
        note="larger T -> fewer full-page resets -> lower WA but higher beta "
             "(paper Fig 14 / Table 2)",
    ))


if __name__ == "__main__":
    main()
