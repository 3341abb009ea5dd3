"""Ablation: how much WA does each of the three techniques remove?

Not a paper figure — this regenerates the paper's *narrative* (§3): starting
from an in-place B-tree with a double-write journal, apply the techniques
one at a time and measure the WA decomposition after each step:

    journal          in-place + double-write, packed WAL   (W_e = W_pg)
    shadow-table     conventional COW + persisted table    (W_e = 4KB/flush;
                     the ``wiredtiger`` configuration)
    det-shadow       technique 1: the pager writes no extra bytes
                     (W_e -> the meta page alone)
    + delta logging  technique 2: W_pg collapses
    + sparse WAL     technique 3: W_log collapses (per-commit flushing)

Run under log-flush-per-commit so all three components are visible.
"""

from conftest import emit, scaled

from repro.bench.harness import ExperimentSpec, run_experiment
from repro.bench.reporting import format_table

STEPS = [
    ("btree-journal", "in-place + journal (none)"),
    ("wiredtiger", "conventional shadowing"),
    ("btree-det-shadow", "+ deterministic shadowing (T1)"),
    ("bminus-packedlog", "+ delta logging (T1+T2)"),
    ("bminus", "+ sparse redo log (T1+T2+T3)"),
]


def run_ablation():
    results = {}
    for system, _ in STEPS:
        spec = ExperimentSpec(
            system=system,
            n_records=scaled(40_000),
            record_size=128,
            n_threads=1,  # per-commit log costs are starkest single-threaded
            steady_ops=scaled(30_000),
            log_flush_policy="commit",
        )
        results[system] = run_experiment(spec)
    return results


def test_ablation_techniques(once):
    results = once(run_ablation)
    rows = []
    for system, label in STEPS:
        wa = results[system].wa
        rows.append([label, wa.wa_total, wa.wa_log, wa.wa_pg, wa.wa_e])
    emit("ablation", format_table(
        "Ablation: WA after applying each technique (128B records, 8KB pages, "
        "log-flush-per-commit, 1 thread)",
        ["configuration", "WA", "WA_log", "WA_pg", "WA_e"],
        rows,
        note="each step removes the component it targets: "
             "T1 -> W_e, T2 -> W_pg, T3 -> W_log\n"
             "W_e after T1 is only the 4KB meta page (checkpoints, root changes)",
    ))
    wa = {system: results[system].wa for system, _ in STEPS}
    # Technique 1 makes page writes atomic without extra writes (journal
    # pays W_e ~= W_pg); what W_e remains is the engine's meta page.
    assert wa["btree-journal"].wa_e > 0.8 * wa["btree-journal"].wa_pg
    assert results["btree-det-shadow"].engine.pager.stats.extra_logical_bytes == 0
    assert wa["wiredtiger"].wa_e > wa["btree-det-shadow"].wa_e
    # Technique 2 collapses the page component by several fold.
    assert wa["bminus-packedlog"].wa_pg < 0.4 * wa["btree-det-shadow"].wa_pg
    # Technique 3 collapses the log component.
    assert wa["bminus"].wa_log < 0.4 * wa["bminus-packedlog"].wa_log
    # And the total falls monotonically along the whole ladder.
    totals = [wa[system].wa_total for system, _ in STEPS]
    assert all(a >= b for a, b in zip(totals, totals[1:])), totals
    # Headline: >5x total reduction end to end (paper claims >10x vs its
    # baseline at full scale).
    assert totals[0] > 5 * totals[-1]
