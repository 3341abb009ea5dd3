"""Ablation: the techniques *require* the compressing drive.

The paper's §3.2 argues that page-modification logging "is not practically
viable" on normal storage: without in-storage compression, every zero-padded
4KB delta block and every sparse log block costs its full 4KB physically.
This bench runs the B⁻-tree and the conventional shadowing B-tree
(``wiredtiger``, the paper's baseline) on both device kinds and shows the
techniques' advantage collapses on a conventional SSD.
"""

from conftest import emit, scaled

from repro.bench.harness import ExperimentSpec, run_experiment
from repro.bench.reporting import format_table


def run_plain_ssd_ablation():
    results = {}
    for system in ("wiredtiger", "bminus"):
        for device_kind in ("csd", "plain"):
            spec = ExperimentSpec(
                system=system,
                n_records=scaled(30_000),
                record_size=128,
                n_threads=1,
                steady_ops=scaled(25_000),
                log_flush_policy="commit",
                device_kind=device_kind,
            )
            results[(system, device_kind)] = run_experiment(spec)
    return results


def test_ablation_plain_ssd(once):
    results = once(run_plain_ssd_ablation)
    rows = []
    for (system, device_kind), res in results.items():
        rows.append([
            system, device_kind, res.wa_total,
            f"{res.physical_usage / 1e6:.1f}MB",
        ])
    emit("ablation_plain_ssd", format_table(
        "Ablation: B- vs baseline on a compressing drive vs a plain SSD",
        ["system", "device", "WA (physical)", "flash used"],
        rows,
        note="without transparent compression the sparse structures pay "
             "full price: the B- advantage collapses (paper §3.2)",
    ))
    wa = lambda sys, dev: results[(sys, dev)].wa_total
    gain_csd = wa("wiredtiger", "csd") / wa("bminus", "csd")
    gain_plain = wa("wiredtiger", "plain") / wa("bminus", "plain")
    # On the compressing drive the B- advantage is several-fold...
    assert gain_csd > 3.0
    # ... on a plain SSD it shrinks dramatically (techniques need the drive).
    assert gain_plain < 0.6 * gain_csd
    # And B- on plain storage pays MORE physical bytes than on the CSD.
    assert (results[("bminus", "plain")].wa_total
            > 2.0 * results[("bminus", "csd")].wa_total)
