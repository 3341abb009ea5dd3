"""Command-line interface for ad-hoc experiments.

Examples::

    python -m repro compare --systems bminus --records 40000 --threads 4
    python -m repro compare --systems rocksdb,bminus,wiredtiger --record-size 32
    python -m repro stats --system bminus --workload zipf --window 0.5
    python -m repro speed --workload write --systems bminus,rocksdb --threads 16

Every experiment command populates the store, then runs one measured phase:
``--workload`` picks uniform updates (``write``), Zipf updates (``zipf``,
``zipf-scattered``), point reads (``read``) or range scans (``scan``).

The paper-figure reproductions live in ``benchmarks/`` (pytest); this CLI is
for exploring the parameter space interactively.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.bench.harness import (
    SYSTEMS,
    WORKLOADS,
    ExperimentSpec,
    default_jobs,
    run_experiment,
    run_strategy_point,
)
from repro.bench.parallel import run_specs
from repro.bench.reporting import format_table
from repro.bench.speed import SpeedModel
from repro.errors import ConfigError, ReproError


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--records", type=int, default=30_000,
                        help="key-space size (number of records)")
    parser.add_argument("--record-size", type=int, default=128,
                        help="record size in bytes, including the 8B key")
    parser.add_argument("--page-size", type=int, default=8192,
                        help="B-tree page size in bytes")
    parser.add_argument("--threads", type=int, default=1,
                        help="simulated client threads")
    parser.add_argument("--threshold-t", type=int, default=2048,
                        help="B- page-modification-logging threshold T")
    parser.add_argument("--segment-size", type=int, default=128,
                        help="B- dirty-tracking segment size D_s")
    parser.add_argument("--cache-fraction", type=float, default=1 / 150,
                        help="cache size as a fraction of the dataset")
    parser.add_argument("--steady-ops", type=int, default=None,
                        help="steady-phase operations (default: one turnover)")
    parser.add_argument("--log-policy", choices=("commit", "interval"),
                        default="interval", help="redo-log flush policy")
    parser.add_argument("--workload", choices=tuple(WORKLOADS), default="write",
                        help="measured phase after populating the store")
    parser.add_argument("--theta", type=float, default=0.99,
                        help="Zipf skew (zipf workloads)")
    parser.add_argument("--scan-length", type=int, default=100,
                        help="records per scan (scan workload)")
    parser.add_argument("--seed", type=int, default=2022)


def _spec_from_args(args: argparse.Namespace, system: str) -> ExperimentSpec:
    return ExperimentSpec(
        system=system,
        n_records=args.records,
        record_size=args.record_size,
        page_size=args.page_size,
        n_threads=args.threads,
        threshold_t=args.threshold_t,
        segment_size=args.segment_size,
        cache_fraction=args.cache_fraction,
        steady_ops=args.steady_ops,
        log_flush_policy=args.log_policy,
        seed=args.seed,
        workload=args.workload,
        theta=args.theta,
        scan_length=args.scan_length,
    )


def _wa_row(result) -> list:
    wa = result.wa
    return [
        result.spec.system,
        wa.wa_total,
        wa.wa_log,
        wa.wa_pg,
        wa.wa_e,
        wa.wa_total_logical,
        f"{result.logical_usage / 1e6:.1f}MB",
        f"{result.physical_usage / 1e6:.1f}MB",
        f"{result.beta:.3f}" if result.beta else "-",
    ]


_WA_HEADERS = ["system", "WA", "WA_log", "WA_pg", "WA_e", "WA(logical)",
               "logical", "physical", "beta"]


def cmd_compare(args: argparse.Namespace) -> int:
    """``repro compare``: measure WA for one or more systems side by side.

    With ``--jobs N`` (or ``REPRO_JOBS=N``) the systems run as independent
    worker processes; results are merged in the order the systems were named.
    """
    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    jobs = default_jobs() if args.jobs is None else args.jobs
    if jobs < 1:
        raise ConfigError(f"--jobs must be a positive integer, got {jobs}")
    print(f"running {len(systems)} systems across {jobs} jobs ...",
          file=sys.stderr)
    specs = [_spec_from_args(args, system) for system in systems]
    rows = [_wa_row(result) for result in run_specs(specs, jobs=jobs)]
    print(format_table(
        f"Write amplification, {args.record_size}B records, "
        f"{args.threads} threads, log-flush-per-{args.log_policy}",
        _WA_HEADERS, rows,
    ))
    return 0


def cmd_speed(args: argparse.Namespace) -> int:
    """``repro speed``: estimate simulated-time TPS for several systems."""
    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    model = SpeedModel()
    rows = []
    for system in systems:
        print(f"running {system} ...", file=sys.stderr)
        result = run_experiment(_spec_from_args(args, system))
        phase = result.steady
        tps = model.tps(phase, result.engine, args.threads)
        rows.append([system, f"{tps:,.0f}", phase.ops,
                     f"{phase.elapsed_seconds:.1f}s"])
    print(format_table(
        f"Simulated {args.workload} TPS, {args.threads} threads",
        ["system", "TPS (simulated)", "ops", "workload clock"], rows,
        note="simulated-time estimate; orderings are meaningful, absolutes "
             "are not (see README)",
    ))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """``repro stats``: per-op latency histograms + WA-over-time windows.

    Runs one experiment with a :class:`~repro.obs.metrics.MetricsHub`
    attached and prints the per-operation simulated-latency quantiles and
    the time-windowed WA decomposition.  ``--watch`` streams each window to
    stdout as it closes (the windows are simulated time, so they appear at
    the simulation's pace, not wall clock); ``--json`` exports the full hub
    (histograms + window series) for offline analysis.
    """
    import json as _json

    from repro.obs.metrics import MetricsHub

    def _print_window(window: dict) -> None:
        usr = window.get("user_bytes", 0)
        physical = (window.get("log_physical", 0)
                    + window.get("page_physical", 0)
                    + window.get("extra_physical", 0))
        wa = physical / usr if usr > 0 else 0.0
        print(f"[{window['start']:10.2f}s .. {window['end']:10.2f}s] "
              f"user={usr / 1e6:9.3f}MB physical={physical / 1e6:9.3f}MB "
              f"WA={wa:7.2f} ops={window.get('operations', 0)}")

    hub = MetricsHub(window_seconds=args.window,
                     on_window=_print_window if args.watch else None)
    result = run_experiment(_spec_from_args(args, args.system), hub=hub)
    summary = result.obs

    lat_rows = [
        [kind, s["n"]] + [f"{s[q] * 1e6:.1f}"
                          for q in ("mean", "p50", "p90", "p99", "max")]
        for kind, s in summary["op_latency"].items()
    ]
    print(format_table(
        f"Simulated per-op latency (us): {result.spec.label()}",
        ["op", "n", "mean", "p50", "p90", "p99", "max"], lat_rows,
        note="modelled device busy time + host op base, simulated clock",
    ))

    wa_rows = [
        [f"{w['start']:.1f}", f"{w['end']:.1f}",
         f"{w['user_bytes'] / 1e6:.3f}MB",
         f"{w['wa_log']:.2f}", f"{w['wa_pg']:.2f}", f"{w['wa_e']:.2f}",
         f"{w['wa_total']:.2f}", w["operations"]]
        for w in summary["wa_windows"]
    ]
    print(format_table(
        f"WA over time ({args.window:g}s windows)",
        ["start", "end", "user", "WA_log", "WA_pg", "WA_e", "WA", "ops"],
        wa_rows,
    ))

    if args.json:
        export = hub.to_dict()
        # Engine-shape diagnostics ride along when the engine exposes them
        # (LSM only): bytes per level and the value-log occupancy sweep.
        engine = result.engine
        if hasattr(engine, "level_shape"):
            shape = {"level_shape": engine.level_shape()}
            occupancy = (engine.vlog_occupancy()
                         if hasattr(engine, "vlog_occupancy") else None)
            if occupancy is not None:
                shape["vlog"] = occupancy
                shape["vlog_live_ratio"] = round(
                    occupancy["live_bytes"] / occupancy["data_bytes"], 6
                ) if occupancy["data_bytes"] else 0.0
            export["engine"] = shape
        payload = _json.dumps(export, indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
            print(f"wrote {args.json}", file=sys.stderr)
    return 0


def cmd_faultcheck(args: argparse.Namespace) -> int:
    """``repro faultcheck``: the fault-injection / crash-point campaign.

    Enumerates every device mutation boundary in a commit pipeline, crash
    tests each one (drop and torn modes), runs seeded probabilistic fault
    plans, and verifies targeted corruption self-heals (shadow-slot
    read-repair, journal-ring restore, WAL tail truncation).  Exit code 0
    means every check passed.
    """
    import json as _json

    from repro.bench.faultcheck import format_report, run_faultcheck

    systems = [s.strip() for s in (args.systems or "").split(",") if s.strip()]
    report = run_faultcheck(
        systems, ops=args.ops, budget=args.budget,
        trials=args.trials, seed=args.seed,
    )
    print(_json.dumps(report, indent=2) if args.json else format_report(report))
    return 0 if report["passed"] else 1


def cmd_compact_compare(args: argparse.Namespace) -> int:
    """``repro compact-compare``: WA per compaction strategy × value size.

    Runs the deterministic strategy sweep from
    :func:`repro.bench.harness.run_strategy_point` — each named strategy
    at each value size, with WAL-time key-value separation off and on — and
    prints the WA table plus the value-log live ratio.  An unknown strategy
    name or a nonsensical threshold raises
    :class:`~repro.errors.ConfigError`, which :func:`main` turns into exit
    code 1.
    """
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    sizes = [int(s) for s in args.value_sizes.split(",") if s.strip()]
    rows = []
    for strategy in strategies:
        for size in sizes:
            print(f"running {strategy} @ {size}B ...", file=sys.stderr)
            plain = run_strategy_point(strategy, size, None, args.keys,
                                       seed=args.seed)
            sep = run_strategy_point(strategy, size, args.threshold,
                                     args.keys, seed=args.seed)
            occ = sep.get("vlog")
            live = (f"{occ['live_bytes'] / occ['data_bytes']:.2f}"
                    if occ and occ["data_bytes"] else "-")
            rows.append([
                strategy, size,
                f"{plain['wa_total']:.2f}", f"{sep['wa_total']:.2f}",
                f"{plain['wa_total'] / sep['wa_total']:.2f}x",
                live,
            ])
    print(format_table(
        f"Compaction strategy WA sweep, {args.keys} keys x 2 passes, "
        f"separation threshold {args.threshold}B",
        ["strategy", "value B", "WA", "WA (KV-sep)", "gain", "vlog live"],
        rows,
        note="WA on the simulated stack; 'vlog live' is live/data bytes "
             "in the value log after the run",
    ))
    return 0


def cmd_serve_sim(args: argparse.Namespace) -> int:
    """``repro serve-sim``: the multi-client serving-layer simulation.

    Serves ``--sessions`` open-loop client sessions over one group-atomic
    engine through the :class:`~repro.service.StorageService` front-end
    (group commit, admission control, deadlines, bounded retry) and prints
    the resilience report: throughput, per-kind p50/p99/p999 client latency,
    fairness spread, and the full zero-silent-drops ledger.  ``--overload``
    presets an offered load well past the service capacity so the shed /
    deadline-expiry paths engage.  Exit code 0 requires a closed ledger
    (``unaccounted == 0``); anything else is a silent drop and exits 1.
    """
    import json as _json

    from repro.obs.metrics import MetricsHub
    from repro.service import ServiceConfig, StorageService, make_sessions
    from repro.sim.clock import SimClock
    from repro.sim.rng import DeterministicRng
    from repro.workloads.records import KeySpace

    clock = SimClock()
    device, engine = _build_serve_engine(args.system, clock)
    if args.overload:
        # Offered load ~4x the commit-window service capacity, with a short
        # queue and tight deadlines: every degradation path engages.
        queue_depth = min(args.queue_depth, 16)
        arrival = args.commit_window * args.per_op_interval / (4 * args.sessions)
        deadline = 8 * args.per_op_interval
    else:
        queue_depth = args.queue_depth
        arrival = args.arrival_interval
        deadline = args.deadline
    config = ServiceConfig(
        queue_depth=queue_depth,
        commit_window=args.commit_window,
        per_op_interval=args.per_op_interval,
        deadline=deadline,
    )
    hub = MetricsHub(window_seconds=args.window)
    service = StorageService(
        engine, clock, config, rng=DeterministicRng(args.seed), hub=hub)
    sessions = make_sessions(
        args.sessions, args.ops, KeySpace(args.records, args.record_size),
        DeterministicRng(args.seed), arrival,
        write_fraction=args.write_fraction,
    )
    report = service.serve(sessions)
    engine.close()

    if args.json:
        payload = report.to_dict()
        payload["obs"] = hub.summary()
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        stats = report.stats
        lat_rows = [
            [kind, d["n"]] + [f"{d[q] * 1e6:.1f}"
                              for q in ("p50", "p99", "p999", "max")]
            for kind, d in report.latency.items()
        ]
        print(format_table(
            f"Client-visible latency (us): {args.system}, "
            f"{report.n_sessions} sessions",
            ["op", "n", "p50", "p99", "p999", "max"], lat_rows,
            note="queueing + service time on the simulated clock",
        ))
        ledger = stats.as_dict()
        print(format_table(
            f"Serving ledger ({report.elapsed_seconds:.2f}s simulated, "
            f"{report.throughput:,.0f} acknowledged ops/s)",
            ["counter", "value"],
            [[name, value] for name, value in ledger.items()],
            note=f"fairness spread {report.fairness:.3f} "
                 f"(per-session completions {min(report.per_session_completed)}"
                 f"..{max(report.per_session_completed)})",
        ))
    return 0 if report.stats.unaccounted() == 0 else 1


def _build_serve_engine(system: str, clock):
    """One group-atomic engine + device for ``repro serve-sim``."""
    from repro.btree.engine import BTreeConfig, BTreeEngine
    from repro.core.bminus import BMinusConfig, BMinusTree
    from repro.csd.device import CompressedBlockDevice
    from repro.lsm.engine import LSMConfig, LSMEngine

    device = CompressedBlockDevice(num_blocks=1 << 15)
    if system == "lsm":
        engine = LSMEngine(
            device,
            LSMConfig(log_flush_policy="commit", group_atomic=True),
            clock,
        )
    elif system == "btree":
        engine = BTreeEngine(
            device,
            BTreeConfig(
                atomicity="det-shadow", wal_mode="packed",
                log_flush_policy="commit", group_atomic=True,
                cache_bytes=256 * 4096, max_pages=4096,
            ),
            clock,
        )
    else:
        engine = BMinusTree(
            device,
            BMinusConfig(
                log_flush_policy="commit", group_atomic=True,
                cache_bytes=256 * 4096, max_pages=4096,
            ),
            clock,
        )
    return device, engine


def cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint``: the repo's invariant linter (see repro.analysis).

    Runs the AST-based checkers — per-file rules (IOD002, EXC004, BUF007)
    and the whole-program interprocedural rules (CRS008, ERR010, PUR009) —
    over the given files/directories (default ``src/repro``) in one serial
    pass.  Exit code 0 means no findings; 1 means at least one finding
    (including unused ``noqa`` suppressions, NQA000).

    ``--json`` emits the machine-readable report the CI ``lint`` job
    archives.
    """
    import json as _json

    from repro.analysis import analyze_paths, findings_to_json, format_findings
    from repro.analysis.framework import select_rules

    rules = select_rules(args.rules)
    findings, files_scanned = analyze_paths(args.paths or ["src/repro"], rules)
    if args.json:
        print(_json.dumps(findings_to_json(findings, files_scanned),
                          indent=2, sort_keys=True))
    else:
        print(format_findings(findings, files_scanned))
    return 1 if findings else 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="B-minus-tree reproduction: ad-hoc experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmp_p = sub.add_parser("compare",
                           help="measure WA for one or more systems")
    cmp_p.add_argument("--systems", default="rocksdb,wiredtiger,bminus",
                       help="comma-separated system list")
    cmp_p.add_argument("--jobs", type=int, default=None,
                       help="worker processes for independent experiment "
                            "points (default: REPRO_JOBS or 1)")
    _add_spec_arguments(cmp_p)
    cmp_p.set_defaults(func=cmd_compare)

    sts_p = sub.add_parser(
        "stats", help="per-op latency histograms and WA-over-time windows")
    sts_p.add_argument("--system", choices=SYSTEMS, default="bminus")
    sts_p.add_argument("--window", type=float, default=1.0,
                       help="WA window width in simulated seconds")
    sts_p.add_argument("--watch", action="store_true",
                       help="stream each window to stdout as it closes")
    sts_p.add_argument("--json", default=None, metavar="PATH",
                       help="export the full hub (histograms + windows) as "
                            "JSON; '-' for stdout")
    _add_spec_arguments(sts_p)
    sts_p.set_defaults(func=cmd_stats)

    flt_p = sub.add_parser(
        "faultcheck",
        help="systematic crash-point and fault-injection campaign")
    flt_p.add_argument("--systems", default=None,
                       help="comma-separated system list (default: every "
                            "system in repro.bench.faultcheck."
                            "FAULTCHECK_SYSTEMS)")
    flt_p.add_argument("--ops", type=int, default=200,
                       help="operations per campaign workload")
    flt_p.add_argument("--budget", type=int, default=24,
                       help="max crash points tested per crash mode")
    flt_p.add_argument("--trials", type=int, default=3,
                       help="seeded probabilistic fault-plan trials")
    flt_p.add_argument("--seed", type=int, default=2022)
    flt_p.add_argument("--json", action="store_true",
                       help="emit the full JSON report instead of a summary")
    flt_p.set_defaults(func=cmd_faultcheck)

    cc_p = sub.add_parser(
        "compact-compare",
        help="WA table per compaction strategy x value size (KV separation "
             "off vs on)")
    cc_p.add_argument("--strategies", default="leveled,tiered,lazy-leveled,partial",
                      help="comma-separated strategy list (see "
                           "repro.lsm.strategy.STRATEGIES)")
    cc_p.add_argument("--value-sizes", default="64,1024",
                      help="comma-separated value sizes in bytes")
    cc_p.add_argument("--threshold", type=int, default=256,
                      help="value-separation threshold for the KV-sep runs")
    cc_p.add_argument("--keys", type=int, default=300,
                      help="key-space size (each run overwrites it twice)")
    cc_p.add_argument("--seed", type=int, default=2022)
    cc_p.set_defaults(func=cmd_compact_compare)

    srv_p = sub.add_parser(
        "serve-sim",
        help="multi-client serving simulation (group commit + admission "
             "control + deadlines)")
    srv_p.add_argument("--system", choices=("bminus", "btree", "lsm"),
                       default="bminus")
    srv_p.add_argument("--sessions", type=int, default=64,
                       help="simulated open-loop client sessions")
    srv_p.add_argument("--ops", type=int, default=50,
                       help="operations submitted per session")
    srv_p.add_argument("--records", type=int, default=20_000,
                       help="key-space size (number of records)")
    srv_p.add_argument("--record-size", type=int, default=128)
    srv_p.add_argument("--write-fraction", type=float, default=0.8)
    srv_p.add_argument("--arrival-interval", type=float, default=0.01,
                       help="seconds between one session's submissions")
    srv_p.add_argument("--queue-depth", type=int, default=64,
                       help="bounded submission queue (admission control)")
    srv_p.add_argument("--commit-window", type=int, default=8,
                       help="max ops coalesced per group commit")
    srv_p.add_argument("--per-op-interval", type=float, default=1.0 / 5000.0,
                       help="simulated service time of one commit window")
    srv_p.add_argument("--deadline", type=float, default=0.1,
                       help="per-op deadline from arrival, in seconds")
    srv_p.add_argument("--window", type=float, default=0.5,
                       help="obs window width in simulated seconds")
    srv_p.add_argument("--overload", action="store_true",
                       help="preset an offered load ~4x service capacity "
                            "(exercises shed/expiry paths)")
    srv_p.add_argument("--seed", type=int, default=2022)
    srv_p.add_argument("--json", action="store_true",
                       help="emit the full JSON report (stats + latency + "
                            "obs windows)")
    srv_p.set_defaults(func=cmd_serve_sim)

    lnt_p = sub.add_parser(
        "lint", help="run the repo's AST invariant linter (repro.analysis)")
    lnt_p.add_argument("paths", nargs="*", metavar="PATH",
                       help="files or directories to lint (default: src/repro)")
    lnt_p.add_argument("--json", action="store_true",
                       help="emit the machine-readable findings report")
    lnt_p.add_argument("--rules", default=None, metavar="IDS",
                       help="comma-separated rule ids to run "
                            "(e.g. CRS008,EXC004; default: all)")
    lnt_p.set_defaults(func=cmd_lint)

    spd_p = sub.add_parser("speed", help="estimate TPS for several systems")
    spd_p.add_argument("--systems", default="rocksdb,wiredtiger,bminus")
    _add_spec_arguments(spd_p)
    spd_p.set_defaults(func=cmd_speed)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Library failures (:class:`~repro.errors.ReproError`) and I/O failures
    (``OSError`` — unwritable export paths) exit 1 with a one-line message
    instead of a traceback, so scripts and CI can gate on the exit code.
    """
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
