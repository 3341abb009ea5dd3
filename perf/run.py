"""The benchmark command.

One measured run (what ``BENCHMARK.json``'s ``command`` invokes)::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

builds a fresh engine + simulated-drive stack, runs a measured phase sized
for ``S`` seconds on the reference host, checks the outputs and prints one JSON object as the last line of
standard output: the end-to-end metrics with ``--trace 0``, the per-layer
ledger with ``--trace 1``.

Without ``--trace`` it runs the whole suite, each run in its own process::

    python3 perf/run.py [--seed 2022] [--repeat 3] [--workload NAME]
                        [--smoke] [--out FILE] [--check perf/baseline.json]

and prints every metric with its unit, direction, bound, median and
quartiles over the repeats.  ``--check`` reruns a recorded report's seed and
sizes and fails unless every sim-side number equals the recorded one and
every host-side median is within its bound of it.  Either way the exit code
is nonzero when an output is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from functools import partial
from pathlib import Path
from statistics import quantiles

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

KERNEL_CALLS = 20_000  # per timing; five timings make 100k calls per kernel
#: Sim-side end-to-end metrics: functions of the seed (and ``--seconds``) only.
SIM_END_TO_END = ("sim_ops_per_s", "wa_total", "space_amp", "dev_blocks_per_op")
#: Per-layer metrics on the host clock; every other ledger line is an exact count.
HOST_UNITS = ("s", "us", "ns")
HOST_RATIOS = ("bench.trace_overhead", "bench.ledger_residual")


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ------------------------------------------------------------------- one run


def run_once(args: argparse.Namespace) -> int:
    from perf import drive, kernels, workloads
    from perf.hostclock import pin_allocator, timed_call

    pin_allocator()
    # Op counts are sized for the declared run_seconds; --seconds scales them,
    # so the work stays a function of the arguments and never of host speed.
    workload = workloads.BY_NAME[args.workload].scaled(
        0.1 if args.smoke else 1.0, args.seconds / declared()["run_seconds"]
    )
    traced = args.trace == 1

    oplist, gen_s = timed_call(partial(workloads.generate, workload, args.seed))
    geom, geometry_s = timed_call(partial(drive.geometry, workload))

    # One round measures the end-to-end metrics.  A traced run adds a second,
    # traced round over the same op list: the first is its baseline for the
    # tracing overhead and for the bit-for-bit sim-side comparison.
    rounds = [drive.run_round(workload, oplist, geom, args.seed, traced=False)]
    if traced:
        rounds.append(drive.run_round(workload, oplist, geom, args.seed, traced=True))
    plain, last = rounds[0], rounds[-1]

    problems = [p for r in rounds for p in r.problems]
    if last.sim != plain.sim:
        diff = sorted(k for k in plain.sim if last.sim[k] != plain.sim[k])
        problems.append(f"sim-side metrics of the traced round differ from the untraced: {diff}")
    for problem in problems:
        print(f"FAILED {workload.name}: {problem}", file=sys.stderr)

    if traced:
        values = {k: v for k, v in plain.sim.items() if k not in SIM_END_TO_END}
        values.update(last.trace)
        values["workloads.gen_s"] = gen_s
        values["bench.trace_overhead"] = last.measured_s / plain.measured_s - 1.0
        values.update(kernels.run_kernels(args.seed, 2_000 if args.smoke else KERNEL_CALLS))
        if args.trace_out:
            last.recorder.dump(args.trace_out)
        section = "per_layer"
    else:
        values = {name: plain.sim[name] for name in SIM_END_TO_END}
        values["setup_s"] = gen_s + geometry_s + plain.setup_s
        values["host_ops_per_s"] = plain.host_ops_per_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        section = "end_to_end"

    units = {m["name"]: m["unit"] for m in declared()[section]}
    if set(units) != set(values):
        print(f"metric names differ from BENCHMARK.json {section}: "
              f"{sorted(set(units) ^ set(values))}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }))
    return 1 if problems else 0


# --------------------------------------------------------------------- suite


def spawn(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One measured run in its own process; returns its result object."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    sys.stderr.write(done.stderr)
    if done.returncode not in (0, 1) or not done.stdout.strip():
        raise SystemExit(f"{' '.join(command)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def run_suite(args: argparse.Namespace) -> int:
    from perf import workloads

    bench = declared()
    baseline = None
    if args.check:
        with open(args.check, encoding="utf-8") as handle:
            baseline = json.load(handle)
        # Sim-side numbers are a function of these three: take the baseline's.
        args.seed, args.seconds, args.smoke = (baseline[k] for k in ("seed", "seconds", "smoke"))
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    names = [args.workload] if args.workload else [w.name for w in workloads.WORKLOADS]
    report: dict = {
        "seed": args.seed, "repeat": args.repeat, "seconds": seconds, "smoke": args.smoke,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "workloads": {},
    }
    failures: list = []
    for name in names:
        runs = [spawn(name, args.seed, seconds, 0, args.smoke) for _ in range(args.repeat)]
        ledger = spawn(name, args.seed, seconds, 1, args.smoke)
        if not (all(r["correct"] for r in runs) and ledger["correct"]):
            failures.append(f"{name}: an output was wrong (see FAILED above)")
        print(f"\n== {name}: {workloads.BY_NAME[name].why}")
        print(f"{'end-to-end metric':<26}{'unit':<11}{'better':<8}{'bound':>6}"
              f"{'median':>14}{'q1':>14}{'q3':>14}{'spread':>8}")
        rows = {}
        for metric in bench["end_to_end"]:
            samples = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, q2, q3 = quartiles(samples)
            spread = (q3 - q1) / q2 if q2 else 0.0  # smoke sizes can leave the drive idle
            rows[metric["name"]] = {
                "median": q2, "q1": q1, "q3": q3, "spread": spread, "samples": samples,
            }
            print(f"{metric['name']:<26}{metric['unit']:<11}{metric['better']:<8}"
                  f"{metric['bound']:>6}{q2:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>8.3f}")
            if metric["name"] in SIM_END_TO_END and len(set(samples)) > 1:
                failures.append(f"{name}: {metric['name']} differs across same-seed runs")
        print(f"{'per-layer metric':<46}{'unit':<8}{'better':<8}{'value':>16}")
        for metric in bench["per_layer"]:
            value = ledger["metrics"][metric["name"]]["value"]
            print(f"{metric['name']:<46}{metric['unit']:<8}{metric['better']:<8}{value:>16.6g}")
        report["workloads"][name] = {
            "end_to_end": rows,
            "per_layer": {k: v["value"] for k, v in ledger["metrics"].items()},
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
        }
        if baseline is not None:
            failures.extend(against_baseline(name, report["workloads"][name],
                                             baseline["workloads"][name], bench))
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    return 1 if failures else 0


def against_baseline(name: str, now: dict, then: dict, bench: dict) -> list:
    """The gates of ``--check``: sim-side numbers equal the recorded ones
    exactly, host-side medians are no worse than them by more than the bound."""
    failures = []
    for metric in bench["end_to_end"]:
        key = metric["name"]
        new, old = now["end_to_end"][key]["median"], then["end_to_end"][key]["median"]
        if key in SIM_END_TO_END:
            if new != old:
                failures.append(f"{name}: {key} is {new!r}, baseline {old!r} (sim side: exact)")
            continue
        worse = (new - old) / old if metric["better"] == "lower" else (old - new) / old
        if worse > metric["bound"]:
            failures.append(f"{name}: {key} is {new:.6g}, worse than baseline {old:.6g} "
                            f"by {worse:.1%} (bound {metric['bound']:.0%})")
    for metric in bench["per_layer"]:
        key = metric["name"]
        if metric["unit"] in HOST_UNITS or key in HOST_RATIOS:
            continue
        if now["per_layer"][key] != then["per_layer"][key]:
            failures.append(f"{name}: {key} is {now['per_layer'][key]!r}, "
                            f"baseline {then['per_layer'][key]!r} (exact count)")
    return failures


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=float,
                        help="length the measured phase is sized for (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one measured run: 0 end-to-end metrics, 1 per-layer ledger")
    parser.add_argument("--smoke", action="store_true", help="a tenth of the records and ops")
    parser.add_argument("--trace-out", help="with --trace 1: write the spans here as JSON")
    parser.add_argument("--repeat", type=int, default=3, help="suite: untraced runs per workload")
    parser.add_argument("--out", help="suite: write the report here as JSON")
    parser.add_argument("--check", metavar="REPORT",
                        help="suite: rerun REPORT's seed and sizes and gate against its numbers")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}: nothing to benchmark", file=sys.stderr)
        return 2
    if args.trace is None:
        return run_suite(args)
    from perf import workloads

    if args.workload not in workloads.BY_NAME:
        parser.error(f"--workload must be one of {sorted(workloads.BY_NAME)}")
    if args.seconds is None:
        args.seconds = declared()["run_seconds"]
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
