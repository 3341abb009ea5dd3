"""Pinned sim-clock figures of the serving and compaction-strategy paths.

Everything measured here runs on the simulated clock over seeded streams, so
each number is a function of the code alone: drift is a behaviour change,
never noise, and the comparison is exact.  The scenarios and values are the
deterministic cells of the retired ``repro bench --check`` baseline, copied
unchanged; a PR that moves one on purpose re-records it here and says why.
(The LSM stale-read fix — ROADMAP item 1a — moved none of the strategy
cells; per-table bloom sizing and the ``SST2`` / ``MAN2`` formats moved
all ten, and the CRC-32 bloom hash of ``SST3`` moved every strategy cell in
the fifth or sixth digit, through the compressed size of the filter bytes.)  Wall-clock claims live in ``perf/``.
"""

from functools import lru_cache

import pytest

from repro.bench.harness import run_strategy_point
from repro.core.bminus import BMinusConfig, BMinusTree
from repro.csd.device import CompressedBlockDevice
from repro.lsm.engine import LSMConfig, LSMEngine
from repro.lsm.strategy import STRATEGIES
from repro.service import ServiceConfig, StorageService, make_sessions
from repro.sim.clock import SimClock
from repro.sim.rng import DeterministicRng
from repro.workloads.records import KeySpace

PINNED = {
    # B⁻-tree under ~2x offered load, short queue, tight deadlines:
    # admission control engages.
    "serving-contention": {
        "completed": 89, "shed_overload": 1351, "deadline_expired": 0,
        "write_stalls": 0, "unaccounted": 0, "fairness_spread": 2.966292,
        "p99_put_us": 602.11, "p999_put_us": 602.11,
    },
    # LSM with a tiny memtable and slow flushes: the frozen-memtable stall
    # machine engages, and ops queued behind a stall expire.
    "serving-stall": {
        "completed": 305, "shed_overload": 859, "deadline_expired": 276,
        "write_stalls": 6, "unaccounted": 0, "fairness_spread": 0.944262,
        "p99_put_us": 8159.23, "p999_put_us": 8159.23,
    },
    # WA per strategy x value size, 600 keys x 2 passes, KV separation at
    # 256B; "baseline" is leveled with separation off.
    "compaction-strategies": {
        "baseline": {"small": 2.799978, "large": 2.63462},
        "lazy-leveled": {"small": 2.5712, "large": 1.546093},
        "leveled": {"small": 2.801611, "large": 1.546056},
        "partial": {"small": 3.443833, "large": 1.549466},
        "tiered": {"small": 2.570111, "large": 1.546051},
    },
    # The one measured regime where ``partial`` pays: 1024B values, 600 keys
    # x 2 passes, separation off.  It reads lowest here, while at figure
    # geometry (6,000 records, 64-1024B) it ranked last in 9 of 10 cells.
    "strategies-unseparated-1024B": {
        "lazy-leveled": 3.362087, "leveled": 2.63462,
        "partial": 2.359603, "tiered": 3.36135,
    },
}


def _serving(scenario: str) -> dict:
    clock = SimClock()
    device = CompressedBlockDevice(num_blocks=1 << 15)
    if scenario == "contention":
        engine = BMinusTree(
            device,
            BMinusConfig(log_flush_policy="commit", group_atomic=True,
                         cache_bytes=256 * 4096, max_pages=4096),
            clock,
        )
        config = ServiceConfig(queue_depth=16, commit_window=8, deadline=0.01)
        arrival = config.commit_window * config.per_op_interval / 48
    else:
        engine = LSMEngine(
            device,
            LSMConfig(memtable_bytes=4 * 1024, log_flush_policy="commit",
                      group_atomic=True, flush_latency=0.01,
                      max_frozen_memtables=1),
            clock,
        )
        # Deadline shorter than a flush-latency stall, so queued ops expire.
        config = ServiceConfig(queue_depth=64, commit_window=8, deadline=0.008)
        arrival = 0.001
    service = StorageService(engine, clock, config, rng=DeterministicRng(7))
    sessions = make_sessions(24, 60, KeySpace(8000, 128),
                             DeterministicRng(2022), arrival)
    report = service.serve(sessions)
    engine.close()
    stats = report.stats
    put = report.latency["put"]
    return {
        "completed": stats.completed,
        "shed_overload": stats.shed_overload,
        "deadline_expired": stats.deadline_expired,
        "write_stalls": stats.write_stalls,
        "unaccounted": stats.unaccounted(),
        "fairness_spread": round(report.fairness, 6),
        "p99_put_us": round(put["p99"] * 1e6, 2),
        "p999_put_us": round(put["p999"] * 1e6, 2),
    }


@lru_cache(maxsize=None)
def _compaction_strategies() -> dict:
    def row(strategy, threshold):
        return {
            name: run_strategy_point(strategy, size, threshold, 600)["wa_total"]
            for name, size in (("small", 64), ("large", 1024))
        }

    cells = {strategy: row(strategy, 256) for strategy in sorted(STRATEGIES)}
    cells["baseline"] = row("leveled", None)
    return cells


def _unseparated_1024b() -> dict:
    return {
        strategy: run_strategy_point(strategy, 1024, None, 600)["wa_total"]
        for strategy in sorted(STRATEGIES)
    }


MEASURE = {
    "serving-contention": lambda: _serving("contention"),
    "serving-stall": lambda: _serving("stall"),
    "compaction-strategies": _compaction_strategies,
    "strategies-unseparated-1024B": _unseparated_1024b,
}


@pytest.mark.parametrize("figure", sorted(PINNED))
def test_sim_clock_figure_is_pinned(figure):
    assert MEASURE[figure]() == PINNED[figure]


def test_separation_beats_baseline_on_large_values():
    """Holds whatever is pinned: large values stop riding compaction rewrites."""
    cells = _compaction_strategies()
    assert cells["leveled"]["large"] < cells["baseline"]["large"]
