"""Tests for the parallel experiment runner (`repro.bench.parallel`)."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.harness import ExperimentSpec, run_experiment
from repro.bench.parallel import (
    default_jobs,
    detach_result,
    run_grid,
    run_specs,
)
from repro.errors import ConfigError


def tiny_specs():
    return [
        ExperimentSpec(system="bminus", n_records=600, steady_ops=300),
        ExperimentSpec(system="wiredtiger", n_records=600, steady_ops=300),
        ExperimentSpec(system="rocksdb", n_records=600, steady_ops=300),
    ]


def fingerprint(result):
    return (
        result.spec.system,
        result.wa.wa_total,
        result.wa.wa_log,
        result.logical_usage,
        result.physical_usage,
        result.populate.ops,
        result.steady.ops,
    )


class TestDefaultJobs:
    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1

    def test_env_value_is_used(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert default_jobs() == 4

    def test_zero_and_negative_are_config_errors(self, monkeypatch):
        for raw in ("0", "-3"):
            monkeypatch.setenv("REPRO_JOBS", raw)
            with pytest.raises(ConfigError, match="REPRO_JOBS"):
                default_jobs()

    def test_garbage_raises_config_error(self, monkeypatch):
        for raw in ("many", "2.5"):
            monkeypatch.setenv("REPRO_JOBS", raw)
            with pytest.raises(ConfigError):
                default_jobs()


class TestRunSpecs:
    def test_parallel_results_identical_to_serial(self):
        specs = tiny_specs()
        serial = run_specs(specs, jobs=1)
        parallel = run_specs(specs, jobs=2)
        assert [fingerprint(r) for r in serial] == [fingerprint(r) for r in parallel]

    def test_results_come_back_in_spec_order(self):
        specs = tiny_specs()
        results = run_specs(specs, jobs=2)
        assert [r.spec.system for r in results] == [s.system for s in specs]

    def test_serial_results_keep_live_engine(self):
        results = run_specs(tiny_specs()[:1], jobs=1)
        assert results[0].engine is not None
        assert results[0].device is not None

    def test_parallel_results_are_detached(self):
        results = run_specs(tiny_specs()[:2], jobs=2)
        for result in results:
            assert result.engine is None
            assert result.device is None
            assert result.clock is None

    def test_single_spec_stays_serial_even_with_jobs(self):
        results = run_specs(tiny_specs()[:1], jobs=4)
        assert results[0].engine is not None

    def test_env_knob_drives_jobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        specs = tiny_specs()[:2]
        results = run_specs(specs)  # jobs resolved from REPRO_JOBS
        assert [r.spec.system for r in results] == [s.system for s in specs]
        assert results[0].engine is None  # ran through worker processes


class TestRunGrid:
    def test_keys_and_order_preserved(self):
        specs = tiny_specs()
        keyed = {("pt", i): spec for i, spec in enumerate(specs)}
        results = run_grid(keyed, jobs=2)
        assert list(results) == list(keyed)
        for (_, i), result in results.items():
            assert result.spec.system == specs[i].system

    def test_grid_matches_direct_runs(self):
        spec = tiny_specs()[0]
        grid = run_grid({"only": spec}, jobs=1)
        direct = run_experiment(spec)
        assert fingerprint(grid["only"]) == fingerprint(direct)


#: Run as its own process by the fork test below.  The parent sizes a 6-block
#: request on two threads, so its compressor's worker thread is alive when
#: the process pool (the one ``run_specs`` uses) forks; every pool worker
#: then issues 6-block writes through that inherited compressor and through
#: a fresh one.
_FORK_AFTER_SPLIT = """
import multiprocessing
import random
import threading
from concurrent.futures import ProcessPoolExecutor

from repro.csd.compression import ZlibCompressor
from repro.csd.device import BLOCK_SIZE, CompressedBlockDevice

INHERITED = CompressedBlockDevice(64, ZlibCompressor())


def payload(seed):
    rng = random.Random(seed)
    return b"".join(rng.randbytes(BLOCK_SIZE // 2) + bytes(BLOCK_SIZE // 2) for _ in range(6))


def work(seed):
    fresh = CompressedBlockDevice(64, ZlibCompressor())
    return [device.write_blocks(6 * (seed % 8), payload(seed)) for device in (INHERITED, fresh)]


if __name__ == "__main__":
    INHERITED.write_blocks(0, payload(-1))
    assert threading.active_count() == 2, threading.enumerate()
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=2, mp_context=fork) as pool:
        pooled = list(pool.map(work, range(8)))
    assert pooled == [work(seed) for seed in range(8)], pooled
    print("fork after two-thread sizing: ok")
"""


def test_pool_forked_after_two_thread_sizing_does_not_hang(tmp_path):
    """A forked pool worker inherits the parent's compressor but not its
    sizing thread; it must start its own instead of waiting on one it does
    not have.  Run in a child process under a hard timeout, since the
    failure mode is a hang."""
    script = tmp_path / "fork_after_split.py"
    script.write_text(_FORK_AFTER_SPLIT)
    src = str(Path(__file__).resolve().parents[2] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    log = tmp_path / "log.txt"
    with open(log, "w") as out:
        proc = subprocess.Popen(
            [sys.executable, str(script)], stdout=out, stderr=subprocess.STDOUT,
            env=env, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the pool workers too
            proc.wait()
            pytest.fail("pool forked after two-thread sizing hung:\n" + log.read_text())
    assert code == 0, log.read_text()
    assert "fork after two-thread sizing: ok" in log.read_text()


class TestDetachResult:
    def test_strips_live_objects_in_place(self):
        result = run_experiment(tiny_specs()[0])
        detached = detach_result(result)
        assert detached is result
        assert result.engine is None and result.device is None and result.clock is None
        # Every figure-facing quantity survives detachment.
        assert result.wa.wa_total > 0
        assert result.physical_usage > 0
