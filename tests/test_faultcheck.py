"""Smoke tests for the ``repro faultcheck`` campaign and its CLI plumbing.

The full campaign runs in CI's extended-fuzz job; here a scaled-down
configuration proves the scheduler, the phase wiring, the report shape,
and the exit-code contract.
"""

import json
from dataclasses import replace

import pytest

from repro.bench.faultcheck import (
    FAULTCHECK_SYSTEMS,
    format_report,
    make_workload,
    run_crash_schedule,
    run_fault_trials,
    run_faultcheck,
    _make_suts,
)
from repro.cli import main
from repro.csd import faults
from repro.csd.device import CompressedBlockDevice
from repro.errors import RecoveryError


def _drive_fault_free(sut):
    """Run a single-engine SUT's whole workload, committing after each op."""
    engine = sut.create(CompressedBlockDevice(4096))
    for kind, k, v in sut.stream:
        if kind == "put":
            engine.put(k, v)
        else:
            engine.delete(k)
        engine.commit()
    return engine


def test_workload_is_deterministic():
    assert make_workload(7, 50) == make_workload(7, 50)
    assert make_workload(7, 50) != make_workload(8, 50)
    kinds = {op[0] for op in make_workload(7, 200)}
    assert kinds == {"put", "del"}


def test_crash_schedule_covers_both_modes():
    sut = _make_suts(seed=5, ops=60)["btree-det-shadow"]
    crash = run_crash_schedule(sut, seed=5, budget=6)
    report = crash.as_dict()
    assert not report["failures"]
    # budget points x (drop, torn) modes, every one fired and recovered.
    assert report["tested"] == report["crashes_fired"] == 12
    assert report["mutation_points"] > report["tested"]


@pytest.mark.parametrize("system", ["bminus", "btree-journal"])
def test_scaled_down_campaign_passes(system):
    report = run_faultcheck([system], ops=200, budget=4, trials=1, seed=2022)
    assert report["passed"], format_report(report)
    entry = report["systems"][system]
    assert entry["crash_points"]["failures"] == []
    assert entry["fault_trials"]["failures"] == []
    # The targeted-corruption phase must actually heal something.
    counter = ("read_repairs" if entry["repair"]["style"] == "shadow"
               else "journal_repairs")
    assert entry["repair"][counter] > 0
    text = format_report(report)
    assert "PASSED" in text and system in text


def test_unknown_system_rejected(capsys):
    with pytest.raises(ValueError):
        run_faultcheck(["btree-rocksdb"], ops=20, budget=1, trials=0)
    assert "bminus" in FAULTCHECK_SYSTEMS
    # The CLI reports the same ConfigError as a clean exit 1.
    assert main(["faultcheck", "--systems", "btree-rocksdb", "--ops", "20"]) == 1
    assert "unknown faultcheck system 'btree-rocksdb'" in capsys.readouterr().err


def test_cli_faultcheck_json(capsys):
    rc = main(["faultcheck", "--systems", "btree-journal", "--ops", "200",
               "--budget", "2", "--trials", "1", "--json"])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert rc == 0
    assert report["passed"] is True
    assert set(report["systems"]) == {"btree-journal"}


def test_cli_faultcheck_summary(capsys):
    rc = main(["faultcheck", "--systems", "btree-shadow-table", "--ops", "80",
               "--budget", "2", "--trials", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASSED" in out


def test_cli_defaults_name_every_campaign_system(capsys):
    """Without ``--systems`` the CLI runs exactly the campaign's systems."""
    main(["faultcheck", "--ops", "20", "--budget", "1", "--trials", "0",
          "--json"])
    report = json.loads(capsys.readouterr().out)
    assert tuple(report["systems"]) == FAULTCHECK_SYSTEMS


def test_recovery_exception_is_a_recorded_failure():
    """A crash point whose recovery raises is a finding about that crash
    point, not an abort of the campaign."""
    def broken_reopen(device):
        raise RecoveryError("unreadable store")

    sut = replace(_make_suts(seed=5, ops=60)["btree-det-shadow"],
                  reopen=broken_reopen)
    crash = run_crash_schedule(sut, seed=5, budget=2)
    assert crash.crashes_fired == len(crash.failures) == 4
    failure = crash.failures[0]
    assert failure["system"] == "btree-det-shadow"
    assert failure["mode"] == "drop"
    assert isinstance(failure["op_index"], int)
    assert "RecoveryError: unreadable store" in failure["error"]
    assert failure["raised_at"].startswith("broken_reopen (test_faultcheck.py:")


def test_fault_trial_counts_every_retry():
    """The engine's retry counters match what the device injected."""
    report = run_fault_trials(_make_suts()["bminus"], seed=2022, trials=1)
    assert report.failures == []
    assert report.injected["transient_writes"] == 1
    assert report.healed["transient_write_retries"] == 1


def test_uncounted_retry_fails_the_fault_trial(monkeypatch):
    """A write retry that heals the fault but bumps no counter is a failure
    of the trial, not a clean run."""
    retrying = faults._retrying

    def uncounted_writes(fault, op, args, stats, attempts, writes):
        return retrying(fault, op, args, None if writes else stats, attempts, writes)

    monkeypatch.setattr(faults, "_retrying", uncounted_writes)
    report = run_fault_trials(_make_suts()["bminus"], seed=2022, trials=1)
    assert report.failures == [{
        "trial": 0,
        "error": "fault_stats.transient_write_retries=0 but the device "
                 "injected transient_writes=1",
    }]


@pytest.mark.parametrize("system", ["bminus-group", "lsm-group"])
def test_group_commit_suts_crash_every_window_boundary(system):
    """The group-commit SUTs crash-test multi-op windows: recovery must show
    either the committed prefix alone or the full in-flight window — never a
    partial window."""
    report = run_faultcheck([system], ops=120, budget=4, trials=1, seed=2022)
    assert report["passed"], format_report(report)
    entry = report["systems"][system]
    assert entry["crash_points"]["failures"] == []
    assert entry["crash_points"]["crashes_fired"] == 8  # 4 points x 2 modes
    # Group SUTs serve multi-op windows, so boundaries < mutations.
    assert entry["crash_points"]["mutation_points"] > 0


def test_group_sut_acceptance_includes_the_full_inflight_window():
    sut = _make_suts(seed=9, ops=80)["bminus-group"]
    assert sut.group_size > 1
    crash = run_crash_schedule(sut, seed=9, budget=5)
    assert not crash.as_dict()["failures"]


def test_lsm_group_sut_skips_probabilistic_fault_trials():
    sut = _make_suts()["lsm-group"]
    assert sut.fault_trials is False
    report = run_faultcheck(["lsm-group"], ops=80, budget=2, trials=2,
                            seed=2022)
    assert report["passed"]
    assert report["systems"]["lsm-group"]["fault_trials"]["trials"] == 0


def test_lsm_vlog_sut_passes_scaled_campaign():
    """The value-log GC protocol recovers at every scheduled crash point."""
    report = run_faultcheck(["lsm-vlog"], ops=200, budget=3, trials=1,
                            seed=2022)
    assert report["passed"], format_report(report)
    entry = report["systems"]["lsm-vlog"]
    assert entry["crash_points"]["failures"] == []
    assert entry["crash_points"]["tested"] == 6  # 3 points x drop+torn


def test_lsm_vlog_registered_in_campaign_and_cli_defaults():
    # An omitted --systems runs every registered system.
    assert "lsm-vlog" in FAULTCHECK_SYSTEMS


def test_lsm_vlog_workload_forces_gc_passes():
    """The campaign geometry is tight enough that GC actually runs —
    otherwise the crash schedule would never cut inside the GC protocol."""
    engine = _drive_fault_free(_make_suts()["lsm-vlog"])
    assert engine.vlog is not None
    assert engine.vlog.stats.gc_passes > 0
    assert engine.vlog.stats.appended_records > 0


def test_lsm_workload_forces_flushes_and_compactions():
    """The plain leveled engine's campaign geometry flushes and compacts
    within the workload, so crash points cut inside both protocols."""
    engine = _drive_fault_free(_make_suts()["lsm"])
    assert engine.config.compaction_strategy == "leveled"
    assert not engine.config.group_atomic and engine.vlog is None
    assert engine.memtable_flushes >= 4
    assert engine.compactions_run >= 5


def test_lsm_sut_passes_scaled_campaign():
    report = run_faultcheck(["lsm"], ops=200, budget=6, trials=1, seed=2022)
    assert report["passed"], format_report(report)
    assert report["systems"]["lsm"]["crash_points"]["crashes_fired"] == 12
