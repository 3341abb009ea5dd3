"""Tests for the ad-hoc CLI."""

import json

import pytest

from repro.cli import build_parser, main


def small(*extra):
    return list(extra) + ["--records", "3000", "--steady-ops", "2000"]


def tiny(*extra):
    return list(extra) + ["--records", "1500", "--steady-ops", "800"]


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_compare_single_system(capsys):
    assert main(["compare", "--systems", "bminus"] + small()) == 0
    out = capsys.readouterr().out
    assert "Write amplification" in out
    assert "bminus" in out
    assert "WA_pg" in out


def test_run_rejects_unknown_system(capsys):
    assert main(["compare", "--systems", "leveldb"] + small()) == 1
    assert "unknown system 'leveldb'" in capsys.readouterr().err


def test_compare_command(capsys):
    assert main(["compare", "--systems", "bminus,rocksdb"] + small()) == 0
    out = capsys.readouterr().out
    assert "bminus" in out and "rocksdb" in out


def test_speed_command(capsys):
    rc = main(["speed", "--systems", "bminus", "--workload", "read",
               "--threads", "4"] + small())
    assert rc == 0
    out = capsys.readouterr().out
    assert "TPS" in out


def test_run_with_knobs(capsys):
    rc = main(["compare", "--systems", "bminus", "--threshold-t", "1024",
               "--segment-size", "256", "--record-size", "32",
               "--log-policy", "commit"] + small())
    assert rc == 0
    assert "beta" in capsys.readouterr().out


def test_run_with_zipf_distribution(capsys):
    rc = main(["compare", "--systems", "bminus", "--workload", "zipf",
               "--theta", "0.9"] + small())
    assert rc == 0
    assert "Write amplification" in capsys.readouterr().out


def _bminus_row(out):
    return next(line for line in out.splitlines() if line.startswith("bminus"))


def test_speed_runs_the_zipf_workload(capsys):
    """``--workload zipf`` reaches speed's measured phase: no experiment
    flag is accepted and then ignored."""
    rows = {}
    for workload in ("write", "zipf"):
        assert main(tiny("speed", "--systems", "bminus",
                         "--workload", workload)) == 0
        rows[workload] = _bminus_row(capsys.readouterr().out)
    assert rows["zipf"] != rows["write"]


def test_run_subcommand_is_gone(capsys):
    """`repro compare --systems X` covers one system; `repro run` is gone."""
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--system", "bminus"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'run'" in capsys.readouterr().err


def test_compare_rejects_nonpositive_jobs(capsys):
    assert main(tiny("compare", "--systems", "bminus", "--jobs", "0")) == 1
    assert "--jobs" in capsys.readouterr().err


# ------------------------------------------------------------ repro stats


def test_stats_command_tables(capsys):
    assert main(tiny("stats", "--window", "0.1")) == 0
    out = capsys.readouterr().out
    assert "Simulated per-op latency" in out
    assert "WA over time" in out
    assert "put" in out


def test_stats_watch_streams_windows(capsys):
    assert main(tiny("stats", "--window", "0.05", "--watch")) == 0
    out = capsys.readouterr().out
    assert out.count("WA=") >= 2  # at least two windows streamed live


def test_stats_json_export(tmp_path, capsys):
    path = tmp_path / "hub.json"
    assert main(tiny("stats", "--window", "0.1", "--json", str(path))) == 0
    data = json.loads(path.read_text())
    assert "op_latency" in data and "series" in data
    assert data["series"]["windows"]


def test_stats_zipf_distribution(capsys):
    rc = main(tiny("stats", "--window", "0.1", "--workload", "zipf"))
    assert rc == 0
    assert "WA over time" in capsys.readouterr().out


def test_stats_json_unwritable_path_exits_nonzero(capsys):
    rc = main(tiny("stats", "--json", "/nonexistent-dir/hub.json"))
    assert rc == 1
    assert "repro: error" in capsys.readouterr().err


# -------------------------------------------------------------- exit codes


def test_bench_subcommand_is_gone(capsys):
    """The benchmark is `python3 perf/run.py`; `repro bench` is a usage error."""
    with pytest.raises(SystemExit) as exit_info:
        main(["bench"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_config_error_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    rc = main(small("compare", "--systems", "bminus"))
    assert rc == 1
    assert "REPRO_JOBS" in capsys.readouterr().err


def serve_small(*extra):
    return ["serve-sim", "--sessions", "6", "--ops", "8",
            "--records", "2000"] + list(extra)


def test_serve_sim_command(capsys):
    assert main(serve_small()) == 0
    out = capsys.readouterr().out
    assert "fairness" in out and "p999" in out


@pytest.mark.parametrize("system", ["bminus", "btree", "lsm"])
def test_serve_sim_all_systems(system, capsys):
    assert main(serve_small("--system", system)) == 0


def test_serve_sim_json_ledger_closed(capsys):
    assert main(serve_small("--json")) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"]["unaccounted"] == 0
    assert payload["stats"]["completed"] == 48
    assert "p999" in payload["latency"]["put"]
    assert "obs" in payload


def test_serve_sim_overload_sheds_typed(capsys):
    assert main(serve_small("--overload", "--json")) == 0
    payload = json.loads(capsys.readouterr().out)
    stats = payload["stats"]
    assert stats["shed_overload"] > 0
    assert stats["unaccounted"] == 0
    assert stats["queue_peak"] > 0


def test_serve_sim_is_deterministic(capsys):
    assert main(serve_small("--json")) == 0
    first = capsys.readouterr().out
    assert main(serve_small("--json")) == 0
    assert capsys.readouterr().out == first


def test_serve_sim_rejects_unknown_system():
    with pytest.raises(SystemExit):
        main(serve_small("--system", "rocksdb"))


# ---------------------------------------------------- repro compact-compare


def test_compact_compare_table(capsys):
    rc = main(["compact-compare", "--strategies", "leveled",
               "--value-sizes", "400", "--keys", "40"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Compaction strategy WA sweep" in out
    assert "WA (KV-sep)" in out and "leveled" in out


def test_compact_compare_unknown_strategy_exits_nonzero(capsys):
    rc = main(["compact-compare", "--strategies", "universal", "--keys", "20"])
    assert rc == 1
    assert "unknown compaction_strategy" in capsys.readouterr().err


def test_compact_compare_zero_keys_exits_nonzero(capsys):
    """No keys means no user bytes: a ConfigError, not a ZeroDivisionError
    traceback from the WA ratio."""
    rc = main(["compact-compare", "--strategies", "leveled", "--keys", "0"])
    assert rc == 1
    assert "repro: error" in capsys.readouterr().err


def test_compact_compare_bad_threshold_exits_nonzero(capsys):
    rc = main(["compact-compare", "--strategies", "leveled",
               "--threshold", "-5", "--keys", "20"])
    assert rc == 1
    assert "repro: error" in capsys.readouterr().err


def test_stats_json_exports_engine_shape(tmp_path, capsys):
    path = tmp_path / "hub.json"
    rc = main(tiny("stats", "--system", "rocksdb", "--window", "0.1",
                   "--json", str(path)))
    assert rc == 0
    data = json.loads(path.read_text())
    shape = data["engine"]["level_shape"]
    assert isinstance(shape, list) and len(shape) > 0
    assert all(isinstance(b, int) for b in shape)
    assert sum(shape) > 0  # steady state pushed data into the levels
