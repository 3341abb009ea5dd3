"""``repro lint`` CLI behaviour: exit codes, JSON output, rule filters."""

import json
from pathlib import Path

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def test_lint_clean_file_exits_zero(capsys):
    rc = main(["lint", str(FIXTURES / "core" / "det001_clean.py")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "clean: 0 findings in 1 file" in out


def test_lint_violation_exits_one(capsys):
    rc = main(["lint", str(FIXTURES / "engine" / "exc004_bad.py")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "EXC004" in out


def test_lint_json_output_is_machine_readable(capsys):
    rc = main(["lint", "--json", str(FIXTURES / "engine" / "exc004_bad.py")])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["version"] == 1
    assert payload["findings_by_rule"] == {"EXC004": 2}
    assert all(f["path"].endswith("exc004_bad.py") for f in payload["findings"])


def test_lint_rules_filter(capsys):
    # Only DET001 selected: the EXC004 fixture comes back clean.
    rc = main(["lint", "--rules", "DET001",
               str(FIXTURES / "engine" / "exc004_bad.py")])
    capsys.readouterr()
    assert rc == 0


def test_lint_unknown_rule_is_an_error(capsys):
    rc = main(["lint", "--rules", "NOPE01", str(FIXTURES)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "unknown rule id" in err


def test_lint_missing_path_is_an_error(capsys):
    rc = main(["lint", str(FIXTURES / "does_not_exist.txt")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error" in err


def test_lint_default_target_is_src_repro(capsys, monkeypatch):
    # `repro lint` with no paths scans src/repro.  Only the target is
    # checked here; test_tree_clean runs the one full-tree lint.
    import repro.analysis

    targets = []

    def record_paths(paths, rules=None, jobs=None):
        targets.append(list(paths))
        return [], 0

    monkeypatch.setattr(repro.analysis, "analyze_paths", record_paths)
    rc = main(["lint", "--json"])
    capsys.readouterr()
    assert rc == 0
    assert targets == [["src/repro"]]


def test_lint_jobs_output_identical_to_serial(capsys):
    rc_serial = main(["lint", "--json", str(FIXTURES)])
    serial = json.loads(capsys.readouterr().out)
    rc_parallel = main(["lint", "--json", "--jobs", "2", str(FIXTURES)])
    parallel = json.loads(capsys.readouterr().out)
    assert rc_serial == rc_parallel == 1
    assert serial == parallel  # merged+sorted report at any job count


def test_lint_changed_narrows_the_report(capsys, monkeypatch, tmp_path):
    import subprocess

    def git(*argv):
        subprocess.run(
            ["git", *argv], cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    git("config", "user.email", "t@example.com")
    git("config", "user.name", "t")
    bad = "def f(op):\n    try:\n        return op()\n    except Exception:\n        pass\n"
    (tmp_path / "committed_bad.py").write_text(bad)
    git("add", "committed_bad.py")
    git("commit", "-q", "-m", "seed")
    (tmp_path / "new_bad.py").write_text(bad)  # untracked
    monkeypatch.chdir(tmp_path)

    rc = main(["lint", str(tmp_path)])
    full = capsys.readouterr().out
    assert rc == 1 and "committed_bad.py" in full and "new_bad.py" in full

    rc = main(["lint", "--changed", str(tmp_path)])
    narrowed = capsys.readouterr().out
    assert rc == 1
    assert "new_bad.py" in narrowed  # the file being committed
    assert "committed_bad.py" not in narrowed  # pre-existing debt elsewhere


def test_lint_changed_clean_when_nothing_changed(capsys, monkeypatch, tmp_path):
    import subprocess

    def git(*argv):
        subprocess.run(
            ["git", *argv], cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    git("config", "user.email", "t@example.com")
    git("config", "user.name", "t")
    (tmp_path / "mod.py").write_text("x = 1\n")
    git("add", "mod.py")
    git("commit", "-q", "-m", "seed")
    monkeypatch.chdir(tmp_path)
    rc = main(["lint", "--changed", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "no changed Python files" in out


def test_lint_callgraph_dump(capsys):
    rc = main(["lint", "--callgraph",
               str(FIXTURES / "engine" / "pur009_bad.py")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "-> _cached_shape" in out  # resolved edge
    assert "[entry" in out  # entry flag on uncalled functions
