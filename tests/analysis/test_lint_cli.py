"""``repro lint`` CLI behaviour: exit codes, JSON output, rule filters."""

import json
from pathlib import Path

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def test_lint_clean_file_exits_zero(capsys):
    rc = main(["lint", str(FIXTURES / "engine" / "crs008_clean.py")])
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
    # Only IOD002 selected: the EXC004 fixture comes back clean.
    rc = main(["lint", "--rules", "IOD002",
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

    def record_paths(paths, rules=None):
        targets.append(list(paths))
        return [], 0

    monkeypatch.setattr(repro.analysis, "analyze_paths", record_paths)
    rc = main(["lint", "--json"])
    capsys.readouterr()
    assert rc == 0
    assert targets == [["src/repro"]]
