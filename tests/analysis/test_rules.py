"""Per-rule behaviour over the fixture files + the golden findings report.

Each of the six rule ids must produce at least one fixture-triggered
finding (an acceptance criterion of the analysis subsystem), and the full
fixture report is pinned as golden JSON.  Regenerate after intentional rule
changes with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/analysis -q
"""

import json
import os
import shutil
from pathlib import Path

from repro.analysis import analyze_file, analyze_paths, findings_to_json
from repro.analysis.framework import UNUSED_SUPPRESSION_ID, select_rules

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden_findings.json"


def fixture_findings(name, rules=None):
    return analyze_file(str(FIXTURES / name), rules)


def rules_only(*ids):
    return select_rules(",".join(ids))


# ------------------------------------------------------------------ IOD002


def test_iod002_flags_private_device_access():
    findings = fixture_findings("engine/iod002_bad.py", rules_only("IOD002"))
    attrs = [f.message.split("`")[1] for f in findings]
    assert attrs == [
        "._stable", "._pending", "._journal_put", "._check_range", ".ftl.record_write(...)",
    ]


def test_iod002_exempt_inside_csd():
    assert fixture_findings("csd/iod002_exempt.py", rules_only("IOD002")) == []


# ------------------------------------------------------------------ EXC004


def test_exc004_flags_silent_swallows_only():
    findings = fixture_findings("engine/exc004_bad.py", rules_only("EXC004"))
    assert [f.line for f in findings] == [7, 14]
    assert "bare except:" in findings[1].message


def test_exc004_skips_cli_boundary():
    from repro.analysis import analyze_source

    source = "def f(op):\n    try:\n        return op()\n    except Exception:\n        pass\n"
    assert analyze_source(source, "src/repro/cli.py", rules_only("EXC004")) == []


# ------------------------------------------------------------------ BUF007


def test_buf007_flags_every_escape_shape():
    findings = fixture_findings("engine/buf007_bad.py", rules_only("BUF007"))
    messages = " | ".join(f.message for f in findings)
    assert len(findings) == 5
    assert "returns borrowed slab" in messages
    assert "yields borrowed slab" in messages
    assert "stores borrowed slab" in messages
    assert ".append(...)" in messages
    assert "clean_bracketed_flush" not in messages


def test_buf007_allows_downward_flow_and_copies():
    source = (
        "def flush(arena, device, lba):\n"
        "    slab = arena.borrow()\n"
        "    try:\n"
        "        encode_into(slab, lba)\n"
        "        device.write_block(lba, slab)\n"
        "        out = bytes(slab)\n"
        "    finally:\n"
        "        arena.release(slab)\n"
        "    return out\n"
    )
    from repro.analysis import analyze_source

    assert analyze_source(source, "src/repro/core/x.py", rules_only("BUF007")) == []


# ------------------------------------------------------------------ CRS008


def test_crs008_flags_every_flushless_commit_point():
    """The acceptance fixture: each protocol copy with the flush deleted."""
    findings = fixture_findings("engine/crs008_bad.py", rules_only("CRS008"))
    assert [f.line for f in findings] == [20, 27, 40, 52, 59, 75]
    kinds = [f.message.split("(")[1].split(")")[0] for f in findings]
    assert kinds == [
        "wal-commit-marker", "wal-commit-marker", "meta-page-write",
        "shadow-flip-trim", "wal-commit-marker", "shadow-flip-trim",
    ]
    # The interprocedural case carries the call chain as a witness.
    assert "commit_deep -> MarkerEngine._seal" in findings[1].message
    # The one-branch case: dominated on the durable branch only.
    assert "flush_on_one_branch" in findings[4].message
    # The vlog GC re-put protocol with the manifest-persist flush deleted:
    # the victim TRIM publishes rewrites that may still be volatile.
    assert "VlogGC.reclaim" in findings[5].message


def test_crs008_clean_counterparts_pass():
    """Same protocols, flush present — in-function, pre-call, and via a
    must-flush helper; the rule keys on ordering, not shape."""
    assert fixture_findings("engine/crs008_clean.py", rules_only("CRS008")) == []


def test_crs008_out_of_scope_segments_are_skipped():
    from repro.analysis import analyze_source

    source = (
        "def probe(device, wal):\n"
        "    wal.append(LogRecord(0, 0, LogOp.COMMIT, b'', b''))\n"
    )
    # faultcheck-style probes under bench/ and device internals under csd/
    # write commit-point look-alikes freely.
    assert analyze_source(source, "src/repro/bench/x.py", rules_only("CRS008")) == []
    assert analyze_source(source, "src/repro/csd/x.py", rules_only("CRS008")) == []
    assert analyze_source(source, "src/repro/lsm/x.py", rules_only("CRS008")) != []


# ------------------------------------------------------------------ ERR010


def test_err010_flags_public_leaks_only():
    findings = fixture_findings("api/engine.py", rules_only("ERR010"))
    leaks = [(f.line, f.message.split("`")[3]) for f in findings]
    assert leaks == [(15, "ValueError"), (19, "ValueError"), (26, "KeyError")]
    messages = " | ".join(f.message for f in findings)
    # Boundary conversion, taxonomy errors, and private methods stay clean.
    assert "put_checked" not in messages
    assert "close" not in messages
    assert "_internal_probe" not in messages


def test_err010_origin_site_is_the_witness():
    findings = fixture_findings("api/engine.py", rules_only("ERR010"))
    assert "engine.py:48" in findings[0].message  # _make_arena's raise
    assert "engine.py:54" in findings[1].message  # _validate_key's raise


def test_err010_scope_is_the_api_basenames():
    from repro.analysis import analyze_source

    source = (
        "class Engine:\n"
        "    def put(self, key):\n"
        "        raise ValueError('bad key')\n"
    )
    assert analyze_source(source, "src/repro/lsm/engine.py", rules_only("ERR010")) != []
    assert analyze_source(source, "src/repro/lsm/helpers.py", rules_only("ERR010")) == []
    assert analyze_source(source, "src/repro/csd/engine.py", rules_only("ERR010")) == []


# ------------------------------------------------------------------ PUR009


def test_pur009_flags_direct_worker_mutations():
    findings = fixture_findings("engine/pur009_direct.py", rules_only("PUR009"))
    workers = {f.message.split("`")[1] for f in findings}
    assert workers == {"work", "work_global"}  # pure_worker stays clean
    assert len(findings) == 4
    assert all(f.message.startswith("pool worker") for f in findings)


def test_pur009_covers_shard_pool_workers():
    """Workers handed to run_specs are held to the same purity rules,
    positionally and via runner=."""
    findings = fixture_findings("engine/pur009_bad.py", rules_only("PUR009"))
    keyed = [f for f in findings if "`keyword_direct`" in f.message]
    assert [(f.line, f.message.startswith("pool worker")) for f in keyed] == [
        (62, True)]
    positional = [f for f in findings if "via work -> " in f.message]
    assert [f.line for f in positional] == [31, 32]
    assert not any("clean_worker" in f.message for f in findings)


def test_pur009_flags_helper_mutations_behind_pure_workers():
    findings = fixture_findings("engine/pur009_bad.py", rules_only("PUR009"))
    helpers = [f for f in findings if f.message.startswith("helper")]
    assert [f.line for f in helpers] == [31, 32, 37, 38]
    messages = " | ".join(f.message for f in findings)
    assert "via work -> _cached_shape" in messages
    assert "worker `work_partial`" in messages  # through functools.partial
    assert "clean_worker" not in messages


def test_pur009_checks_the_body_of_every_worker_shape():
    """A worker wrapped in partial, named only as a dispatcher default,
    passed to run_specs as runner=, or imported from another module has its
    own body checked, not just its callees."""
    findings, _ = analyze_paths(
        [str(FIXTURES / "engine" / "pur009_bad.py"), str(FIXTURES / "repro")],
        rules_only("PUR009"),
    )
    direct = {
        f.message.split("`")[1]: (Path(f.path).name, f.line)
        for f in findings if f.message.startswith("pool worker")
    }
    assert direct == {
        "partial_direct": ("pur009_bad.py", 48),
        "default_direct": ("pur009_bad.py", 53),
        "keyword_direct": ("pur009_bad.py", 62),
        "imported_worker": ("pur009_imported.py", 11),
    }


# ------------------------------------------------------- suppression fixture


def test_suppression_fixture_reports_only_the_meta_findings():
    findings = fixture_findings("engine/suppressed.py")
    assert [f.rule for f in findings] == [UNUSED_SUPPRESSION_ID] * 2
    assert "unused suppression" in findings[0].message
    assert "unknown rule id" in findings[1].message


# ------------------------------------------------------------------- golden


def _relative_report(root=FIXTURES):
    findings, files_scanned = analyze_paths([str(root)])
    payload = findings_to_json(findings, files_scanned)
    for finding in payload["findings"]:
        finding["path"] = Path(finding["path"]).relative_to(root).as_posix()
    return payload


def test_fixture_findings_match_golden():
    payload = _relative_report()
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    expected = json.loads(GOLDEN.read_text())
    assert payload == expected


def test_report_does_not_depend_on_where_the_tree_lives(tmp_path):
    """No finding may quote an absolute path (ERR010's origin witness did),
    and a checkout under a directory named ``repro`` must still resolve the
    fixtures' ``repro.*`` imports."""
    copy = tmp_path / "repro" / "elsewhere" / "fixtures"
    shutil.copytree(FIXTURES, copy)
    assert _relative_report(copy) == json.loads(GOLDEN.read_text())


def test_every_rule_id_has_a_fixture_triggered_finding():
    payload = _relative_report()
    by_rule = payload["findings_by_rule"]
    for rule_id in ("IOD002", "EXC004", "BUF007", "CRS008", "ERR010", "PUR009"):
        assert by_rule.get(rule_id, 0) >= 1, f"no fixture finding for {rule_id}"
    assert by_rule.get(UNUSED_SUPPRESSION_ID, 0) >= 2
