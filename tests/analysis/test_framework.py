"""Framework behaviour: registry, suppressions, scoping, output formats."""

import ast

import pytest

from repro.analysis import (
    Finding,
    all_rules,
    analyze_source,
    findings_to_json,
    format_findings,
    get_rule,
    rule_ids,
)
from repro.analysis.framework import (
    PARSE_ERROR_ID,
    UNUSED_SUPPRESSION_ID,
    FileContext,
    select_rules,
)
from repro.errors import ConfigError

EXPECTED_RULE_IDS = ["BUF007", "CRS008", "ERR010", "EXC004", "IOD002", "PUR009"]


def test_registry_has_all_expected_rules():
    assert rule_ids() == EXPECTED_RULE_IDS


def test_rules_carry_metadata():
    for rule in all_rules():
        assert rule.id and rule.title and rule.invariant
        assert rule.severity in ("error", "warning")


def test_get_rule_unknown_id_is_config_error():
    with pytest.raises(ConfigError, match="unknown rule id"):
        get_rule("NOPE42")


def test_select_rules_parses_csv_case_insensitively():
    rules = select_rules("iod002, exc004")
    assert [r.id for r in rules] == ["IOD002", "EXC004"]
    assert [r.id for r in select_rules(None)] == EXPECTED_RULE_IDS


def test_syntax_error_reports_parse_finding():
    findings = analyze_source("def broken(:\n", "src/repro/core/x.py")
    assert len(findings) == 1
    assert findings[0].rule == PARSE_ERROR_ID
    assert findings[0].severity == "error"


BAD_EXC = (
    "def f(op):\n"
    "    try:\n"
    "        return op()\n"
    "    except Exception:{noqa}\n"
    "        pass\n"
)


def test_noqa_suppresses_matching_rule():
    dirty = analyze_source(BAD_EXC.format(noqa=""), "pkg/mod.py")
    assert [f.rule for f in dirty] == ["EXC004"]
    clean = analyze_source(
        BAD_EXC.format(noqa="  # repro: noqa[EXC004] justified"), "pkg/mod.py"
    )
    assert clean == []


def test_blanket_noqa_suppresses_any_rule():
    clean = analyze_source(
        BAD_EXC.format(noqa="  # repro: noqa"), "pkg/mod.py"
    )
    assert clean == []


def test_noqa_for_other_rule_does_not_suppress():
    findings = analyze_source(
        BAD_EXC.format(noqa="  # repro: noqa[IOD002]"), "pkg/mod.py"
    )
    rules = sorted(f.rule for f in findings)
    # The EXC004 finding survives AND the IOD002 suppression is unused.
    assert rules == ["EXC004", UNUSED_SUPPRESSION_ID]


def test_unused_suppression_is_a_finding():
    findings = analyze_source("x = 1  # repro: noqa[EXC004]\n", "pkg/mod.py")
    assert [f.rule for f in findings] == [UNUSED_SUPPRESSION_ID]
    assert "unused suppression" in findings[0].message


def test_unknown_rule_id_in_noqa_is_a_finding():
    findings = analyze_source("x = 1  # repro: noqa[ZZZ999]\n", "pkg/mod.py")
    assert [f.rule for f in findings] == [UNUSED_SUPPRESSION_ID]
    assert "unknown rule id" in findings[0].message


def test_unused_check_skipped_when_named_rule_not_selected():
    # Only IOD002 runs; the EXC004 marker's usage is undecidable, not an error.
    findings = analyze_source(
        BAD_EXC.format(noqa="  # repro: noqa[EXC004]"),
        "pkg/mod.py",
        rules=select_rules("IOD002"),
    )
    assert findings == []


def test_noqa_inside_string_literal_is_not_a_suppression():
    source = 'MESSAGE = "use # repro: noqa[EXC004] to silence"\n'
    findings = analyze_source(source, "pkg/mod.py")
    assert findings == []  # and in particular no NQA000 for an unused marker


def test_file_context_navigation():
    source = "def outer():\n    if True:\n        return 1\n"
    ctx = FileContext("pkg/mod.py", source, ast.parse(source))
    ret = next(n for n in ast.walk(ctx.tree) if isinstance(n, ast.Return))
    chain = list(ctx.ancestors(ret))
    assert isinstance(chain[0], ast.If)
    func = ctx.enclosing_function(ret)
    assert isinstance(func, ast.FunctionDef) and func.name == "outer"
    assert ctx.has_path_segment("pkg") and not ctx.has_path_segment("csd")


def test_output_formats_stable():
    findings = analyze_source(BAD_EXC.format(noqa=""), "pkg/mod.py")
    human = format_findings(findings, files_scanned=1)
    assert "pkg/mod.py:4:5: EXC004 [error]" in human
    assert "1 finding(s) in 1 file" in human
    payload = findings_to_json(findings, files_scanned=1)
    assert payload["version"] == 1
    assert payload["finding_count"] == 1
    assert payload["findings_by_rule"] == {"EXC004": 1}
    assert payload["findings"][0]["rule"] == "EXC004"
    clean = format_findings([], files_scanned=3)
    assert "clean: 0 findings in 3 files" in clean


def test_findings_sorted_deterministically():
    source = (
        "def f(device, op):\n"
        "    device._stable.clear()\n"
        "    try:\n"
        "        return op()\n"
        "    except Exception:\n"
        "        pass\n"
        "    return device._pending\n"
    )
    findings = analyze_source(source, "src/repro/core/x.py")
    assert [(f.line, f.rule) for f in findings] == [
        (2, "IOD002"), (5, "EXC004"), (7, "IOD002")]
    assert all(isinstance(f, Finding) for f in findings)


# ----------------------------------------------------- call-graph corner cases
#
# The project index + summary fixpoint underpin four rules; these pin the
# resolution corner cases directly (decorators, functools.partial workers,
# subclass self-dispatch, mutual-recursion SCCs, unknown-callee polarity).


def _project_for(source, path="src/repro/core/x.py"):
    from repro.analysis.project import build_project
    from repro.analysis.summaries import compute_summaries

    ctx = FileContext(path, source, ast.parse(source))
    project = build_project([ctx])
    summaries = compute_summaries(project, {ctx.path: ctx.tree})
    return project, summaries


def _fid(project, qualname):
    (fid,) = [f for f, i in project.functions.items() if i.qualname == qualname]
    return fid


def test_decorated_functions_are_indexed_and_resolved():
    source = (
        "def timed(fn):\n"
        "    return fn\n"
        "@timed\n"
        "def helper(device):\n"
        "    device.flush()\n"
        "def caller(device):\n"
        "    helper(device)\n"
    )
    project, summaries = _project_for(source)
    caller = _fid(project, "caller")
    helper = _fid(project, "helper")
    assert helper in project.edges[caller]
    assert summaries[caller].may_flush  # effect propagates through the edge


def test_partial_wrapped_worker_is_found():
    source = (
        "from functools import partial\n"
        "CACHE = {}\n"
        "def work(scale, point):\n"
        "    return _bump(point * scale)\n"
        "def _bump(value):\n"
        "    CACHE[value] = value\n"
        "    return value\n"
        "def fan_out(points):\n"
        "    return run_specs(points, runner=partial(work, 2))\n"
    )
    findings = analyze_source(source, "src/repro/core/x.py",
                              rules=select_rules("PUR009"))
    assert len(findings) == 1
    assert "worker `work`" in findings[0].message


def test_self_dispatch_covers_subclass_overrides():
    # Base.run's self._step() must resolve to BOTH implementations: the
    # receiver could be either class, so their effects union.
    source = (
        "class Base:\n"
        "    def run(self):\n"
        "        self._step()\n"
        "    def _step(self):\n"
        "        pass\n"
        "class Sub(Base):\n"
        "    def _step(self):\n"
        "        raise ValueError('boom')\n"
    )
    project, summaries = _project_for(source)
    run = _fid(project, "Base.run")
    targets = {project.functions[c].qualname for c in project.edges[run]}
    assert targets == {"Base._step", "Sub._step"}
    assert "ValueError" in summaries[run].raises


def test_mutual_recursion_scc_reaches_fixpoint():
    source = (
        "def even(n, device):\n"
        "    if n == 0:\n"
        "        device.flush()\n"
        "        return True\n"
        "    return odd(n - 1, device)\n"
        "def odd(n, device):\n"
        "    if n == 0:\n"
        "        raise ValueError('odd')\n"
        "    return even(n - 1, device)\n"
    )
    project, summaries = _project_for(source)
    # Effects circulate around the cycle: each member sees the other's.
    for qual in ("even", "odd"):
        summary = summaries[_fid(project, qual)]
        assert summary.may_flush
        assert "ValueError" in summary.raises


def test_unknown_callee_polarity_is_pinned():
    # CRS008 treats unknown callees as NO barrier (conservative): the
    # marker after an unresolvable call is still undominated...
    source = (
        "def commit(wal):\n"
        "    mystery_helper()\n"
        "    wal.append(LogRecord(0, 0, LogOp.COMMIT, b'', b''))\n"
    )
    findings = analyze_source(source, "src/repro/lsm/x.py",
                              rules=select_rules("CRS008"))
    assert len(findings) == 1
    # ...while ERR010 treats them as raising NOTHING (optimistic): the
    # rule bounds what resolvable project code throws.
    source = (
        "class Engine:\n"
        "    def put(self, key):\n"
        "        mystery_helper(key)\n"
    )
    findings = analyze_source(source, "src/repro/lsm/engine.py",
                              rules=select_rules("ERR010"))
    assert findings == []
