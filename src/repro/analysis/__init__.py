"""Static enforcement of the reproduction's source-level invariants.

Some of the repository's guarantees are properties of every call site,
which differential tests can only probe after the fact:

* all device bytes move through the sanctioned :mod:`repro.csd.device`
  block API (I/O discipline);
* every durable commit point is preceded by a flush barrier on every path
  (crash-consistency ordering);
* public engine and service methods raise only
  :class:`~repro.errors.ReproError` subclasses (exception contracts);
* pool workers and their whole call closure are pure (parallel runs are
  bit-identical to serial ones).

This package checks those contracts at the *source* level with a small
plugin-style AST analysis framework (see :mod:`repro.analysis.framework`)
and one checker module per rule under :mod:`repro.analysis.rules`.  The
``repro lint`` CLI subcommand and the CI ``lint`` job run them over the
tree; DESIGN.md §12 documents the paper-level invariant behind each rule,
and the two invariants checked at run time instead (hash-seed
independence, fault-retry accounting).
"""

from __future__ import annotations

from repro.analysis.framework import (
    Finding,
    ProjectRule,
    Rule,
    all_rules,
    analyze_file,
    analyze_paths,
    analyze_source,
    findings_to_json,
    format_findings,
    get_rule,
    register,
    rule_ids,
)

__all__ = [
    "Finding",
    "ProjectRule",
    "Rule",
    "all_rules",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "findings_to_json",
    "format_findings",
    "get_rule",
    "register",
    "rule_ids",
]
