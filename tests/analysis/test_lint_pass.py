"""Lint pass (RA401-RA404): the dependency-free subset of ``ruff
check`` that ``make analyze`` runs over the whole tree."""

import re

from tools.analysis import lintpass


def by_rule(findings, rule):
    return [finding for finding in findings if finding.rule == rule]


class TestFiring:
    FIXTURE = "lint_fire.py"

    def test_unused_import_fires_on_marked_line(self, run_pass,
                                                expected_lines):
        findings = by_rule(run_pass(lintpass, self.FIXTURE), "RA402")
        assert [f.line for f in findings] == \
            expected_lines(self.FIXTURE, "RA402")
        assert "'os'" in findings[0].message

    def test_undefined_export_fires(self, run_pass):
        finding, = by_rule(run_pass(lintpass, self.FIXTURE), "RA403")
        assert "'missing_name'" in finding.message
        assert finding.line == 1  # reported against the module

    def test_duplicate_definition_fires_on_marked_line(self, run_pass,
                                                       expected_lines):
        findings = by_rule(run_pass(lintpass, self.FIXTURE), "RA404")
        assert [f.line for f in findings] == \
            expected_lines(self.FIXTURE, "RA404")
        assert "'duplicated'" in findings[0].message


def test_syntax_error_fires_with_location(run_pass):
    finding, = run_pass(lintpass, "lint_syntax_error.py")
    assert finding.rule == "RA401"
    assert finding.line == 3  # the `def broken(:` line
    assert "syntax error" in finding.message


def test_clean_fixture_reports_nothing(run_pass):
    assert run_pass(lintpass, "lint_clean.py") == []


def test_lint_rules_apply_outside_library_prefixes(run_pass,
                                                   fixture_config):
    """RA4xx has scope 'all': it fires even when the fixture tree is
    not configured as library code (unlike the determinism rules)."""
    config = fixture_config(library_prefixes=("src/",))
    findings = run_pass(lintpass, "lint_fire.py", config=config)
    assert {f.rule for f in findings} == {"RA402", "RA403", "RA404"}


def run_ra4_cli(fixture_path, tmp_path, name):
    """Run ``python -m tools.analysis --select RA4`` on a copy of the
    fixture ``name``.  The copy sits outside the fixtures tree, which
    the analyzer excludes by default."""
    from tools.analysis.cli import main

    target = tmp_path / name
    with open(fixture_path(name), encoding="utf-8") as handle:
        target.write_text(handle.read())
    return main([str(target), "--select", "RA4", "--no-baseline"])


def test_ra4_cli_reports_lint_findings(fixture_path, tmp_path, capsys):
    """The RA4 rules run on their own from the command line, as
    ``make lint`` suggests when ruff is absent."""
    assert run_ra4_cli(fixture_path, tmp_path, "lint_fire.py") == 1
    rules = set(re.findall(r": (RA\d+) ", capsys.readouterr().out))
    assert "RA402" in rules
    assert all(rule.startswith("RA4") for rule in rules)


def test_ra4_cli_clean_run_exits_zero(fixture_path, tmp_path, capsys):
    assert run_ra4_cli(fixture_path, tmp_path, "lint_clean.py") == 0
    assert "0 finding(s)" in capsys.readouterr().out
