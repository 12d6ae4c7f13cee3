"""Inline suppressions: honored, themselves linted, and never silent."""

from pathlib import Path

from repro.analysis import analyze_paths

FIXTURES = Path(__file__).parent / "fixtures" / "suppress"


def test_valid_suppressions_silence_findings_and_exit_zero():
    report = analyze_paths([FIXTURES / "ok_suppressed.py"])
    assert report.exit_code == 0
    assert report.findings == []
    assert len(report.suppressed) == 2
    reasons = {s.reason for s in report.suppressed}
    assert "fixture demonstrating a documented exception" in reasons
    assert "trailing-comment form" in reasons  # trailing comments cover their own line


def test_stale_suppression_is_itself_a_finding():
    report = analyze_paths([FIXTURES / "stale.py"])
    assert report.exit_code == 1
    assert [f.rule for f in report.findings] == ["stale-suppression"]
    assert "mutation-funnel" in report.findings[0].message


def test_malformed_suppressions_are_findings():
    report = analyze_paths([FIXTURES / "malformed.py"])
    assert report.exit_code == 1
    assert [f.rule for f in report.findings] == ["malformed-suppression"] * 2
    messages = " ".join(f.message for f in report.findings)
    assert "reason required" in messages
    assert "not-a-rule" in messages


def test_stale_check_skipped_for_rules_that_did_not_run():
    # Under --rule filtering, a suppression of a rule that never ran cannot
    # be judged stale — only suppressions of executed rules are.
    report = analyze_paths([FIXTURES / "stale.py"], rule_ids=["settings-knob"])
    assert report.findings == []
    assert report.exit_code == 0
