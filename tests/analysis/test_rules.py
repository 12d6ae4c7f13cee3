"""Each rule fires on its bad fixture and stays quiet on the clean ones."""

from pathlib import Path

import pytest

from repro.analysis import analyze_paths

FIXTURES = Path(__file__).parent / "fixtures"

#: (fixture directory, rule id, findings the bad file must produce)
BAD_FIXTURES = [
    ("funnel", "mutation-funnel", 3),
    ("executor", "trace-only-annotations", 2),
    ("server", "no-blocking-in-async", 4),
    ("storage", "swallowed-error", 2),
    ("metrics", "metrics-discipline", 4),
    ("knobs", "settings-knob", 1),
    ("faultsite", "fault-site-registered", 2),
]


@pytest.mark.parametrize("directory, rule_id, count", BAD_FIXTURES)
def test_bad_fixture_fires(directory, rule_id, count):
    report = analyze_paths([FIXTURES / directory])
    assert report.exit_code == 1
    assert {f.rule for f in report.findings} == {rule_id}
    assert len(report.findings) == count


@pytest.mark.parametrize("directory, rule_id, count", BAD_FIXTURES)
def test_rule_filter_isolates_one_rule(directory, rule_id, count):
    report = analyze_paths([FIXTURES / directory], rule_ids=[rule_id])
    assert len(report.findings) == count
    quiet = analyze_paths(
        [FIXTURES / directory],
        rule_ids=["mutation-funnel" if rule_id != "mutation-funnel" else "settings-knob"],
    )
    assert quiet.findings == []


def test_clean_fixture_is_clean():
    report = analyze_paths([FIXTURES / "clean"])
    assert report.exit_code == 0
    assert report.findings == []


def test_funnel_methods_in_relation_module_are_allowed():
    report = analyze_paths([FIXTURES / "funnel_ok"])
    assert report.exit_code == 0
    assert report.findings == []


def test_findings_carry_position_and_render():
    report = analyze_paths([FIXTURES / "funnel"])
    first = report.findings[0]
    assert first.line == 5 and first.rule == "mutation-funnel"
    rendered = first.render()
    assert rendered.startswith(f"{first.file}:{first.line}:{first.col}: mutation-funnel:")


def test_unknown_rule_id_is_an_error():
    with pytest.raises(ValueError):
        analyze_paths([FIXTURES / "clean"], rule_ids=["no-such-rule"])


def test_generation_counter_is_protected_like_the_caches(tmp_path):
    # Engine table snapshots trust ``_generation`` to move with every cache
    # drop; a write from outside the funnel would let a stale plan read
    # frames of rows it never copied.
    source = tmp_path / "sneaky.py"
    source.write_text(
        "def rewind(relation):\n"
        "    relation._generation = 0\n"
        "    relation._generation += 1\n"
    )
    report = analyze_paths([tmp_path], rule_ids=["mutation-funnel"])
    assert [f.line for f in report.findings] == [2, 3]
