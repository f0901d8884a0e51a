"""Manifest diffing: the exact regression gate between two runs."""

from __future__ import annotations

import json

import pytest

from repro.obs import diff_manifest_files, diff_manifests


def _manifest(points):
    runs = []
    for (bench, sched, config, cycles, interlock) in points:
        runs.append({
            "benchmark": bench, "scheduler": sched, "config": config,
            "cached": False, "total_cycles": cycles,
            "load_interlock_cycles": interlock,
        })
    return {"version": 2, "runs": runs}


BASE = _manifest([
    ("ear", "balanced", "base", 100_000, 10_000),
    ("ear", "traditional", "base", 120_000, 20_000),
    ("ora", "balanced", "base", 50_000, 500),
])


def test_identical_manifests_are_ok():
    result = diff_manifests(BASE, BASE)
    assert result.ok
    assert result.compared == {"runs": 3}
    assert "no differences" in result.format()


def test_cycle_regression_flagged():
    new = _manifest([
        ("ear", "balanced", "base", 100_001, 10_000),
        ("ear", "traditional", "base", 120_000, 20_000),
        ("ora", "balanced", "base", 50_000, 500),
    ])
    result = diff_manifests(BASE, new)
    assert not result.ok
    assert result.failures == [
        "CHANGED  runs ear/balanced/base: total_cycles "
        "100000 -> 100001"]
    assert "1 difference(s)" in result.format()


def test_cycle_improvement_flagged():
    # Cycles are deterministic: fewer is as much a finding as more
    # (a fast engine that undercounts must not pass).
    new = _manifest([
        ("ear", "balanced", "base", 99_999, 10_000),
        ("ear", "traditional", "base", 120_000, 20_000),
        ("ora", "balanced", "base", 50_000, 500),
    ])
    result = diff_manifests(BASE, new)
    assert not result.ok
    assert "100000 -> 99999" in result.failures[0]


@pytest.mark.parametrize("interlock", [499, 501])
def test_interlock_change_flagged_both_ways(interlock):
    new = _manifest([
        ("ear", "balanced", "base", 100_000, 10_000),
        ("ear", "traditional", "base", 120_000, 20_000),
        ("ora", "balanced", "base", 50_000, interlock),
    ])
    result = diff_manifests(BASE, new)
    assert result.failures == [
        f"CHANGED  runs ora/balanced/base: load_interlock_cycles "
        f"500 -> {interlock}"]


def test_missing_points_fatal_new_points_not():
    new = _manifest([
        ("ear", "balanced", "base", 100_000, 10_000),
        ("alvinn", "balanced", "base", 70_000, 7_000),
    ])
    result = diff_manifests(BASE, new)
    assert not result.ok
    assert result.failures == ["MISSING  runs ear/traditional/base",
                               "MISSING  runs ora/balanced/base"]
    assert result.only_new == ["runs alvinn/balanced/base"]
    assert "NEW      runs alvinn/balanced/base" in result.format()
    # New-only points alone never fail the gate.
    only_ear = _manifest([("ear", "balanced", "base", 100_000, 10_000)])
    assert diff_manifests(only_ear, new).ok


def test_old_manifests_without_interlock_field_compare_cycles_only():
    base = {"version": 1, "runs": [{
        "benchmark": "ear", "scheduler": "balanced", "config": "base",
        "cached": True, "total_cycles": 100_000}]}
    result = diff_manifests(base, BASE)
    assert result.ok
    assert result.compared == {"runs": 1}


def test_diff_manifest_files(tmp_path):
    base_path = tmp_path / "base.json"
    new_path = tmp_path / "new.json"
    base_path.write_text(json.dumps(BASE))
    new_path.write_text(json.dumps(BASE))
    assert diff_manifest_files(base_path, new_path).ok
    with pytest.raises(OSError):
        diff_manifest_files(tmp_path / "missing.json", new_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError):
        diff_manifest_files(bad, new_path)


def _oracle_section(**point_over):
    point = {
        "gap_balanced": 1.05, "gap_traditional": 1.4,
        "blocks": 6, "blocks_certified": 5,
        "loops": 2, "loops_certified": 2,
        "loops_beyond_heuristic": 1,
    }
    point.update(point_over)
    return {"schema": 1, "budget": "n1000",
            "points": {"ear/base": point},
            "totals": {}}


def test_oracle_sections_identical_ok():
    base = dict(BASE, version=4, oracle=_oracle_section())
    new = dict(BASE, version=4, oracle=_oracle_section())
    result = diff_manifests(base, new)
    assert result.ok
    assert result.compared["oracle"] == 1
    assert "1 point(s) in oracle" in result.format()


def test_oracle_gap_growth_flagged():
    base = dict(BASE, version=4, oracle=_oracle_section())
    new = dict(BASE, version=4,
               oracle=_oracle_section(gap_balanced=1.2))
    result = diff_manifests(base, new)
    assert not result.ok
    assert result.failures == [
        "CHANGED  oracle ear/base: gap_balanced 1.05 -> 1.2"]


def test_oracle_tiny_gap_change_flagged():
    base = dict(BASE, version=4, oracle=_oracle_section())
    new = dict(BASE, version=4,
               oracle=_oracle_section(gap_traditional=1.3999))
    assert not diff_manifests(base, new).ok


def test_oracle_certification_drop_flagged():
    base = dict(BASE, version=4, oracle=_oracle_section())
    new = dict(BASE, version=4,
               oracle=_oracle_section(loops_beyond_heuristic=0))
    result = diff_manifests(base, new)
    assert any("loops_beyond_heuristic 1 -> 0" in r
               for r in result.failures)


def test_oracle_point_missing_from_new_flagged():
    base = dict(BASE, version=4, oracle=_oracle_section())
    new = dict(BASE, version=4, oracle={"schema": 1, "budget": "n1000",
                                        "points": {}, "totals": {}})
    result = diff_manifests(base, new)
    assert result.failures == ["MISSING  oracle ear/base"]


def test_manifests_without_oracle_sections_skip_gating():
    result = diff_manifests(BASE, BASE)
    assert result.ok
    assert "oracle" not in result.compared
    assert "in oracle" not in result.format()


# ------------------------------------------------- analysis gating (v6)
def _analysis_section(**point_over):
    point = {
        "loops": 3, "pairs": 40, "independent": 36, "exact": 4,
        "always": 0, "unknown": 0,
        "max_live_i": 12, "max_live_f": 20, "over_budget_blocks": 0,
    }
    point.update(point_over)
    return {"schema": 1,
            "points": {"ear/balanced": point},
            "totals": {}}


def test_analysis_sections_identical_ok():
    base = dict(BASE, version=6, analysis=_analysis_section())
    new = dict(BASE, version=6, analysis=_analysis_section())
    result = diff_manifests(base, new)
    assert result.ok
    assert result.compared["analysis"] == 1
    assert "1 point(s) in analysis" in result.format()


def test_analysis_independent_drop_flagged():
    base = dict(BASE, version=6, analysis=_analysis_section())
    new = dict(BASE, version=6,
               analysis=_analysis_section(independent=35, unknown=1))
    result = diff_manifests(base, new)
    assert not result.ok
    assert result.failures == [
        "CHANGED  analysis ear/balanced: independent 36 -> 35",
        "CHANGED  analysis ear/balanced: unknown 0 -> 1"]


def test_analysis_over_budget_growth_flagged():
    base = dict(BASE, version=6, analysis=_analysis_section())
    new = dict(BASE, version=6,
               analysis=_analysis_section(over_budget_blocks=2))
    result = diff_manifests(base, new)
    assert any("over_budget_blocks 0 -> 2" in r
               for r in result.failures)


@pytest.mark.parametrize("field,value", [("max_live_f", 21),
                                         ("max_live_i", 11)])
def test_analysis_maxlive_change_flagged_both_ways(field, value):
    base = dict(BASE, version=6, analysis=_analysis_section())
    changed = dict(BASE, version=6,
                   analysis=_analysis_section(**{field: value}))
    result = diff_manifests(base, changed)
    assert result.failures == [
        f"CHANGED  analysis ear/balanced: {field} "
        f"{base['analysis']['points']['ear/balanced'][field]} -> "
        f"{value}"]


def test_analysis_point_missing_from_new_flagged():
    base = dict(BASE, version=6, analysis=_analysis_section())
    new = dict(BASE, version=6,
               analysis={"schema": 1, "points": {}, "totals": {}})
    result = diff_manifests(base, new)
    assert result.failures == ["MISSING  analysis ear/balanced"]


def test_manifests_without_analysis_sections_skip_gating():
    result = diff_manifests(BASE, BASE)
    assert result.ok
    assert "analysis" not in result.compared
    assert "in analysis" not in result.format()


def test_missing_section_fatal_new_section_not():
    with_analysis = dict(BASE, version=6, analysis=_analysis_section())
    result = diff_manifests(with_analysis, BASE)
    assert result.failures == ["MISSING  analysis section"]
    result = diff_manifests(BASE, with_analysis)
    assert result.ok
    assert result.compared == {"runs": 3}
