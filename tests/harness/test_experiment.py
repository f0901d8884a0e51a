"""Experiment runner: configs, caching, means."""

import pytest

from repro.harness.experiment import (
    CONFIGS,
    ExperimentRunner,
    RunResult,
    arithmetic_mean,
    geometric_mean,
    options_for,
)


def test_config_grid_matches_paper_axes():
    assert set(CONFIGS) == {
        "base", "lu4", "lu8", "trs4", "trs8",
        "la", "la+lu4", "la+lu8", "la+trs4", "la+trs8",
        "swp", "la+swp",
    }


def test_options_for_swp_configs():
    options = options_for("balanced", "swp")
    assert options.swp and not options.locality
    options = options_for("balanced", "la+swp")
    assert options.swp and options.locality


def test_options_for_builds_correct_knobs():
    options = options_for("traditional", "la+trs8")
    assert options.scheduler == "traditional"
    assert options.unroll == 8
    assert options.trace
    assert options.locality
    base = options_for("balanced", "base")
    assert base.unroll == 0 and not base.trace and not base.locality


def test_means():
    assert arithmetic_mean([1.0, 2.0, 3.0]) == 2.0
    assert arithmetic_mean([]) == 0.0
    assert abs(geometric_mean([1.0, 4.0]) - 2.0) < 1e-12
    assert geometric_mean([]) == 0.0


class TestGeometricMeanExtremes:
    """Log-domain regression: raw products overflow/underflow."""

    def test_no_overflow_on_large_magnitudes(self):
        # 400 cycle-count-sized values: the raw product is ~1e3200,
        # far beyond float range; the mean itself is ordinary.
        values = [1e8] * 400
        assert geometric_mean(values) == pytest.approx(1e8, rel=1e-9)

    def test_no_underflow_on_tiny_magnitudes(self):
        values = [1e-8] * 400
        result = geometric_mean(values)
        assert result == pytest.approx(1e-8, rel=1e-9)
        assert result > 0.0

    def test_mixed_extremes(self):
        assert geometric_mean([1e300, 1e-300]) == pytest.approx(1.0)

    def test_long_ratio_lists_stay_finite(self):
        import math
        values = [1.05] * 10_000
        result = geometric_mean(values)
        assert math.isfinite(result)
        assert result == pytest.approx(1.05)

    def test_non_positive_values_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0, 2.0])
        with pytest.raises(ValueError):
            geometric_mean([-1.0])


class TestRunnerCaching:
    def test_disk_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        runner = ExperimentRunner(cache_dir=tmp_path)
        first = runner.run("ora", "balanced", "base")
        assert isinstance(first, RunResult)
        cached_files = [f for f in tmp_path.rglob("*.json")
                        if f.name != "run-manifest.json"]
        assert len(cached_files) == 1
        # A fresh runner must reuse the file rather than re-simulating.
        runner2 = ExperimentRunner(cache_dir=tmp_path)
        second = runner2.run("ora", "balanced", "base")
        assert second == first

    def test_memory_cache_returns_same_object(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        a = runner.run("ora", "balanced", "base")
        b = runner.run("ora", "balanced", "base")
        assert a is b

    def test_no_cache_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        runner = ExperimentRunner(cache_dir=tmp_path)
        runner.run("ora", "balanced", "base")
        assert not list(tmp_path.rglob("*.json"))

    def test_corrupt_cache_entry_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        runner = ExperimentRunner(cache_dir=tmp_path)
        result = runner.run("ora", "balanced", "base")
        (path,) = tmp_path.rglob("*.json")
        path.write_text("{not json")
        runner2 = ExperimentRunner(cache_dir=tmp_path)
        again = runner2.run("ora", "balanced", "base")
        assert again.total_cycles == result.total_cycles


def test_run_result_fields_sane(tmp_path):
    runner = ExperimentRunner(cache_dir=tmp_path)
    result = runner.run("ora", "balanced", "base")
    assert result.benchmark == "ora"
    assert result.total_cycles > result.instructions // 2
    assert result.loads >= result.spill_loads
    assert 0.0 <= result.load_interlock_fraction <= 1.0
    assert result.static_instructions > 0


def test_verbose_run_writes_nothing_to_stdout(tmp_path, capsys,
                                              monkeypatch):
    """Progress goes to stderr, so ``repro report > report.md`` holds
    only the report."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    runner = ExperimentRunner(cache_dir=tmp_path, verbose=True)
    runner.run("ora", "balanced", "base")
    out, err = capsys.readouterr()
    assert out == ""
    assert "running ora / balanced / base" in err


def test_sweep_covers_requested_grid(tmp_path):
    runner = ExperimentRunner(cache_dir=tmp_path)
    results = runner.sweep(benchmarks=["ora"],
                           schedulers=("balanced",),
                           configs=["base", "lu4"])
    assert len(results) == 2
    assert {r.config for r in results} == {"base", "lu4"}
