"""Parallel sweep: process-pool fan-out equals the serial path, in
deterministic grid order, and the run manifest records observability."""

from __future__ import annotations

import json
import os

import pytest

from repro.check import ENV_FLAG
from repro.harness.experiment import (
    CONFIGS,
    ExperimentRunner,
    MANIFEST_NAME,
    RunTiming,
)
from repro.obs.metrics import REGISTRY

GRID = dict(benchmarks=["ora", "alvinn"], schedulers=("balanced",),
            configs=["base", "lu4"])


@pytest.fixture(autouse=True)
def _cache_on(monkeypatch):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)


def test_parallel_equals_serial(tmp_path):
    serial = ExperimentRunner(cache_dir=tmp_path / "serial")
    parallel = ExperimentRunner(cache_dir=tmp_path / "parallel", jobs=4)
    expected = serial.sweep(**GRID)
    got = parallel.sweep(**GRID)
    assert got == expected
    # Identical order too: benchmark-major, then scheduler, then config.
    keys = [(r.benchmark, r.scheduler, r.config) for r in got]
    assert keys == [(b, s, c) for b in GRID["benchmarks"]
                    for s in GRID["schedulers"] for c in GRID["configs"]]


def test_parallel_sweep_jobs_argument_overrides(tmp_path):
    runner = ExperimentRunner(cache_dir=tmp_path)
    results = runner.sweep(benchmarks=["ora"], schedulers=("balanced",),
                           configs=["base", "lu4"], jobs=2)
    assert len(results) == 2
    assert all(r.benchmark == "ora" for r in results)


def test_parallel_sweep_populates_memory_cache(tmp_path):
    runner = ExperimentRunner(cache_dir=tmp_path, jobs=2)
    (first, second) = runner.sweep(benchmarks=["ora"],
                                   schedulers=("balanced",),
                                   configs=["base", "lu4"])
    # run() after a parallel sweep is a pure memory hit.
    assert runner.run("ora", "balanced", "base") is first
    assert runner.run("ora", "balanced", "lu4") is second


def test_second_sweep_hits_disk_cache(tmp_path):
    ExperimentRunner(cache_dir=tmp_path, jobs=2).sweep(**GRID)
    rerun = ExperimentRunner(cache_dir=tmp_path)
    results = rerun.sweep(**GRID)
    assert all(rerun.timings[(r.benchmark, r.scheduler, r.config)].cached
               for r in results)


#: The spans every executed grid point opens.
POINT_SPANS = {"grid-point", "compile", "frontend", "ast-transforms",
               "lower", "cleanups", "schedule", "regalloc",
               "linearize-verify", "sim-build", "simulate"}


def test_manifest_records_phases_and_throughput(tmp_path):
    runner = ExperimentRunner(cache_dir=tmp_path, jobs=2)
    runner.sweep(benchmarks=["ora"], schedulers=("balanced",),
                 configs=["base", "trs4", "swp"])
    manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
    assert manifest["fingerprint"] == runner._fingerprint
    assert manifest["grid_points"] == 3
    assert manifest["executed"] == 3 and manifest["cached"] == 0
    assert manifest["wall_seconds"] > 0
    for entry in manifest["runs"]:
        phases = entry["phase_seconds"]
        knobs = CONFIGS[entry["config"]]
        # The phases are the spans the point opened: the trace profile
        # run only for trace configs, software pipelining only for swp
        # configs, and the pass-boundary checks when IR is validated.
        expected = set(POINT_SPANS)
        if knobs.get("trace"):
            expected.add("profile")
        if knobs.get("swp"):
            expected.add("swp")
        if os.environ.get(ENV_FLAG) == "1":
            expected.add("validate")
        assert set(phases) == expected
        assert all(value >= 0 for value in phases.values())
        assert sum(phases.values()) == entry["total_seconds"]
        assert entry["instructions_per_second"] > 0
        assert entry["simulated_instructions"] > 0
        assert entry["total_cycles"] > 0
        assert entry["sim_mode"] in ("fast", "reference")


def test_pool_code_cache_counts_reach_the_parent(tmp_path):
    """Each cold point counts its engine builds once: the timing engine,
    plus the profile engine for a trace config.  The parent's counts
    grow by exactly what its pool workers report."""
    def totals():
        return {name: family.value
                for name, family in REGISTRY.families().items()}

    before = totals()
    runner = ExperimentRunner(cache_dir=tmp_path, jobs=2)
    runner.sweep(benchmarks=["ora"], configs=["base", "trs4"])
    after = totals()
    runs = json.loads((tmp_path / MANIFEST_NAME).read_text())["runs"]
    assert len(runs) == 4 and not any(run["cached"] for run in runs)
    for run in runs:
        assert run["sim_mode"] == "fast"
        assert run["code_cache_hits"] + run["code_cache_misses"] == \
            (2 if run["config"] == "trs4" else 1)
    for name, field in (("repro_fastsim_code_cache_hits_total",
                         "code_cache_hits"),
                        ("repro_fastsim_code_cache_misses_total",
                         "code_cache_misses")):
        assert after[name] - before[name] == \
            sum(run[field] for run in runs)


def test_manifest_marks_cached_points(tmp_path):
    grid = dict(benchmarks=["ora"], schedulers=("balanced",),
                configs=["base"])
    ExperimentRunner(cache_dir=tmp_path).sweep(**grid)
    ExperimentRunner(cache_dir=tmp_path).sweep(**grid)
    manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
    assert manifest["executed"] == 0 and manifest["cached"] == 1
    assert manifest["runs"][0]["cached"] is True


def test_no_cache_env_skips_disk_and_manifest(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    runner = ExperimentRunner(cache_dir=tmp_path, jobs=2)
    results = runner.sweep(benchmarks=["ora"], schedulers=("balanced",),
                           configs=["base", "lu4"])
    assert len(results) == 2
    assert not tmp_path.exists() or not list(tmp_path.iterdir())


def test_run_timing_instructions_per_second():
    timing = RunTiming(benchmark="ora", scheduler="balanced",
                       config="base", cached=False,
                       phase_seconds={"simulate": 2.0},
                       simulated_instructions=1000)
    assert timing.instructions_per_second == 500.0
    assert RunTiming(benchmark="ora", scheduler="balanced",
                     config="base", cached=True).instructions_per_second \
        == 0.0
