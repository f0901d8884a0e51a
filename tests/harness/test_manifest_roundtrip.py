"""Run-manifest round-trip: sweep -> JSON -> dataclasses -> JSON."""

from __future__ import annotations

import json
from pathlib import Path

from repro.harness import (ExperimentRunner, load_manifest,
                           parse_manifest)
from repro.obs import TracingObserver

SEED_PATH = Path(__file__).resolve().parents[2] / "benchmarks" \
    / "seed-manifest.json"


def _sweep(tmp_path, **kwargs):
    runner = ExperimentRunner(cache_dir=tmp_path, **kwargs)
    runner.sweep(benchmarks=["ora"], schedulers=("balanced",),
                 configs=["base", "swp"])
    return runner


def test_manifest_loads_into_equal_dataclasses(tmp_path):
    runner = _sweep(tmp_path)
    manifest = load_manifest(runner.manifest_path)
    assert manifest.version == 8
    assert manifest.partial is False
    assert manifest.grid_points == 2
    assert manifest.executed == 2 and manifest.cached == 0
    assert manifest.fingerprint == runner._fingerprint
    assert len(manifest.runs) == 2

    for run in manifest.runs:
        key = (run.benchmark, run.scheduler, run.config)
        assert run.timing() == runner.timings[key]
        result = runner._memory[key]
        assert run.total_cycles == result.total_cycles
        assert run.load_interlock_cycles == \
            result.load_interlock_cycles
        assert run.instructions_per_second > 0

    # The executed swp point carries its full ModuloStats record.
    swp = manifest.run_for("ora", "balanced", "swp")
    assert swp is not None and swp.modulo is not None
    assert swp.modulo["attempted"] >= swp.modulo["pipelined"]
    # ora pipelines one of its two loops, within II <= 2*MII.
    assert manifest.modulo["balanced/swp"]["loops_pipelined"] >= 1
    assert manifest.modulo["balanced/swp"]["max_ii_over_mii"] <= 2.0

    # v7: a fast-engine run builds exactly one timing engine, and a
    # clean store had nothing to drop or reap.
    for run in manifest.runs:
        builds = run.code_cache_hits + run.code_cache_misses
        assert builds == (1 if run.sim_mode == "fast" else 0)
    assert manifest.store_errors == 0 and manifest.orphans_reaped == 0


def test_manifest_json_roundtrip_is_lossless(tmp_path):
    runner = _sweep(tmp_path)
    manifest = load_manifest(runner.manifest_path)
    rehydrated = parse_manifest(
        json.loads(json.dumps(manifest.to_json())))
    assert rehydrated == manifest


def test_seed_with_analysis_section_roundtrips():
    data = json.loads(SEED_PATH.read_text())
    assert data["analysis"]["points"]
    manifest = parse_manifest(data)
    assert manifest.analysis == data["analysis"]
    assert manifest.to_json() == data


def test_cached_resweep_keeps_results(tmp_path):
    _sweep(tmp_path)
    runner = _sweep(tmp_path)     # second sweep: all from disk cache
    manifest = load_manifest(runner.manifest_path)
    assert manifest.executed == 0 and manifest.cached == 2
    assert all(run.cached for run in manifest.runs)
    # Cached entries still report cycles and modulo aggregates.
    assert all(run.total_cycles > 0 for run in manifest.runs)
    assert manifest.modulo
    rehydrated = parse_manifest(
        json.loads(json.dumps(manifest.to_json())))
    assert rehydrated == manifest


def test_traced_sweep_manifest_roundtrips(tmp_path):
    runner = _sweep(tmp_path, observer=TracingObserver())
    manifest = load_manifest(runner.manifest_path)
    assert manifest.trace is not None
    assert manifest.trace["trace"]["spans"] > 0
    assert manifest.trace["stalls"]
    assert manifest.trace["provenance"]["loads"] > 0
    rehydrated = parse_manifest(
        json.loads(json.dumps(manifest.to_json())))
    assert rehydrated == manifest
