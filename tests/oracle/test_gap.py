"""Gap driver: analysis payloads, caching, manifest attachment, and the
experiment runner's store and pool underneath the oracle sweep."""

import dataclasses
import json
import time

import pytest

from repro.__main__ import main
from repro.harness import experiment
from repro.harness.experiment import (
    ExperimentRunner,
    RunResult,
    RunTiming,
    attach_section,
)
from repro.harness.store import atomic_write_json
from repro.oracle import gap
from repro.oracle.gap import (
    GAP_SCHEMA_VERSION,
    OracleRunner,
    _aggregate,
    analyze_point,
    oracle_summary,
)
from repro.workloads import WORKLOAD_ORDER

#: Small deterministic node budget: keeps the suite fast while
#: certifying most of ora's blocks.
BUDGET = 20_000


def _point(benchmark="ora"):
    return analyze_point(benchmark, "base", budget=BUDGET)


def _oracle(cache_dir, budget=BUDGET, **runner_kwargs):
    return OracleRunner(ExperimentRunner(cache_dir=cache_dir,
                                         **runner_kwargs), budget)


def _empty_payload(benchmark, config, budget):
    """A well-formed gap payload over no blocks and no loops."""
    return {"schema": GAP_SCHEMA_VERSION, "benchmark": benchmark,
            "config": config, "budget": f"n{budget}", "validated": True,
            "summary": _aggregate([], [], {}), "blocks": [], "loops": []}


def test_payload_shape_and_validation(tmp_path):
    payload = _point()
    assert payload["schema"] == GAP_SCHEMA_VERSION
    assert payload["validated"] is True
    assert payload["budget"] == f"n{BUDGET}"
    summary = payload["summary"]
    assert summary["blocks"] > 0
    assert summary["blocks_certified"] + summary["blocks_bailed"] \
        == summary["blocks"]
    assert summary["gap"]["balanced"] >= 1.0
    assert summary["gap"]["traditional"] >= 1.0


def test_per_block_costs_never_beat_the_oracle():
    payload = _point("ear")
    for block in payload["blocks"]:
        for _name, cost in block["heuristics"].items():
            assert block["makespan"] <= cost[0]
            assert block["total"] <= sum(cost)
    # ear's loops include proofs the heuristic could not make.
    assert any(loop["beyond_heuristic"] for loop in payload["loops"])


def test_runner_caches_bit_stable_payloads(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "0")
    first = _oracle(tmp_path)
    a = first.run("ora", "base")
    # A fresh runner must hit the disk cache and agree bit-for-bit.
    second = _oracle(tmp_path)
    b = second.run("ora", "base")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    key = second._store_key("ora", "base")
    assert second.runner.load(key) is not None


def test_cli_full_json_is_identical_in_two_cold_caches(tmp_path,
                                                       monkeypatch,
                                                       capsys):
    outputs = []
    for cache in ("a", "b"):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / cache))
        assert main(["oracle", "ora", "--oracle-budget", "50000",
                     "--json", "--full"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    (payload,) = json.loads(outputs[0])
    assert payload["benchmark"] == "ora"
    assert payload["budget"] == "n50000" and payload["validated"]


def test_budget_is_part_of_the_cache_key(tmp_path):
    lo = _oracle(tmp_path, budget=100)
    hi = _oracle(tmp_path, budget=100_000)
    assert lo._store_key("ora", "base") != hi._store_key("ora", "base")
    assert "@n100" in lo._store_key("ora", "base").config


def test_sweep_covers_the_grid(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "0")
    runner = _oracle(tmp_path)
    payloads = runner.sweep(benchmarks=["ora", "ear"],
                            configs=["base"])
    assert [p["benchmark"] for p in payloads] == ["ora", "ear"]
    summary = oracle_summary(payloads)
    assert set(summary["points"]) == {"ora/base", "ear/base"}
    totals = summary["totals"]
    assert totals["blocks"] == sum(p["summary"]["blocks"]
                                   for p in payloads)


def test_parallel_sweep_equals_serial(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "0")
    grid = dict(benchmarks=["ora", "ear"], configs=["base"])
    serial = _oracle(tmp_path / "serial").sweep(**grid, jobs=1)
    parallel = _oracle(tmp_path / "parallel").sweep(**grid, jobs=2)
    assert json.dumps(parallel, sort_keys=True) == \
        json.dumps(serial, sort_keys=True)


def test_attach_oracle_rewrites_manifest(tmp_path):
    manifest = tmp_path / "run-manifest.json"
    atomic_write_json(manifest, {"version": 4, "runs": []})
    summary = {"schema": GAP_SCHEMA_VERSION, "points": {}, "totals": {}}
    attach_section(manifest, "oracle", summary)
    data = json.loads(manifest.read_text())
    assert data["version"] == 4          # existing keys preserved
    assert data["oracle"]["schema"] == GAP_SCHEMA_VERSION


def test_report_oracle_analyses_each_point_once(tmp_path, monkeypatch,
                                                capsys):
    """``repro report --oracle`` sweeps the oracle twice (the report's
    gap section, then the summary line); with the store off, the
    second sweep must still be served from the first one's memo."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    calls = []

    def counted(benchmark, config, budget):
        calls.append((benchmark, config))
        return _empty_payload(benchmark, config, budget)

    def fake_grid_point(workload, scheduler, config, observer=None):
        # Every count 1: the report only needs positive numbers.
        counts = {f.name: 1 for f in dataclasses.fields(RunResult)
                  if f.default is dataclasses.MISSING
                  and f.default_factory is dataclasses.MISSING}
        counts.update(benchmark=workload.name, scheduler=scheduler,
                      config=config)
        return RunResult(**counts), RunTiming(workload.name, scheduler,
                                              config, cached=False)

    monkeypatch.setattr(gap, "analyze_point", counted)
    monkeypatch.setattr(experiment, "_execute_grid_point",
                        fake_grid_point)
    assert main(["report", "--oracle", "--configs", "base",
                 "--jobs", "1"]) == 0
    assert "Heuristic gap" in capsys.readouterr().out
    assert sorted(calls) == sorted((b, "base") for b in WORKLOAD_ORDER)


class _InterruptOnFirstResult(dict):
    """A memo whose first stored payload raises KeyboardInterrupt, as
    if ^C arrived right after the sweep's first completed point."""

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        raise KeyboardInterrupt


def test_interrupted_parallel_sweep_cancels_queued_points(
        tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    started = tmp_path / "started"
    started.mkdir()
    grid = dict(benchmarks=list(WORKLOAD_ORDER)[:12],
                configs=["base", "lu4"])
    points = len(grid["benchmarks"]) * len(grid["configs"])

    def slow(benchmark, config, budget):
        # Runs in a forked pool worker; the marker outlives it.
        (started / f"{benchmark}-{config}").touch()
        time.sleep(0.2)
        return _empty_payload(benchmark, config, budget)

    monkeypatch.setattr(gap, "analyze_point", slow)
    oracle = _oracle(tmp_path / "cache")
    oracle._memory = _InterruptOnFirstResult()
    with pytest.raises(KeyboardInterrupt):
        oracle.sweep(**grid, jobs=2)
    # Points already handed to a worker may still finish; give them
    # time, then count: the queued rest must never have started.
    time.sleep(1.5)
    analysed = len(list(started.iterdir()))
    assert 1 <= analysed < points
