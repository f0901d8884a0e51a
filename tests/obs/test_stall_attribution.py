"""Cycle-level stall attribution: exactness and zero-cost-off.

The acceptance property for the observability layer: summed per-PC
interlock cycles equal the aggregate ``Metrics`` counters *exactly*
on both engines, the default engine attributes (a profile no longer
moves a run onto the interpreter), and a disabled observer changes
neither the generated code nor a single cycle of the simulation.
"""

from __future__ import annotations

import pytest

from repro.harness import (ExperimentRunner, Options, compile_source,
                           load_manifest, options_for)
from repro.machine import Simulator
from repro.obs import NULL_OBSERVER, StallProfile, TracingObserver
from repro.workloads import WORKLOADS

#: The interpreter, and the default engine ("auto" picks the fast one
#: with a profile attached).
ENGINES = ("reference", "auto")


def _profiled_runs(benchmark: str, scheduler: str, config: str):
    """One profiled run per engine of the same compiled program."""
    observer = TracingObserver()
    workload = WORKLOADS[benchmark]
    result = compile_source(workload.source,
                            options_for(scheduler, config),
                            workload.name, observer=observer)
    for mode in ENGINES:
        profile = StallProfile()
        sim = Simulator(result.program, stall_profile=profile, mode=mode)
        metrics = sim.run()
        assert sim.mode_used == ("fast" if mode == "auto" else mode)
        yield result, profile, metrics


# "ear"/"lu4" is a Table 6 grid point (scheduler x unroll-by-4).
@pytest.mark.parametrize("scheduler", ["balanced", "traditional"])
def test_per_pc_interlocks_sum_exactly(scheduler):
    for _, profile, metrics in _profiled_runs("ear", scheduler, "lu4"):
        assert metrics.load_interlock_cycles > 0
        assert sum(profile.load_interlock.values()) == \
            metrics.load_interlock_cycles
        assert sum(profile.fixed_interlock.values()) == \
            metrics.fixed_interlock_cycles
        assert sum(profile.mshr_stalls.values()) == \
            metrics.mshr_stall_cycles


def test_exec_histogram_and_load_sites():
    for result, profile, metrics in _profiled_runs("ear", "balanced",
                                                   "base"):
        assert sum(profile.exec_counts.values()) == metrics.instructions
        # Every attributed load-interlock PC is a static load site.
        for pc in profile.load_interlock:
            assert result.program.instructions[pc].is_load, pc
        # Hit/miss accounting covers every executed load exactly once.
        assert sum(profile.load_hits.values()) + \
            sum(profile.load_misses.values()) == metrics.loads


def test_hot_loads_ranked_and_formatted():
    for result, profile, metrics in _profiled_runs("ear", "balanced",
                                                   "base"):
        rows = profile.hot_loads(5)
        assert rows
        cycles = [row["interlock_cycles"] for row in rows]
        assert cycles == sorted(cycles, reverse=True)
        table = profile.format_hot_loads(
            result.program, n=5, total_cycles=metrics.total_cycles)
        assert "interlock" in table
        assert str(rows[0]["pc"]) in table


def test_disabled_observer_is_bit_identical():
    """No observer => identical code; no profile => identical cycles."""
    workload = WORKLOADS["ear"]
    options = Options(scheduler="balanced")
    plain = compile_source(workload.source, options, workload.name)
    observed = compile_source(workload.source, options, workload.name,
                              observer=TracingObserver())
    assert plain.program.format() == observed.program.format()

    bare = Simulator(plain.program).run()
    profiled_sim = Simulator(plain.program,
                             stall_profile=StallProfile())
    profiled = profiled_sim.run()
    assert bare.total_cycles == profiled.total_cycles
    assert bare.load_interlock_cycles == profiled.load_interlock_cycles
    assert bare.fixed_interlock_cycles == \
        profiled.fixed_interlock_cycles
    assert bare.instructions == profiled.instructions


def test_traced_sweep_runs_the_fast_engine(tmp_path):
    """A traced sweep attributes on the default engine, and each
    point's stall section equals the interpreter's on the same
    program."""
    runner = ExperimentRunner(cache_dir=tmp_path,
                              observer=TracingObserver())
    runner.sweep(benchmarks=["ora"], configs=["base", "trs4"])
    manifest = load_manifest(runner.manifest_path)
    stalls = manifest.trace["stalls"]
    assert len(manifest.runs) == len(stalls) == 4
    assert {run.sim_mode for run in manifest.runs} == {"fast"}
    workload = WORKLOADS["ora"]
    for run in manifest.runs:
        options = options_for(run.scheduler, run.config)
        program = compile_source(workload.source, options,
                                 workload.name).program
        profile = StallProfile()
        Simulator(program, config=options.config, mode="reference",
                  stall_profile=profile).run()
        section = stalls[f"ora/{run.scheduler}/{run.config}"]
        assert section == profile.to_json(top=len(section["hot_loads"]))


def test_null_observer_spans_are_reusable():
    with NULL_OBSERVER.span("anything", attr=1) as sp:
        sp.annotate(more=2)     # on a span nothing keeps
    assert NULL_OBSERVER.stall_profile("x", "y", "z") is None
    assert not NULL_OBSERVER.enabled
