"""Compilation driver: options, pipeline composition, profiles."""

import copy

import pytest

from repro.codegen.regalloc import allocate_registers
from repro.harness.compile import (
    Options,
    _collect_profile,
    compile_and_run,
    compile_source,
    lower_source,
    make_weight_model,
    run_compiled,
)
from repro.machine import Simulator
from repro.sched import BalancedWeights, TraditionalWeights
from tests.codegen.test_regalloc import _pressure_source


def test_options_labels():
    assert Options().label() == "balanced"
    assert Options(scheduler="traditional", unroll=4).label() == \
        "traditional+lu4"
    assert Options(unroll=8, trace=True, locality=True).label() == \
        "balanced+la+lu8+trs"


def test_options_labels_cover_every_codegen_knob():
    # Every knob that changes generated code must show up, so cache
    # keys and manifests stay unambiguous across ablation runs.
    assert Options(swp=True).label() == "balanced+swp"
    assert Options(predicate=False).label() == "balanced+nopred"
    assert Options(extra_opts=True).label() == "balanced+xopts"
    assert Options(scheduler="traditional", locality=True, unroll=4,
                   swp=True, predicate=False, extra_opts=True).label() == \
        "traditional+la+lu4+swp+nopred+xopts"
    # Distinct option sets never collide on a label.
    labels = {Options(swp=swp, predicate=pred, extra_opts=xtr).label()
              for swp in (False, True) for pred in (False, True)
              for xtr in (False, True)}
    assert len(labels) == 8


def test_options_validation():
    with pytest.raises(ValueError):
        Options(scheduler="bogus").validate()
    with pytest.raises(ValueError):
        Options(unroll=3).validate()
    with pytest.raises(ValueError):
        Options(scheduler="none", swp=True).validate()


def test_weight_model_selection():
    assert isinstance(make_weight_model(Options(scheduler="balanced")),
                      BalancedWeights)
    assert isinstance(make_weight_model(Options(scheduler="traditional")),
                      TraditionalWeights)
    assert make_weight_model(Options(scheduler="none")) is None


def test_locality_flag_enables_selective_weights():
    model = make_weight_model(Options(scheduler="balanced", locality=True))
    assert model.use_locality
    model = make_weight_model(Options(scheduler="balanced"))
    assert not model.use_locality


def test_compile_and_run_roundtrip(stencil_source):
    result, metrics = compile_and_run(stencil_source, Options())
    assert metrics.instructions > 0
    assert metrics.total_cycles > metrics.instructions // 2


def test_trace_compilation_collects_profile(stencil_source):
    result = compile_source(stencil_source,
                            Options(scheduler="balanced", trace=True))
    assert result.profile is not None
    assert result.profile.block_counts
    assert result.trace_stats is not None


def test_profile_prerun_needs_no_register_allocation():
    """The trace pre-run profiles the pre-schedule CFG on virtual
    registers.  On a kernel whose register-allocated copy spills, so
    the two programs differ, it counts the same blocks and edges as
    that copy, and it leaves the CFG as it was."""
    options = Options(scheduler="balanced", trace=True)
    cfg, _, _ = lower_source(_pressure_source(40), options)
    allocated = copy.deepcopy(cfg)
    assert allocate_registers(allocated).n_slots > 0
    allocated_program = allocated.linearize()
    before = cfg.format()
    profile = _collect_profile(cfg, options)
    assert cfg.format() == before
    assert len(cfg.linearize()) < len(allocated_program)
    sim = Simulator(allocated_program, mode="profile")
    sim.run()
    assert profile.block_counts and profile.edge_counts
    assert profile.block_counts == sim.block_counts
    assert profile.edge_counts == sim.edge_counts


def test_profile_not_collected_without_trace(stencil_source):
    result = compile_source(stencil_source, Options(scheduler="balanced"))
    assert result.profile is None


def test_unroll_stats_reported(stencil_source):
    result = compile_source(stencil_source,
                            Options(scheduler="balanced", unroll=4))
    assert result.unroll_stats is not None
    assert result.unroll_stats.unrolled >= 1


def test_locality_stats_reported(stencil_source):
    result = compile_source(stencil_source,
                            Options(scheduler="balanced", locality=True))
    assert result.locality_stats is not None


def test_classic_opts_shrink_code(stencil_source):
    optimized = compile_source(stencil_source, Options())
    naive = compile_source(stencil_source, Options(classic_opts=False))
    assert optimized.static_instructions < naive.static_instructions


def test_run_compiled_respects_limit(stencil_source):
    from repro.machine import SimulationError
    result = compile_source(stencil_source, Options())
    with pytest.raises(SimulationError):
        run_compiled(result, max_instructions=10)
