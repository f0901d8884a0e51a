"""Symbolic-analyzer sharpening of the modulo scheduler's memory arcs.

Every dropped or distance-sharpened arc must be validated end to end:
the pipelined binary has to produce the same data memory as the
unpipelined one, and the doubled-kernel verifier must reject a
deliberately weakened analyzer (one that reports every carried
distance one iteration too far)."""

import pytest

from repro.analysis.deps import DepVerdict
from repro.codegen.verify import VerificationError
from repro.harness.compile import Options, compile_source, \
    make_weight_model
from repro.harness.experiment import SCHEDULERS, options_for
from repro.isa import Reg
from repro.machine import DEFAULT_CONFIG, Simulator
from repro.sched.modulo.deps import analyze_deps
from repro.sched.modulo.kernel import Mve, plan_mve
from repro.sched.modulo.mii import compute_mii
from repro.sched.modulo.pipeline import MAX_STAGES, MAX_UNROLL
from repro.sched.modulo.scheduler import modulo_schedule
from repro.sched.modulo.stats import REASON_PRESSURE
from repro.workloads import WORKLOADS

from .test_modulo import DAXPY, _loop_shapes

RECURRENCE = """
array X[64] : float;
var b : float = 0.5;

func main() {
    var i : int;
    X[0] = 1.0;
    for (i = 1; i < 64; i = i + 1) { X[i] = X[i-1] * b; }
}
"""


def _memory_image(source, **kw):
    result = compile_source(source, Options(**kw), "t")
    sim = Simulator(result.program)
    sim.run()
    words = result.program.data_size // 8
    return list(sim.memory[:words]), result


# ------------------------------------------------- arcs actually sharpen
def test_daxpy_drops_independent_arcs_and_pipelines():
    _, result = _memory_image(DAXPY, swp=True)
    stats = result.modulo_stats
    assert stats is not None and stats.pipelined >= 1
    assert sum(s.mem_dropped for s in stats.loops) >= 4
    # No pair in DAXPY needs the conservative blanket distance.
    assert sum(s.mem_conservative for s in stats.loops) == 0


def test_daxpy_pipelined_memory_matches_sequential():
    base, _ = _memory_image(DAXPY, swp=False)
    swp, _ = _memory_image(DAXPY, swp=True)
    assert swp == base


def test_recurrence_keeps_exact_carried_arc():
    _, result = _memory_image(RECURRENCE, swp=True)
    stats = result.modulo_stats
    assert sum(s.mem_exact for s in stats.loops) >= 1
    base, _ = _memory_image(RECURRENCE, swp=False)
    swp, _ = _memory_image(RECURRENCE, swp=True)
    assert swp == base


# ------------------------------------------------- weakened-analyzer net
def _weaken_carried_distances(monkeypatch):
    """Make the analyzer report every carried memory distance one
    iteration too far.  The kernel verifier asks ``conflicts_at``, not
    ``carried_distance``, so its replay stays independent of the
    patch."""
    real = DepVerdict.carried_distance

    def weakened(verdict):
        distance = real(verdict)
        return None if distance is None else distance + 1

    monkeypatch.setattr(DepVerdict, "carried_distance", weakened)


def _ear_swp(scheduler):
    return compile_source(WORKLOADS["ear"].source,
                          options_for(scheduler, "swp"), "ear")


def test_weakened_recurrence_distance_is_caught(monkeypatch):
    _weaken_carried_distances(monkeypatch)
    with pytest.raises(VerificationError):
        compile_source(RECURRENCE, Options(swp=True), "t")


def test_weakened_distances_fail_ear_swp(monkeypatch):
    """A grid point, not a toy: ``ear`` at ``swp`` fails kernel
    verification under both schedulers."""
    _weaken_carried_distances(monkeypatch)
    for scheduler in SCHEDULERS:
        with pytest.raises(VerificationError):
            _ear_swp(scheduler)


def test_unweakened_compiles_clean():
    """Control: the same compiles pass when nothing is weakened."""
    compile_source(RECURRENCE, Options(swp=True), "t")
    for scheduler in SCHEDULERS:
        _ear_swp(scheduler)


# ------------------------------------- MVE pressure counts live-through
def _planned_loop(source):
    shapes = _loop_shapes(source)
    model = make_weight_model(Options())
    for label in sorted(shapes):
        shape = shapes[label]
        if isinstance(shape, str):
            continue
        deps = analyze_deps(shape.ops, DEFAULT_CONFIG, model)
        _res, _rec, mii = compute_mii(deps, DEFAULT_CONFIG)
        for ii in range(mii, 2 * mii + 1):
            sched = modulo_schedule(deps, DEFAULT_CONFIG, ii,
                                    lat_cap=(MAX_STAGES - 1) * ii)
            if sched is not None:
                return deps, sched
    raise AssertionError("no schedulable loop")


def _fresh():
    counter = iter(range(1000, 2000))

    def fresh(kind):
        return Reg(kind, next(counter), virtual=True)

    return fresh


def test_plan_mve_baseline_fits():
    deps, sched = _planned_loop(DAXPY)
    mve = plan_mve(deps, sched, MAX_UNROLL, _fresh())
    assert isinstance(mve, Mve)


def test_plan_mve_live_through_overflow_bails():
    deps, sched = _planned_loop(DAXPY)
    held = frozenset(Reg("f", 500 + k, virtual=True) for k in range(27))
    assert plan_mve(deps, sched, MAX_UNROLL, _fresh(),
                    live_through=held) == REASON_PRESSURE


def test_plan_mve_zero_register_never_counts():
    deps, sched = _planned_loop(DAXPY)
    zeros = frozenset({Reg("i", 31), Reg("f", 31)})
    assert isinstance(plan_mve(deps, sched, MAX_UNROLL, _fresh(),
                               live_through=zeros), Mve)
