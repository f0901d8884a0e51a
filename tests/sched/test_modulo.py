"""Software pipelining: shape matching, MII, scheduler, end-to-end."""

import pytest

from repro.harness.compile import Options, compile_source
from repro.machine import DEFAULT_CONFIG, Simulator
from repro.sched.modulo import pipeline_loops
from repro.sched.modulo.deps import DepEdge, analyze_deps, match_loop
from repro.sched.modulo.mii import compute_mii, rec_mii, res_mii
from repro.sched.modulo.scheduler import modulo_schedule

DAXPY = """
array X[64] : float;
array Y[64] : float;
var a : float = 1.5;

func main() {
    var i : int;
    for (i = 0; i < 64; i = i + 1) { X[i] = float(i) * 0.25; }
    for (i = 0; i < 64; i = i + 1) { Y[i] = a * X[i] + Y[i]; }
}
"""

REDUCTION = """
array X[64] : float;
var acc : float = 0.0;

func main() {
    var i : int;
    for (i = 0; i < 64; i = i + 1) { X[i] = float(i) * 0.5; }
    for (i = 0; i < 64; i = i + 1) { acc = acc + X[i]; }
}
"""


def _compile(source, **kw):
    return compile_source(source, Options(**kw), "t")


def _memories(source, **base_kw):
    """Final data memory with and without swp (same other options)."""
    images = []
    for swp in (False, True):
        result = _compile(source, swp=swp, **base_kw)
        sim = Simulator(result.program)
        sim.run()
        words = result.program.data_size // 8
        images.append(list(sim.memory[:words]))
    return images


# ------------------------------------------------------------ matching
def _scheduled_cfg(source, **kw):
    """The pre-regalloc scheduled CFG (what pipeline_loops sees)."""
    from repro.codegen.lower import lower
    from repro.frontend import frontend
    from repro.harness.compile import make_weight_model
    from repro.opt.constfold import fold_constants
    from repro.opt.copyprop import propagate_copies
    from repro.opt.dce import eliminate_dead_code
    from repro.opt.predication import predicate_program
    from repro.opt.unroll import unroll_program
    from repro.sched import schedule_cfg

    opts = Options(**kw)
    ast = frontend(source, "t")
    if opts.unroll:
        unroll_program(ast, opts.unroll)
    predicate_program(ast)
    cfg = lower(ast)
    fold_constants(cfg)
    propagate_copies(cfg)
    eliminate_dead_code(cfg)
    if opts.extra_opts:
        from repro.opt.cse import eliminate_common_subexpressions
        from repro.opt.licm import hoist_loop_invariants

        eliminate_common_subexpressions(cfg)
        hoist_loop_invariants(cfg)
        propagate_copies(cfg)
        eliminate_dead_code(cfg)
    model = make_weight_model(opts)
    schedule_cfg(cfg, model)
    return cfg, model, opts


def _loop_shapes(source, **kw):
    """match_loop over every single-block self-loop of the program."""
    from repro.ir.liveness import liveness

    cfg, _model, _opts = _scheduled_cfg(source, **kw)
    live_in, _ = liveness(cfg)
    shapes = {}
    for block in cfg:
        term = block.terminator
        if term is None or term.op != "BNE" or term.label != block.label:
            continue
        live_exit = live_in.get(block.fallthrough, set())
        shapes[block.label] = match_loop(cfg, block.label, live_exit)
    return shapes


def test_match_loop_recognizes_counted_loops():
    shapes = _loop_shapes(DAXPY)
    matched = [s for s in shapes.values() if not isinstance(s, str)]
    assert matched, "no counted loop recognized"
    for shape in matched:
        assert shape.step == 1
        assert shape.offset == 0
        assert shape.bound_imm == 64 or shape.bound_reg is not None
        # Dead compare dropped from the schedulable body.
        assert all(ins.op not in ("CMPLT", "CMPLE") for ins in shape.ops)


def test_match_loop_recognizes_unrolled_probe():
    # Unrolling by 4 rewrites the exit test to probe i+3, through a
    # separate temporary; the matcher must see through it.
    shapes = _loop_shapes(DAXPY, unroll=4)
    matched = [s for s in shapes.values() if not isinstance(s, str)]
    assert matched, "no unrolled loop recognized"
    assert any(s.offset > 0 and s.step == 4 for s in matched)


# ------------------------------------------------------ dependence, MII
def _first_deps(source, **kw):
    from repro.harness.compile import make_weight_model

    shapes = _loop_shapes(source, **kw)
    opts = Options(**kw)
    model = make_weight_model(opts)
    for label in sorted(shapes):
        shape = shapes[label]
        if not isinstance(shape, str):
            return analyze_deps(shape.ops, opts.config, model)
    raise AssertionError("no matched loop")


def test_reduction_has_carried_cycle():
    deps = _first_deps(REDUCTION)
    carried = [e for e in deps.edges if e.distance == 1 and e.kind == "true"]
    assert carried, "accumulator must carry a distance-1 true dependence"
    res, rec, mii = compute_mii(deps, DEFAULT_CONFIG)
    assert rec >= 1
    assert mii == max(res, rec)


def test_res_mii_counts_resources():
    deps = _first_deps(DAXPY)
    n_mem = sum(1 for ins in deps.ops if ins.is_mem)
    expected = max(
        -(-len(deps.ops) // DEFAULT_CONFIG.issue_width), n_mem)
    assert res_mii(deps, DEFAULT_CONFIG) == expected


def test_rec_mii_lower_bounds_cycles():
    # A 2-op cycle with total latency 6 over total distance 1 forces
    # II >= 6 (latency sum / distance sum along the cycle).
    deps = _first_deps(REDUCTION)
    other = min(1, len(deps.ops) - 1)
    deps.edges.append(DepEdge(0, other, "true", 5, 0))
    deps.edges.append(DepEdge(other, 0, "true", 1, 1))
    assert rec_mii(deps) >= 6


# ------------------------------------------------------------ scheduler
def test_modulo_schedule_respects_constraints():
    deps = _first_deps(DAXPY)
    _res, _rec, mii = compute_mii(deps, DEFAULT_CONFIG)
    sched = None
    for ii in range(mii, 2 * mii + 1):
        sched = modulo_schedule(deps, DEFAULT_CONFIG, ii, lat_cap=3 * ii)
        if sched is not None:
            break
    assert sched is not None
    times = sched.times
    # Modulo reservation: issue rows and memory rows within capacity.
    rows: dict[int, int] = {}
    mem_rows: dict[int, int] = {}
    for op, t in enumerate(times):
        rows[t % sched.ii] = rows.get(t % sched.ii, 0) + 1
        if deps.ops[op].is_mem:
            mem_rows[t % sched.ii] = mem_rows.get(t % sched.ii, 0) + 1
    assert all(n <= DEFAULT_CONFIG.issue_width for n in rows.values())
    assert all(n <= 1 for n in mem_rows.values())
    # Dependences: t[dst] >= t[src] + lat - d*II (capped latency).
    for e in deps.edges:
        lat = min(e.latency, 3 * sched.ii)
        assert times[e.dst] >= times[e.src] + lat - e.distance * sched.ii


def test_modulo_schedule_infeasible_ii_returns_none():
    deps = _first_deps(REDUCTION)
    deps.edges.append(DepEdge(0, 0, "true", 4, 1))   # self-cycle: II >= 4
    assert modulo_schedule(deps, DEFAULT_CONFIG, 1, lat_cap=100) is None


# ----------------------------------------------------------- end-to-end
def test_daxpy_swp_identical_memory_and_faster():
    base, swp = _memories(DAXPY)
    assert base == swp
    r_base = _compile(DAXPY)
    r_swp = _compile(DAXPY, swp=True)
    assert r_swp.modulo_stats is not None
    assert r_swp.modulo_stats.pipelined >= 1
    m_base = Simulator(r_base.program).run()
    m_swp = Simulator(r_swp.program).run()
    assert m_swp.total_cycles < m_base.total_cycles


def test_reduction_swp_identical_memory():
    base, swp = _memories(REDUCTION)
    assert base == swp


@pytest.mark.parametrize("kw", [
    {"unroll": 4},
    {"locality": True},
    {"scheduler": "traditional"},
    {"extra_opts": True},
])
def test_swp_composes_with_other_axes(kw):
    base, swp = _memories(DAXPY, **kw)
    assert base == swp


def test_pipelined_loops_report_ii_within_bound():
    result = _compile(DAXPY, swp=True)
    stats = result.modulo_stats
    for loop in stats.loops:
        if loop.pipelined:
            assert loop.mii <= loop.ii <= 2 * loop.mii
            assert 2 <= loop.stages
            assert 1 <= loop.unroll <= 4


def test_short_trip_count_takes_original_loop():
    source = DAXPY.replace("i < 64", "i < 2")
    base, swp = _memories(source)
    assert base == swp


def test_swp_off_leaves_stats_none():
    assert _compile(DAXPY).modulo_stats is None


def test_bail_reasons_are_recorded():
    result = _compile(REDUCTION, swp=True)
    stats = result.modulo_stats
    assert stats.attempted == len(stats.loops)
    for loop in stats.loops:
        assert loop.pipelined or loop.reason


def test_cfg_still_verifies_after_pipelining():
    result = _compile(DAXPY, swp=True)
    result.cfg.verify()           # raises on malformed CFG


def test_pipeline_loops_requires_scheduled_cfg():
    # Options.validate refuses swp without a scheduler.
    with pytest.raises(ValueError):
        Options(scheduler="none", swp=True).validate()


# ------------------------------------------------------- RecMII witness
def test_recurrence_witness_pins_grafted_cycle():
    from repro.sched.modulo.mii import recurrence_witness

    # Graft a 2-op recurrence: latency 6 over distance 1 => RecMII 6.
    deps = _first_deps(REDUCTION)
    other = min(1, len(deps.ops) - 1)
    deps.edges.append(DepEdge(0, other, "true", 5, 0))
    deps.edges.append(DepEdge(other, 0, "true", 1, 1))
    rec = rec_mii(deps)
    assert rec >= 6
    witness = recurrence_witness(deps)
    assert witness is not None
    # The witness is exact: extracted at rec-1 where the cycle is
    # still positive, so its bound equals RecMII, not just <= it.
    assert witness.ii_bound == rec
    # Every hop of the cycle is a real dependence edge.
    k = len(witness.ops)
    assert k == len(witness.kinds) >= 1
    for i in range(k):
        src, dst = witness.ops[i], witness.ops[(i + 1) % k]
        assert any(e.src == src and e.dst == dst
                   and e.kind == witness.kinds[i]
                   for e in deps.edges), (src, dst)
    assert witness.distance >= 1
    data = witness.to_json()
    assert data["ii_bound"] == rec
    assert witness.describe(deps)


def test_recurrence_witness_absent_without_recurrence():
    from repro.sched.modulo.mii import recurrence_witness

    deps = _first_deps(REDUCTION)
    assert recurrence_witness(deps, rec=1) is None


def test_pipeline_stats_record_recurrence():
    result = _compile(REDUCTION, swp=True)
    stats = result.modulo_stats
    bound_loops = [s for s in stats.loops if s.rec_mii > 1]
    assert bound_loops, "reduction must have a recurrence-bound loop"
    for stat in bound_loops:
        assert stat.recurrence is not None
        assert stat.recurrence["ii_bound"] == stat.rec_mii
        assert stat.to_json()["recurrence"] == stat.recurrence
