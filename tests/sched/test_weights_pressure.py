"""Pressure feedback in the balanced weights (schedule-driven MAXLIVE).

The feedback measures each trial order with
:func:`repro.analysis.pressure.block_pressure` against the live-out set
the DAG carries; ``tests/analysis/test_pressure.py`` pins that count.
"""

import pytest

from repro.harness.compile import Options, compile_source
from repro.ir import build_dag
from repro.isa import ALLOCATABLE, Instruction, MemRef, Reg
from repro.machine import DEFAULT_CONFIG
from repro.sched import BalancedWeights
from repro.workloads import WORKLOADS, parallel_loads_dag


def vi(n):
    return Reg("i", n, virtual=True)


def vf(n):
    return Reg("f", n, virtual=True)


def _fld(dest, base, element):
    return Instruction("FLD", dest=vf(dest), srcs=(vi(base),),
                       offset=8 * element,
                       mem=MemRef("data", "A", affine=({}, element)))


def _dag(instrs, held=()):
    """DAG whose live-out is every value no instruction reads, plus
    *held* (values live across the block without being touched)."""
    read = {reg for ins in instrs for reg in ins.uses()}
    unread = [ins.dest for ins in instrs
              if ins.dest is not None and ins.dest not in read]
    return build_dag(instrs, live_out=[*unread, *held])


def _overflow_dag(n_loads=None, n_alu=8, held=()):
    """Independent FP loads, all live to the block end, over budget."""
    if n_loads is None:
        n_loads = ALLOCATABLE["f"] + 5
    instrs = [Instruction("LDI", dest=vi(9000), imm=64)]
    for k in range(n_loads):
        instrs.append(_fld(k, 9000, element=k))
    for k in range(n_alu):
        instrs.append(Instruction("ADD", dest=vi(2000 + k),
                                  srcs=(vi(9000),), imm=k))
    return _dag(instrs, held)


# ------------------------------------------------------- feedback loop
def test_feedback_noop_when_block_fits():
    dag = _dag(parallel_loads_dag(n_loads=4, n_alu=8).instrs)
    base = BalancedWeights().weights(dag)
    fed = BalancedWeights(pressure=True).weights(dag)
    assert fed == base


def test_feedback_refuses_a_dag_without_live_out():
    # Counting nothing live out would under-report every block.
    dag = parallel_loads_dag(n_loads=4, n_alu=8)
    assert dag.live_out is None
    BalancedWeights().weights(dag)      # no feedback, no live-out needed
    with pytest.raises(ValueError, match="live-out"):
        BalancedWeights(pressure=True).weights(dag)


def test_feedback_counts_values_live_across_the_block():
    # Four loads fit the FP bank on their own; with the rest of the
    # bank held by values live across the block, they overflow it.
    floor = float(DEFAULT_CONFIG.load_hit_latency)
    held = [vf(500 + k) for k in range(ALLOCATABLE["f"] - 2)]
    alone = _overflow_dag(n_loads=4)
    crowded = _overflow_dag(n_loads=4, held=held)
    assert BalancedWeights(pressure=True).weights(alone) == \
        BalancedWeights().weights(alone)
    fed = BalancedWeights(pressure=True).weights(crowded)
    assert any(fed[k] == floor for k in crowded.load_indices())


def test_feedback_demotes_on_overflow():
    dag = _overflow_dag()
    base = BalancedWeights().weights(dag)
    fed = BalancedWeights(pressure=True).weights(dag)
    floor = float(DEFAULT_CONFIG.load_hit_latency)
    loads = [k for k, ins in enumerate(dag.instrs) if ins.is_load]
    # The boosted weights overflow the FP bank, so some loads must be
    # stripped back to the hit floor...
    assert any(fed[k] == floor and base[k] > floor for k in loads)
    # ...and feedback only ever demotes, never boosts.
    assert all(fed[k] <= base[k] for k in range(len(base)))
    # Non-load weights are untouched.
    assert all(fed[k] == base[k]
               for k in range(len(base)) if k not in loads)


def test_feedback_prefers_lowest_weighted_loads():
    # Loads with more parallelism (higher weight) keep their boost
    # longest: build an overflow DAG where one load also feeds a long
    # consumer chain (serial -> lower weight than the parallel rest).
    n = ALLOCATABLE["f"] + 2
    instrs = [Instruction("LDI", dest=vi(9000), imm=64)]
    for k in range(n):
        instrs.append(_fld(k, 9000, element=k))
    # Chain hanging off load 0 makes every other load strictly richer.
    instrs.append(Instruction("FADD", dest=vf(100),
                              srcs=(vf(0), vf(0))))
    for k in range(6):
        instrs.append(Instruction("FADD", dest=vf(101 + k),
                                  srcs=(vf(100 + k), vf(100 + k))))
    dag = _dag(instrs)
    base = BalancedWeights().weights(dag)
    fed = BalancedWeights(pressure=True).weights(dag)
    load_nodes = [k for k, ins in enumerate(dag.instrs) if ins.is_load]
    poorest = min(load_nodes, key=lambda k: base[k])
    floor = float(DEFAULT_CONFIG.load_hit_latency)
    if any(fed[k] == floor and base[k] > floor for k in load_nodes):
        assert fed[poorest] == floor


# ------------------------------------------------------- options wiring
def test_pressure_option_label_and_validation():
    opts = Options(pressure=True)
    assert "prs" in opts.label()
    opts.validate()
    with pytest.raises(ValueError):
        Options(scheduler="traditional", pressure=True).validate()


def test_pressure_label_absent_by_default():
    assert "prs" not in Options().label()


# ------------------------------------------- the --pressure claims, pinned
@pytest.mark.parametrize("name, plain_slots", [("ARC2D", 3), ("hydro2d", 5)])
def test_pressure_feedback_removes_the_lu8_spills(name, plain_slots):
    # The two benchmarks whose balanced lu8 schedules overflow a bank.
    # Feedback measured the allocator's way leaves no spill slot (a
    # count that let a dying source lend its register left one).
    source = WORKLOADS[name].source
    plain = compile_source(source, Options(unroll=8), name)
    fed = compile_source(source, Options(unroll=8, pressure=True), name)
    assert plain.allocation.n_slots == plain_slots
    assert fed.allocation.n_slots == 0
