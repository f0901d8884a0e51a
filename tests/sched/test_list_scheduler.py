"""List scheduler: priorities, tie-breaking, validity, pressure guard."""

from dataclasses import replace

from repro.ir import TRUE, Dag, build_dag
from repro.isa import Instruction, MemRef, Reg
from repro.machine import DEFAULT_CONFIG
from repro.oracle.block import greedy_issue_times, makespan
from repro.sched import (
    BalancedWeights,
    TraditionalWeights,
    list_schedule,
    list_schedule_with_weights,
    priorities,
)
from repro.workloads import figure1_dag, parallel_loads_dag, random_dag


def v(i, kind="i"):
    return Reg(kind, i, virtual=True)


def test_priorities_accumulate_along_longest_path():
    dag = build_dag([
        Instruction("LDI", dest=v(0), imm=1),                  # w=1
        Instruction("MUL", dest=v(1), srcs=(v(0), v(0))),      # w=8
        Instruction("ADD", dest=v(2), srcs=(v(1),), imm=1),    # w=1
    ])
    weights = TraditionalWeights().weights(dag)
    prio = priorities(dag, weights)
    assert prio == [10.0, 9.0, 1.0]


def test_schedule_is_topological():
    dag = figure1_dag()
    order = list_schedule(dag, BalancedWeights())
    assert dag.topological_check(order)


def test_schedule_covers_all_nodes_once():
    dag = random_dag(60, seed=3)       # 60 instructions + 1 base LDI
    order = list_schedule(dag, TraditionalWeights())
    assert sorted(order) == list(range(61))


def test_higher_weight_load_scheduled_earlier():
    """Balanced weights hoist loads ahead of equal-priority ALU work."""
    dag = parallel_loads_dag(n_loads=2, n_alu=6)
    balanced = list_schedule(dag, BalancedWeights())
    loads = set(dag.load_indices())
    load_positions = [i for i, node in enumerate(balanced)
                      if node in loads]
    # Both loads issue within the first three slots (after the base LDI).
    assert max(load_positions) <= 3


def test_original_order_breaks_ties():
    instrs = [Instruction("LDI", dest=v(i), imm=i) for i in range(5)]
    dag = build_dag(instrs)
    order = list_schedule(dag, TraditionalWeights())
    assert order == [0, 1, 2, 3, 4]


def test_empty_dag_schedules_to_empty():
    assert list_schedule(Dag([]), TraditionalWeights()) == []


def test_greedy_issue_times_prefers_hoisted_loads():
    """The static issue span is shorter when loads are hoisted away from
    their uses: in source order each load sits right before its
    consumer, which then waits out the whole load latency."""
    instrs = [Instruction("LDI", dest=v(90), imm=64)]
    for k in range(3):
        instrs.append(Instruction("LD", dest=v(k), srcs=(v(90),),
                                  offset=8 * k,
                                  mem=MemRef("data", "A", affine=({}, k))))
        instrs.append(Instruction("ADD", dest=v(10 + k), srcs=(v(k),),
                                  imm=1))
    instrs += [Instruction("ADD", dest=v(20 + k), srcs=(v(90),), imm=k)
               for k in range(6)]
    dag = build_dag(instrs)
    config = replace(DEFAULT_CONFIG, op_latency={
        **DEFAULT_CONFIG.op_latency, "LD": 9, "FLD": 9})
    naive = list(range(len(dag.instrs)))
    scheduled = list_schedule_with_weights(
        dag, BalancedWeights().weights(dag))
    assert makespan(greedy_issue_times(dag, scheduled, config)) < \
        makespan(greedy_issue_times(dag, naive, config))


def test_pressure_guard_limits_simultaneous_live_values():
    """With many parallel loads, the guard staggers them."""
    dag = parallel_loads_dag(n_loads=40, n_alu=0)
    order = list_schedule(dag, BalancedWeights())
    # Walk the schedule tracking liveness of load results.
    instrs = dag.instrs
    live = 0
    max_live = 0
    pending_consumer = {}
    for node in order:
        ins = instrs[node]
        if ins.is_load:
            live += 1
            max_live = max(max_live, live)
        for reg in ins.uses():
            if reg in pending_consumer:
                live -= 1
                del pending_consumer[reg]
        if ins.is_load:
            pending_consumer[ins.dest] = node
    from repro.sched.list_scheduler import PRESSURE_LIMIT
    assert max_live <= PRESSURE_LIMIT + 2   # small slack at the boundary


def test_schedules_differ_between_weight_models_when_it_matters():
    """On Figure 1, balanced puts the serial chain's head early."""
    dag = figure1_dag()
    balanced = list_schedule(dag, BalancedWeights())
    traditional = list_schedule(dag, TraditionalWeights())
    assert dag.topological_check(balanced)
    assert dag.topological_check(traditional)
    # The serial chain head L2 (node 3) must issue before the cheap
    # ALU fillers X1/X2 under balanced weights.
    assert balanced.index(3) < balanced.index(5)


def test_register_read_twice_dies_at_its_one_reader():
    """``FMUL vf1, vf0, vf0`` frees the live-in ``vf0`` when it issues.

    With one FP value live and a limit of one, the guard must let the
    square go first even though the independent ``FLDI`` has the higher
    priority: counting both reads of ``vf0`` kept it alive forever, so
    the square looked like it grew the full bank too, and the ``FLDI``
    won (order ``[1, 0, 2]``)."""
    dag = build_dag([
        Instruction("FMUL", dest=v(1, "f"), srcs=(v(0, "f"), v(0, "f"))),
        Instruction("FLDI", dest=v(2, "f"), imm=2.0),
        Instruction("FADD", dest=v(3, "f"), srcs=(v(1, "f"), v(2, "f"))),
    ])
    order = list_schedule_with_weights(dag, [1.0, 5.0, 1.0],
                                       pressure_limit=1)
    assert order == [0, 1, 2]
