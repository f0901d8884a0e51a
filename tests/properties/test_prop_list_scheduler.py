"""Property tests: the list scheduler against a reference model.

The scheduler asks its register-pressure probe about a ready node only
while some bank's live count is at the pressure limit, because below
the limit the probe cannot say True.  The reference below asks it for
every ready node at every step, the way the scheduler used to.
Hypothesis drives blocks over a few integer and FP virtual registers
(so values are redefined, read twice by one instruction, and live into
the block), loads and stores, a conditional move that reads its
destination and reads of the zero registers, with small integer weights
(so priorities tie) and pressure limits from 1 up, where the probe's
branch runs.  Both must return the same order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import build_dag
from repro.isa import FZERO, ZERO, Instruction, MemRef, Reg
from repro.sched import list_schedule_with_weights, priorities


def ref_list_schedule_with_weights(dag, weights, pressure_limit):
    """The list scheduler as it was before the probe was skipped below
    the limit, with one fix: ``remaining_uses`` counts a register once
    per instruction that reads it, as the scheduled-node update always
    did, so a register read twice by one instruction dies when that
    instruction issues."""
    n = len(dag.instrs)
    if n == 0:
        return []
    prio = priorities(dag, weights)

    unscheduled_preds = [len(dag.preds[i]) for i in range(n)]
    pressure_delta = [len(ins.uses()) - len(ins.defs())
                      for ins in dag.instrs]
    ready = [i for i in range(n) if unscheduled_preds[i] == 0]
    order = []

    remaining_uses = {}
    defined = set()
    for ins in dag.instrs:
        for reg in set(ins.uses()):
            remaining_uses[reg] = remaining_uses.get(reg, 0) + 1
        defined.update(ins.defs())
    live = {"i": 0, "f": 0}
    for reg in remaining_uses:
        if reg not in defined:
            live[reg.kind] += 1

    def grows_hot_bank(node):
        ins = dag.instrs[node]
        for reg in ins.defs():
            bank = reg.kind
            if live[bank] < pressure_limit:
                continue
            freed = sum(1 for use in set(ins.uses())
                        if use.kind == bank and remaining_uses[use] == 1)
            if freed < 1:
                return True
        return False

    while ready:
        best = None
        best_key = None
        for node in ready:
            exposed = sum(1 for succ in dag.succs[node]
                          if unscheduled_preds[succ] == 1)
            key = (not grows_hot_bank(node), prio[node],
                   pressure_delta[node], exposed, -node)
            if best_key is None or key > best_key:
                best_key = key
                best = node
        ready.remove(best)
        order.append(best)
        ins = dag.instrs[best]
        for reg in set(ins.uses()):
            count = remaining_uses.get(reg, 0)
            if count == 1:
                live[reg.kind] -= 1
            remaining_uses[reg] = count - 1
        for reg in ins.defs():
            if remaining_uses.get(reg, 0) > 0:
                live[reg.kind] += 1
        for succ in dag.succs[best]:
            unscheduled_preds[succ] -= 1
            if unscheduled_preds[succ] == 0:
                ready.append(succ)
    return order


INTS = [Reg("i", k, virtual=True) for k in range(5)] + [ZERO]
FPS = [Reg("f", k, virtual=True) for k in range(5)] + [FZERO]
VINTS, VFPS = INTS[:-1], FPS[:-1]


@st.composite
def instructions(draw):
    shape = draw(st.sampled_from(
        ("LDI", "FLDI", "ADD", "MUL", "FADD", "FMUL", "CVTIF", "FLD",
         "FST", "FCMOVNE")))
    i_src = st.sampled_from(INTS)
    f_src = st.sampled_from(FPS)
    affine = st.integers(0, 2).map(lambda const: ({"i": 1}, const))
    mem = MemRef("data", draw(st.sampled_from("AB")),
                 draw(st.one_of(st.none(), affine)))
    if shape == "LDI":
        return Instruction("LDI", dest=draw(st.sampled_from(VINTS)), imm=1)
    if shape == "FLDI":
        return Instruction("FLDI", dest=draw(st.sampled_from(VFPS)),
                           imm=1.0)
    if shape in ("ADD", "MUL"):
        return Instruction(shape, dest=draw(st.sampled_from(VINTS)),
                           srcs=(draw(i_src), draw(i_src)))
    if shape in ("FADD", "FMUL"):
        return Instruction(shape, dest=draw(st.sampled_from(VFPS)),
                           srcs=(draw(f_src), draw(f_src)))
    if shape == "CVTIF":
        return Instruction("CVTIF", dest=draw(st.sampled_from(VFPS)),
                           srcs=(draw(i_src),))
    if shape == "FLD":
        return Instruction("FLD", dest=draw(st.sampled_from(VFPS)),
                           srcs=(draw(i_src),), mem=mem)
    if shape == "FST":
        return Instruction("FST", srcs=(draw(f_src), draw(i_src)), mem=mem)
    return Instruction("FCMOVNE", dest=draw(st.sampled_from(VFPS)),
                       srcs=(draw(i_src), draw(f_src)))


@st.composite
def scheduling_problems(draw):
    instrs = draw(st.lists(instructions(), min_size=1, max_size=40))
    weights = [float(w) for w in draw(st.lists(
        st.integers(0, 6), min_size=len(instrs), max_size=len(instrs)))]
    limit = draw(st.integers(1, 6))
    return instrs, weights, limit


@settings(max_examples=300, deadline=None)
@given(scheduling_problems())
def test_orders_match_the_reference(problem):
    instrs, weights, limit = problem
    dag = build_dag(instrs)
    assert list_schedule_with_weights(dag, weights, pressure_limit=limit) \
        == ref_list_schedule_with_weights(dag, weights, limit)

