"""Property tests: DAG construction and reach-into masks against references.

``build_dag`` pins a terminator at the end of the list below every
other node by writing the ORDER arcs into the edge dicts directly,
where the pair has no edge yet.  ``ref_build_dag`` is the builder as it
was, which pinned through ``Dag.add_edge``.  Hypothesis drives
instruction lists over a few integer and FP virtual registers (so
values are redefined and read twice), loads and stores with affine,
irregular and missing memory references, locality groups with miss and
hit loads, a conditional move that reads its destination, and an
optional terminator (``BR``, ``BNE`` or ``HALT``).  Both must give the
same edges, kinds and dict order, in both directions.

``reaching_into`` builds each node's mask of the nodes that reach it in
one forward pass over the predecessors; ``ref_reaching_into`` walks
every set bit of every forward reachability mask, the way the balanced
weights used to.  The masks must be equal, on the generated lists and
on random layered DAGs.

The balanced weights' ``_comparability_components`` grows each
component by bitmask from its lowest node; ``ref_components`` is the
union-find over every pair of nodes it replaced.  On random layered
DAGs and random node masks both must give the same components, in the
same order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import build_dag
from repro.ir.dag import ANTI, MEM, ORDER, OUT, TRUE, Dag
from repro.isa import Instruction, Locality, MemRef, Reg
from repro.sched.weights import _comparability_components, reaching_into
from repro.workloads import random_dag


def ref_build_dag(instrs):
    """The builder that pinned the terminator through ``add_edge``."""
    dag = Dag(instrs)
    last_def = {}
    uses_since_def = {}
    mem_ops = []
    group_miss = {}

    def may_alias(a, b):
        if a.mem is None or b.mem is None:
            return True
        return a.mem.conflicts_with(b.mem)

    for j, instr in enumerate(instrs):
        for reg in instr.uses():
            if reg in last_def:
                dag.add_edge(last_def[reg], j, TRUE)
            uses_since_def.setdefault(reg, []).append(j)
        for reg in instr.defs():
            if reg in last_def:
                dag.add_edge(last_def[reg], j, OUT)
            for reader in uses_since_def.get(reg, ()):
                dag.add_edge(reader, j, ANTI)
            last_def[reg] = j
            uses_since_def[reg] = []
        if instr.is_mem:
            for i in mem_ops:
                other = instrs[i]
                if other.is_load and instr.is_load:
                    continue
                if may_alias(other, instr):
                    dag.add_edge(i, j, MEM)
            mem_ops.append(j)
        if instr.is_load and instr.group is not None:
            if instr.locality is Locality.MISS:
                group_miss[instr.group] = j
            elif instr.locality is Locality.HIT:
                miss = group_miss.get(instr.group)
                if miss is not None:
                    dag.add_edge(miss, j, ORDER)
        if (instr.is_branch or instr.op == "HALT") and j == len(instrs) - 1:
            for i in range(j):
                dag.add_edge(i, j, ORDER)
    return dag


def ref_reaching_into(dag):
    """Each node's reach-into mask by walking the forward masks."""
    reach = dag.reachability()
    into = [0] * len(dag.instrs)
    for i, mask in enumerate(reach):
        while mask:
            low = mask & -mask
            into[low.bit_length() - 1] |= 1 << i
            mask ^= low
    return into


def ref_components(mask, reach):
    """Comparability components by union-find over every node pair."""
    nodes = [node for node in range(mask.bit_length()) if mask >> node & 1]
    parent = {node: node for node in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for idx, a in enumerate(nodes):
        for b in nodes[idx + 1:]:
            if (reach[a] >> b) & 1:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    groups = {}
    for node in nodes:
        groups.setdefault(find(node), []).append(node)
    return list(groups.values())


INTS = [Reg("i", k, virtual=True) for k in range(4)]
FPS = [Reg("f", k, virtual=True) for k in range(4)]
MEMS = (None, MemRef("data", "A"), MemRef("data", "A", ({"i": 1}, 0)),
        MemRef("data", "A", ({"i": 1}, 1)), MemRef("data", "B", ({}, 0)))


@st.composite
def instructions(draw):
    i_reg = st.sampled_from(INTS)
    f_reg = st.sampled_from(FPS)
    shape = draw(st.sampled_from(
        ("LDI", "ADD", "FMUL", "FLD", "FST", "ST", "CMOVNE")))
    if shape == "LDI":
        return Instruction("LDI", dest=draw(i_reg), imm=1)
    if shape == "ADD":
        return Instruction("ADD", dest=draw(i_reg),
                           srcs=(draw(i_reg), draw(i_reg)))
    if shape == "FMUL":
        return Instruction("FMUL", dest=draw(f_reg),
                           srcs=(draw(f_reg), draw(f_reg)))
    if shape == "CMOVNE":
        return Instruction("CMOVNE", dest=draw(i_reg),
                           srcs=(draw(i_reg), draw(i_reg)))
    mem = draw(st.sampled_from(MEMS))
    if shape == "FLD":
        locality = draw(st.sampled_from(tuple(Locality)))
        group = draw(st.sampled_from((None, 0, 1)))
        return Instruction("FLD", dest=draw(f_reg), srcs=(draw(i_reg),),
                           mem=mem, locality=locality, group=group)
    if shape == "FST":
        return Instruction("FST", srcs=(draw(f_reg), draw(i_reg)), mem=mem)
    return Instruction("ST", srcs=(draw(i_reg), draw(i_reg)), mem=mem)


@st.composite
def instruction_lists(draw):
    instrs = draw(st.lists(instructions(), max_size=30))
    end = draw(st.sampled_from((None, "BR", "BNE", "HALT")))
    if end == "BR":
        instrs.append(Instruction("BR", label="L"))
    elif end == "BNE":
        instrs.append(Instruction("BNE", srcs=(draw(st.sampled_from(INTS)),),
                                  label="L"))
    elif end == "HALT":
        instrs.append(Instruction("HALT"))
    return instrs


def edges(dag):
    return ([list(preds.items()) for preds in dag.preds],
            [list(succs.items()) for succs in dag.succs])


@settings(max_examples=300, deadline=None)
@given(instruction_lists())
def test_dag_matches_the_reference(instrs):
    dag = build_dag(instrs)
    assert edges(dag) == edges(ref_build_dag(instrs))
    assert reaching_into(dag) == ref_reaching_into(dag)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 120), st.integers(1, 10_000), st.integers(0, 8))
def test_reaching_into_matches_the_reference_on_random_dags(size, seed,
                                                            tenths):
    dag = random_dag(size, seed=seed, load_fraction=tenths / 10)
    assert reaching_into(dag) == ref_reaching_into(dag)


def test_terminator_keeps_stronger_edges():
    """The pinned terminator reads a register the list defines: its
    TRUE edge stays, every other node gets an ORDER arc."""
    instrs = [Instruction("LDI", dest=INTS[0], imm=1),
              Instruction("LDI", dest=INTS[1], imm=2),
              Instruction("BNE", srcs=(INTS[0],), label="L")]
    dag = build_dag(instrs)
    assert dag.preds[2] == {0: TRUE, 1: ORDER}
    assert edges(dag) == edges(ref_build_dag(instrs))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 80), st.integers(1, 10_000), st.integers(0, 8),
       st.randoms(use_true_random=False))
def test_components_match_the_reference(size, seed, tenths, rng):
    dag = random_dag(size, seed=seed, load_fraction=tenths / 10)
    reach = dag.reachability()
    into = reaching_into(dag)
    for _ in range(5):
        mask = rng.getrandbits(len(dag.instrs))
        assert _comparability_components(mask, reach, into) == \
            ref_components(mask, reach)
