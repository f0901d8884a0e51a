"""Dependence-DAG construction: edge kinds, disambiguation, reachability."""

import pytest

from repro.ir import ANTI, MEM, ORDER, OUT, TRUE, Dag, build_dag
from repro.isa import Instruction, Locality, MemRef, Reg


def v(i, kind="i"):
    return Reg(kind, i, virtual=True)


def ld(dest, base, symbol="A", element=0, **kw):
    return Instruction("LD", dest=v(dest), srcs=(v(base),),
                       offset=8 * element,
                       mem=MemRef("data", symbol, affine=({}, element)), **kw)


def st(src, base, symbol="A", element=0):
    return Instruction("ST", srcs=(v(src), v(base)), offset=8 * element,
                       mem=MemRef("data", symbol, affine=({}, element)))


class TestRegisterDependences:
    def test_true_dependence(self):
        dag = build_dag([
            Instruction("LDI", dest=v(0), imm=1),
            Instruction("ADD", dest=v(1), srcs=(v(0),), imm=1),
        ])
        assert dag.succs[0] == {1: TRUE}

    def test_anti_dependence(self):
        dag = build_dag([
            Instruction("ADD", dest=v(1), srcs=(v(0),), imm=1),
            Instruction("LDI", dest=v(0), imm=5),
        ])
        assert dag.succs[0] == {1: ANTI}

    def test_output_dependence(self):
        dag = build_dag([
            Instruction("LDI", dest=v(0), imm=1),
            Instruction("LDI", dest=v(0), imm=2),
        ])
        assert dag.succs[0] == {1: OUT}

    def test_true_wins_over_anti(self):
        dag = build_dag([
            Instruction("ADD", dest=v(1), srcs=(v(0),), imm=1),
            Instruction("ADD", dest=v(0), srcs=(v(1),), imm=1),
        ])
        assert dag.succs[0] == {1: TRUE}

    def test_cmov_destination_read_creates_true_edge(self):
        dag = build_dag([
            Instruction("LDI", dest=v(0), imm=1),
            Instruction("CMOVNE", dest=v(0), srcs=(v(1), v(2))),
        ])
        assert dag.succs[0][1] == TRUE


class TestMemoryDependences:
    def test_loads_never_conflict(self):
        dag = build_dag([ld(1, 0, element=0), ld(2, 0, element=0)])
        assert 1 not in dag.succs[0]

    def test_store_load_same_element(self):
        dag = build_dag([st(1, 0, element=3), ld(2, 0, element=3)])
        assert dag.succs[0][1] == MEM

    def test_store_load_distinct_elements_independent(self):
        dag = build_dag([st(1, 0, element=3), ld(2, 0, element=4)])
        assert 1 not in dag.succs[0]

    def test_store_load_different_arrays_independent(self):
        dag = build_dag([st(1, 0, "A"), ld(2, 0, "B")])
        assert 1 not in dag.succs[0]

    def test_unknown_subscript_is_conservative(self):
        unknown = Instruction("LD", dest=v(2), srcs=(v(0),),
                              mem=MemRef("data", "A", affine=None))
        dag = build_dag([st(1, 0, "A", element=5), unknown])
        assert dag.succs[0][1] == MEM

    def test_missing_memref_is_conservative(self):
        bare_store = Instruction("ST", srcs=(v(1), v(0)), offset=0)
        dag = build_dag([bare_store, ld(2, 0, "A")])
        assert dag.succs[0][1] == MEM

    def test_store_store_ordering(self):
        dag = build_dag([st(1, 0, element=2), st(2, 0, element=2)])
        assert dag.succs[0][1] == MEM


class TestLocalityArcs:
    def test_miss_orders_hits_in_same_group(self):
        instrs = [
            ld(1, 0, element=0, locality=Locality.MISS, group=9),
            ld(2, 0, element=1, locality=Locality.HIT, group=9),
            ld(3, 0, element=2, locality=Locality.HIT, group=9),
        ]
        dag = build_dag(instrs)
        assert dag.succs[0][1] == ORDER
        assert dag.succs[0][2] == ORDER

    def test_different_groups_not_linked(self):
        instrs = [
            ld(1, 0, element=0, locality=Locality.MISS, group=1),
            ld(2, 0, element=4, locality=Locality.HIT, group=2),
        ]
        dag = build_dag(instrs)
        assert 1 not in dag.succs[0]

    def test_hit_without_prior_miss_unconstrained(self):
        instrs = [
            ld(1, 0, element=1, locality=Locality.HIT, group=3),
            ld(2, 0, element=0, locality=Locality.MISS, group=3),
        ]
        dag = build_dag(instrs)
        assert 1 not in dag.succs[0]


class TestTerminatorPinning:
    def test_final_branch_pinned_after_everything(self):
        instrs = [
            Instruction("LDI", dest=v(0), imm=1),
            Instruction("LDI", dest=v(1), imm=2),
            Instruction("BEQ", srcs=(v(0),), label="x"),
        ]
        dag = build_dag(instrs)
        assert dag.succs[0][2] in (TRUE, ORDER)
        assert dag.succs[1][2] == ORDER


class TestQueries:
    def _chain(self):
        return build_dag([
            Instruction("LDI", dest=v(0), imm=1),
            Instruction("ADD", dest=v(1), srcs=(v(0),), imm=1),
            Instruction("ADD", dest=v(2), srcs=(v(1),), imm=1),
            Instruction("LDI", dest=v(9), imm=7),
        ])

    def test_reachability(self):
        dag = self._chain()
        reach = dag.reachability()
        assert reach[0] & (1 << 2)            # 0 reaches 2 transitively
        assert not reach[0] & (1 << 3)

    def test_independence(self):
        dag = self._chain()
        assert dag.independent(0, 3)
        assert not dag.independent(0, 2)
        assert not dag.independent(1, 1)

    def test_roots_and_leaves(self):
        dag = self._chain()
        assert dag.roots() == [0, 3]
        assert dag.leaves() == [2, 3]

    def test_topological_check(self):
        dag = self._chain()
        assert dag.topological_check([0, 1, 2, 3])
        assert dag.topological_check([3, 0, 1, 2])
        assert not dag.topological_check([1, 0, 2, 3])
        assert not dag.topological_check([0, 1, 2])   # missing node

    def test_backward_edge_rejected(self):
        dag = Dag([Instruction("NOP"), Instruction("NOP")])
        with pytest.raises(ValueError):
            dag.add_edge(1, 0, TRUE)

    def test_load_indices(self):
        dag = build_dag([ld(1, 0), Instruction("NOP"), ld(2, 0)])
        assert dag.load_indices() == [0, 2]
