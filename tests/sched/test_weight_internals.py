"""Unit tests of the balanced-weight internals (comparability
components and contribution accounting)."""

from repro.ir.dag import Dag, TRUE
from repro.isa import Instruction, MemRef, Reg
from repro.sched.weights import BalancedWeights, _comparability_components


def v(i, kind="i"):
    return Reg(kind, i, virtual=True)


def alu(d, s=90):
    return Instruction("ADD", dest=v(d), srcs=(v(s),), imm=1)


def ld(d, base=98):
    return Instruction("LD", dest=v(d), srcs=(v(base),),
                       mem=MemRef("data", "A", affine=None))


def mask_of(*nodes):
    value = 0
    for node in nodes:
        value |= 1 << node
    return value


def components_of(mask, reach):
    """Components over *mask* of the DAG whose reach masks are *reach*."""
    reach_into = [mask_of(*(i for i, r in enumerate(reach) if r >> j & 1))
                  for j in range(len(reach))]
    return _comparability_components(mask, reach, reach_into)


class TestComparabilityComponents:
    def test_isolated_nodes_are_singletons(self):
        reach = [0, 0, 0]
        components = components_of(mask_of(0, 1, 2), reach)
        assert sorted(map(sorted, components)) == [[0], [1], [2]]

    def test_direct_chain_is_one_component(self):
        # 0 -> 1 -> 2 (reach is transitive).
        reach = [mask_of(1, 2), mask_of(2), 0]
        components = components_of(mask_of(0, 1, 2), reach)
        assert sorted(map(sorted, components)) == [[0, 1, 2]]

    def test_transitive_connection_through_member(self):
        # 0 -> 1 and 0 -> 2: 1 and 2 incomparable but share component
        # via 0 (comparability graph connectivity).
        reach = [mask_of(1, 2), 0, 0]
        components = components_of(mask_of(0, 1, 2), reach)
        assert sorted(map(sorted, components)) == [[0, 1, 2]]

    def test_mask_restricts_membership(self):
        reach = [mask_of(1, 2), mask_of(2), 0]
        components = components_of(mask_of(0, 2), reach)
        # Only nodes 0 and 2 participate; still connected (0 reaches 2).
        assert sorted(map(sorted, components)) == [[0, 2]]

    def test_two_separate_chains(self):
        # 0 -> 1, 2 -> 3.
        reach = [mask_of(1), 0, mask_of(3), 0]
        components = components_of(mask_of(0, 1, 2, 3), reach)
        assert sorted(map(sorted, components)) == [[0, 1], [2, 3]]


class TestContributionAccounting:
    def test_each_contributor_donates_one_per_component(self):
        """Two parallel loads + one helper: the helper donates a full
        unit to each singleton component."""
        dag = Dag([ld(0), ld(1), alu(2)])
        weights = BalancedWeights().weights(dag)
        assert weights[0] == weights[1] == 2.0      # 1 + 1, floored at 2

    def test_series_loads_split_the_donation(self):
        dag = Dag([ld(0), ld(1), alu(2), alu(3)])
        dag.add_edge(0, 1, TRUE)
        weights = BalancedWeights().weights(dag)
        # Two helpers, each splitting 1 across the {0,1} chain.
        assert weights[0] == weights[1] == 2.0      # 1 + 0.5 + 0.5

    def test_dependent_helper_does_not_contribute(self):
        dag = Dag([ld(0), alu(1)])
        dag.add_edge(0, 1, TRUE)       # helper consumes the load
        weights = BalancedWeights().weights(dag)
        assert weights[0] == 2.0       # floor only; no contribution

    def test_three_way_series_share(self):
        dag = Dag([ld(0), ld(1), ld(2)] + [alu(3 + k) for k in range(6)])
        dag.add_edge(0, 1, TRUE)
        dag.add_edge(1, 2, TRUE)
        weights = BalancedWeights().weights(dag)
        # Six helpers x 1/3 each = 2 -> weight 3 for every chain member.
        assert weights[0] == weights[1] == weights[2] == 3.0

    def test_locality_contributor_accounting(self):
        from repro.isa import Locality

        hit = Instruction("LD", dest=v(0), srcs=(v(98),),
                          mem=MemRef("data", "A", affine=None),
                          locality=Locality.HIT)
        miss = Instruction("LD", dest=v(1), srcs=(v(98),),
                           mem=MemRef("data", "A", affine=None),
                           locality=Locality.MISS)
        dag = Dag([hit, miss])
        weights = BalancedWeights(use_locality=True).weights(dag)
        # The hit load acts as a contributor for the miss load.
        assert weights[0] == 2.0
        assert weights[1] == 2.0       # 1 + 1, floored at 2 either way
        more = Dag([hit.copy(), miss.copy(), alu(2), alu(3)])
        w2 = BalancedWeights(use_locality=True).weights(more)
        assert w2[1] == 4.0            # hit + two helpers = 1 + 3
