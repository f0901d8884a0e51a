"""Instruction-weight models: traditional (fixed) and balanced.

Weights drive the list scheduler's priorities (paper section 4.2):

* the **traditional** model gives every instruction its fixed
  architectural latency, loads optimistically at the L1-hit value
  (Table 3) -- the blocking-processor assumption;
* the **balanced** model (Kerns & Eggers, PLDI 1993) replaces each
  load's weight with a measure of the *load-level parallelism*
  available to hide it, computed from the code DAG (section 2);
* with **locality analysis**, loads marked ``HIT`` keep the optimistic
  weight (their latency estimate is exact) and drop out of the
  balancing set, freeing independent instructions for loads that miss
  (section 3.3);
* with **pressure feedback** (opt-in), the model schedules the block
  with the boosted weights, measures the per-bank MAXLIVE of the
  resulting order, and only when a bank overflows its allocatable
  size demotes the lowest-weighted boosted loads back to the hit
  floor and re-measures — trading hidden latency for not spilling,
  and only in blocks where the allocator would otherwise spill.

Balanced weight computation, per DAG:

1. every balanced load starts at 1 (its issue slot);
2. every *contributor* (any instruction outside the balancing set)
   distributes one unit among the balanced loads it is independent of:
   loads connected by a dependence path (in series) compete for the
   contributor and share it equally, while loads in parallel can all be
   covered at once -- formally, the unit goes to each connected
   component of the comparability graph over the independent-load set,
   split evenly inside the component;
3. the result is floored at the L1-hit latency and capped at the
   50-cycle maximum memory latency (paper footnote 1).

On the paper's Figure 1 DAG this yields weights 3 for the parallel
loads ``L0, L1`` and 2 for the serial chain ``L2 -> L3``.
"""

from __future__ import annotations

from ..analysis.pressure import block_pressure
from ..ir.dag import Dag
from ..isa import ALLOCATABLE, Instruction, Locality
from ..machine.config import DEFAULT_CONFIG, MachineConfig


class WeightModel:
    """Maps DAG nodes to scheduling weights."""

    name = "abstract"

    def weights(self, dag: Dag) -> list[float]:
        raise NotImplementedError

    def weights_detailed(self, dag: Dag) -> tuple[list[float],
                                                  dict[int, int]]:
        """Weights plus per-load provenance detail.

        The detail dict maps each *balanced* load node to the number
        of independent contributor instructions its weight was derived
        from; models without a balancing notion return an empty dict.
        """
        return self.weights(dag), {}


class TraditionalWeights(WeightModel):
    """Fixed, architecturally optimistic weights (blocking assumption)."""

    name = "traditional"

    def __init__(self, config: MachineConfig = DEFAULT_CONFIG) -> None:
        self.config = config

    def weights(self, dag: Dag) -> list[float]:
        table = self.config.op_latency
        return [float(table[ins.op]) for ins in dag.instrs]


class BalancedWeights(WeightModel):
    """Kerns–Eggers balanced load weights.

    Args:
        config: machine model (supplies fixed latencies, the hit floor
            and the 50-cycle cap).
        use_locality: honour ``HIT`` locality hints -- hit loads keep
            the optimistic weight and become contributors.
        component_sharing: the paper-faithful sharing rule.  When
            False (ablation), a contributor is split uniformly over
            *all* loads it could help, ignoring series/parallel
            structure.
        cap: override the weight cap (None = no cap; ablation).
        pressure: enable the register-pressure feedback term — the
            block is trial-scheduled with the boosted weights and,
            only when the measured per-bank MAXLIVE overflows the
            allocatable bank size, the lowest-weighted boosted loads
            fall back to the hit floor (so the scheduler keeps their
            live ranges short) until the schedule fits.
    """

    name = "balanced"

    def __init__(self, config: MachineConfig = DEFAULT_CONFIG,
                 use_locality: bool = True,
                 component_sharing: bool = True,
                 cap: float | None = None,
                 pressure: bool = False) -> None:
        self.config = config
        self.use_locality = use_locality
        self.component_sharing = component_sharing
        self.cap = float(config.max_load_weight) if cap is None else cap
        self.pressure = pressure

    def _in_balance_set(self, instr: Instruction) -> bool:
        if not instr.is_load:
            return False
        if self.use_locality and instr.locality is Locality.HIT:
            return False
        return True

    def weights(self, dag: Dag) -> list[float]:
        return self._weights(dag, None)

    def weights_detailed(self, dag: Dag) -> tuple[list[float],
                                                  dict[int, int]]:
        detail: dict[int, int] = {}
        return self._weights(dag, detail), detail

    def _weights(self, dag: Dag,
                 detail: dict[int, int] | None) -> list[float]:
        table = self.config.op_latency
        result = [float(table[ins.op]) for ins in dag.instrs]
        loads = [i for i, ins in enumerate(dag.instrs)
                 if self._in_balance_set(ins)]
        if detail is not None:
            for node in loads:
                detail[node] = 0
        if not loads:
            return result

        n = len(dag.instrs)
        reach = dag.reachability()
        load_pos = {node: pos for pos, node in enumerate(loads)}
        contribution = [0.0] * len(loads)

        # Bitmask of balanced loads independent of each instruction.
        load_mask_bits = 0
        for node in loads:
            load_mask_bits |= 1 << node

        reach_into = reaching_into(dag)
        # Each independent-load mask's (load position, share) pairs.
        share_cache: dict[int, list[tuple[int, float]]] = {}

        for i in range(n):
            if i in load_pos:
                continue
            related = reach[i] | reach_into[i] | (1 << i)
            indep_mask = load_mask_bits & ~related
            if not indep_mask:
                continue
            if detail is not None:
                bits = indep_mask
                while bits:
                    low = bits & -bits
                    detail[low.bit_length() - 1] += 1
                    bits ^= low
            if not self.component_sharing:
                count = bin(indep_mask).count("1")
                share = 1.0 / count
                m = indep_mask
                while m:
                    low = m & -m
                    contribution[load_pos[low.bit_length() - 1]] += share
                    m ^= low
                continue
            shares = share_cache.get(indep_mask)
            if shares is None:
                shares = share_cache[indep_mask] = [
                    (load_pos[node], 1.0 / len(component))
                    for component in _comparability_components(
                        indep_mask, reach, reach_into)
                    for node in component]
            for pos, share in shares:
                contribution[pos] += share

        floor = float(self.config.load_hit_latency)
        for pos, node in enumerate(loads):
            weight = 1.0 + contribution[pos]
            weight = max(floor, weight)
            weight = min(self.cap, weight)
            result[node] = weight
        if self.pressure:
            self._apply_pressure_feedback(dag, loads, result, floor)
        return result

    def _apply_pressure_feedback(self, dag: Dag, loads: list[int],
                                 result: list[float],
                                 floor: float) -> None:
        """Demote boosted loads the register file cannot afford.

        Feedback loop: schedule the block with the boosted weights,
        measure the per-bank MAXLIVE of the order the scheduler
        actually produced (against the DAG's live-out set), and — only
        when a bank overflows its allocatable size (i.e. the allocator
        *would* spill) — strip the boost from the lowest-weighted loads
        of that bank and re-measure.  Blocks whose boosted schedule
        fits are left entirely alone, so the feedback can only ever
        trade hidden latency against real spill traffic."""
        from .list_scheduler import list_schedule_with_weights

        if dag.live_out is None:
            raise ValueError("pressure feedback needs the block's "
                             "live-out set: build_dag(..., live_out=...)")
        for _ in range(4):
            order = list_schedule_with_weights(dag, result)
            maxlive = block_pressure([dag.instrs[node] for node in order],
                                     dag.live_out)
            demoted = False
            for bank in ("i", "f"):
                excess = maxlive[bank] - ALLOCATABLE[bank]
                if excess <= 0:
                    continue
                boosted = sorted(
                    (node for node in loads
                     if dag.instrs[node].dest is not None
                     and dag.instrs[node].dest.kind == bank
                     and result[node] > floor),
                    key=lambda node: (result[node], -node))
                for node in boosted[:excess]:
                    result[node] = floor
                    demoted = True
            if not demoted:
                return


def reaching_into(dag: Dag) -> list[int]:
    """``into[j]`` = bitmask of the nodes that reach ``j`` (excl. j).

    The mirror of :meth:`Dag.reachability`, in one forward pass over
    the predecessors: every edge goes forward in program order, so a
    node's predecessors are final before the node is."""
    into = [0] * len(dag.instrs)
    for j, preds in enumerate(dag.preds):
        mask = 0
        for i in preds:
            mask |= into[i] | (1 << i)
        into[j] = mask
    return into


def _comparability_components(mask: int, reach: list[int],
                              reach_into: list[int]) -> list[list[int]]:
    """Connected components of the comparability graph over ``mask``.

    Two nodes are adjacent when a dependence path joins them (one
    reaches the other); components group loads that are (transitively)
    in series and therefore compete for the same hiding instructions.
    A component grows from its lowest node by bitmask: a node's
    neighbours are the nodes of ``mask`` it reaches or is reached from.
    Components come in order of their lowest node, each node list
    ascending.
    """
    components: list[list[int]] = []
    while mask:
        component = frontier = mask & -mask
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            node = low.bit_length() - 1
            new = (reach[node] | reach_into[node]) & mask & ~component
            component |= new
            frontier |= new
        mask &= ~component
        nodes: list[int] = []
        while component:
            low = component & -component
            nodes.append(low.bit_length() - 1)
            component ^= low
        components.append(nodes)
    return components
