"""Top-down list scheduler with the paper's priority and tie-breakers.

Priority of an instruction = its weight + the maximum priority of its
DAG successors (paper section 4.2).  Ties are broken, in order, by:

1. register pressure -- prefer the instruction with the largest
   (consumed - defined) register count;
2. exposure -- prefer the instruction that makes the most successors
   ready;
3. original program order.

The scheduler is shared by both weight models and by the trace
scheduler; it returns a permutation of node indices.
"""

from __future__ import annotations

from ..ir.dag import Dag
from ..machine.config import DEFAULT_CONFIG
from .weights import WeightModel


def priorities(dag: Dag, weights: list[float]) -> list[float]:
    """Bottom-up longest-path priorities from instruction weights."""
    n = len(dag.instrs)
    prio = [0.0] * n
    for i in range(n - 1, -1, -1):
        best = 0.0
        for j in dag.succs[i]:
            if prio[j] > best:
                best = prio[j]
        prio[i] = weights[i] + best
    return prio


def list_schedule(dag: Dag, model: WeightModel) -> list[int]:
    """Schedule *dag* with *model*'s weights; return the new node order."""
    weights = model.weights(dag)
    limit = model.config.pressure_limit
    return list_schedule_with_weights(dag, weights, pressure_limit=limit)


#: Default live-value throttle, derived from the default machine's
#: register files (allocatable bank size minus headroom — 24 on the
#: 32+32 Alpha files).  Schedulers running under a custom
#: :class:`MachineConfig` get their limit from that config instead.
PRESSURE_LIMIT = DEFAULT_CONFIG.pressure_limit


def list_schedule_with_weights(
        dag: Dag, weights: list[float],
        pressure_limit: int = PRESSURE_LIMIT) -> list[int]:
    n = len(dag.instrs)
    if n == 0:
        return []
    prio = priorities(dag, weights)
    instrs = dag.instrs
    preds = dag.preds
    succs = dag.succs

    unscheduled_preds = [len(into) for into in preds]
    # Exposure: how many successors wait on this node alone.  A
    # successor's count of unscheduled predecessors only falls, so each
    # one is credited to its last predecessor once, when it drops to 1.
    exposed = [0] * n
    for into in preds:
        if len(into) == 1:
            exposed[next(iter(into))] += 1
    # One walk over the instructions: each node's pressure delta, the
    # distinct registers it reads (a value read twice by one
    # instruction, ``FMUL d, x, x``, dies once, when that node issues),
    # and the counts behind the approximate per-bank liveness: a value
    # is live from the node that defines it until its last in-block
    # consumer is scheduled.
    pressure_delta = []
    reads = []
    remaining_uses: dict = {}
    defined = set()
    for ins in instrs:
        uses = ins.uses()
        defs = ins.defs()
        pressure_delta.append(len(uses) - len(defs))
        if len(uses) > 1 and len(set(uses)) < len(uses):
            uses = tuple(dict.fromkeys(uses))
        reads.append(uses)
        for reg in uses:
            remaining_uses[reg] = remaining_uses.get(reg, 0) + 1
        defined.update(defs)
    # Each node's tie-break key after the pressure probe; only its
    # exposure changes, so the key is rebuilt only then.
    keys = list(zip(prio, pressure_delta, exposed, range(0, -n, -1)))
    scheduled = [False] * n
    ready = [node for node, into in enumerate(preds) if not into]
    order: list[int] = []
    live = {"i": 0, "f": 0}
    for reg in remaining_uses:
        if reg not in defined:            # live into the block
            live[reg.kind] += 1

    def grows_hot_bank(node: int) -> bool:
        for reg in instrs[node].defs():
            bank = reg.kind
            if live[bank] < pressure_limit:
                continue
            freed = sum(1 for use in reads[node]
                        if use.kind == bank and remaining_uses[use] == 1)
            if freed < 1:
                return True
        return False

    while ready:
        # The probe can say True only while some bank is at the limit.
        if live["i"] >= pressure_limit or live["f"] >= pressure_limit:
            best = max(ready, key=lambda node: (not grows_hot_bank(node),
                                                keys[node]))
        else:
            best = max(ready, key=keys.__getitem__)
        ready.remove(best)
        order.append(best)
        scheduled[best] = True
        for reg in reads[best]:
            count = remaining_uses.get(reg, 0)
            if count == 1:
                live[reg.kind] -= 1
            remaining_uses[reg] = count - 1
        for reg in instrs[best].defs():
            if remaining_uses.get(reg, 0) > 0:
                live[reg.kind] += 1
        for succ in succs[best]:
            waiting = unscheduled_preds[succ] - 1
            unscheduled_preds[succ] = waiting
            if waiting == 0:
                ready.append(succ)
            elif waiting == 1:
                for pred in preds[succ]:
                    if not scheduled[pred]:
                        exposed[pred] += 1
                        keys[pred] = (prio[pred], pressure_delta[pred],
                                      exposed[pred], -pred)
                        break

    if len(order) != n:
        raise RuntimeError("DAG has a cycle; scheduling failed")
    return order

