"""Basic-block scheduling driver: reorder every block of a CFG."""

from __future__ import annotations

from ..ir import Cfg, build_dag, liveness
from ..obs import NULL_OBSERVER, Observer
from ..obs.provenance import LoadScheduleRecord
from .list_scheduler import list_schedule, list_schedule_with_weights
from .weights import WeightModel


def schedule_block(instrs, model: WeightModel,
                   observer: Observer = NULL_OBSERVER,
                   block_label: str = "", live_out=None):
    """Return *instrs* reordered by the list scheduler.

    *live_out* (the registers live out of the block) rides on the DAG
    for a model with pressure feedback, which refuses to run without
    it.  With an enabled *observer*, the block's DAG size is annotated
    onto the open trace span and one schedule-provenance record is
    emitted per load (weight, independent-contributor count,
    before/after slot) so balanced-vs-traditional decisions are
    diffable.
    """
    if len(instrs) <= 1:
        return list(instrs)
    dag = build_dag(instrs, live_out=live_out)
    prov = observer.provenance if observer.enabled else None
    if prov is None:
        order = list_schedule(dag, model)
    else:
        weights, detail = model.weights_detailed(dag)
        order = list_schedule_with_weights(
            dag, weights, pressure_limit=model.config.pressure_limit)
        observer.annotate(scheduled_blocks=1,
                          scheduled_instrs=len(instrs),
                          dag_edges=dag.edge_count(),
                          dag_loads=len(dag.load_indices()))
        config = getattr(model, "config", None)
        slot_of = {node: slot for slot, node in enumerate(order)}
        for node, ins in enumerate(dag.instrs):
            if not ins.is_load:
                continue
            latency = (float(config.op_latency[ins.op])
                       if config is not None else 0.0)
            prov.add(LoadScheduleRecord(
                block=block_label, op=ins.op, dest=str(ins.dest),
                scheduler=model.name, weight=weights[node],
                latency_weight=latency,
                indep_contributors=detail.get(node, 0),
                slot_before=node, slot_after=slot_of[node]))
    return [instrs[i] for i in order]


def schedule_cfg(cfg: Cfg, model: WeightModel,
                 observer: Observer = NULL_OBSERVER) -> Cfg:
    """Schedule every basic block of *cfg* in place and return it.

    The terminator (branch/HALT) is pinned to the end by the ORDER arcs
    :func:`repro.ir.dag.build_dag` adds, so control flow is preserved.
    Reordering inside a block leaves every block's live-out set as it
    was, so liveness is computed once, and only for a model with
    pressure feedback.
    """
    live_out = (liveness(cfg)[1] if getattr(model, "pressure", False)
                else {})
    for block in cfg:
        block.instrs = schedule_block(block.instrs, model,
                                      observer=observer,
                                      block_label=block.label,
                                      live_out=live_out.get(block.label))
    cfg.verify()
    return cfg
