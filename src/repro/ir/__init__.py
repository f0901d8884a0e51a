"""Mid-level IR: control-flow graph, analyses, dependence DAGs."""

from .cfg import BasicBlock, Cfg
from .dag import ANTI, MEM, ORDER, OUT, TRUE, Dag, build_dag
from .dominators import dominates, immediate_dominators, reverse_postorder
from .liveness import block_use_def, liveness
from .loops import NaturalLoop, find_back_edges, find_loops

__all__ = [
    "BasicBlock", "Cfg",
    "ANTI", "MEM", "ORDER", "OUT", "TRUE", "Dag", "build_dag",
    "dominates", "immediate_dominators", "reverse_postorder",
    "block_use_def", "liveness",
    "NaturalLoop", "find_back_edges", "find_loops",
]
