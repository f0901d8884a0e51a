"""Natural-loop detection on the CFG.

:func:`loop_headers` is the one loop filter of the compiler: the
software pipeliner, the modulo oracle that grades it and ``repro
analyze`` (its loop records and lints) all take their loops from it.
LICM hoists out of every natural loop :func:`find_loops` finds; trace
formation and the reducibility validator read the back edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cfg import Cfg
from .dominators import dominates, immediate_dominators


@dataclass
class NaturalLoop:
    header: str
    back_edges: list[tuple[str, str]] = field(default_factory=list)
    body: set[str] = field(default_factory=set)     # includes the header

    @property
    def depth(self) -> int:
        """Filled in by :func:`find_loops`: 1 = outermost."""
        return getattr(self, "_depth", 1)


def find_back_edges(cfg: Cfg) -> list[tuple[str, str]]:
    """All edges ``u -> h`` where ``h`` dominates ``u``."""
    idom = immediate_dominators(cfg)
    edges: list[tuple[str, str]] = []
    for label in cfg.order:
        if label not in idom:
            continue  # unreachable
        for succ in cfg.successors(label):
            if succ in idom and dominates(idom, succ, label, cfg.entry):
                edges.append((label, succ))
    return edges


def find_loops(cfg: Cfg) -> dict[str, NaturalLoop]:
    """Natural loops keyed by header; loops sharing a header are merged."""
    preds = cfg.predecessors()
    loops: dict[str, NaturalLoop] = {}
    for tail, header in find_back_edges(cfg):
        loop = loops.setdefault(header, NaturalLoop(header=header))
        loop.back_edges.append((tail, header))
        loop.body.add(header)
        stack = [tail]
        while stack:
            label = stack.pop()
            if label in loop.body:
                continue
            loop.body.add(label)
            stack.extend(preds[label])
    # Nesting depth: number of loop bodies containing the header.
    for loop in loops.values():
        depth = sum(1 for other in loops.values() if loop.header in other.body)
        loop._depth = depth
    return loops


def loop_headers(cfg: Cfg) -> list[tuple[str, bool]]:
    """Every loop header of *cfg* in layout order, with whether its loop
    is a single block other than the entry: the only loops pipelined."""
    loops = find_loops(cfg)
    order_pos = {label: i for i, label in enumerate(cfg.order)}
    return [(header, header != cfg.entry and loops[header].body == {header})
            for header in sorted(loops, key=order_pos.get)]
