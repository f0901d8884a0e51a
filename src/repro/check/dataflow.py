"""Generic forward/backward dataflow engine over :class:`~repro.ir.Cfg`.

The engine solves any monotone framework given as a
:class:`DataflowAnalysis`: a direction, a boundary value for the entry
(forward) or the exits (backward), a meet over predecessor/successor
values, and a per-block transfer function.  Values are compared with
``==``; iteration runs a worklist seeded in reverse postorder until a
fixed point.

Two concrete analyses ship with the engine and power the
pass-boundary validators (:mod:`repro.check.validators`):

* :class:`DefinedRegisters` -- which registers some definition may
  reach at each block entry (the def-before-use check);
* :class:`LiveVariables` -- an independent liveness formulation used to
  cross-check :func:`repro.ir.liveness.liveness` (the
  liveness-consistency check).

Future passes can reuse the engine by subclassing
:class:`DataflowAnalysis`; see ``docs/ANALYSIS.md``.
"""

from __future__ import annotations

from typing import Optional

from ..ir import Cfg, reverse_postorder

#: Sentinel for "no information yet" (top): meet(TOP, x) == x.
TOP = None


class DataflowAnalysis:
    """One monotone dataflow problem; subclass and fill in the hooks.

    Values may be any equality-comparable objects (frozensets are the
    usual choice).  ``TOP`` (``None``) is reserved by the engine for
    not-yet-computed block values and must not be a valid lattice
    element of the analysis itself.
    """

    #: "forward" (entry -> exits) or "backward" (exits -> entry).
    direction: str = "forward"

    def boundary(self, cfg: Cfg):
        """Value at the entry (forward) / the exit blocks (backward)."""
        raise NotImplementedError

    def meet(self, a, b):
        """Combine two incoming values (either may not be ``TOP``)."""
        raise NotImplementedError

    def transfer(self, block, value):
        """Push *value* through *block* (in ``direction`` order)."""
        raise NotImplementedError


def solve(cfg: Cfg, analysis: DataflowAnalysis
          ) -> tuple[dict[str, object], dict[str, object]]:
    """Fixed point of *analysis* over the reachable blocks of *cfg*.

    Returns ``(value_in, value_out)`` keyed by block label, oriented in
    *program* order regardless of direction: ``value_in`` is at the
    block's entry and ``value_out`` at its exit.  Unreachable blocks
    are absent (they have no incoming dataflow facts).
    """
    order = reverse_postorder(cfg)
    if analysis.direction == "backward":
        return _solve_backward(cfg, analysis, order)
    return _solve_forward(cfg, analysis, order)


def _solve_forward(cfg: Cfg, analysis: DataflowAnalysis,
                   order: list[str]):
    preds = cfg.predecessors()
    reachable = set(order)
    value_in: dict[str, object] = {}
    value_out: dict[str, object] = {}
    boundary = analysis.boundary(cfg)
    changed = True
    while changed:
        changed = False
        for label in order:
            incoming = TOP
            if label == cfg.entry:
                incoming = boundary
            for pred in preds[label]:
                if pred not in reachable:
                    continue
                pred_out = value_out.get(pred, TOP)
                if pred_out is TOP:
                    continue
                incoming = (pred_out if incoming is TOP
                            else analysis.meet(incoming, pred_out))
            if incoming is TOP:
                continue
            value_in[label] = incoming
            outgoing = analysis.transfer(cfg.blocks[label], incoming)
            if outgoing != value_out.get(label, TOP):
                value_out[label] = outgoing
                changed = True
    return value_in, value_out


def _solve_backward(cfg: Cfg, analysis: DataflowAnalysis,
                    order: list[str]):
    reachable = set(order)
    value_in: dict[str, object] = {}
    value_out: dict[str, object] = {}
    boundary = analysis.boundary(cfg)
    changed = True
    while changed:
        changed = False
        for label in reversed(order):
            succs = [s for s in cfg.successors(label) if s in reachable]
            outgoing = TOP
            if not succs:
                outgoing = boundary
            for succ in succs:
                succ_in = value_in.get(succ, TOP)
                if succ_in is TOP:
                    continue
                outgoing = (succ_in if outgoing is TOP
                            else analysis.meet(outgoing, succ_in))
            if outgoing is TOP:
                outgoing = boundary
            value_out[label] = outgoing
            incoming = analysis.transfer(cfg.blocks[label], outgoing)
            if incoming != value_in.get(label, TOP):
                value_in[label] = incoming
                changed = True
    return value_in, value_out


# --------------------------------------------------------------- analyses
class DefinedRegisters(DataflowAnalysis):
    """Forward may-analysis: the registers some definition reaches.

    Reaching definitions projected from ``(reg, def site)`` pairs to
    registers.  A block kills only sites of registers it defines
    itself, so the projection of ``(in - kill) | gen`` is ``in |
    defs(block)``, and union commutes with the projection: the
    solution is exactly the registers of the reaching-definitions
    solution, computed without a set of sites per block.

    ``track`` restricts the analysis to a register predicate (e.g. only
    virtual registers pre-regalloc, only physical ones after).
    """

    direction = "forward"

    def __init__(self, track=None) -> None:
        self.track = track or (lambda reg: True)
        #: Tracked registers each block defines, by block; a block is
        #: not changed while it is solved over.
        self._defs: dict = {}

    def boundary(self, cfg: Cfg) -> frozenset:
        return frozenset()

    def meet(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def transfer(self, block, value: frozenset) -> frozenset:
        defs = self._defs.get(block)
        if defs is None:
            track = self.track
            defs = self._defs[block] = frozenset(
                reg for instr in block.instrs for reg in instr.defs()
                if track(reg))
        return value | defs


class LiveVariables(DataflowAnalysis):
    """Backward may-analysis: registers live at each block boundary.

    Deliberately an independent re-derivation of
    :func:`repro.ir.liveness.liveness` through the generic engine, so
    the two implementations cross-check each other.
    """

    direction = "backward"

    def boundary(self, cfg: Cfg) -> frozenset:
        return frozenset()

    def meet(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def transfer(self, block, value: frozenset) -> frozenset:
        live = set(value)
        for instr in reversed(block.instrs):
            for reg in instr.defs():
                live.discard(reg)
            for reg in instr.uses():
                live.add(reg)
        return frozenset(live)
