"""Pass-boundary orchestration: which validators run where.

:class:`PipelineValidator` is threaded through
:func:`repro.harness.compile.compile_source` and invoked at every
pipeline boundary.  In ``"raise"`` mode (the ``REPRO_VALIDATE_IR=1``
default) an error-severity diagnostic aborts the compile with a
:class:`~repro.check.diagnostics.CheckError` naming the guilty pass;
in ``"collect"`` mode (``repro check``) everything -- including lints
-- accumulates in :attr:`PipelineValidator.diagnostics` for reporting.

:data:`NULL_VALIDATOR` is the zero-cost-off default: every hook is a
no-op ``pass``, mirroring :data:`repro.obs.NULL_OBSERVER`, so a
compile without validation executes the identical code path it did
before this module existed.

Boundary map (see ``docs/ANALYSIS.md`` for the rationale):

========================  =============================================
boundary                  validators
========================  =============================================
``lower``                 structure, loops, discipline(virtual),
                          def-before-use, liveness-consistency
``opt.*`` (each cleanup)  same as ``lower``
``sched.block`` /         dependence embedding (mode block/trace) +
``sched.trace``           the structural family
``sched.modulo``          dependence embedding (mode kernel),
                          structural family (``compile_source``
                          replays the doubled kernels inline)
``codegen.regalloc``      interval-overlap allocation check,
                          discipline(physical), def-before-use
                          (physical), structure
========================  =============================================
"""

from __future__ import annotations

import os
from typing import Optional

from ..codegen.regalloc import AllocationResult
from ..ir import Cfg
from ..obs import NULL_OBSERVER, Observer
from .dependence import (
    DepSnapshot,
    check_dependences,
    snapshot_dependences,
)
from .diagnostics import CheckError, Diagnostic
from .lints import lint_ast, lint_cfg
from .validators import (
    capture_intervals,
    check_allocation,
    check_def_before_use,
    check_liveness_consistency,
    check_loops,
    check_register_discipline,
    check_structure,
)

#: Environment variable enabling validated compiles everywhere.
ENV_FLAG = "REPRO_VALIDATE_IR"


class PipelineValidator:
    """Runs the right validator subset at each compile boundary.

    ``mode="raise"`` aborts on the first boundary with error-severity
    findings; ``mode="collect"`` gathers everything (and, with
    ``lint=True``, warnings/notes too) into :attr:`diagnostics`.
    """

    enabled = True

    def __init__(self, mode: str = "raise", lint: bool = False,
                 observer: Observer = NULL_OBSERVER) -> None:
        if mode not in ("raise", "collect"):
            raise ValueError(f"unknown validator mode {mode!r}")
        self.mode = mode
        self.lint = lint
        self.observer = observer
        self.diagnostics: list[Diagnostic] = []
        self.boundaries: list[str] = []
        self._schedule_snapshot: Optional[DepSnapshot] = None
        self._intervals: Optional[dict] = None

    # ------------------------------------------------------------ report
    def _report(self, diags: list[Diagnostic]) -> None:
        if not self.lint:
            diags = [d for d in diags if d.is_error]
        self.diagnostics.extend(diags)
        if self.mode == "raise" and any(d.is_error for d in diags):
            raise CheckError(diags)

    def _structural(self, cfg: Cfg, pass_name: str,
                    phase: str = "virtual") -> list[Diagnostic]:
        diags = check_structure(cfg, pass_name)
        if any(d.rule == "cfg-structure" for d in diags):
            return diags        # deeper checks assume a sane graph
        diags += check_loops(cfg, pass_name)
        diags += check_register_discipline(cfg, pass_name, phase)
        diags += check_def_before_use(cfg, pass_name, phase)
        diags += check_liveness_consistency(cfg, pass_name)
        return diags

    # --------------------------------------------------------- boundaries
    def lint_source(self, program_ast) -> None:
        """Source lints on the analyzed AST (collect/lint mode only)."""
        if not self.lint:
            return
        with self.observer.span("validate", boundary="frontend"):
            self._report(lint_ast(program_ast))

    def after_pass(self, cfg: Cfg, pass_name: str) -> None:
        """Structural family after lowering and each ``opt.*`` pass."""
        self.boundaries.append(pass_name)
        with self.observer.span("validate", boundary=pass_name):
            diags = self._structural(cfg, pass_name)
            if self.lint and pass_name == "lower":
                diags += lint_cfg(cfg, pass_name)
            self._report(diags)

    def before_schedule(self, cfg: Cfg) -> None:
        """Snapshot the dependence DAG the scheduler must preserve."""
        self._schedule_snapshot = snapshot_dependences(cfg)

    def after_schedule(self, cfg: Cfg, pass_name: str,
                       mode: str) -> None:
        """Dependence embedding + structural family post-scheduling."""
        self.boundaries.append(pass_name)
        with self.observer.span("validate", boundary=pass_name,
                                mode=mode):
            diags: list[Diagnostic] = []
            if self._schedule_snapshot is not None:
                diags += check_dependences(cfg, self._schedule_snapshot,
                                           pass_name, mode=mode)
            diags += self._structural(cfg, pass_name)
            self._report(diags)

    def before_regalloc(self, cfg: Cfg) -> None:
        """Capture pre-allocation live intervals for the overlap check."""
        self._intervals = capture_intervals(cfg)

    def after_regalloc(self, cfg: Cfg,
                       allocation: AllocationResult) -> None:
        """Allocation soundness + physical-register discipline."""
        pass_name = "codegen.regalloc"
        self.boundaries.append(pass_name)
        with self.observer.span("validate", boundary=pass_name):
            diags: list[Diagnostic] = []
            if self._intervals is not None:
                diags += check_allocation(self._intervals, allocation,
                                          pass_name)
            diags += check_structure(cfg, pass_name)
            diags += check_register_discipline(cfg, pass_name,
                                               phase="physical")
            diags += check_def_before_use(cfg, pass_name,
                                          phase="physical")
            self._report(diags)


class _NullValidator:
    """Validation disabled: every hook is a single no-op statement."""

    enabled = False
    mode = "off"
    lint = False
    diagnostics: list[Diagnostic] = []

    def lint_source(self, program_ast) -> None:
        pass

    def after_pass(self, cfg: Cfg, pass_name: str) -> None:
        pass

    def before_schedule(self, cfg: Cfg) -> None:
        pass

    def after_schedule(self, cfg: Cfg, pass_name: str,
                       mode: str) -> None:
        pass

    def before_regalloc(self, cfg: Cfg) -> None:
        pass

    def after_regalloc(self, cfg: Cfg,
                       allocation: AllocationResult) -> None:
        pass


#: Shared no-op validator (the zero-cost default).
NULL_VALIDATOR = _NullValidator()


def validator_from_env(observer: Observer = NULL_OBSERVER):
    """The process-wide default validator.

    ``REPRO_VALIDATE_IR=1`` (the test suite sets it; grid worker
    processes inherit it) turns every compile into a validated
    compile in raising mode; anything else keeps the zero-cost
    :data:`NULL_VALIDATOR`.
    """
    if os.environ.get(ENV_FLAG) == "1":
        return PipelineValidator(mode="raise", observer=observer)
    return NULL_VALIDATOR
