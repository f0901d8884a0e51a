"""Static analysis: dataflow engine, IR validators, lints, diagnostics.

The layer that proves each compiler pass preserved the invariants the
next one relies on.  Four pieces:

* :mod:`~repro.check.dataflow` -- a generic forward/backward monotone
  dataflow engine over :class:`~repro.ir.Cfg`, with reaching
  definitions and live variables built on it;
* :mod:`~repro.check.validators` -- per-boundary IR validators (CFG
  structure, loop reducibility, register discipline, def-before-use,
  liveness cross-check, allocation soundness);
* :mod:`~repro.check.dependence` -- dependence-preservation checking
  for the three schedulers (block / trace / modulo-kernel modes);
* :mod:`~repro.check.lints` -- warnings and notes (unused variables,
  dead stores, unreachable blocks, write-only data symbols) carrying
  :class:`~repro.frontend.errors.SourceLocation` positions.

Everything is orchestrated by
:class:`~repro.check.boundary.PipelineValidator`; compiles without
validation go through the no-op :data:`NULL_VALIDATOR` (zero cost
off).  ``REPRO_VALIDATE_IR=1`` turns validation on globally;
``repro check`` runs the whole thing in collect mode.
"""

from .boundary import (
    ENV_FLAG,
    NULL_VALIDATOR,
    PipelineValidator,
    validator_from_env,
)
from .dataflow import (
    TOP,
    DataflowAnalysis,
    LiveVariables,
    ReachingDefinitions,
    solve,
)
from .dependence import (
    BlockDeps,
    DepSnapshot,
    check_dependences,
    snapshot_dependences,
)
from .diagnostics import (
    ERROR,
    NOTE,
    SEVERITIES,
    WARNING,
    CheckError,
    Diagnostic,
    sort_diagnostics,
    worst_severity,
)
from .lints import lint_ast, lint_cfg, lint_loop_analysis
from .validators import (
    capture_intervals,
    check_allocation,
    check_def_before_use,
    check_liveness_consistency,
    check_loops,
    check_register_discipline,
    check_structure,
)

__all__ = [
    "ENV_FLAG", "NULL_VALIDATOR", "PipelineValidator",
    "validator_from_env",
    "TOP", "DataflowAnalysis", "LiveVariables", "ReachingDefinitions",
    "solve",
    "BlockDeps", "DepSnapshot", "check_dependences",
    "snapshot_dependences",
    "ERROR", "NOTE", "SEVERITIES", "WARNING", "CheckError", "Diagnostic",
    "sort_diagnostics", "worst_severity",
    "lint_ast", "lint_cfg", "lint_loop_analysis",
    "capture_intervals", "check_allocation", "check_def_before_use",
    "check_liveness_consistency", "check_loops",
    "check_register_discipline", "check_structure",
]
