"""Program analyses: affine subscripts, cache locality, symbolic
dependence distances, and register pressure."""

from .affine import AffineForm, affine_of, flatten_subscript
from .deps import (
    ConflictEquation,
    DepVerdict,
    LoopBodyDeps,
    analyze_loop_body,
    classify,
)
from .locality import LocalityAnalyzer, LocalityStats, analyze_locality
from .pressure import block_pressure, cfg_pressure, over_budget
from .report import (
    ANALYSIS_SCHEMA_VERSION,
    analysis_summary,
    analyze_cfg,
    analyze_program,
    format_report,
    lint_loop_analysis,
)

__all__ = [
    "AffineForm", "affine_of", "flatten_subscript",
    "LocalityAnalyzer", "LocalityStats", "analyze_locality",
    "ConflictEquation", "DepVerdict", "LoopBodyDeps",
    "analyze_loop_body", "classify",
    "block_pressure", "cfg_pressure", "over_budget",
    "ANALYSIS_SCHEMA_VERSION", "analysis_summary", "analyze_cfg",
    "analyze_program", "format_report", "lint_loop_analysis",
]
