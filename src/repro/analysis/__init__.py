"""Program analyses: affine subscripts, cache locality, symbolic
dependence distances, and register pressure."""

from .affine import AffineForm, affine_of, flatten_subscript
from .deps import (
    ACCESS_BYTES,
    ConflictEquation,
    DepVerdict,
    LoopBodyDeps,
    analyze_loop_body,
    classify,
    classify_source_pair,
)
from .locality import LocalityAnalyzer, LocalityStats, analyze_locality
from .pressure import block_pressure, cfg_pressure, over_budget
from .report import (
    ANALYSIS_SCHEMA_VERSION,
    analysis_summary,
    analyze_cfg,
    analyze_program,
    format_report,
)

__all__ = [
    "AffineForm", "affine_of", "flatten_subscript",
    "LocalityAnalyzer", "LocalityStats", "analyze_locality",
    "ACCESS_BYTES", "ConflictEquation", "DepVerdict", "LoopBodyDeps",
    "analyze_loop_body", "classify", "classify_source_pair",
    "block_pressure", "cfg_pressure", "over_budget",
    "ANALYSIS_SCHEMA_VERSION", "analysis_summary", "analyze_cfg",
    "analyze_program", "format_report",
]
