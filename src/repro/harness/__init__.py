"""Experiment harness: compilation driver, runner, table generators."""

from .compile import (
    CompileResult,
    Options,
    compile_and_run,
    compile_source,
    make_weight_model,
    run_compiled,
)
from .experiment import (
    CONFIGS,
    SCHEDULERS,
    ExperimentRunner,
    Manifest,
    ManifestRun,
    RunResult,
    RunTiming,
    arithmetic_mean,
    attach_section,
    geometric_mean,
    load_manifest,
    options_for,
    parse_manifest,
)
from .report import build_report, write_report
from .store import ResultStore, StoreKey, atomic_write_json
from .tables import (
    ALL_TABLES,
    TABLE_CONFIGS,
    Table,
    format_table,
    generate_all,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
    table9,
    table10,
)

__all__ = [
    "CompileResult", "Options", "compile_and_run", "compile_source",
    "make_weight_model", "run_compiled",
    "CONFIGS", "SCHEDULERS", "ExperimentRunner", "RunResult",
    "RunTiming", "Manifest", "ManifestRun", "attach_section",
    "load_manifest", "parse_manifest",
    "arithmetic_mean", "geometric_mean", "options_for",
    "build_report", "write_report",
    "ResultStore", "StoreKey", "atomic_write_json",
    "ALL_TABLES", "TABLE_CONFIGS", "Table", "format_table",
    "generate_all",
    "table1", "table2", "table3", "table4", "table5", "table6",
    "table7", "table8", "table9", "table10",
]
