"""The ``repro check`` command: static analysis over the benchmarks.

Compiles each selected benchmark under each selected grid config with a
collect-mode :class:`~repro.check.boundary.PipelineValidator` (all
validators plus lints), prints every diagnostic in a stable order, and
returns a non-zero exit status iff an error-severity diagnostic exists
(``tests/harness/test_cli_check.py`` runs it over every benchmark).
"""

from __future__ import annotations

import sys
from typing import Optional, TextIO

from ..workloads import WORKLOADS, benchmark_names
from .boundary import PipelineValidator
from .diagnostics import ERROR, NOTE, WARNING, Diagnostic, sort_diagnostics


def check_program(source: str, options, name: str = "program",
                  lint: bool = True) -> list[Diagnostic]:
    """Validated compile of one program; returns all diagnostics.

    Runs in collect mode, so a broken pass yields error diagnostics in
    the return value instead of an exception.
    """
    from ..harness.compile import compile_source

    validator = PipelineValidator(mode="collect", lint=lint)
    compile_source(source, options, name, validator=validator)
    return sort_diagnostics(validator.diagnostics)


def run_check(names: Optional[list[str]] = None,
              configs: Optional[list[str]] = None,
              scheduler: str = "balanced", lint: bool = True,
              out: Optional[TextIO] = None) -> int:
    """Check benchmarks; returns the ``repro check`` exit status."""
    from ..harness.experiment import config_names, options_for

    if out is None:
        out = sys.stdout

    names = benchmark_names(names, "check")
    configs = config_names(configs or ["base"], "check")

    counts = {ERROR: 0, WARNING: 0, NOTE: 0}
    checked = 0
    for name in names:
        source = WORKLOADS[name].source
        for config in configs:
            diags = check_program(source, options_for(scheduler, config),
                                  name, lint=lint)
            checked += 1
            for diag in diags:
                counts[diag.severity] += 1
                print(f"{name}/{config}: {diag.render()}", file=out)
    print(f"checked {checked} compile(s): {counts[ERROR]} error(s), "
          f"{counts[WARNING]} warning(s), {counts[NOTE]} note(s)",
          file=out)
    return 1 if counts[ERROR] else 0
