"""PipelineValidator orchestration: modes, env resolution, zero cost."""

import pytest

import repro.check.boundary as boundary
from repro.check import (
    ERROR,
    NOTE,
    WARNING,
    CheckError,
    Diagnostic,
    NULL_VALIDATOR,
    PipelineValidator,
    sort_diagnostics,
    validator_from_env,
    worst_severity,
)
from repro.frontend.errors import SourceLocation
from repro.harness.compile import Options, compile_source

from tests.conftest import SMALL_KERNEL


def test_enabled_validator_visits_every_boundary():
    validator = PipelineValidator(mode="raise")
    compile_source(SMALL_KERNEL, Options(unroll=4), "b",
                   validator=validator)
    assert validator.boundaries == [
        "lower", "opt.constfold", "opt.copyprop", "opt.dce",
        "sched.block", "codegen.regalloc"]
    assert validator.diagnostics == []


def test_collect_mode_never_raises(monkeypatch):
    # Seed a broken scheduler; collect mode must record, not raise.
    import repro.harness.compile as hc

    real = hc.schedule_cfg

    def dropper(cfg, model, observer=None, **kw):
        real(cfg, model)
        block = next(b for b in cfg if len(b.body) > 1)
        del block.instrs[0]

    monkeypatch.setattr(hc, "schedule_cfg", dropper)
    validator = PipelineValidator(mode="collect")
    compile_source(SMALL_KERNEL, Options(), "b", validator=validator)
    assert any(d.rule == "schedule-permutation"
               for d in validator.diagnostics)


def test_validator_from_env(monkeypatch):
    monkeypatch.delenv("REPRO_VALIDATE_IR", raising=False)
    assert validator_from_env() is NULL_VALIDATOR
    monkeypatch.setenv("REPRO_VALIDATE_IR", "0")
    assert validator_from_env() is NULL_VALIDATOR
    monkeypatch.setenv("REPRO_VALIDATE_IR", "1")
    validator = validator_from_env()
    assert isinstance(validator, PipelineValidator)
    assert validator.mode == "raise"


def test_validation_is_zero_cost_off(monkeypatch):
    """A compile with validation disabled is bit-identical to a
    validated compile and never touches the analysis machinery."""
    monkeypatch.delenv("REPRO_VALIDATE_IR", raising=False)
    calls = {"n": 0}
    real_snapshot = boundary.snapshot_dependences

    def counting(cfg):
        calls["n"] += 1
        return real_snapshot(cfg)

    monkeypatch.setattr(boundary, "snapshot_dependences", counting)

    options = Options(unroll=4)
    off = compile_source(SMALL_KERNEL, options, "b")   # NULL_VALIDATOR
    assert calls["n"] == 0, "disabled validation must do zero work"

    on = compile_source(SMALL_KERNEL, options, "b",
                        validator=PipelineValidator(mode="raise"))
    assert calls["n"] > 0, "the probe itself must be live"
    assert off.program.format() == on.program.format()
    assert off.allocation.n_slots == on.allocation.n_slots


def test_null_validator_hooks_are_noops():
    NULL_VALIDATOR.lint_source(None)
    NULL_VALIDATOR.after_pass(None, "x")
    NULL_VALIDATOR.before_schedule(None)
    NULL_VALIDATOR.after_schedule(None, "x", "block")
    NULL_VALIDATOR.before_swp(None)
    NULL_VALIDATOR.after_swp(None)
    NULL_VALIDATOR.before_regalloc(None)
    NULL_VALIDATOR.after_regalloc(None, None)
    assert not NULL_VALIDATOR.enabled


def test_check_error_names_the_guilty_pass():
    diags = [Diagnostic(severity=ERROR, rule="use-before-def",
                        message="vi1 read but never defined",
                        pass_name="opt.dce", block=".loop1"),
             Diagnostic(severity=ERROR, rule="use-before-def",
                        message="vi2 read but never defined",
                        pass_name="opt.dce", block=".loop1")]
    error = CheckError(diags)
    assert "opt.dce" in str(error)
    assert "+1 more" in str(error)
    assert error.diagnostics == diags


def test_diagnostic_severity_helpers():
    diags = [Diagnostic(severity=NOTE, rule="a", message="m"),
             Diagnostic(severity=ERROR, rule="b", message="m"),
             Diagnostic(severity=WARNING, rule="c", message="m")]
    assert worst_severity(diags) == ERROR
    assert worst_severity([]) is None
    assert [d.severity for d in sort_diagnostics(diags)] == \
        [ERROR, WARNING, NOTE]
    with pytest.raises(ValueError):
        Diagnostic(severity="fatal", rule="x", message="m")


def test_diagnostic_render_with_position():
    diag = Diagnostic(severity=WARNING, rule="unused-variable",
                      message="variable 'x' is declared but never used",
                      pass_name="frontend",
                      loc=SourceLocation(12, 7))
    assert diag.render() == ("12:7: warning: unused-variable: "
                             "variable 'x' is declared but never used "
                             "[after frontend]")
