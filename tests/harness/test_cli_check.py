"""The ``repro check`` command."""

import io

import pytest

from repro.__main__ import main
from repro.check.cli import check_program, run_check
from repro.harness.compile import Options


def test_run_check_clean_benchmarks_exit_zero(capsys):
    status = run_check(names=["ora"], configs=["base"])
    out = capsys.readouterr().out
    assert status == 0
    assert "checked 1 compile(s): 0 error(s)" in out


def test_run_check_multiple_configs(capsys):
    status = run_check(names=["ora"], configs=["base", "lu4"])
    out = capsys.readouterr().out
    assert status == 0
    assert "checked 2 compile(s)" in out


def test_run_check_reports_notes(capsys):
    # tomcatv has write-only result arrays: note-severity lints.
    status = run_check(names=["tomcatv"], configs=["base"])
    out = capsys.readouterr().out
    assert status == 0
    assert "store-never-loaded" in out


def test_run_check_no_lint_suppresses_notes(capsys):
    status = run_check(names=["tomcatv"], configs=["base"], lint=False)
    out = capsys.readouterr().out
    assert status == 0
    assert "store-never-loaded" not in out


def test_run_check_rejects_unknown_names():
    with pytest.raises(SystemExit):
        run_check(names=["nope"])
    with pytest.raises(SystemExit,
                       match=r"^repro check: unknown config\(s\): nope"):
        run_check(names=["ora"], configs=["nope"])


def test_run_check_exit_nonzero_iff_error(monkeypatch, capsys):
    # Seed a scheduler bug: every checked compile now carries
    # error-severity diagnostics, so the exit status must flip to 1.
    import repro.harness.compile as hc

    real = hc.schedule_cfg

    def dropper(cfg, model, observer=None, **kw):
        real(cfg, model)
        block = next(b for b in cfg if len(b.body) > 1)
        del block.instrs[0]

    monkeypatch.setattr(hc, "schedule_cfg", dropper)
    status = run_check(names=["ora"], configs=["base"])
    out = capsys.readouterr().out
    assert status == 1
    assert "error: schedule-permutation:" in out


def test_check_program_returns_sorted_diagnostics():
    source = """array OUT[8] : int;
func main() {
    var unused : int;
    var i : int;
    for (i = 0; i < 8; i = i + 1) { OUT[i] = i; }
}
"""
    diags = check_program(source, Options(), "t")
    assert any(d.rule == "unused-variable" for d in diags)
    assert all(not d.is_error for d in diags)


def test_cli_check_command(capsys):
    # Every benchmark at three configs: lints are warnings and notes
    # only, so the exit status comes from the validators.
    status = main(["check", "--configs", "base", "lu4", "swp"])
    out = capsys.readouterr().out
    assert status == 0
    assert "checked 51 compile(s): 0 error(s)" in out


def test_cli_check_honours_no_lint(capsys):
    status = main(["check", "tomcatv", "--no-lint",
                   "--configs", "base"])
    out = capsys.readouterr().out
    assert status == 0
    assert "note:" not in out
