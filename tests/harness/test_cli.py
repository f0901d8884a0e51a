"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main

SOURCE = """
array A[16] : float;
var n : int = 16;
func main() {
    var i : int;
    for (i = 0; i < n; i = i + 1) { A[i] = float(i) * 2.0; }
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "kernel.mf"
    path.write_text(SOURCE)
    return str(path)


def test_compile_prints_listing(source_file, capsys):
    assert main(["compile", source_file]) == 0
    out = capsys.readouterr().out
    assert "HALT" in out
    assert "FST" in out or "ST" in out


def test_compile_cfg_view(source_file, capsys):
    assert main(["compile", source_file, "--cfg"]) == 0
    out = capsys.readouterr().out
    assert "entry:" in out


def test_run_prints_metrics_and_symbols(source_file, capsys):
    assert main(["run", source_file, "--dump", "A"]) == 0
    out = capsys.readouterr().out
    assert "cycles" in out
    assert "A = [0.0, 2.0" in out


def test_run_with_flags(source_file, capsys):
    assert main(["run", source_file, "--scheduler", "traditional",
                 "--unroll", "4", "--issue-width", "2"]) == 0
    assert "cycles" in capsys.readouterr().out


def test_run_names_the_interpreter_fallback(source_file, capsys):
    # Only the single-issue machine runs on the fast engine; a wider one
    # falls back to the interpreter, and says so on stderr.
    assert main(["run", source_file, "--issue-width", "2"]) == 0
    err = capsys.readouterr().err
    assert ("repro run: reference interpreter, not the fast engine: "
            "issue width 2") in err
    assert len(err.strip().splitlines()) == 1
    assert main(["run", source_file]) == 0
    assert "interpreter" not in capsys.readouterr().err


def test_workloads_listing(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "tomcatv" in out and "ARC2D" in out


def test_tables_static(capsys):
    assert main(["tables", "3"]) == 0
    out = capsys.readouterr().out
    assert "Table 3" in out and "integer multiply" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
