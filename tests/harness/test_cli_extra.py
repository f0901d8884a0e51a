"""CLI: bench and dump paths that need real (small) runs."""

import json

import pytest

from repro.__main__ import main
from repro.harness.experiment import MANIFEST_NAME


def test_bench_subset(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["bench", "ora", "--configs", "base"]) == 0
    out = capsys.readouterr().out
    assert "ora" in out
    assert "balanced" in out and "traditional" in out
    # Two data rows (one per scheduler); "running" progress lines also
    # mention the benchmark name, so filter to table rows.
    data_rows = [line for line in out.splitlines()
                 if line.startswith("ora")]
    assert len(data_rows) == 2


def test_bench_jobs_flag_parallel(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["bench", "ora", "--configs", "base", "lu4",
                 "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    data_rows = [line for line in out.splitlines()
                 if line.startswith("ora")]
    assert len(data_rows) == 4          # 2 configs x 2 schedulers
    manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
    assert manifest["jobs"] == 2
    assert manifest["grid_points"] == 4
    # A warm re-run executes nothing and rewrites the manifest.
    assert main(["bench", "ora", "--configs", "base", "lu4",
                 "--jobs", "2"]) == 0
    manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
    assert manifest["executed"] == 0 and manifest["cached"] == 4


def test_bench_jobs_env_default(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_JOBS", "2")
    assert main(["bench", "ora", "--configs", "base"]) == 0
    out = capsys.readouterr().out
    assert len([l for l in out.splitlines() if l.startswith("ora")]) == 2


def test_compile_with_all_flags(tmp_path, capsys):
    path = tmp_path / "k.mf"
    path.write_text("""
array A[32] : float;
var n : int = 32;
func main() {
    var i : int;
    for (i = 0; i < n; i = i + 1) { A[i] = float(i) * 0.5; }
}
""")
    assert main(["compile", str(path), "--unroll", "4", "--locality",
                 "--trace", "--scheduler", "traditional"]) == 0
    out = capsys.readouterr().out
    assert "HALT" in out


def test_run_reports_dual_issue_difference(tmp_path, capsys):
    path = tmp_path / "k.mf"
    path.write_text("""
array A[64] : float;
var n : int = 64;
func main() {
    var i : int;
    for (i = 0; i < n; i = i + 1) { A[i] = float(i) + float(i * 2); }
}
""")
    assert main(["run", str(path)]) == 0
    narrow = capsys.readouterr().out
    assert main(["run", str(path), "--issue-width", "2"]) == 0
    wide = capsys.readouterr().out

    def cycles(text):
        for line in text.splitlines():
            if line.startswith("cycles"):
                return int(line.split()[-1])
        raise AssertionError(text)

    assert cycles(wide) < cycles(narrow)
