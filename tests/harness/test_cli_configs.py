"""``--configs`` / ``--jobs`` / benchmark-name CLI hygiene.

Bad inputs must exit non-zero with a one-line error, never a
traceback; the message must name the offending value."""

import argparse
import os

import pytest

from repro.__main__ import _resolve_configs, _resolve_jobs, main
from repro.harness import ExperimentRunner


def _args(configs):
    return argparse.Namespace(configs=configs)


def test_comma_and_space_separated_forms():
    assert _resolve_configs(_args(["swp,la+swp"])) == ["swp", "la+swp"]
    assert _resolve_configs(_args(["base", "lu4"])) == ["base", "lu4"]
    assert _resolve_configs(_args(["base,lu4", "swp"])) == \
        ["base", "lu4", "swp"]


def test_duplicates_removed_in_order():
    assert _resolve_configs(_args(["swp,base,swp"])) == ["swp", "base"]


def test_unset_means_no_filter():
    assert _resolve_configs(_args(None)) is None


def test_unknown_config_rejected():
    with pytest.raises(SystemExit, match="unknown config"):
        _resolve_configs(_args(["bogus"]))


def test_bench_runs_selected_config(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert main(["bench", "ora", "--configs", "swp"]) == 0
    out = capsys.readouterr().out
    assert "swp" in out
    assert "lu4" not in out


def test_tables_skips_uncovered_tables(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    # Only static tables are covered by an empty-ish selection.
    assert main(["tables", "1", "4", "--configs", "base"]) == 0
    captured = capsys.readouterr()
    assert "Table 1" in captured.out
    assert "Table 4" not in captured.out
    assert "skipping table(s) [4]" in captured.err


def test_resolve_jobs_values(monkeypatch):
    assert _resolve_jobs("4") == 4
    assert _resolve_jobs(2) == 2
    assert _resolve_jobs(0) == (os.cpu_count() or 1)


@pytest.mark.parametrize("bad", ["abc", "1.5", "", None])
def test_resolve_jobs_rejects_non_integers(bad):
    with pytest.raises(SystemExit) as excinfo:
        _resolve_jobs(bad)
    message = str(excinfo.value.code)
    assert "invalid --jobs/REPRO_JOBS" in message
    assert repr(bad) in message
    assert "\n" not in message


def test_resolve_jobs_rejects_negative():
    with pytest.raises(SystemExit, match="must be >= 0"):
        _resolve_jobs(-2)


def test_bench_bad_jobs_flag_exits_with_one_liner(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "ora", "--configs", "base", "--jobs", "abc"])
    assert "invalid --jobs/REPRO_JOBS value 'abc'" in \
        str(excinfo.value.code)


def test_bench_bad_jobs_env_exits_with_one_liner(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "lots")
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "ora", "--configs", "base"])
    assert "invalid --jobs/REPRO_JOBS value 'lots'" in \
        str(excinfo.value.code)


def test_bad_configs_flag_exits_with_one_liner():
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "ora", "--configs", "nope"])
    message = str(excinfo.value.code)
    assert "unknown config(s): nope" in message
    assert "\n" not in message


def test_bench_unknown_benchmark_leaves_the_manifest(monkeypatch,
                                                     tmp_path):
    # The check runs before the sweep, so an earlier sweep's manifest
    # is not overwritten by an empty partial one.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    runner = ExperimentRunner(cache_dir=tmp_path)
    runner.sweep(benchmarks=["ora"], schedulers=("balanced",),
                 configs=["base"])
    before = runner.manifest_path.read_bytes()
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "bogus", "--configs", "base"])
    message = str(excinfo.value.code)
    assert message.startswith("repro bench: unknown benchmark(s): bogus")
    assert "\n" not in message
    assert runner.manifest_path.read_bytes() == before


def test_profile_unknown_benchmark_exits_with_one_liner():
    with pytest.raises(SystemExit) as excinfo:
        main(["profile", "not-a-benchmark"])
    message = str(excinfo.value.code)
    assert "unknown benchmark 'not-a-benchmark'" in message


def test_obs_diff_missing_file_exits_with_one_liner(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["obs-diff", str(tmp_path / "a.json"),
              str(tmp_path / "b.json")])
    assert str(excinfo.value.code).startswith("repro obs-diff:")


def test_obs_diff_bad_json_exits_with_one_liner(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit) as excinfo:
        main(["obs-diff", str(bad), str(bad)])
    assert str(excinfo.value.code).startswith("repro obs-diff:")


def test_compile_swp_flag(tmp_path, capsys):
    source = """
array A[64] : float;
func main() {
    var i : int;
    for (i = 0; i < 64; i = i + 1) { A[i] = float(i) * 2.0; }
}
"""
    path = tmp_path / "k.mf"
    path.write_text(source)
    assert main(["compile", str(path), "--swp"]) == 0
    out = capsys.readouterr().out
    assert "HALT" in out
