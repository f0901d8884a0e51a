"""``--configs`` / ``REPRO_CONFIGS`` / ``--jobs`` CLI hygiene.

Bad inputs must exit non-zero with a one-line error, never a
traceback; the message must name the offending value."""

import argparse
import os

import pytest

from repro.__main__ import _resolve_configs, _resolve_jobs, main


def _args(configs):
    return argparse.Namespace(configs=configs)


def test_comma_and_space_separated_forms(monkeypatch):
    monkeypatch.delenv("REPRO_CONFIGS", raising=False)
    assert _resolve_configs(_args(["swp,la+swp"])) == ["swp", "la+swp"]
    assert _resolve_configs(_args(["base", "lu4"])) == ["base", "lu4"]
    assert _resolve_configs(_args(["base,lu4", "swp"])) == \
        ["base", "lu4", "swp"]


def test_duplicates_removed_in_order(monkeypatch):
    monkeypatch.delenv("REPRO_CONFIGS", raising=False)
    assert _resolve_configs(_args(["swp,base,swp"])) == ["swp", "base"]


def test_env_fallback(monkeypatch):
    monkeypatch.setenv("REPRO_CONFIGS", "swp,base")
    assert _resolve_configs(_args(None)) == ["swp", "base"]


def test_flag_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_CONFIGS", "base")
    assert _resolve_configs(_args(["swp"])) == ["swp"]


def test_unset_means_no_filter(monkeypatch):
    monkeypatch.delenv("REPRO_CONFIGS", raising=False)
    assert _resolve_configs(_args(None)) is None


def test_unknown_config_rejected(monkeypatch):
    monkeypatch.delenv("REPRO_CONFIGS", raising=False)
    with pytest.raises(SystemExit, match="unknown config"):
        _resolve_configs(_args(["bogus"]))


def test_bench_runs_selected_config(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.delenv("REPRO_CONFIGS", raising=False)
    assert main(["bench", "ora", "--configs", "swp"]) == 0
    out = capsys.readouterr().out
    assert "swp" in out
    assert "lu4" not in out


def test_tables_skips_uncovered_tables(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.delenv("REPRO_CONFIGS", raising=False)
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


def test_bad_configs_flag_exits_with_one_liner(monkeypatch):
    monkeypatch.delenv("REPRO_CONFIGS", raising=False)
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "ora", "--configs", "nope"])
    message = str(excinfo.value.code)
    assert "unknown config(s): nope" in message
    assert "\n" not in message


def test_bad_configs_env_exits_with_one_liner(monkeypatch):
    monkeypatch.setenv("REPRO_CONFIGS", "bogus,base")
    with pytest.raises(SystemExit, match="unknown config"):
        main(["bench", "ora"])


def test_bad_sim_env_exits_with_one_liner(monkeypatch):
    monkeypatch.setenv("REPRO_SIM", "turbo")
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "ora", "--configs", "base"])
    message = str(excinfo.value.code)
    assert "invalid REPRO_SIM value 'turbo'" in message
    assert "\n" not in message


def test_sim_flag_overrides_bad_env(monkeypatch, tmp_path):
    # --sim auto clears a stale REPRO_SIM instead of tripping on it.
    monkeypatch.setenv("REPRO_SIM", "turbo")
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert main(["bench", "ora", "--configs", "base",
                 "--sim", "auto"]) == 0
    assert "REPRO_SIM" not in os.environ


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


def test_bench_record_without_cache_exits_with_one_liner(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.delenv("REPRO_CONFIGS", raising=False)
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "ora", "--configs", "base", "--record"])
    message = str(excinfo.value.code)
    assert "needs the run manifest" in message
    assert "REPRO_NO_CACHE" in message
    assert "\n" not in message


def test_bench_record_target_must_be_directory(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CONFIGS", raising=False)
    clobber = tmp_path / "a-file"
    clobber.write_text("")
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "ora", "--configs", "base",
              "--record", str(clobber)])
    assert "is not a directory" in str(excinfo.value.code)


def test_bench_record_then_history_check_roundtrip(
        monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CONFIGS", raising=False)
    records = tmp_path / "perf"
    argv = ["bench", "ora", "--configs", "base",
            "--record", str(records)]
    assert main(argv) == 0
    assert main(argv) == 0          # second record: identical sweep
    assert (records / "BENCH_1.json").exists()
    assert main(["perf-history", str(records), "--check"]) == 0
    captured = capsys.readouterr()
    assert "BENCH_0 -> BENCH_1" in captured.err
    # The gate actually bites: double every cycle count in a third
    # record and --check must exit non-zero with REGRESSION lines.
    import json as _json
    slow = _json.loads((records / "BENCH_1.json").read_text())
    slow["cycles"] = {point: cycles * 2
                      for point, cycles in slow["cycles"].items()}
    (records / "BENCH_2.json").write_text(_json.dumps(slow))
    assert main(["perf-history", str(records), "--check"]) == 1
    assert "REGRESSION: cycles" in capsys.readouterr().err


def test_perf_history_bad_inputs_exit_with_one_liner(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["perf-history", str(tmp_path / "nope")])
    assert "no such directory" in str(excinfo.value.code)

    with pytest.raises(SystemExit) as excinfo:
        main(["perf-history", str(tmp_path),
              "--cycle-threshold", "-1"])
    assert "thresholds must be >= 0" in str(excinfo.value.code)

    with pytest.raises(SystemExit) as excinfo:
        main(["perf-history", str(tmp_path)])
    assert "no BENCH_*.json records" in str(excinfo.value.code)

    (tmp_path / "BENCH_0.json").write_text("{torn")
    with pytest.raises(SystemExit) as excinfo:
        main(["perf-history", str(tmp_path)])
    message = str(excinfo.value.code)
    assert "unreadable record" in message
    assert "\n" not in message


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
