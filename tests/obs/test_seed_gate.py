"""The committed seed manifest and the exact gate against it.

``benchmarks/seed-manifest.json`` is what ``repro bench ora ear
--configs base lu4`` followed by ``repro analyze --attach`` writes.
The current code must reproduce it exactly, traced and untraced, and
``repro obs-diff`` must fail on any one-count change to it."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.obs.diff import GATED_FIELDS
from repro.workloads import WORKLOAD_ORDER

SEED_PATH = Path(__file__).resolve().parents[2] / "benchmarks" \
    / "seed-manifest.json"
SEED = json.loads(SEED_PATH.read_text())


def _key(run: dict) -> str:
    return f"{run['benchmark']}/{run['scheduler']}/{run['config']}"


def _gate(manifest: dict, tmp_path: Path) -> int:
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(manifest))
    return main(["obs-diff", str(SEED_PATH), str(path)])


def test_seed_covers_the_seed_grid():
    assert sorted(map(_key, SEED["runs"])) == sorted(
        f"{b}/{s}/{c}" for b in ("ora", "ear")
        for s in ("balanced", "traditional") for c in ("base", "lu4"))
    assert sorted(SEED["analysis"]["points"]) == sorted(
        f"{name}/balanced" for name in WORKLOAD_ORDER)


def test_gate_passes_an_unchanged_seed_copy(tmp_path):
    assert _gate(SEED, tmp_path) == 0


@pytest.mark.parametrize("section,name,delta", [
    pytest.param(section, name, delta, id=f"{section}-{name}{delta:+d}")
    for section, fields in GATED_FIELDS.items() if section in SEED
    for name in fields for delta in (-1, 1)])
def test_gate_fails_on_a_one_count_change(section, name, delta,
                                          tmp_path, capsys):
    changed = copy.deepcopy(SEED)
    if section == "runs":
        point = changed["runs"][0]
        key = _key(point)
    else:
        key, point = next(iter(changed[section]["points"].items()))
    point[name] += delta
    assert _gate(changed, tmp_path) == 1
    assert f"CHANGED  {section} {key}: {name}" in capsys.readouterr().out


def _delete_run(manifest: dict) -> str:
    run = manifest["runs"].pop(3)
    return f"MISSING  runs {_key(run)}"


def _delete_analysis(manifest: dict) -> str:
    del manifest["analysis"]
    return "MISSING  analysis section"


@pytest.mark.parametrize("delete", [_delete_run, _delete_analysis])
def test_gate_fails_on_a_deleted_point_or_section(delete, tmp_path,
                                                   capsys):
    changed = copy.deepcopy(SEED)
    line = delete(changed)
    assert _gate(changed, tmp_path) == 1
    assert line in capsys.readouterr().out


def _reproduce_seed(tmp_path, monkeypatch, capsys, *bench_flags):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    for name in ("REPRO_NO_CACHE", "REPRO_JOBS"):
        monkeypatch.delenv(name, raising=False)
    assert main(["bench", "ora", "ear", "--configs", "base", "lu4",
                 *bench_flags]) == 0
    assert main(["analyze", "--attach"]) == 0
    capsys.readouterr()
    manifest = tmp_path / "run-manifest.json"
    assert main(["obs-diff", str(SEED_PATH), str(manifest)]) == 0, \
        capsys.readouterr().out


def test_seed_grid_reproduces_exactly(tmp_path, monkeypatch, capsys):
    _reproduce_seed(tmp_path, monkeypatch, capsys)


def test_traced_seed_grid_reproduces_exactly(tmp_path, monkeypatch,
                                             capsys):
    # Every point runs here with a stall profile attached, which the
    # fast engine compiles into its own code.
    _reproduce_seed(tmp_path, monkeypatch, capsys,
                    "--trace", str(tmp_path / "t"))
    rows = [json.loads(line) for line in
            (tmp_path / "t.jsonl").read_text().splitlines()]
    assert any(row["type"] == "span" and row["name"] == "grid-point"
               for row in rows)
    chrome = json.loads((tmp_path / "t.chrome.json").read_text())
    assert chrome["traceEvents"]
