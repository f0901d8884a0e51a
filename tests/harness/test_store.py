"""Sharded result store: layout, atomicity and orphan reaping."""

from __future__ import annotations

import dataclasses
import json
import os
import time

import pytest

from repro.harness.experiment import ExperimentRunner, load_manifest
from repro.harness.store import ResultStore, StoreKey, atomic_write_json


def _key(**overrides) -> StoreKey:
    base = dict(benchmark="ora", scheduler="balanced", config="base",
                fingerprint="f" * 16)
    base.update(overrides)
    return StoreKey(**base)


class TestLayout:
    def test_entry_lives_under_two_hex_shard(self, tmp_path):
        store = ResultStore(tmp_path)
        key = _key()
        path = store.store(key, {"total_cycles": 1})
        assert path.parent.parent == tmp_path
        assert path.parent.name == key.shard
        assert len(key.shard) == 2
        assert int(key.shard, 16) >= 0

    def test_every_key_field_changes_the_path(self, tmp_path):
        store = ResultStore(tmp_path)
        base = _key()
        for field in dataclasses.fields(StoreKey):
            changed = _key(**{field.name: "x" * len(
                getattr(base, field.name))})
            assert store.path_for(changed) != store.path_for(base), \
                field.name


class TestIO:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        payload = {"total_cycles": 42, "nested": {"a": [1, 2]}}
        store.store(_key(), payload)
        assert store.load(_key()) == payload

    def test_missing_is_none(self, tmp_path):
        assert ResultStore(tmp_path).load(_key()) is None

    def test_corrupt_entry_unlinked(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.store(_key(), {"ok": True})
        path.write_text("{torn")
        assert store.load(_key()) is None
        assert not path.exists()
        assert store.errors == 1

    def test_atomic_write_failure_leaves_nothing(self, tmp_path):
        target = tmp_path / "shard" / "entry.json"
        with pytest.raises(TypeError):
            atomic_write_json(target, {"bad": object()})
        assert not target.exists()
        assert not list(target.parent.glob("*.tmp"))


class TestReaping:
    def test_old_orphans_reaped_fresh_kept(self, tmp_path):
        store = ResultStore(tmp_path)
        entry = store.store(_key(), {"keep": True})
        shard = entry.parent
        old = shard / ".dead-writer.json.abc123.tmp"
        old.write_text("{half a wri")
        stale = time.time() - 3600
        os.utime(old, (stale, stale))
        fresh = shard / ".live-writer.json.def456.tmp"
        fresh.write_text("{in flight")

        reaped = store.reap_orphans()
        assert reaped == [old]
        assert not old.exists()
        assert fresh.exists()          # inside the grace window
        assert entry.exists()          # published entries untouched
        assert store.load(_key()) == {"keep": True}

    def test_missing_root_is_noop(self, tmp_path):
        assert ResultStore(tmp_path / "nope").reap_orphans() == []

    def test_runner_startup_reaps_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        shard = tmp_path / "ab"
        shard.mkdir(parents=True)
        orphan = shard / ".entry.json.xyz.tmp"
        orphan.write_text("{")
        stale = time.time() - 3600
        os.utime(orphan, (stale, stale))
        runner = ExperimentRunner(cache_dir=tmp_path)
        assert not orphan.exists()
        runner.sweep(benchmarks=["ora"], schedulers=("balanced",),
                     configs=["base"])
        assert load_manifest(runner.manifest_path).orphans_reaped == 1
