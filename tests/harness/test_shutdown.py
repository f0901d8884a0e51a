"""Graceful sweep shutdown: SIGTERM/SIGINT and dead pool workers must
still produce a well-formed run manifest marked partial."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import BrokenExecutor

import pytest

from repro.harness import load_manifest
from repro.harness.experiment import (
    MANIFEST_NAME,
    ExperimentRunner,
    _execute_grid_point,
    _pool_run,
)

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Grid point whose pool worker SIGKILLs itself (set via environment so
#: forked workers see it).
_KILL_ENV = "REPRO_TEST_KILL_BENCH"


def _pool_run_killing_self(benchmark, scheduler, config, cache_dir,
                           use_cache, fingerprint):
    if benchmark == os.environ.get(_KILL_ENV):
        os.kill(os.getpid(), signal.SIGKILL)
    return _pool_run(benchmark, scheduler, config, cache_dir,
                     use_cache, fingerprint)


class TestSerialInterrupt:
    def test_partial_manifest_then_reraise(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        calls = []

        def _interrupt_second(workload, scheduler, config, **kwargs):
            calls.append(config)
            if len(calls) >= 2:
                raise KeyboardInterrupt
            return _execute_grid_point(workload, scheduler, config,
                                       **kwargs)

        from repro.harness import experiment
        monkeypatch.setattr(experiment, "_execute_grid_point",
                            _interrupt_second)
        runner = ExperimentRunner(cache_dir=tmp_path)
        with pytest.raises(KeyboardInterrupt):
            runner.sweep(benchmarks=["ora"], schedulers=("balanced",),
                         configs=["base", "lu4"], jobs=1)
        manifest = load_manifest(tmp_path / MANIFEST_NAME)
        assert manifest.partial is True
        assert manifest.grid_points == 2
        assert len(manifest.runs) == 1
        assert manifest.runs[0].config == "base"
        assert manifest.runs[0].total_cycles > 0


class TestDeadWorker:
    def test_broken_pool_yields_partial_manifest(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv(_KILL_ENV, "alvinn")
        from repro.harness import experiment
        monkeypatch.setattr(experiment, "_pool_run",
                            _pool_run_killing_self)
        runner = ExperimentRunner(cache_dir=tmp_path)
        with pytest.raises(BrokenExecutor):
            runner.sweep(benchmarks=["ora", "alvinn"],
                         schedulers=("balanced",), configs=["base"],
                         jobs=2)
        manifest = load_manifest(tmp_path / MANIFEST_NAME)
        assert manifest.partial is True
        assert manifest.grid_points == 2
        assert all(run.benchmark != "alvinn" for run in manifest.runs)


class TestSigterm:
    def test_sigterm_mid_sweep_writes_partial_manifest(self, tmp_path):
        cache = tmp_path / "cache"
        script = (
            "import sys\n"
            "sys.path.insert(0, 'src')\n"
            "from repro.harness.experiment import ExperimentRunner\n"
            f"runner = ExperimentRunner(cache_dir={str(cache)!r}, "
            "jobs=2)\n"
            "runner.sweep()\n"
        )
        env = dict(os.environ)
        env.pop("REPRO_NO_CACHE", None)
        proc = subprocess.Popen([sys.executable, "-c", script],
                                cwd=REPO, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        try:
            # Wait for the first published entries, then interrupt.
            deadline = time.time() + 120
            while time.time() < deadline:
                entries = [p for p in cache.rglob("*.json")
                           if p.name != MANIFEST_NAME]
                if entries:
                    break
                if proc.poll() is not None:
                    pytest.fail("sweep exited before it could be "
                                "interrupted")
                time.sleep(0.05)
            else:
                pytest.fail("no cache entries appeared")
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode != 0     # interruption is still an error
        manifest_path = cache / MANIFEST_NAME
        assert manifest_path.exists(), "no manifest after SIGTERM"
        data = json.loads(manifest_path.read_text())   # well-formed
        assert data["partial"] is True
        manifest = load_manifest(manifest_path)
        assert len(manifest.runs) < manifest.grid_points
