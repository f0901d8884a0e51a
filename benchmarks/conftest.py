"""Shared fixtures for the benchmark suite.

``pytest benchmarks/ --benchmark-only`` regenerates every table of the
paper.  The first run simulates the full experiment grid (minutes);
results are cached on disk, so re-runs are fast.  Each table is also
written to ``results/tableN.txt``.

Table regeneration is fanned out over all cores: the session-scoped
runner prewarms the full grid with ``sweep(jobs=N)`` before the table
generators walk it serially (every walk is then a cache hit).  Set
``REPRO_JOBS`` to control the worker count (``1`` disables the
prewarm and the pool); the ``jobs`` fixture gives the same count to
suites that fan out their own work (``test_sim_identity.py``).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.harness import ExperimentRunner

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def _default_jobs() -> int:
    env = os.environ.get("REPRO_JOBS")
    if env:
        jobs = int(env)
        return jobs if jobs > 0 else (os.cpu_count() or 1)
    return os.cpu_count() or 1


@pytest.fixture(scope="session")
def jobs() -> int:
    return _default_jobs()


@pytest.fixture(scope="session")
def runner(jobs) -> ExperimentRunner:
    runner = ExperimentRunner(verbose=False, jobs=jobs)
    if runner.jobs > 1:
        runner.sweep()          # parallel prewarm of the full grid
    return runner


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_and_print(results_dir: Path, name: str, text: str) -> None:
    (results_dir / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)
