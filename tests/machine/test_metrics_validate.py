"""Metrics.validate(): real runs pass, corrupted counters fail."""

from __future__ import annotations

import copy
import os

import pytest

from repro.machine import Metrics, MetricsInvariantError
from tests.conftest import compile_and_simulate, SMALL_KERNEL


@pytest.fixture(scope="module")
def real_metrics():
    _, _, metrics = compile_and_simulate(SMALL_KERNEL)
    return metrics


def test_real_run_passes(real_metrics):
    real_metrics.validate()     # must not raise


def _corrupt(metrics, **changes):
    bad = copy.deepcopy(metrics)
    for name, value in changes.items():
        setattr(bad, name, value)
    return bad


def test_instruction_class_mismatch(real_metrics):
    bad = _corrupt(real_metrics,
                   instructions=real_metrics.instructions + 1)
    with pytest.raises(MetricsInvariantError, match="class counts"):
        bad.validate()


def test_interlocks_exceed_total_cycles(real_metrics):
    bad = _corrupt(real_metrics,
                   load_interlock_cycles=real_metrics.total_cycles + 1)
    with pytest.raises(MetricsInvariantError, match="interlock"):
        bad.validate()


def test_negative_counter(real_metrics):
    bad = _corrupt(real_metrics, stores=-1)
    with pytest.raises(MetricsInvariantError, match="negative"):
        bad.validate()


def test_cache_misses_exceed_accesses(real_metrics):
    bad = copy.deepcopy(real_metrics)
    bad.l1d.misses = bad.l1d.accesses + 1
    with pytest.raises(MetricsInvariantError, match="l1d"):
        bad.validate()


def test_spills_bounded_by_class_counts(real_metrics):
    bad = _corrupt(real_metrics, spill_loads=real_metrics.loads + 1)
    with pytest.raises(MetricsInvariantError, match="spill_loads"):
        bad.validate()


def test_too_few_cycles_for_issue_width(real_metrics):
    bad = _corrupt(real_metrics,
                   total_cycles=real_metrics.instructions // 2)
    with pytest.raises(MetricsInvariantError):
        bad.validate(issue_width=1)


def test_mshr_stalls_bounded_by_load_interlocks(real_metrics):
    bad = _corrupt(
        real_metrics,
        mshr_stall_cycles=real_metrics.load_interlock_cycles + 1)
    with pytest.raises(MetricsInvariantError, match="mshr"):
        bad.validate()


def test_simulator_env_gate_runs_validate(monkeypatch, run_source):
    """Simulator.run validates every simulation: no environment
    variable gates it, so with no ``REPRO_*`` variable set a failing
    validate() still fails the run."""
    for name in [name for name in os.environ
                 if name.startswith("REPRO_")]:
        monkeypatch.delenv(name)

    def refuse(self, issue_width=1):
        raise MetricsInvariantError("validate() ran")

    monkeypatch.setattr(Metrics, "validate", refuse)
    with pytest.raises(MetricsInvariantError, match=r"validate\(\) ran"):
        run_source(SMALL_KERNEL)
