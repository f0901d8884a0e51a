"""Each grid command sweeps exactly the configs it reads, and
``--oracle`` lands in the manifest its own command wrote."""

import json

import pytest

import repro.__main__ as cli
from repro.harness.report import build_report
from tests.harness.test_report import _gap_payload
from tests.harness.test_tables import StubRunner


class ManifestRunner(StubRunner):
    """A stub whose sweep writes a manifest, as the real runner's does."""

    use_cache = True

    def __init__(self, manifest_path, jobs=1):
        super().__init__()
        self.manifest_path = manifest_path
        self.jobs = jobs

    def sweep(self, benchmarks=None, schedulers=None, configs=None,
              jobs=None):
        self.manifest_path.write_text(json.dumps({"configs": configs}))
        return super().sweep(benchmarks, schedulers, configs, jobs)


class StubOracle:
    def __init__(self, runner):
        self.runner = runner

    def sweep(self, benchmarks=None, configs=None):
        return [_gap_payload()]


@pytest.fixture
def runners(monkeypatch, tmp_path):
    """Every runner the CLI makes is a ``ManifestRunner`` writing to
    *tmp_path*, and ``--oracle`` uses a stub oracle on it."""
    made = []

    def make(verbose=False, jobs=1, observer=None):
        made.append(ManifestRunner(tmp_path / "run-manifest.json", jobs))
        return made[-1]

    monkeypatch.setattr(cli, "ExperimentRunner", make)
    monkeypatch.setattr(cli, "_oracle_runner",
                        lambda args, runner: StubOracle(runner))
    return made


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("argv, swept", [
    (["tables", "4"], [["base", "lu4", "lu8"]]),
    (["tables", "10", "4"], [["base", "lu4", "lu8", "la", "swp",
                              "la+swp"]]),
    (["tables", "5", "--configs", "lu8,lu4,base,trs4"],
     [["base", "lu4", "lu8"]]),
    (["tables", "1", "2", "3"], []),
    (["tables", "1", "--oracle"], [["base"]]),
    (["report", "--configs", "trs4,base"], [["base", "trs4"]]),
    (["report", "--configs", "swp"], []),
    (["report", "--configs", "lu4", "--oracle"], [["base", "lu4"]]),
])
def test_grid_commands_sweep_the_configs_they_read(runners, argv, swept,
                                                   jobs):
    assert cli.main(argv + ["-j", jobs]) == 0
    (runner,) = runners
    assert runner.swept == swept


def test_full_report_sweeps_its_metrics_and_swp_section():
    runner = StubRunner()
    build_report(runner)
    assert runner.swept == [["base", "lu4", "lu8", "trs4", "trs8", "la",
                             "la+trs8", "swp", "la+swp"]]


@pytest.mark.parametrize("argv", [["tables", "1", "--oracle"],
                                  ["report", "--configs", "swp",
                                   "--oracle"]])
def test_oracle_section_lands_in_this_commands_manifest(runners, tmp_path,
                                                        argv):
    # The manifest an earlier `repro bench ora --configs base` left.
    path = tmp_path / "run-manifest.json"
    path.write_text(json.dumps({"configs": ["base"],
                                "written_by": "an earlier bench"}))
    assert cli.main(argv) == 0
    manifest = json.loads(path.read_text())
    assert "written_by" not in manifest
    assert manifest["configs"] == ["base"]
    assert list(manifest["oracle"]["points"]) == ["ora/base"]
