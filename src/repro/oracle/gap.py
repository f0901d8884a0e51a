"""Per-benchmark heuristic-gap driver: oracle vs balanced vs traditional.

For one ``(benchmark, config)`` grid point this module

1. lowers the workload through the production pipeline's front half
   (:func:`~repro.harness.compile.lower_source`: frontend, AST
   transforms, lowering, classic cleanups) to the same pre-schedule
   CFG every scheduler sees, and weights blocks by the trace
   scheduler's own profile run
   (:func:`~repro.harness.compile._collect_profile`);
2. runs the block oracle on every multi-op block against the balanced
   and traditional list schedules (:mod:`repro.oracle.block`);
3. **round-trips the oracle schedules through the PR 4 validators**:
   the oracle orders are applied to the CFG, checked against the
   pre-scheduling dependence snapshot (``check/dependence``), then
   register-allocated, linearized and machine-verified
   (``codegen/verify``) — optimality claims rest on independently
   checked legal schedules;
4. schedules a second copy of the CFG (as the software-pipelining
   driver would see it) and runs the modulo oracle on every candidate
   loop (:mod:`repro.oracle.modulo`);
5. aggregates a gap table: static and execution-weighted schedule cost
   (issue span + expected stall) for oracle/balanced/traditional, and
   achieved-II vs proven-optimal-II per loop.

Results are deterministic for a fixed node budget (wall-clock caps are
off by default) and cached in the digest-sharded
:class:`~repro.harness.store.ResultStore` under scheduler ``"oracle"``
with the budget folded into the config key — a different budget is a
different result.  :class:`OracleRunner` mirrors
:class:`~repro.harness.experiment.ExperimentRunner`: same cache
layout, same fingerprint discipline, same ``--jobs`` process-pool
fan-out.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..check.dependence import check_dependences, snapshot_dependences
from ..codegen.regalloc import allocate_registers
from ..codegen.verify import verify_program
from ..harness.compile import (
    Options,
    _collect_profile,
    lower_source,
    make_weight_model,
)
from ..harness.experiment import _package_fingerprint, options_for
from ..harness.store import ResultStore, StoreKey, source_hash
from ..ir.cfg import Cfg
from ..ir.dag import build_dag
from ..ir.liveness import liveness
from ..ir.loops import find_loops
from ..machine import (
    DEFAULT_CONFIG,
    MachineConfig,
    config_from_json,
    config_hash,
    config_to_json,
)
from ..sched.block import schedule_cfg
from ..sched.list_scheduler import list_schedule
from ..sched.modulo.deps import analyze_deps, match_loop
from ..sched.modulo.pipeline import (
    MAX_BODY_OPS,
    MIN_BODY_OPS,
)
from ..sched.weights import TraditionalWeights
from ..workloads.programs import WORKLOADS
from .block import (
    STATUS_OPTIMAL,
    STATUS_SKIPPED,
    BlockOracleResult,
    oracle_block,
    oracle_order,
)
from .modulo import LoopOracleResult, oracle_loop
from .solver import Budget

#: Stable schema version of the per-point gap payload (CI asserts it).
GAP_SCHEMA_VERSION = 1

#: Store-key scheduler name for oracle results, which share the result
#: store with the experiment grid without colliding with its points.
ORACLE_SCHEDULER = "oracle"

#: Loops above this size are not searched; mirrors the pipeline gate.
MAX_LOOP_OPS = MAX_BODY_OPS


@dataclass(frozen=True)
class OracleBudget:
    """Per-block / per-loop search budget.

    ``max_seconds <= 0`` (the default) disables the wall-clock cap so
    results are bit-stable run-to-run; the node cap alone is
    deterministic.
    """

    max_nodes: int = 200_000
    max_seconds: float = 0.0

    def tag(self) -> str:
        """Budget token for cache keys (the budget changes results)."""
        tag = f"n{self.max_nodes}"
        if self.max_seconds > 0:
            tag += f"t{self.max_seconds:g}"
        return tag

    def fresh(self) -> Budget:
        return Budget(max_nodes=self.max_nodes,
                      max_seconds=self.max_seconds)


DEFAULT_BUDGET = OracleBudget()


def _analyze_blocks(cfg: Cfg, options: Options,
                    budget: OracleBudget) -> list:
    """Run the block oracle on every multi-op block of *cfg*."""
    balanced = make_weight_model(
        Options(scheduler="balanced", locality=options.locality,
                config=options.config))
    traditional = TraditionalWeights(options.config)
    results: list[BlockOracleResult] = []
    for label in cfg.order:
        block = cfg.blocks[label]
        if len(block.instrs) < 2:
            continue
        dag = build_dag(block.instrs)
        weights = balanced.weights(dag)
        seeds = {
            "balanced": list_schedule(dag, balanced),
            "traditional": list_schedule(dag, traditional),
        }
        results.append(oracle_block(
            dag, options.config, weights, seeds,
            budget=budget.fresh(), label=label))
    return results


def _validate_oracle_schedules(cfg: Cfg, results: list) -> None:
    """Round-trip the oracle schedules through the PR 4 validators.

    Applies every oracle block order to *cfg*, then (a) checks the
    permutations embed the pre-scheduling dependence snapshot and (b)
    register-allocates, linearizes and machine-verifies the result.
    Raises on any violation: an illegal "optimal" schedule is a solver
    bug, never a reportable result.
    """
    snapshot = snapshot_dependences(cfg)
    for result in results:
        if result.times is None:
            continue
        block = cfg.blocks[result.label]
        order = oracle_order(result)
        block.instrs = [block.instrs[i] for i in order]
    diags = check_dependences(cfg, snapshot, "oracle.block",
                              mode="block")
    errors = [d for d in diags if d.severity == "ERROR"]
    if errors:
        raise AssertionError(
            "oracle schedule violates dependences: "
            + "; ".join(d.message for d in errors[:3]))
    allocate_registers(cfg)
    program = cfg.linearize()
    verify_program(program)


def _analyze_loops(source: str, options: Options, name: str,
                   budget: OracleBudget) -> list:
    """Run the modulo oracle on every candidate loop.

    The candidate discovery replicates the software-pipelining driver:
    loops are matched on the *scheduled* CFG (the driver runs after
    list scheduling), the dependence graph and latency model are the
    production ones, and the same size gates apply.
    """
    cfg, _, _ = lower_source(source, options, name)
    model = make_weight_model(options)
    schedule_cfg(cfg, model)
    live_in, _ = liveness(cfg)
    loops = find_loops(cfg)
    order_pos = {label: i for i, label in enumerate(cfg.order)}
    results: list[LoopOracleResult] = []
    for header in sorted(loops, key=order_pos.get):
        loop = loops[header]
        if header == cfg.entry or loop.body != {header}:
            continue
        exit_label = cfg.blocks[header].fallthrough
        live_into_exit = (live_in.get(exit_label, set())
                          if exit_label else set())
        shape = match_loop(cfg, header, live_into_exit)
        if isinstance(shape, str):
            continue
        if not MIN_BODY_OPS <= len(shape.ops) <= MAX_LOOP_OPS:
            continue
        deps = analyze_deps(shape.ops, options.config, model,
                            live_out=live_in[header] | live_into_exit)
        results.append(oracle_loop(deps, options.config,
                                   budget=budget.fresh(),
                                   label=header))
    return results


def _aggregate(blocks: list, loops: list, block_counts: dict) -> dict:
    """Fold per-block/per-loop oracle outcomes into the gap table row."""
    total = {"oracle": 0, "balanced": 0, "traditional": 0}
    weighted = {"oracle": 0, "balanced": 0, "traditional": 0}
    certified = sum(1 for b in blocks if b.status == STATUS_OPTIMAL)
    skipped = sum(1 for b in blocks if b.status == STATUS_SKIPPED)
    for b in blocks:
        count = max(1, block_counts.get(b.label, 0))
        # Compare on the combined cost (makespan + stall): the oracle
        # certifies its minimum separately from the lexicographic pair
        # and seeds it with both heuristics, so per block
        # oracle <= balanced and oracle <= traditional always hold and
        # every gap ratio is >= 1.
        costs = {
            "oracle": b.total,
            "balanced": sum(b.heuristics.get("balanced", b.cost)),
            "traditional": sum(b.heuristics.get("traditional", b.cost)),
        }
        for name, cost in costs.items():
            total[name] += cost
            weighted[name] += count * cost
    gaps = {}
    for name in ("balanced", "traditional"):
        gaps[name] = (round(weighted[name] / weighted["oracle"], 4)
                      if weighted["oracle"] else 1.0)
    loops_certified = sum(1 for l in loops if l.certified)
    return {
        "blocks": len(blocks),
        "blocks_certified": certified,
        "blocks_bailed": len(blocks) - certified,
        "blocks_skipped": skipped,
        "static_cost": total,
        "weighted_cost": weighted,
        "gap": gaps,
        "nodes": sum(b.nodes for b in blocks)
        + sum(l.nodes for l in loops),
        "loops": len(loops),
        "loops_certified": loops_certified,
        "loops_bailed": len(loops) - loops_certified,
        "loops_beyond_heuristic": sum(
            1 for l in loops if l.beyond_heuristic),
    }


def analyze_point(benchmark: str, config: str,
                  machine: Optional[MachineConfig] = None,
                  budget: OracleBudget = DEFAULT_BUDGET) -> dict:
    """Full gap analysis of one grid point; deterministic payload."""
    workload = WORKLOADS[benchmark]
    options = options_for("balanced", config, machine=machine)
    cfg, _, _ = lower_source(workload.source, options, workload.name)
    block_counts = _collect_profile(cfg, options).block_counts
    blocks = _analyze_blocks(cfg, options, budget)
    _validate_oracle_schedules(cfg, blocks)
    loops = _analyze_loops(workload.source, options, workload.name,
                           budget)
    payload = {
        "schema": GAP_SCHEMA_VERSION,
        "benchmark": benchmark,
        "config": config,
        "budget": budget.tag(),
        "validated": True,
        "summary": _aggregate(blocks, loops, block_counts),
        "blocks": [b.to_json() for b in blocks],
        "loops": [l.to_json() for l in loops],
    }
    return payload


def _oracle_pool_run(benchmark: str, config: str, cache_dir: str,
                     use_cache: bool, fingerprint: str,
                     budget_nodes: int, budget_seconds: float,
                     machine_json: Optional[dict] = None):
    """Worker entry point: one oracle point in a child process."""
    machine = config_from_json(machine_json) if machine_json else None
    runner = OracleRunner(
        cache_dir=Path(cache_dir), fingerprint=fingerprint,
        machine_config=machine,
        budget=OracleBudget(budget_nodes, budget_seconds))
    runner.use_cache = use_cache
    return benchmark, config, runner.run(benchmark, config)


class OracleRunner:
    """Caches and fans out gap analyses like the experiment runner.

    Results share the experiment cache's :class:`ResultStore` (and its
    key discipline) under the reserved scheduler name ``"oracle"``;
    the search budget is folded into the config component of the key
    because the budget changes what can be certified.
    """

    def __init__(self, cache_dir: Optional[Path] = None,
                 jobs: int = 1, verbose: bool = False,
                 fingerprint: Optional[str] = None,
                 machine_config: Optional[MachineConfig] = None,
                 budget: OracleBudget = DEFAULT_BUDGET) -> None:
        if cache_dir is None:
            cache_dir = Path(
                os.environ.get("REPRO_CACHE_DIR",
                               Path.home() / ".cache" / "repro-pldi95"))
        self.cache_dir = Path(cache_dir)
        self.use_cache = os.environ.get("REPRO_NO_CACHE") != "1"
        self.jobs = max(1, jobs)
        self.verbose = verbose
        self.budget = budget
        self.machine_config = machine_config
        self._machine_hash = config_hash(machine_config
                                         or DEFAULT_CONFIG)
        self._store = ResultStore(self.cache_dir)
        self._fingerprint = fingerprint or _package_fingerprint()
        self._memory: dict[tuple[str, str], dict] = {}

    def _store_key(self, benchmark: str, config: str) -> StoreKey:
        workload = WORKLOADS[benchmark]
        return StoreKey(
            benchmark=benchmark, scheduler=ORACLE_SCHEDULER,
            config=f"{config}@{self.budget.tag()}",
            fingerprint=self._fingerprint,
            source_hash=source_hash(workload.source),
            machine_hash=self._machine_hash)

    def run(self, benchmark: str, config: str) -> dict:
        """Gap analysis for one point (cached)."""
        key = (benchmark, config)
        if key in self._memory:
            return self._memory[key]
        store_key = self._store_key(benchmark, config)
        payload = self._store.load(store_key) if self.use_cache else None
        if payload is None or payload.get("schema") != GAP_SCHEMA_VERSION:
            if self.verbose:
                print(f"  oracle {benchmark} / {config}")
            payload = analyze_point(benchmark, config,
                                    machine=self.machine_config,
                                    budget=self.budget)
            if self.use_cache:
                self._store.store(store_key, payload)
        self._memory[key] = payload
        return payload

    def sweep(self, benchmarks: Optional[list] = None,
              configs: Optional[list] = None,
              jobs: Optional[int] = None) -> list:
        """Gap analyses for a grid, parallel over a process pool."""
        grid = [(benchmark, config)
                for benchmark in (benchmarks or list(WORKLOADS))
                for config in (configs or ["base"])]
        jobs = self.jobs if jobs is None else max(1, jobs)
        pending = []
        for key in dict.fromkeys(grid):
            if key in self._memory:
                continue
            if self.use_cache:
                payload = self._store.load(self._store_key(*key))
                if payload is not None and \
                        payload.get("schema") == GAP_SCHEMA_VERSION:
                    self._memory[key] = payload
                    continue
            pending.append(key)
        if len(pending) <= 1 or jobs == 1:
            for key in pending:
                self.run(*key)
        else:
            self._sweep_parallel(pending, jobs)
        return [self._memory[key] for key in grid]

    def _sweep_parallel(self, pending: list, jobs: int) -> None:
        machine_json = config_to_json(self.machine_config) \
            if self.machine_config is not None else None
        with ProcessPoolExecutor(
                max_workers=min(jobs, len(pending))) as pool:
            futures = {
                pool.submit(_oracle_pool_run, benchmark, config,
                            str(self.cache_dir), self.use_cache,
                            self._fingerprint, self.budget.max_nodes,
                            self.budget.max_seconds, machine_json):
                    (benchmark, config)
                for benchmark, config in pending}
            for future in as_completed(futures):
                benchmark, config, payload = future.result()
                self._memory[(benchmark, config)] = payload


def oracle_summary(payloads: list) -> dict:
    """Manifest-ready aggregate over a list of gap payloads.

    Keyed per benchmark/config point, plus suite totals — this is the
    ``oracle`` section of manifest v4 and what ``repro obs-diff``
    gates on.
    """
    points = {}
    totals = {"blocks": 0, "blocks_certified": 0, "blocks_bailed": 0,
              "loops": 0, "loops_certified": 0,
              "loops_beyond_heuristic": 0}
    for payload in payloads:
        summary = payload["summary"]
        points[f"{payload['benchmark']}/{payload['config']}"] = {
            "gap_balanced": summary["gap"]["balanced"],
            "gap_traditional": summary["gap"]["traditional"],
            "blocks": summary["blocks"],
            "blocks_certified": summary["blocks_certified"],
            "loops": summary["loops"],
            "loops_certified": summary["loops_certified"],
            "loops_beyond_heuristic":
                summary["loops_beyond_heuristic"],
        }
        for field in ("blocks", "blocks_certified", "blocks_bailed",
                      "loops", "loops_certified",
                      "loops_beyond_heuristic"):
            totals[field] += summary[field]
    return {
        "schema": GAP_SCHEMA_VERSION,
        "budget": payloads[0]["budget"] if payloads else "",
        "points": dict(sorted(points.items())),
        "totals": totals,
    }


def attach_oracle(manifest_path: Path, summary: dict) -> None:
    """Atomically rewrite a run manifest with the ``oracle`` section."""
    from ..harness.store import atomic_write_json

    path = Path(manifest_path)
    data = json.loads(path.read_text())
    data["oracle"] = summary
    atomic_write_json(path, data)
