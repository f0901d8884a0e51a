"""Experiment runner: the paper's scheduler x optimization grid.

One *configuration* is a named point of the evaluation grid (paper
section 4): a scheduler (balanced/traditional) combined with loop
unrolling (0/4/8), trace scheduling, and locality analysis.  The runner
compiles every workload under a configuration, simulates it, and
returns a compact :class:`RunResult`.

Results are cached on disk (keyed by the grid point and a hash of the
package sources, which include every workload program and the machine
model), so regenerating all tables after the first full run is cheap.
Cache writes are atomic (temp file + ``os.replace``) so concurrent or
interrupted runs never leave a torn entry; corrupt entries are
discarded and recomputed.
Set ``REPRO_CACHE_DIR`` to relocate the cache and ``REPRO_NO_CACHE=1``
to disable it.

The grid points are embarrassingly parallel: ``sweep(jobs=N)`` fans
the uncached points out over a :class:`ProcessPoolExecutor` (one
worker call per ``(benchmark, scheduler, config)`` point) and returns
results in deterministic grid order regardless of completion order.
:meth:`ExperimentRunner.run_pending` is that loop, cache and pool
alike; the scheduling oracle's sweep (:mod:`repro.oracle.gap`) runs
on it too.
Every executed point records its phase timings (the self seconds of
the observer spans inside its ``grid-point`` span), simulated-instruction
throughput and its fast-engine code-cache hits and misses.  ``sweep``
writes a structured JSON *run manifest* next to the cache; it is the
only record of a sweep, and also counts the torn store entries the
runner dropped and the orphaned temp files it reaped.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import signal
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

from ..machine import Simulator, fastsim
from ..obs import NULL_OBSERVER, Observer
from ..workloads.programs import WORKLOADS, Workload
from .compile import Options, compile_source
from .store import ResultStore, StoreKey, atomic_write_json

#: The paper's configuration axes, by short name.
CONFIGS: dict[str, dict] = {
    "base": {},
    "lu4": {"unroll": 4},
    "lu8": {"unroll": 8},
    "trs4": {"unroll": 4, "trace": True},
    "trs8": {"unroll": 8, "trace": True},
    "la": {"locality": True},
    "la+lu4": {"locality": True, "unroll": 4},
    "la+lu8": {"locality": True, "unroll": 8},
    "la+trs4": {"locality": True, "unroll": 4, "trace": True},
    "la+trs8": {"locality": True, "unroll": 8, "trace": True},
    "swp": {"swp": True},
    "la+swp": {"locality": True, "swp": True},
}

SCHEDULERS = ("balanced", "traditional")

#: Cache roots already swept for orphaned temp files this process.
_REAPED_ROOTS: set[Path] = set()

MANIFEST_NAME = "run-manifest.json"

#: Manifest schema version.  v3 added the ``partial`` flag (graceful
#: shutdown writes a well-formed manifest for the completed prefix of
#: the grid).  v4 added the
#: optional ``oracle`` section (heuristic-gap summary from
#: ``repro.oracle``, attached by the ``--oracle`` CLI flag and gated
#: by ``repro obs-diff``).  v5 added a ``metrics`` section (a metrics
#: registry's snapshot; v7 drops it).  v6 added the optional
#: ``analysis`` section (dependence/pressure summary from
#: ``repro analyze --attach``, gated exactly by ``repro obs-diff``).
#: v7 added the per-run ``code_cache_hits``/``code_cache_misses`` and
#: the sweep-level ``store_errors``/``orphans_reaped`` counts; older
#: readers reject the new run keys.  v8 keys ``phase_seconds`` by span
#: name (self seconds, summing to ``total_seconds``): ``compile`` is
#: now only the glue inside ``compile_source``, and ``sim_codegen`` is
#: folded into ``sim-build``.
MANIFEST_VERSION = 8


@dataclass
class RunResult:
    """Everything the paper's tables need from one simulated run."""

    benchmark: str
    scheduler: str
    config: str
    total_cycles: int
    instructions: int
    load_interlock_cycles: int
    fixed_interlock_cycles: int
    icache_stall_cycles: int
    branch_stall_cycles: int
    mshr_stall_cycles: int
    spill_loads: int
    spill_stores: int
    loads: int
    stores: int
    branches: int
    short_int: int
    long_int: int
    short_fp: int
    long_fp: int
    l1d_misses: int
    l2_misses: int
    l3_misses: int
    branch_mispredicts: int
    static_instructions: int
    spill_slots: int
    #: Software-pipelining outcome (all zero/empty when swp is off).
    #: ``swp_loops`` keeps the per-loop detail (one
    #: :meth:`~repro.sched.modulo.LoopPipelineStats.to_json` dict per
    #: candidate loop) so reports can audit II against MII from cache.
    swp_attempted: int = 0
    swp_pipelined: int = 0
    swp_mean_ii_over_mii: float = 0.0
    swp_max_ii_over_mii: float = 0.0
    swp_loops: list = field(default_factory=list)

    @property
    def load_interlock_fraction(self) -> float:
        return (self.load_interlock_cycles / self.total_cycles
                if self.total_cycles else 0.0)


@dataclass
class RunTiming:
    """Wall-clock observability for one grid point (not part of the
    deterministic :class:`RunResult`, so it never enters the cache key
    or result equality)."""

    benchmark: str
    scheduler: str
    config: str
    cached: bool
    #: Self seconds per span name, for every span opened inside the
    #: point's ``grid-point`` span (``grid-point`` itself included);
    #: empty for cached points.
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: Sum of ``phase_seconds``: the ``grid-point`` span's duration.
    total_seconds: float = 0.0
    simulated_instructions: int = 0
    #: Full software-pipelining record (ModuloStats.to_json()) for
    #: executed points of swp configurations; None otherwise.
    modulo: Optional[dict] = None
    #: Which simulator engine executed this point ("fast", "reference",
    #: "profile"); None for cached points that were never re-simulated.
    sim_mode: Optional[str] = None
    #: Fast-engine builds for this point (the timing engine and the
    #: trace profile engine) that reused a cached code object, and
    #: builds that compiled fresh bytecode.
    code_cache_hits: int = 0
    code_cache_misses: int = 0

    @property
    def instructions_per_second(self) -> float:
        """Simulated-instruction throughput of the simulate phase."""
        sim = self.phase_seconds.get("simulate", 0.0)
        return self.simulated_instructions / sim if sim > 0 else 0.0

    def to_json(self) -> dict:
        data = asdict(self)
        data["instructions_per_second"] = round(
            self.instructions_per_second, 1)
        return data


@dataclass
class ManifestRun:
    """One grid point of a run manifest (RunTiming + result extras)."""

    benchmark: str
    scheduler: str
    config: str
    cached: bool
    phase_seconds: dict = field(default_factory=dict)
    total_seconds: float = 0.0
    simulated_instructions: int = 0
    modulo: Optional[dict] = None
    sim_mode: Optional[str] = None
    code_cache_hits: int = 0
    code_cache_misses: int = 0
    instructions_per_second: float = 0.0
    total_cycles: int = 0
    load_interlock_cycles: int = 0

    def timing(self) -> RunTiming:
        """The :class:`RunTiming` this entry was serialized from."""
        return RunTiming(
            benchmark=self.benchmark, scheduler=self.scheduler,
            config=self.config, cached=self.cached,
            phase_seconds=dict(self.phase_seconds),
            total_seconds=self.total_seconds,
            simulated_instructions=self.simulated_instructions,
            modulo=self.modulo, sim_mode=self.sim_mode,
            code_cache_hits=self.code_cache_hits,
            code_cache_misses=self.code_cache_misses)

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class Manifest:
    """A parsed run manifest; round-trips through JSON losslessly."""

    version: int
    fingerprint: str
    jobs: int
    grid_points: int
    executed: int
    cached: int
    wall_seconds: float
    simulated_instructions: int
    #: Torn entries the runner's store dropped, and orphaned temp
    #: files it reaped at startup (v7).
    store_errors: int = 0
    orphans_reaped: int = 0
    runs: list[ManifestRun] = field(default_factory=list)
    modulo: Optional[dict] = None
    trace: Optional[dict] = None
    #: Heuristic-gap summary (:func:`repro.oracle.gap.oracle_summary`),
    #: attached after the sweep when ``--oracle`` is given (v4).
    oracle: Optional[dict] = None
    #: Dependence/pressure summary attached by
    #: ``repro analyze --attach`` (v6).
    analysis: Optional[dict] = None
    #: True when the sweep was interrupted (SIGTERM/SIGINT, a worker
    #: death) and the manifest covers only the completed grid points.
    partial: bool = False

    def to_json(self) -> dict:
        data = asdict(self)
        data["runs"] = [run.to_json() for run in self.runs]
        for section in ("modulo", "trace", "oracle", "analysis"):
            if data[section] is None:
                del data[section]
        return data

    def run_for(self, benchmark: str, scheduler: str,
                config: str) -> Optional[ManifestRun]:
        for run in self.runs:
            if (run.benchmark, run.scheduler, run.config) == \
                    (benchmark, scheduler, config):
                return run
        return None


def parse_manifest(data: dict) -> Manifest:
    """Build a :class:`Manifest` from a manifest JSON dict."""
    runs = [ManifestRun(**entry) for entry in data.get("runs", [])]
    return Manifest(
        version=data.get("version", 1),
        fingerprint=data.get("fingerprint", ""),
        jobs=data.get("jobs", 1),
        grid_points=data.get("grid_points", len(runs)),
        executed=data.get("executed", 0),
        cached=data.get("cached", 0),
        wall_seconds=data.get("wall_seconds", 0.0),
        simulated_instructions=data.get("simulated_instructions", 0),
        store_errors=data.get("store_errors", 0),
        orphans_reaped=data.get("orphans_reaped", 0),
        runs=runs,
        modulo=data.get("modulo"),
        trace=data.get("trace"),
        oracle=data.get("oracle"),
        analysis=data.get("analysis"),
        partial=data.get("partial", False))


def load_manifest(path: str | Path) -> Manifest:
    """Load a run manifest written by :meth:`ExperimentRunner.sweep`."""
    return parse_manifest(json.loads(Path(path).read_text()))


def attach_section(manifest_path: Path, section: str,
                   summary: dict) -> None:
    """Atomically rewrite a run manifest with one more section
    (``oracle`` or ``analysis``), keeping everything else."""
    path = Path(manifest_path)
    data = json.loads(path.read_text())
    data[section] = summary
    atomic_write_json(path, data)


def options_for(scheduler: str, config: str) -> Options:
    """Build compiler options for a named grid point."""
    return Options(scheduler=scheduler, **CONFIGS[config])


def _package_fingerprint(root: Optional[Path] = None) -> str:
    """Hash of all package sources: invalidates the cache on changes.

    Both each file's repo-relative *path* and its contents are mixed
    into the digest (with length framing), so renaming a module or
    moving code between files changes the fingerprint even when the
    concatenated bytes would not.
    """
    if root is None:
        root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix().encode()
        body = path.read_bytes()
        digest.update(len(rel).to_bytes(4, "little"))
        digest.update(rel)
        digest.update(len(body).to_bytes(8, "little"))
        digest.update(body)
    return digest.hexdigest()[:16]


def _execute_grid_point(workload: Workload, scheduler: str,
                        config: str,
                        observer: Observer = NULL_OBSERVER
                        ) -> tuple[RunResult, RunTiming]:
    """Compile and simulate one grid point; its phases are the self
    seconds of the spans inside its ``grid-point`` span."""
    hits, misses = fastsim.code_cache_hits, fastsim.code_cache_misses
    observer.take_seconds()     # drop spans timed before this point
    with observer.span("grid-point", benchmark=workload.name,
                       scheduler=scheduler, config=config):
        options = options_for(scheduler, config)
        compiled = compile_source(workload.source, options,
                                  workload.name, observer=observer)
        stall_profile = observer.stall_profile(workload.name, scheduler,
                                               config)
        with observer.span("sim-build"):
            sim = Simulator(compiled.program, config=options.config,
                            stall_profile=stall_profile)
            sim.build()
        with observer.span("simulate") as span:
            metrics = sim.run()
            if observer.enabled:
                span.annotate(cycles=metrics.total_cycles,
                              instructions=metrics.instructions,
                              load_interlock_cycles=(
                                  metrics.load_interlock_cycles))
    phases = observer.take_seconds()
    result = RunResult(
        benchmark=workload.name, scheduler=scheduler, config=config,
        total_cycles=metrics.total_cycles,
        instructions=metrics.instructions,
        load_interlock_cycles=metrics.load_interlock_cycles,
        fixed_interlock_cycles=metrics.fixed_interlock_cycles,
        icache_stall_cycles=metrics.icache_stall_cycles,
        branch_stall_cycles=metrics.branch_stall_cycles,
        mshr_stall_cycles=metrics.mshr_stall_cycles,
        spill_loads=metrics.spill_loads,
        spill_stores=metrics.spill_stores,
        loads=metrics.loads, stores=metrics.stores,
        branches=metrics.branches,
        short_int=metrics.short_int, long_int=metrics.long_int,
        short_fp=metrics.short_fp, long_fp=metrics.long_fp,
        l1d_misses=metrics.l1d.misses, l2_misses=metrics.l2.misses,
        l3_misses=metrics.l3.misses,
        branch_mispredicts=metrics.branch_mispredicts,
        static_instructions=len(compiled.program),
        spill_slots=compiled.allocation.n_slots)
    modulo = None
    if compiled.modulo_stats is not None:
        ms = compiled.modulo_stats
        result.swp_attempted = ms.attempted
        result.swp_pipelined = ms.pipelined
        result.swp_mean_ii_over_mii = ms.mean_ii_over_mii or 0.0
        result.swp_max_ii_over_mii = ms.max_ii_over_mii or 0.0
        result.swp_loops = [s.to_json() for s in ms.loops]
        modulo = ms.to_json()
    timing = RunTiming(
        benchmark=workload.name, scheduler=scheduler, config=config,
        cached=False, phase_seconds=phases,
        total_seconds=sum(phases.values()),
        simulated_instructions=metrics.instructions, modulo=modulo,
        sim_mode=sim.mode_used,
        code_cache_hits=fastsim.code_cache_hits - hits,
        code_cache_misses=fastsim.code_cache_misses - misses)
    return result, timing


def _worker_runner(cache_dir: str, use_cache: bool,
                   fingerprint: str) -> "ExperimentRunner":
    """A pool worker's runner on its parent's store.  The parent's
    fingerprint is passed in, so the worker never re-hashes the package
    sources."""
    runner = ExperimentRunner(cache_dir=Path(cache_dir),
                              fingerprint=fingerprint)
    runner.use_cache = use_cache
    return runner


def _pool_run(benchmark: str, scheduler: str, config: str,
              cache_dir: str, use_cache: bool, fingerprint: str):
    """Worker entry point: one grid point in a child process."""
    runner = _worker_runner(cache_dir, use_cache, fingerprint)
    result = runner.run(benchmark, scheduler, config)
    return result, runner.timings.get((benchmark, scheduler, config))


def _arm_sigterm():
    """Make SIGTERM raise (like SIGINT) for the duration of a sweep,
    so ``kill <pid>`` drains into the partial-manifest path instead of
    dying mid-write.  Returns a restore callback; a no-op off the main
    thread, where signals cannot be armed."""
    if threading.current_thread() is not threading.main_thread():
        return lambda: None

    def _on_sigterm(signum, frame):
        raise SystemExit(128 + signum)

    try:
        previous = signal.signal(signal.SIGTERM, _on_sigterm)
    except (ValueError, OSError):
        return lambda: None
    return lambda: signal.signal(signal.SIGTERM, previous)


def fan_out(worker, points: list[tuple], args: tuple, jobs: int,
            on_result) -> None:
    """Call ``worker(*point, *args)`` for every point over a pool of at
    most *jobs* processes, and ``on_result(point, value)`` with each
    return value in completion order.

    Any interruption (a signal, a worker dying under the pool, an
    exception from *on_result*) cancels the queued points and abandons
    the running ones before it propagates.
    """
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(points)))
    futures = {}
    try:
        for point in points:
            futures[pool.submit(worker, *point, *args)] = point
        for future in as_completed(futures):
            on_result(futures[future], future.result())
    except BaseException:
        # Cancel here: the pool's own cancel_futures runs later, in
        # its manager thread, and is skipped once the pool has been
        # garbage-collected -- which unwinding this frame allows.
        for future in futures:
            future.cancel()
        pool.shutdown(wait=False)
        raise
    pool.shutdown(wait=True)


class ExperimentRunner:
    """Compiles, simulates and caches the full experiment grid."""

    def __init__(self, cache_dir: Optional[Path] = None,
                 verbose: bool = False, jobs: int = 1,
                 fingerprint: Optional[str] = None,
                 observer: Observer = NULL_OBSERVER) -> None:
        if cache_dir is None:
            cache_dir = Path(
                os.environ.get("REPRO_CACHE_DIR",
                               Path.home() / ".cache" / "repro-pldi95"))
        self.cache_dir = Path(cache_dir)
        self.use_cache = os.environ.get("REPRO_NO_CACHE") != "1"
        self.verbose = verbose
        self.jobs = max(1, jobs)
        self._store = ResultStore(self.cache_dir)
        #: Orphaned temp files this runner reaped at startup.
        self.orphans_reaped = 0
        if self.use_cache:
            self._reap_once()
        #: Observability sink.  An *enabled* observer needs in-process
        #: execution for stall attribution, so cached results are
        #: bypassed (recomputation is deterministic and re-publishes
        #: identical cache entries) and sweeps run serially.  The
        #: default no-op observer changes nothing: cache keys, cycle
        #: counts and parallel fan-out are exactly as before.
        self.observer = observer
        # Hashing the package is not free; workers receive the parent's
        # fingerprint instead of recomputing it per process.
        self._fingerprint = fingerprint or _package_fingerprint()
        self._memory: dict[tuple[str, str, str], RunResult] = {}
        #: Observability for every grid point touched by this runner.
        self.timings: dict[tuple[str, str, str], RunTiming] = {}

    # -------------------------------------------------------------- cache
    def _reap_once(self) -> None:
        """Reap orphaned temp files, once per cache dir per process
        (forked grid workers inherit the guard and skip the scan)."""
        root = self.cache_dir.resolve()
        if root in _REAPED_ROOTS:
            return
        _REAPED_ROOTS.add(root)
        self.orphans_reaped = len(self._store.reap_orphans())

    def store_key(self, benchmark: str, scheduler: str,
                  config: str) -> StoreKey:
        return StoreKey(benchmark=benchmark, scheduler=scheduler,
                        config=config, fingerprint=self._fingerprint)

    def load(self, key: StoreKey) -> Optional[dict]:
        """The stored payload for *key*; None on a miss or with the
        cache off."""
        return self._store.load(key) if self.use_cache else None

    def save(self, key: StoreKey, payload: dict) -> None:
        if self.use_cache:
            self._store.store(key, payload)

    def _load_cached(self, key: tuple[str, str, str]
                     ) -> Optional[RunResult]:
        store_key = self.store_key(*key)
        data = self.load(store_key)
        if data is None:
            return None
        try:
            return RunResult(**data)
        except TypeError:
            # Stale-schema entry: drop it so the refreshed result
            # replaces it (another process may already have).
            try:
                self._store.path_for(store_key).unlink(missing_ok=True)
            except OSError:
                pass
            return None

    # --------------------------------------------------------------- runs
    def run(self, benchmark: str, scheduler: str, config: str) -> RunResult:
        """One grid point for one benchmark (cached)."""
        key = (benchmark, scheduler, config)
        if key in self._memory:
            return self._memory[key]
        result = None if self.observer.enabled else \
            self._load_cached(key)
        if result is not None:
            self.timings[key] = RunTiming(
                benchmark=benchmark, scheduler=scheduler, config=config,
                cached=True, simulated_instructions=result.instructions)
        else:
            if self.verbose:
                print(f"  running {benchmark} / {scheduler} / {config}",
                      file=sys.stderr)
            result, timing = _execute_grid_point(
                WORKLOADS[benchmark], scheduler, config,
                observer=self.observer)
            self.timings[key] = timing
            self.save(self.store_key(*key), asdict(result))
        self._memory[key] = result
        return result

    # ------------------------------------------------------------- sweeps
    def sweep(self, benchmarks: Optional[list[str]] = None,
              schedulers=SCHEDULERS,
              configs: Optional[list[str]] = None,
              jobs: Optional[int] = None) -> list[RunResult]:
        """Run (or fetch) a whole sub-grid.

        With ``jobs > 1`` the uncached grid points fan out over a
        process pool; results come back in deterministic grid order
        (benchmark-major, then scheduler, then config) regardless of
        completion order, bit-identical to the serial path.

        Interruption is graceful: SIGTERM/SIGINT (and a worker dying
        under the pool) cancel the not-yet-started grid points, but the
        completed prefix still lands in a well-formed run manifest
        marked ``"partial": true`` before the interruption is re-raised.
        """
        grid = [(benchmark, scheduler, config)
                for benchmark in (benchmarks or list(WORKLOADS))
                for scheduler in schedulers
                for config in (configs or list(CONFIGS))]
        jobs = self.jobs if jobs is None else max(1, jobs)
        if self.observer.enabled:
            # Spans and stall profiles live in this process: run every
            # point here (serially) and never satisfy one from disk.
            jobs = 1
        sweep_start = time.perf_counter()

        # Resolve memory/disk hits in-process; only misses need a core.
        pending: list[tuple[str, str, str]] = []
        for key in dict.fromkeys(grid):
            if key in self._memory:
                continue
            cached = None if self.observer.enabled else \
                self._load_cached(key)
            if cached is None:
                pending.append(key)
                continue
            self._memory[key] = cached
            self.timings[key] = RunTiming(
                *key, cached=True,
                simulated_instructions=cached.instructions)

        failure: Optional[BaseException] = None
        try:
            self.run_pending(pending, jobs, self.run, _pool_run,
                             self._collect)
        except BaseException as exc:   # incl. KeyboardInterrupt/SystemExit
            failure = exc

        try:
            self._write_manifest(grid, jobs,
                                 time.perf_counter() - sweep_start,
                                 partial=failure is not None)
        except Exception:
            # Never mask the original interruption with a manifest
            # error; a clean sweep still reports it.
            if failure is None:
                raise
        if failure is not None:
            raise failure
        return [self._memory[key] for key in grid]

    def _collect(self, key: tuple[str, str, str], returned) -> None:
        """Keep one :func:`_pool_run` result from a pool worker."""
        result, timing = returned
        self._memory[key] = result
        if timing is not None:
            self.timings[key] = timing
            # Keep this process's code-cache counts covering the
            # builds its workers ran.
            fastsim.code_cache_hits += timing.code_cache_hits
            fastsim.code_cache_misses += timing.code_cache_misses

    def run_pending(self, points: list[tuple], jobs: int, run_here,
                    worker, on_result) -> None:
        """Compute *points* (each a key tuple, none yet in memory or
        the store) with SIGTERM armed to raise.

        With one job or one point they run here, one by one, through
        ``run_here(*point)``.  Otherwise :func:`fan_out` calls
        ``worker(*point, cache_dir, use_cache, fingerprint)`` in pool
        processes (:func:`_worker_runner` reopens this runner's store
        there) and hands each return value to
        ``on_result(point, value)``.  Any interruption cancels the
        points not yet started and propagates.
        """
        done = itertools.count(1)

        def collect(point: tuple, value) -> None:
            on_result(point, value)
            self._progress(next(done), len(points), point)

        restore_sigterm = _arm_sigterm()
        try:
            if len(points) <= 1 or jobs == 1:
                for point in points:
                    run_here(*point)
                    self._progress(next(done), len(points), point)
            else:
                fan_out(worker, points,
                        (str(self.cache_dir), self.use_cache,
                         self._fingerprint), jobs, collect)
        finally:
            restore_sigterm()

    def _progress(self, done: int, total: int, key: tuple) -> None:
        if not self.verbose:
            return
        timing = self.timings.get(key)
        detail = ""
        if timing is not None and not timing.cached:
            detail = (f" {timing.total_seconds:.2f}s"
                      f" ({timing.instructions_per_second / 1e3:.0f}k"
                      f" sim instr/s)")
        print(f"  [{done}/{total}] {'/'.join(key)}{detail}",
              file=sys.stderr)

    # ----------------------------------------------------------- manifest
    @property
    def manifest_path(self) -> Path:
        return self.cache_dir / MANIFEST_NAME

    def _write_manifest(self, grid: list[tuple[str, str, str]],
                        jobs: int, wall_seconds: float,
                        partial: bool = False) -> None:
        """Structured JSON record of the last sweep, next to the cache."""
        if not self.use_cache:
            return
        runs = []
        for key in dict.fromkeys(grid):
            timing = self.timings.get(key)
            result = self._memory.get(key)
            if timing is None or result is None:
                continue
            entry = timing.to_json()
            entry["total_cycles"] = result.total_cycles
            entry["load_interlock_cycles"] = (
                result.load_interlock_cycles)
            runs.append(entry)
        executed = [r for r in runs if not r["cached"]]
        modulo = self._modulo_aggregates(grid)
        payload = {
            "version": MANIFEST_VERSION,
            "fingerprint": self._fingerprint,
            "partial": partial,
            "jobs": jobs,
            "grid_points": len(dict.fromkeys(grid)),
            "executed": len(executed),
            "cached": len(runs) - len(executed),
            "wall_seconds": round(wall_seconds, 3),
            "simulated_instructions": sum(
                r["simulated_instructions"] for r in executed),
            "store_errors": self._store.errors,
            "orphans_reaped": self.orphans_reaped,
            "runs": runs,
        }
        if modulo:
            payload["modulo"] = modulo
        if self.observer.enabled:
            payload["trace"] = self.observer.summary()
        atomic_write_json(self.manifest_path, payload)

    def _modulo_aggregates(self, grid: list[tuple[str, str, str]]) -> dict:
        """Per-(scheduler, config) software-pipelining aggregates.

        Built from the (cache-surviving) :class:`RunResult` fields, so
        a fully-cached sweep still reports them."""
        groups: dict[str, list[RunResult]] = {}
        for key in dict.fromkeys(grid):
            result = self._memory.get(key)
            if result is None or not result.swp_attempted:
                continue
            groups.setdefault(f"{key[1]}/{key[2]}", []).append(result)
        out: dict[str, dict] = {}
        for name, results in sorted(groups.items()):
            ratios = [r.swp_max_ii_over_mii for r in results
                      if r.swp_pipelined]
            means = [r.swp_mean_ii_over_mii for r in results
                     if r.swp_pipelined]
            entry = {
                "benchmarks": len(results),
                "loops_attempted": sum(r.swp_attempted for r in results),
                "loops_pipelined": sum(r.swp_pipelined for r in results),
            }
            if ratios:
                entry["max_ii_over_mii"] = round(max(ratios), 4)
                entry["mean_ii_over_mii"] = round(
                    sum(means) / len(means), 4)
            out[name] = entry
        return out


def geometric_mean(values: list[float]) -> float:
    """Geometric mean in the log domain.

    Multiplying raw cycle counts overflows to ``inf`` (or underflows
    to ``0.0``) long before a 340-point grid is folded in; summing
    logs with :func:`math.fsum` is exact to the last bit instead.
    Non-positive inputs have no geometric mean and raise rather than
    silently corrupting the result.
    """
    if not values:
        return 0.0
    for value in values:
        if value <= 0:
            raise ValueError(
                f"geometric_mean requires positive values, got {value!r}")
    return math.exp(math.fsum(math.log(value) for value in values)
                    / len(values))


def arithmetic_mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0
