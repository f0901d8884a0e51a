"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compile FILE``   — compile a mini-language source file and print
  the final machine-code listing (``--cfg`` for the block-level view);
* ``run FILE``       — compile, simulate, and print the metrics;
* ``bench [NAMES]``  — run workload benchmarks under the full grid;
* ``tables [N ...]`` — regenerate the paper's tables;
* ``report``         — paper-vs-measured markdown report;
* ``profile BENCH``  — compile + simulate one benchmark with full
  observability: stall-attribution table, schedule provenance, and a
  Perfetto-loadable trace;
* ``oracle [NAMES]`` — combinatorial scheduling oracle: certified
  optimal block schedules and loop IIs, reported as the "heuristic
  gap" vs balanced/traditional scheduling (``--oracle-budget`` caps
  the search; bailed proofs are reported honestly, never inflated);
* ``obs-diff A B``   — the regression gate: exit non-zero unless
  manifest B reproduces every cycle, load-interlock, oracle and
  analysis count that baseline A records, exactly;
* ``check [BENCH]``  — static analysis: validated compiles plus lints
  over benchmarks; exits non-zero iff an error diagnostic is found;
* ``analyze [BENCH]`` — symbolic dependence + register-pressure
  report: per-loop memory-pair verdicts (independent / exact carried
  distance / unknown), per-bank MAXLIVE vs the allocatable register
  files, and the analysis lints; ``--attach`` adds the manifest
  ``analysis`` section ``obs-diff`` gates;
* ``workloads``      — list the 17 benchmarks.

Common compiler flags: ``--scheduler {balanced,traditional,none}``,
``--unroll {0,4,8}``, ``--trace``, ``--locality``, ``--swp``,
``--issue-width N``.  ``bench``/``tables``/``report`` accept
``--oracle`` to run the scheduling oracle alongside the grid (the gap
summary is attached to the run manifest and, for ``report``, rendered
as its own section), ``--configs a,b,c`` to restrict the grid, and
``--trace [PREFIX]`` to record a pipeline trace (JSONL + Chrome
trace-event files, written at ``PREFIX.jsonl`` / ``PREFIX.chrome.json``).
``REPRO_VALIDATE_IR=1`` re-checks the IR invariants at every pass
boundary of every compile.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    ALL_TABLES,
    CONFIGS,
    TABLE_CONFIGS,
    ExperimentRunner,
    Options,
    attach_section,
    compile_source,
    options_for,
)
from .machine import DEFAULT_CONFIG, Simulator
from .obs import NULL_OBSERVER, Observer, TracingObserver
from .workloads import WORKLOAD_ORDER, WORKLOADS, benchmark_names


def _default_jobs():
    """Raw ``$REPRO_JOBS`` (validated later: a bad value must produce
    a one-line error, not a traceback while building the parser)."""
    env = os.environ.get("REPRO_JOBS")
    return env if env and env.strip() else 1


def _resolve_jobs(jobs) -> int:
    try:
        jobs = int(jobs)
    except (TypeError, ValueError):
        raise SystemExit(
            f"repro: invalid --jobs/REPRO_JOBS value {jobs!r} "
            f"(expected an integer; 0 = all cores)")
    if jobs < 0:
        raise SystemExit(f"repro: --jobs must be >= 0, got {jobs}")
    return jobs if jobs > 0 else (os.cpu_count() or 1)


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    # No type=int: validation happens in _resolve_jobs so a bad
    # $REPRO_JOBS and a bad --jobs produce the same one-line error.
    parser.add_argument(
        "--jobs", "-j", default=_default_jobs(),
        help="worker processes for the experiment grid "
             "(default: $REPRO_JOBS or 1; 0 = all cores)")


def _add_configs_flag(parser: argparse.ArgumentParser,
                      default_note: str) -> None:
    parser.add_argument(
        "--configs", nargs="*", metavar="NAME[,NAME...]",
        help=f"grid configs, space- or comma-separated "
             f"(default: {default_note}); "
             f"known: {', '.join(CONFIGS)}")


def _resolve_configs(args: argparse.Namespace) -> list[str] | None:
    """``--configs a,b c`` -> validated list (None: no filter)."""
    names: list[str] = []
    for token in args.configs or ():
        names.extend(t for t in token.replace(",", " ").split() if t)
    unknown = [n for n in names if n not in CONFIGS]
    if unknown:
        raise SystemExit(
            f"unknown config(s): {', '.join(unknown)} "
            f"(known: {', '.join(CONFIGS)})")
    # Deduplicate, preserving order.
    return list(dict.fromkeys(names)) or None


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", nargs="?", const="repro-trace", default=None,
        metavar="PREFIX",
        help="record a pipeline trace (spans + stall attribution); "
             "writes PREFIX.jsonl and PREFIX.chrome.json "
             "(default prefix: repro-trace); forces in-process "
             "serial execution")


def _add_oracle_budget_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--oracle-budget", type=int, default=None, metavar="NODES",
        help="search-node budget per block/loop (default: 200000; "
             "deterministic — results are bit-stable for a fixed "
             "budget)")


def _add_oracle_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--oracle", action="store_true",
        help="also run the scheduling oracle (base config) and attach "
             "the heuristic-gap summary to the run manifest")
    _add_oracle_budget_flag(parser)


def _oracle_runner(args: argparse.Namespace, runner: ExperimentRunner):
    """The oracle on the command's runner: its store, jobs and pool."""
    from .oracle import DEFAULT_BUDGET, OracleRunner

    budget = DEFAULT_BUDGET
    if args.oracle_budget is not None:
        if args.oracle_budget <= 0:
            raise SystemExit(
                f"repro: --oracle-budget must be > 0, "
                f"got {args.oracle_budget}")
        budget = args.oracle_budget
    return OracleRunner(runner, budget)


def _run_oracle(oracle, benchmarks: list[str] | None = None) -> None:
    """Oracle sweep for ``--oracle``: print the summary, attach it to
    the run manifest (manifest v4) when one was written."""
    from .oracle import oracle_summary

    payloads = oracle.sweep(benchmarks=benchmarks, configs=["base"])
    summary = oracle_summary(payloads)
    totals = summary["totals"]
    print(f"oracle (budget {summary['budget']}): "
          f"{totals['blocks_certified']}/{totals['blocks']} blocks "
          f"certified, {totals['loops_certified']}/{totals['loops']} "
          f"loops certified, {totals['loops_beyond_heuristic']} loops "
          f"settled beyond the heuristic", file=sys.stderr)
    runner = oracle.runner
    if runner.use_cache and runner.manifest_path.exists():
        attach_section(runner.manifest_path, "oracle", summary)
        print(f"oracle section attached: {runner.manifest_path}",
              file=sys.stderr)


def _make_observer(args: argparse.Namespace) -> Observer:
    if getattr(args, "trace", None) is None:
        return NULL_OBSERVER
    return TracingObserver()


def _finish_trace(observer: Observer, args: argparse.Namespace) -> None:
    if not observer.enabled:
        return
    paths = observer.write(args.trace)
    print(f"trace written: {paths['jsonl']}, {paths['chrome']}",
          file=sys.stderr)


def _add_compiler_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scheduler", default="balanced",
                        choices=("balanced", "traditional", "none"))
    parser.add_argument("--unroll", type=int, default=0,
                        choices=(0, 4, 8))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--locality", action="store_true")
    parser.add_argument("--swp", action="store_true",
                        help="software-pipeline eligible innermost loops")
    parser.add_argument("--pressure", action="store_true",
                        help="register-pressure feedback in the "
                             "balanced weights (demote boosted loads "
                             "the register file cannot afford)")
    parser.add_argument("--issue-width", type=int, default=1)


def _options(args: argparse.Namespace) -> Options:
    config = DEFAULT_CONFIG
    if args.issue_width != 1:
        config = replace(config, issue_width=args.issue_width)
    options = Options(scheduler=args.scheduler, unroll=args.unroll,
                      trace=args.trace, locality=args.locality,
                      swp=args.swp, pressure=args.pressure,
                      config=config)
    try:
        options.validate()
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}")
    return options


def cmd_compile(args: argparse.Namespace) -> int:
    source = Path(args.file).read_text()
    result = compile_source(source, _options(args), Path(args.file).stem)
    if args.cfg:
        print(result.cfg.format())
    else:
        print(result.program.format())
    print(f"\n; {len(result.program)} instructions, "
          f"{len(result.cfg)} blocks, "
          f"{result.allocation.n_slots} spill slots",
          file=sys.stderr)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    source = Path(args.file).read_text()
    result = compile_source(source, _options(args), Path(args.file).stem)
    sim = Simulator(result.program, config=result.options.config)
    metrics = sim.run()
    print(metrics.summary())
    if args.dump:
        for name in args.dump:
            print(f"{name} = {sim.get_symbol(name)}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    names = benchmark_names(args.names, "bench")
    observer = _make_observer(args)
    runner = ExperimentRunner(verbose=True,
                              jobs=_resolve_jobs(args.jobs),
                              observer=observer)
    configs = _resolve_configs(args) or ["base", "lu4", "lu8"]
    # Fan the grid out first (parallel when --jobs > 1); printing below
    # then reads the warmed in-memory cache in deterministic order.
    runner.sweep(benchmarks=names, configs=configs)
    header = (f"{'benchmark':<11}{'config':<9}{'scheduler':<12}"
              f"{'cycles':>10}{'instrs':>10}{'ld-intlk%':>10}")
    print(header)
    print("-" * len(header))
    for name in names:
        for config in configs:
            for scheduler in ("balanced", "traditional"):
                result = runner.run(name, scheduler, config)
                print(f"{name:<11}{config:<9}{scheduler:<12}"
                      f"{result.total_cycles:>10}"
                      f"{result.instructions:>10}"
                      f"{100 * result.load_interlock_fraction:>9.1f}%")
    if runner.use_cache:
        print(f"run manifest: {runner.manifest_path}", file=sys.stderr)
    if args.oracle:
        _run_oracle(_oracle_runner(args, runner), benchmarks=names)
    _finish_trace(observer, args)
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    observer = _make_observer(args)
    runner = ExperimentRunner(verbose=True,
                              jobs=_resolve_jobs(args.jobs),
                              observer=observer)
    numbers = args.numbers or sorted(ALL_TABLES)
    configs = _resolve_configs(args)
    if configs is not None:
        selected = set(configs)
        kept = [n for n in numbers
                if set(TABLE_CONFIGS[n]) <= selected]
        skipped = [n for n in numbers if n not in kept]
        if skipped:
            print(f"skipping table(s) {skipped}: inputs outside "
                  f"--configs {','.join(configs)}", file=sys.stderr)
        numbers = kept
    if runner.jobs > 1 and any(n > 3 for n in numbers):
        # Warm the grid across all cores (only the selected configs).
        runner.sweep(configs=configs)
    for number in numbers:
        fn = ALL_TABLES[number]
        table = fn() if number <= 3 else fn(runner)
        print()
        print(table.format())
    if args.oracle:
        _run_oracle(_oracle_runner(args, runner))
    _finish_trace(observer, args)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .harness.report import build_report, write_report

    observer = _make_observer(args)
    runner = ExperimentRunner(verbose=True,
                              jobs=_resolve_jobs(args.jobs),
                              observer=observer)
    configs = _resolve_configs(args)
    oracle = _oracle_runner(args, runner) if args.oracle else None
    if args.output:
        text = write_report(args.output, runner, configs=configs,
                            oracle=oracle)
        print(f"report written to {args.output}", file=sys.stderr)
    else:
        text = build_report(runner, configs=configs, oracle=oracle)
    print(text)
    if oracle is not None:
        # The report already swept the oracle grid (memoized); this
        # only prints the one-line summary and attaches manifest v4.
        _run_oracle(oracle)
    _finish_trace(observer, args)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Compile + simulate one benchmark with full observability."""
    name = args.benchmark
    if name in WORKLOADS:
        source = WORKLOADS[name].source
    elif Path(name).is_file():
        source = Path(name).read_text()
        name = Path(name).stem
    else:
        raise SystemExit(
            f"repro profile: unknown benchmark {name!r} and no such "
            f"file (known: {', '.join(WORKLOAD_ORDER)})")

    observer = TracingObserver()
    options = options_for(args.scheduler, args.config)
    result = compile_source(source, options, name, observer=observer)
    stall_profile = observer.stall_profile(name, args.scheduler,
                                           args.config)
    sim = Simulator(result.program, config=options.config,
                    stall_profile=stall_profile)
    with observer.span("simulate", benchmark=name) as span:
        metrics = sim.run()
        span.annotate(cycles=metrics.total_cycles,
                      instructions=metrics.instructions)

    print(f"== {name} / {args.scheduler} / {args.config} ==")
    print(metrics.summary())
    attributed = stall_profile.total_load_interlock
    print(f"\nstall attribution ({attributed} load-interlock cycles "
          f"over {len(stall_profile.load_interlock)} static load "
          f"sites; top {args.top}):")
    print(stall_profile.format_hot_loads(
        result.program, n=args.top, total_cycles=metrics.total_cycles))
    if attributed != metrics.load_interlock_cycles:
        print(f"WARNING: attributed {attributed} != "
              f"metrics {metrics.load_interlock_cycles}",
              file=sys.stderr)
    prov = observer.provenance
    if len(prov):
        deviating = len(prov.balanced_deviations())
        print(f"\nschedule provenance ({len(prov)} loads, "
              f"{deviating} with non-architectural weights; "
              f"top {args.top} by weight delta):")
        print(prov.format_table(n=args.top))
    print("\npipeline phases:")
    for span_name, entry in \
            observer.trace.summary()["by_name"].items():
        print(f"  {span_name:<18} x{entry['count']:<4} "
              f"{entry['us'] / 1e3:9.2f} ms")
    paths = observer.write(args.out)
    print(f"\ntrace written: {paths['jsonl']}, {paths['chrome']}",
          file=sys.stderr)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    import json as _json

    from .oracle import oracle_summary

    names = benchmark_names(args.names, "oracle")
    configs = _resolve_configs(args) or ["base"]
    oracle = _oracle_runner(args, ExperimentRunner(
        verbose=True, jobs=_resolve_jobs(args.jobs)))
    payloads = oracle.sweep(benchmarks=names, configs=configs)
    if args.json:
        print(_json.dumps(payloads if args.full
                          else oracle_summary(payloads),
                          indent=2, sort_keys=True))
        return 0
    header = (f"{'benchmark':<11}{'config':<9}{'gap-bal':>9}"
              f"{'gap-trad':>10}{'blocks':>10}{'loops':>8}"
              f"{'beyond':>8}{'nodes':>12}")
    print(header)
    print("-" * len(header))
    for payload in payloads:
        s = payload["summary"]
        print(f"{payload['benchmark']:<11}{payload['config']:<9}"
              f"{s['gap']['balanced']:>9.4f}"
              f"{s['gap']['traditional']:>10.4f}"
              f"{s['blocks_certified']:>7}/{s['blocks']:<2}"
              f"{s['loops_certified']:>5}/{s['loops']:<2}"
              f"{s['loops_beyond_heuristic']:>7}"
              f"{s['nodes']:>12}")
    beyond = [(p["benchmark"], loop)
              for p in payloads for loop in p["loops"]
              if loop["beyond_heuristic"]]
    if beyond:
        print(f"\nloops settled beyond the iterative scheduler "
              f"({len(beyond)}):")
        for bench, loop in beyond:
            heur = loop["heuristic_ii"] or "none"
            if loop["status"] == "optimal":
                verdict = f"proven optimal II={loop['optimal_ii']}"
            else:
                verdict = f"certified II >= {loop['certified_lb']}"
            print(f"  {bench} {loop['label']}: MII={loop['mii']}, "
                  f"heuristic II={heur}, {verdict}")
    totals = oracle_summary(payloads)["totals"]
    print(f"\nbudget {payloads[0]['budget']}: "
          f"{totals['blocks_certified']}/{totals['blocks']} blocks "
          f"certified, {totals['loops_certified']}/{totals['loops']} "
          f"loops certified (bailed proofs count as not certified)")
    return 0


def cmd_obs_diff(args: argparse.Namespace) -> int:
    from .obs import diff_manifest_files

    try:
        result = diff_manifest_files(args.base, args.new)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro obs-diff: {exc}")
    print(result.format())
    return 0 if result.ok else 1


def cmd_analyze(args: argparse.Namespace) -> int:
    import json as _json

    from .analysis import analysis_summary, analyze_program, format_report

    names = benchmark_names(args.names, "analyze")
    options = _options(args)
    reports = [analyze_program(WORKLOADS[name].source, options, name)
               for name in names]
    summary = analysis_summary(reports)
    if args.json:
        print(_json.dumps(reports if args.full else summary,
                          indent=2, sort_keys=True))
    else:
        for report in reports:
            print(format_report(report))
            print()
        totals = summary["totals"]
        print(f"{len(reports)} benchmark(s), {totals['loops']} "
              f"loop(s), {totals['pairs']} memory pair(s): "
              f"{totals['independent']} independent, "
              f"{totals['exact']} exact, {totals['always']} always, "
              f"{totals['unknown']} unknown; "
              f"{totals['over_budget_blocks']} over-budget block(s)")
    if args.attach is not None:
        path = Path(args.attach) if args.attach \
            else ExperimentRunner().manifest_path
        if not path.exists():
            raise SystemExit(
                f"repro analyze: no manifest at {path}")
        attach_section(path, "analysis", summary)
        print(f"analysis section attached: {path}", file=sys.stderr)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .check.cli import run_check

    return run_check(names=args.names or None,
                     configs=_resolve_configs(args),
                     scheduler=args.scheduler,
                     lint=not args.no_lint)


def cmd_workloads(_args: argparse.Namespace) -> int:
    for name in WORKLOAD_ORDER:
        workload = WORKLOADS[name]
        print(f"{workload.name:<10} ({workload.language}) "
              f"{workload.description}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Balanced-scheduling reproduction (Lo & Eggers, "
                    "PLDI 1995)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile and show code")
    p_compile.add_argument("file")
    p_compile.add_argument("--cfg", action="store_true",
                           help="print the CFG instead of linear code")
    _add_compiler_flags(p_compile)
    p_compile.set_defaults(fn=cmd_compile)

    p_run = sub.add_parser("run", help="compile and simulate")
    p_run.add_argument("file")
    p_run.add_argument("--dump", nargs="*", metavar="SYMBOL",
                       help="print these data symbols after the run")
    _add_compiler_flags(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_bench = sub.add_parser("bench", help="run workload benchmarks")
    p_bench.add_argument("names", nargs="*",
                         help="benchmark names (default: all)")
    _add_configs_flag(p_bench, "base lu4 lu8")
    _add_jobs_flag(p_bench)
    _add_trace_flag(p_bench)
    _add_oracle_flags(p_bench)
    p_bench.set_defaults(fn=cmd_bench)

    p_tables = sub.add_parser("tables", help="regenerate paper tables")
    p_tables.add_argument("numbers", nargs="*", type=int,
                          choices=sorted(ALL_TABLES))
    _add_configs_flag(p_tables, "all")
    _add_jobs_flag(p_tables)
    _add_trace_flag(p_tables)
    _add_oracle_flags(p_tables)
    p_tables.set_defaults(fn=cmd_tables)

    p_report = sub.add_parser("report",
                              help="paper-vs-measured markdown report")
    p_report.add_argument("--output", "-o", default=None)
    _add_configs_flag(p_report, "all")
    _add_jobs_flag(p_report)
    _add_trace_flag(p_report)
    _add_oracle_flags(p_report)
    p_report.set_defaults(fn=cmd_report)

    p_oracle = sub.add_parser(
        "oracle",
        help="certified-optimal schedules and the heuristic gap")
    p_oracle.add_argument("names", nargs="*",
                          help="benchmark names (default: all)")
    p_oracle.add_argument("--json", action="store_true",
                          help="print the manifest-ready summary as "
                               "JSON")
    p_oracle.add_argument("--full", action="store_true",
                          help="with --json: full per-block/per-loop "
                               "payloads instead of the summary")
    _add_configs_flag(p_oracle, "base")
    _add_jobs_flag(p_oracle)
    _add_oracle_budget_flag(p_oracle)
    p_oracle.set_defaults(fn=cmd_oracle)

    p_profile = sub.add_parser(
        "profile",
        help="profile one benchmark: stall attribution + trace")
    p_profile.add_argument("benchmark",
                           help="workload name or source file")
    p_profile.add_argument("--scheduler", default="balanced",
                           choices=("balanced", "traditional"))
    p_profile.add_argument("--config", default="base",
                           choices=tuple(CONFIGS),
                           help="grid config (default: base)")
    p_profile.add_argument("--top", type=int, default=10,
                           help="rows in the hot-load / provenance "
                                "tables (default: 10)")
    p_profile.add_argument("--out", default="repro-profile",
                           metavar="PREFIX",
                           help="trace file prefix "
                                "(default: repro-profile)")
    p_profile.set_defaults(fn=cmd_profile)

    p_diff = sub.add_parser(
        "obs-diff",
        help="gate a run manifest exactly against a baseline")
    p_diff.add_argument("base", help="baseline run-manifest.json")
    p_diff.add_argument("new", help="candidate run-manifest.json")
    p_diff.set_defaults(fn=cmd_obs_diff)

    p_analyze = sub.add_parser(
        "analyze",
        help="symbolic dependence + register-pressure report")
    p_analyze.add_argument("names", nargs="*",
                           help="benchmark names (default: all)")
    p_analyze.add_argument("--json", action="store_true",
                           help="print the manifest-ready summary as "
                                "JSON")
    p_analyze.add_argument("--full", action="store_true",
                           help="with --json: full per-loop reports "
                                "instead of the summary")
    p_analyze.add_argument("--attach", nargs="?", const="",
                           default=None, metavar="MANIFEST",
                           help="attach the analysis section to an "
                                "existing run manifest (default: the "
                                "last sweep's, in the result cache)")
    _add_compiler_flags(p_analyze)
    p_analyze.set_defaults(fn=cmd_analyze)

    p_check = sub.add_parser(
        "check",
        help="static analysis: validated compiles + lints")
    p_check.add_argument("names", nargs="*",
                         help="benchmark names (default: all)")
    p_check.add_argument("--scheduler", default="balanced",
                         choices=("balanced", "traditional"))
    p_check.add_argument("--no-lint", action="store_true",
                         help="errors only: skip warning/note lints")
    _add_configs_flag(p_check, "base")
    p_check.set_defaults(fn=cmd_check)

    p_work = sub.add_parser("workloads", help="list the workload")
    p_work.set_defaults(fn=cmd_workloads)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
