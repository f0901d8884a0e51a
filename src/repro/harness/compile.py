"""End-to-end compilation driver: source text -> machine program.

Pipeline (DESIGN.md section 4):

1. frontend (lex / parse / semantic analysis);
2. AST loop transformations — locality analysis (peel + reuse unroll +
   hit/miss marks), loop unrolling (factor 4/8), predication;
3. lowering to a virtual-register CFG;
4. classic cleanups (constant folding, copy propagation, DCE);
5. scheduling — per-block list scheduling with traditional or balanced
   weights, or profile-driven trace scheduling;
6. linear-scan register allocation with spill insertion;
7. linearization to a :class:`~repro.isa.MachineProgram`.

Stages 1-4 are :func:`lower_source`, which the scheduling oracle calls
too, so it grades exactly the CFG the schedulers are handed.  Each
stage runs in its own observer span; the spans are the only timer.

Trace scheduling needs a profile: the pre-schedule program is
linearized as it is, on virtual registers, run once in profiling mode,
and the block/edge frequencies feed trace formation (the paper's
methodology, section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..analysis.locality import LocalityStats, analyze_locality
from ..check import NULL_VALIDATOR, validator_from_env
from ..codegen.lower import lower
from ..codegen.regalloc import AllocationResult, allocate_registers
from ..codegen.verify import verify_pipelined_kernels, verify_program
from ..frontend import frontend
from ..ir import Cfg
from ..isa import MachineProgram
from ..machine import DEFAULT_CONFIG, MachineConfig, Metrics, Simulator
from ..obs import NULL_OBSERVER, Observer
from ..opt.constfold import fold_constants
from ..opt.copyprop import propagate_copies
from ..opt.dce import eliminate_dead_code
from ..opt.predication import predicate_program
from ..opt.unroll import UnrollStats, unroll_program
from ..sched import (
    BalancedWeights,
    ModuloStats,
    ProfileData,
    TraditionalWeights,
    WeightModel,
    pipeline_loops,
    schedule_cfg,
    trace_schedule,
)

SCHEDULERS = ("balanced", "traditional", "none")


@dataclass(frozen=True)
class Options:
    """One point in the paper's experiment grid."""

    scheduler: str = "balanced"       # "balanced" | "traditional" | "none"
    unroll: int = 0                   # 0, 4 or 8
    trace: bool = False
    locality: bool = False
    predicate: bool = True
    classic_opts: bool = True
    #: Optional extra passes (local CSE + loop-invariant code motion).
    #: Off by default: the paper-calibrated results are measured
    #: without them; see benchmarks/test_ablation_extra_opts.py.
    extra_opts: bool = False
    #: Software pipelining: modulo-schedule eligible innermost loops
    #: after list/trace scheduling (the fourth ILP axis).
    swp: bool = False
    config: MachineConfig = field(default=DEFAULT_CONFIG)
    # Ablation knobs for the balanced weight computation.
    balanced_component_sharing: bool = True
    balanced_cap: Optional[float] = None
    #: Register-pressure feedback in the balanced weights: demote
    #: boosted loads the register file cannot afford (see
    #: :class:`repro.sched.weights.BalancedWeights`).  Off by default —
    #: the paper-calibrated grid is measured without it.
    pressure: bool = False

    def label(self) -> str:
        """Unambiguous config label: every knob that changes generated
        code contributes a token (cache keys and manifests rely on
        this)."""
        parts = [self.scheduler]
        if self.locality:
            parts.append("la")
        if self.unroll:
            parts.append(f"lu{self.unroll}")
        if self.trace:
            parts.append("trs")
        if self.swp:
            parts.append("swp")
        if not self.predicate:
            parts.append("nopred")
        if self.extra_opts:
            parts.append("xopts")
        if self.pressure:
            parts.append("prs")
        return "+".join(parts)

    def validate(self) -> None:
        if self.scheduler not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.unroll not in (0, 4, 8):
            raise ValueError(f"unsupported unroll factor {self.unroll}")
        if self.swp and self.scheduler == "none":
            raise ValueError("swp requires a scheduler "
                             "(balanced or traditional)")
        if self.pressure and self.scheduler != "balanced":
            raise ValueError("pressure feedback applies to the "
                             "balanced scheduler only")


@dataclass
class CompileResult:
    program: MachineProgram
    cfg: Cfg
    options: Options
    allocation: AllocationResult
    unroll_stats: Optional[UnrollStats] = None
    locality_stats: Optional[LocalityStats] = None
    trace_stats: Optional[object] = None
    profile: Optional[ProfileData] = None
    #: Per-loop software-pipelining outcomes (None when swp is off).
    modulo_stats: Optional[ModuloStats] = None

    @property
    def static_instructions(self) -> int:
        return len(self.program)


def make_weight_model(options: Options) -> Optional[WeightModel]:
    if options.scheduler == "traditional":
        return TraditionalWeights(options.config)
    if options.scheduler == "balanced":
        return BalancedWeights(
            options.config,
            use_locality=options.locality,
            component_sharing=options.balanced_component_sharing,
            cap=options.balanced_cap,
            pressure=options.pressure)
    return None


def _cfg_stats(cfg: Cfg) -> dict:
    """IR-delta annotations for trace spans (enabled observers only)."""
    instrs = sum(len(block.instrs) for block in cfg)
    loads = sum(1 for block in cfg
                for ins in block.instrs if ins.is_load)
    return {"blocks": len(cfg), "instrs": instrs, "loads": loads}


def lower_source(source: str, options: Options, name: str = "program",
                 observer: Observer = NULL_OBSERVER,
                 validator=NULL_VALIDATOR
                 ) -> tuple[Cfg, Optional[UnrollStats],
                            Optional[LocalityStats]]:
    """Pipeline stages 1-4: frontend, AST transforms, lowering and
    classic cleanups, one span each.

    Returns the pre-schedule CFG every scheduler (and the oracle) is
    handed, with the unroll and locality stats of the AST transforms.
    """
    with observer.span("frontend"):
        program_ast = frontend(source, name)
    validator.lint_source(program_ast)

    unroll_stats = None
    locality_stats = None
    with observer.span("ast-transforms", locality=options.locality,
                       unroll=options.unroll,
                       predicate=options.predicate):
        if options.locality:
            locality_stats = analyze_locality(program_ast)
        if options.unroll:
            unroll_stats = unroll_program(program_ast, options.unroll)
        if options.predicate:
            predicate_program(program_ast)

    with observer.span("lower") as span:
        cfg = lower(program_ast)
        if observer.enabled:
            span.annotate(**_cfg_stats(cfg))
    validator.after_pass(cfg, "lower")

    with observer.span("cleanups",
                       extra_opts=options.extra_opts) as span:
        if options.classic_opts:
            fold_constants(cfg)
            validator.after_pass(cfg, "opt.constfold")
            propagate_copies(cfg)
            validator.after_pass(cfg, "opt.copyprop")
            eliminate_dead_code(cfg)
            validator.after_pass(cfg, "opt.dce")
        if options.extra_opts:
            from ..opt.cse import eliminate_common_subexpressions
            from ..opt.licm import hoist_loop_invariants

            eliminate_common_subexpressions(cfg)
            validator.after_pass(cfg, "opt.cse")
            hoist_loop_invariants(cfg)
            validator.after_pass(cfg, "opt.licm")
            propagate_copies(cfg)
            validator.after_pass(cfg, "opt.copyprop")
            eliminate_dead_code(cfg)
            validator.after_pass(cfg, "opt.dce")
        if observer.enabled:
            span.annotate(**_cfg_stats(cfg))
    return cfg, unroll_stats, locality_stats


def compile_source(source: str, options: Options = Options(),
                   name: str = "program",
                   observer: Observer = NULL_OBSERVER,
                   validator=None) -> CompileResult:
    """Compile *source* under *options* to an executable program.

    Every pipeline stage runs inside its own *observer* span, which
    times it (the spans are the harness's only clock).  An enabled
    observer also annotates each span with the IR shape after the
    stage (blocks/instructions/loads) and records per-load schedule
    provenance from the block scheduler.  The default observer changes
    nothing.

    An enabled *validator* (:class:`repro.check.PipelineValidator`)
    re-checks the IR invariants at every pass boundary and the
    dependence DAG across every scheduler.  ``None`` resolves via
    ``REPRO_VALIDATE_IR`` (:func:`repro.check.validator_from_env`);
    the disabled default is a no-op and changes nothing.
    """
    options.validate()
    if validator is None:
        validator = validator_from_env(observer)
    with observer.span("compile", benchmark=name,
                       options=options.label()):
        cfg, unroll_stats, locality_stats = lower_source(
            source, options, name, observer, validator)

        model = make_weight_model(options)
        trace_stats = None
        profile = None
        validator.before_schedule(cfg)
        with observer.span("schedule", scheduler=options.scheduler,
                           trace=options.trace) as span:
            if options.trace and model is not None:
                with observer.span("profile"):
                    profile = _collect_profile(cfg, options)
                trace_stats = trace_schedule(cfg, profile, model)
                validator.after_schedule(cfg, "sched.trace",
                                         mode="trace")
            elif model is not None:
                schedule_cfg(cfg, model, observer=observer)
                validator.after_schedule(cfg, "sched.block",
                                         mode="block")
            if observer.enabled:
                span.annotate(**_cfg_stats(cfg))
        modulo_stats = None
        if options.swp:
            # Software pipelining runs over the already-scheduled CFG:
            # the non-kernel blocks keep their balanced/traditional
            # list schedules, and the modulo scheduler reuses the same
            # weight model for its dependence latencies.
            validator.before_schedule(cfg)
            with observer.span("swp") as span:
                modulo_stats = pipeline_loops(cfg, options.config,
                                              model)
                verify_pipelined_kernels(cfg, modulo_stats.kernels)
                if observer.enabled:
                    span.annotate(
                        loops_attempted=modulo_stats.attempted,
                        loops_pipelined=modulo_stats.pipelined)
            validator.after_schedule(cfg, "sched.modulo", mode="kernel")

        validator.before_regalloc(cfg)
        with observer.span("regalloc") as span:
            allocation = allocate_registers(cfg)
            if observer.enabled:
                span.annotate(spill_slots=allocation.n_slots)
        validator.after_regalloc(cfg, allocation)
        with observer.span("linearize-verify") as span:
            program = cfg.linearize()
            verify_program(program)
            if observer.enabled:
                span.annotate(static_instructions=len(program))
    return CompileResult(program=program, cfg=cfg, options=options,
                         allocation=allocation, unroll_stats=unroll_stats,
                         locality_stats=locality_stats,
                         trace_stats=trace_stats, profile=profile,
                         modulo_stats=modulo_stats)


def _collect_profile(cfg: Cfg, options: Options) -> ProfileData:
    """Profile the pre-trace CFG by running it once (paper section 4.2).

    The CFG is linearized in its original (unscheduled) block order and
    run on virtual registers, without register allocation: block and
    edge counts depend only on control flow, which allocation and its
    spill code do not change.  Linearizing leaves the CFG as it was:
    lowering already puts the entry block first.
    """
    program = cfg.linearize()
    sim = Simulator(program, config=options.config, mode="profile")
    sim.run()
    return ProfileData(block_counts=dict(sim.block_counts),
                       edge_counts=dict(sim.edge_counts))


def run_compiled(result: CompileResult,
                 max_instructions: int = 200_000_000) -> Metrics:
    """Simulate a compiled program and return its metrics."""
    sim = Simulator(result.program, config=result.options.config)
    return sim.run(max_instructions=max_instructions)


def compile_and_run(source: str, options: Options = Options(),
                    name: str = "program") -> tuple[CompileResult, Metrics]:
    result = compile_source(source, options, name)
    return result, run_compiled(result)
