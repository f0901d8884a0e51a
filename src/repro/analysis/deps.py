"""Symbolic array-dependence analysis: exact distance vectors.

The modulo scheduler's memory-dependence step used to slap a blanket
carried distance-1 arc on every may-alias store/load pair, and the
``repro analyze`` report had no way to say *why* two references
conflict.  This module closes that gap with the classic dependence-test
battery over the repo's existing :class:`AffineForm` machinery:

* **ZIV** (zero index variable): both addresses constant relative to
  the loop — conflict is a constant-distance fact, decided exactly;
* **strong SIV** (single index variable): the difference is linear in
  the dependence distance ``d`` alone — the exact integer window of
  conflicting distances is enumerated;
* **GCD**: divisibility refutation for multi-variable addresses.

The battery decides one normal form, :class:`ConflictEquation`:

    difference(d, v...) = dist_coeff * d + sum(free[v] * v) + const

where ``d`` is the dependence distance, and the pair conflicts at
distance ``d`` iff ``|difference| < width`` for some integer
assignment of the free variables.  The iteration number ``i`` of the
earlier reference has no term of its own: its coefficient is an
integer combination of the free coefficients, so it is 0 when there
are none and adds nothing to their gcd when there are.  Nothing bounds
the variables: no front end derives loop bounds, so a bounds-based
test (Banerjee's) would never apply.

One front end builds equations: :func:`analyze_loop_body` works on
lowered :class:`Instruction` sequences (single-block loop bodies, as
handed to the modulo scheduler).  It symbolically executes the integer
ALU ops to express every load/store address as an affine form over the
*loop-entry* values of registers, derives per-register iteration steps
from the body's final state, and classifies every reference pair.
Addresses are in bytes and every LD/FLD/ST/FST moves one element, so
``width`` is ``ELEMENT_BYTES`` and the conflict window is
``|delta| <= ELEMENT_BYTES-1`` — partial overlap of 8-byte accesses is
handled soundly.

Verdicts are **directional**: ``classify`` answers "can the second
reference, ``d`` iterations later, touch the first's location?".
Callers query both directions.  All failures (unknown steps, non-affine
addresses, missing :class:`MemRef`) degrade to the conservative
``unknown`` verdict — never to silence.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor, gcd
from typing import Iterator, Optional, Sequence

from ..isa.instruction import Instruction
from ..isa.registers import Reg
from ..machine.config import ELEMENT_BYTES
from .affine import AffineForm

# Verdict kinds.
INDEPENDENT = "independent"   # provably never conflict (any d >= 0)
EXACT = "exact"               # conflict exactly at distances in [lo, hi]
ALWAYS = "always"             # conflict at every distance
UNKNOWN = "unknown"           # analysis gave up: assume conflict


@dataclass(frozen=True)
class DepVerdict:
    """Outcome of classifying one (ordered) reference pair.

    ``lo``/``hi`` bound the integer conflict-distance window for
    ``exact`` verdicts (``lo`` may be negative: the conflict only
    happens in the other direction).  ``test`` records which dependence
    test decided the pair — the mutation tests key off this provenance.
    """

    kind: str
    test: str = ""

    lo: Optional[int] = None
    hi: Optional[int] = None

    def conflicts_at(self, distance: int) -> bool:
        """May the pair touch the same location *distance* iterations
        apart?  Sound for any integer distance."""
        if self.kind == INDEPENDENT:
            return False
        if self.kind == EXACT:
            return self.lo <= distance <= self.hi
        return True          # ALWAYS and UNKNOWN

    @property
    def intra(self) -> bool:
        """Conflict within one iteration (distance 0)?"""
        return self.conflicts_at(0)

    def carried_distance(self) -> Optional[int]:
        """Minimum distance ``d >= 1`` at which the pair can conflict,
        or ``None`` when no loop-carried conflict exists.  A single arc
        at the minimum distance subsumes all larger ones (the kernel
        emits iterations in virtual-time order)."""
        if self.kind == INDEPENDENT:
            return None
        if self.kind == EXACT:
            low = max(1, self.lo)
            return low if low <= self.hi else None
        return 1             # ALWAYS and UNKNOWN: assume adjacent


#: Conservative fallback shared by every "analysis gave up" path.
UNKNOWN_VERDICT = DepVerdict(UNKNOWN)


@dataclass(frozen=True)
class ConflictEquation:
    """Normal form of "when do two references overlap?".

    ``difference = dist_coeff*d + sum(free[v]*v) + const`` and the
    references conflict iff ``|difference| < width`` for some integer
    assignment; every variable is unbounded.
    """

    dist_coeff: int
    free_coeffs: tuple[tuple[str, int], ...]
    const: int
    width: int = 1


# --------------------------------------------------------------- the tests
#
# Each test takes a ConflictEquation and returns a DepVerdict when it
# is applicable and decisive, else None.  They are module-level (not
# methods) so the mutation-test suite can monkeypatch each one out and
# prove it is load-bearing.

def _ziv(eq: ConflictEquation) -> Optional[DepVerdict]:
    """Zero-index-variable: the difference is a compile-time constant."""
    if eq.dist_coeff or eq.free_coeffs:
        return None
    if abs(eq.const) < eq.width:
        return DepVerdict(ALWAYS, "ziv")
    return DepVerdict(INDEPENDENT, "ziv")


def _siv(eq: ConflictEquation) -> Optional[DepVerdict]:
    """Strong single-index-variable: difference linear in ``d`` alone.

    ``|dist_coeff*d + const| <= width-1`` solves to a closed integer
    window of distances — the *exact* set of conflicting distances.
    """
    if eq.free_coeffs or not eq.dist_coeff:
        return None
    slack = eq.width - 1
    bound_a = (-eq.const - slack) / eq.dist_coeff
    bound_b = (-eq.const + slack) / eq.dist_coeff
    lo = ceil(min(bound_a, bound_b))
    hi = floor(max(bound_a, bound_b))
    if lo > hi:
        return DepVerdict(INDEPENDENT, "siv")
    return DepVerdict(EXACT, "siv", lo=lo, hi=hi)


def _gcd(eq: ConflictEquation) -> Optional[DepVerdict]:
    """GCD refutation: the linear part only reaches multiples of the
    coefficient gcd, so if no target ``delta - const`` with
    ``|delta| < width`` is such a multiple, there is no solution at all."""
    g = gcd(abs(eq.dist_coeff), *(abs(c) for _, c in eq.free_coeffs))
    if g <= 1:
        return None
    slack = eq.width - 1
    if any((delta - eq.const) % g == 0
           for delta in range(-slack, slack + 1)):
        return None
    return DepVerdict(INDEPENDENT, "gcd")


def classify(eq: Optional[ConflictEquation]) -> DepVerdict:
    """Run the test battery; the first decisive test wins."""
    if eq is None:
        return UNKNOWN_VERDICT
    for test in (_ziv, _siv, _gcd):
        verdict = test(eq)
        if verdict is not None:
            return verdict
    return UNKNOWN_VERDICT


# ----------------------------------------- instruction-level front end
def _entry_var(reg: Reg) -> str:
    """Symbolic name for a register's value at loop entry."""
    return f"@{reg!r}"


class _SymbolicState:
    """Forward symbolic execution of a straight-line loop body.

    Every register's value is an :class:`AffineForm` over loop-entry
    variables (``@reg``) plus *opaque* variables (``%<pos>``) minted for
    values the interpreter cannot model (loads, products of two
    variables, FP-derived ints...).  Opaque variables have unknown
    iteration step, which downstream degrades to ``unknown`` verdicts.
    """

    def __init__(self) -> None:
        self.forms: dict[Reg, AffineForm] = {}
        self.opaque: set[str] = set()

    def read(self, reg: Reg) -> AffineForm:
        if reg.is_zero:
            return AffineForm.constant(0)
        form = self.forms.get(reg)
        if form is None:
            form = AffineForm.variable(_entry_var(reg))
            self.forms[reg] = form
        return form

    def write_opaque(self, reg: Reg, pos: int) -> None:
        name = f"%{pos}"
        self.opaque.add(name)
        self.forms[reg] = AffineForm.variable(name)

    def _operands(self, ins: Instruction) -> list[AffineForm]:
        forms = [self.read(reg) for reg in ins.srcs]
        if ins.imm is not None and len(ins.srcs) < ins.info.nsrc:
            forms.append(AffineForm.constant(int(ins.imm)))
        return forms

    def step(self, pos: int, ins: Instruction) -> None:
        """Execute one instruction's effect on the register state."""
        if not ins.defs():
            return
        dest = ins.dest
        if dest.is_fp:
            self.forms[dest] = AffineForm.constant(0)   # never an address
            return
        op = ins.op
        if op == "LDI" and isinstance(ins.imm, int):
            self.forms[dest] = AffineForm.constant(ins.imm)
            return
        if op in ("MOV", "ADD", "SUB", "MUL", "SLL"):
            forms = self._operands(ins)
            if op == "MOV":
                self.forms[dest] = forms[0]
                return
            left, right = forms
            if op == "ADD":
                self.forms[dest] = left.add(right)
                return
            if op == "SUB":
                self.forms[dest] = left.add(right, -1)
                return
            if op == "MUL":
                if right.is_constant:
                    self.forms[dest] = left.scale(right.const)
                    return
                if left.is_constant:
                    self.forms[dest] = right.scale(left.const)
                    return
            elif op == "SLL":
                if right.is_constant and 0 <= right.const < 64:
                    self.forms[dest] = left.scale(1 << right.const)
                    return
        self.write_opaque(dest, pos)


def _register_steps(state: _SymbolicState) -> dict[str, Optional[int]]:
    """Per-iteration increment of each entry variable, from the body's
    final state: ``@r`` steps by ``k`` iff the body leaves ``r`` equal
    to its own entry value plus ``k``.  Anything else (rewritten from
    another register, opaque) has unknown step."""
    steps: dict[str, Optional[int]] = {}
    for reg, form in state.forms.items():
        name = _entry_var(reg)
        if form.coeffs == ((name, 1),):
            steps[name] = form.const
        else:
            steps[name] = None
    return steps


def _address_equation(
    addr_a: AffineForm, addr_b: AffineForm,
    steps: dict[str, Optional[int]],
) -> Optional[ConflictEquation]:
    """Byte-domain conflict equation for two in-body addresses.

    With ``v_i = v_0 + i*step_v`` for every entry variable::

        addr_b(i+d) - addr_a(i) =
            sum((cB_v - cA_v) * v_0)                  (free terms)
          + i * sum((cB_v - cA_v) * step_v)
          + d * sum(cB_v * step_v)                    (dist_coeff)
          + (constB - constA)

    The ``i`` term is dropped: it is an integer combination of the
    free coefficients, so it decides no test (see the module
    docstring).  Returns ``None`` (→ unknown verdict) when a needed
    step is unknown: the dist coefficient would be wrong, not just
    loose.
    """
    coeff_a = addr_a.coeff_map()
    coeff_b = addr_b.coeff_map()
    dist_coeff = 0
    free: dict[str, int] = {}
    for name in set(coeff_a) | set(coeff_b):
        ca = coeff_a.get(name, 0)
        cb = coeff_b.get(name, 0)
        step = steps.get(name)
        if step is None:
            return None
        if cb - ca:
            free[name] = cb - ca
        dist_coeff += cb * step
    return ConflictEquation(
        dist_coeff=dist_coeff,
        free_coeffs=tuple(sorted(free.items())),
        const=addr_b.const - addr_a.const,
        width=ELEMENT_BYTES,
    )


class LoopBodyDeps:
    """Pairwise dependence verdicts for one lowered loop body.

    Built once per loop by :func:`analyze_loop_body`; the modulo
    scheduler (arc construction), ``repro analyze`` (pair counts and
    lints) and the kernel verifier (distance-aware replay) query it, so
    a bug here is caught by the verifier only if it analyzes
    *independently* of the scheduler — which it does: the verifier
    re-analyzes from the recorded body, never trusting the scheduler's
    arcs.
    """

    def __init__(self, ops: Sequence[Instruction]) -> None:
        self.ops = list(ops)
        state = _SymbolicState()
        self.addresses: list[Optional[AffineForm]] = []
        for pos, ins in enumerate(self.ops):
            addr: Optional[AffineForm] = None
            if ins.is_mem:
                base = ins.srcs[1] if ins.is_store else ins.srcs[0]
                addr = state.read(base).add(
                    AffineForm.constant(ins.offset))
            self.addresses.append(addr)
            state.step(pos, ins)
        self.steps = _register_steps(state)
        # Opaque variables always have unknown step.
        for name in state.opaque:
            self.steps[name] = None
        self._cache: dict[tuple[int, int], DepVerdict] = {}

    def verdict(self, a: int, b: int) -> DepVerdict:
        """Directional verdict: may ``ops[b]``, executed ``d``
        iterations after ``ops[a]``, touch the same memory?"""
        cached = self._cache.get((a, b))
        if cached is not None:
            return cached
        verdict = self._classify(a, b)
        self._cache[(a, b)] = verdict
        return verdict

    def _classify(self, a: int, b: int) -> DepVerdict:
        mem_a = self.ops[a].mem
        mem_b = self.ops[b].mem
        if mem_a is None or mem_b is None:
            return UNKNOWN_VERDICT
        if mem_a.region != mem_b.region or mem_a.symbol != mem_b.symbol:
            return DepVerdict(INDEPENDENT, "symbol")
        addr_a = self.addresses[a]
        addr_b = self.addresses[b]
        if addr_a is None or addr_b is None:
            return UNKNOWN_VERDICT
        return classify(_address_equation(addr_a, addr_b, self.steps))

    def pairs(self) -> Iterator[tuple[int, int, DepVerdict]]:
        """Every ordered pair ``(a, b)`` of distinct memory ops with its
        verdict, in body order.  Load/load pairs carry no dependence
        and are skipped."""
        mem_ops = [pos for pos, ins in enumerate(self.ops) if ins.is_mem]
        for a in mem_ops:
            for b in mem_ops:
                if a != b and not (self.ops[a].is_load
                                   and self.ops[b].is_load):
                    yield a, b, self.verdict(a, b)

    def conflicts_at(self, a: int, b: int, distance: int) -> bool:
        """May ``ops[b]`` at iteration ``i + distance`` touch the same
        memory as ``ops[a]`` at iteration ``i``?  (Ignores load/load
        filtering — that is the caller's policy.)"""
        return self.verdict(a, b).conflicts_at(distance)


def analyze_loop_body(ops: Sequence[Instruction]) -> LoopBodyDeps:
    """Symbolic dependence analysis of a single-block loop body."""
    return LoopBodyDeps(ops)
