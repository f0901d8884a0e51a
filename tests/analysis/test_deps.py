"""Symbolic dependence tests: battery units, brute force, mutations."""

import pytest

import repro.analysis.deps as deps_mod
from repro.analysis.deps import (
    ALWAYS,
    EXACT,
    INDEPENDENT,
    UNKNOWN,
    ConflictEquation,
    _gcd,
    _siv,
    _ziv,
    analyze_loop_body,
    classify,
)
from repro.isa import Instruction, MemRef, Reg
from repro.machine.config import ELEMENT_BYTES


def _eq(dist_coeff=0, free=(), const=0, width=1):
    return ConflictEquation(dist_coeff=dist_coeff, free_coeffs=tuple(free),
                            const=const, width=width)


# ------------------------------------------------------------ unit: ZIV
def test_ziv_constant_zero_always_conflicts():
    v = _ziv(_eq(const=0))
    assert v.kind == ALWAYS and v.test == "ziv"
    assert v.conflicts_at(0) and v.conflicts_at(3)


def test_ziv_constant_offset_independent():
    v = _ziv(_eq(const=5))
    assert v.kind == INDEPENDENT and v.test == "ziv"
    assert not v.conflicts_at(0)
    assert v.carried_distance() is None


def test_ziv_byte_domain_partial_overlap():
    # Byte domain (width 8): addresses 4 apart still overlap an
    # 8-byte access, 8 apart do not.
    assert _ziv(_eq(const=4, width=8)).kind == ALWAYS
    assert _ziv(_eq(const=8, width=8)).kind == INDEPENDENT


def test_ziv_not_applicable_with_any_coefficient():
    assert _ziv(_eq(dist_coeff=1)) is None
    assert _ziv(_eq(free=(("m", 1),))) is None


# ------------------------------------------------------------ unit: SIV
def test_siv_exact_single_distance():
    # d - 2 == 0  =>  conflict exactly at distance 2.
    v = _siv(_eq(dist_coeff=1, const=-2))
    assert v.kind == EXACT and v.test == "siv"
    assert (v.lo, v.hi) == (2, 2)
    assert v.carried_distance() == 2
    assert v.conflicts_at(2) and not v.conflicts_at(1)


def test_siv_no_integer_solution():
    # 2d + 1 == 0 has no integer root.
    v = _siv(_eq(dist_coeff=2, const=1))
    assert v.kind == INDEPENDENT


def test_siv_byte_domain_window():
    # |8d| < 8 only at d == 0: same address, stride 8.
    v = _siv(_eq(dist_coeff=8, width=8))
    assert v.kind == EXACT and (v.lo, v.hi) == (0, 0)
    assert v.intra and v.carried_distance() is None


def test_siv_negative_window_direction():
    # d + 2 == 0  =>  conflict only at d == -2 (other direction).
    v = _siv(_eq(dist_coeff=1, const=2))
    assert v.kind == EXACT and (v.lo, v.hi) == (-2, -2)
    assert v.carried_distance() is None


def test_siv_not_applicable():
    assert _siv(_eq(dist_coeff=0, const=1)) is None
    assert _siv(_eq(dist_coeff=1, free=(("m", 1),))) is None


# ------------------------------------------------------------ unit: GCD
def test_gcd_refutes_odd_offset():
    # 2d + 2m == -1 has no integer solution: gcd 2 cannot hit 1.
    v = _gcd(_eq(dist_coeff=2, free=(("m", 2),), const=1))
    assert v.kind == INDEPENDENT and v.test == "gcd"


def test_gcd_divisible_offset_inconclusive():
    assert _gcd(_eq(dist_coeff=2, free=(("m", 2),), const=2)) is None


def test_gcd_unit_gcd_inconclusive():
    assert _gcd(_eq(dist_coeff=3, free=(("m", 2),), const=1)) is None


def test_gcd_byte_domain_respects_width():
    # Stride 16 bytes, offset 8: every delta in (-8, 8) misses the
    # multiples of 16 shifted by 8.
    v = _gcd(_eq(dist_coeff=16, const=8, width=8))
    assert v.kind == INDEPENDENT
    # Offset 4: delta 4 works, refutation must not fire.
    assert _gcd(_eq(dist_coeff=16, const=4, width=8)) is None


# ----------------------------------------------------- classify battery
def test_classify_none_equation_is_unknown():
    v = classify(None)
    assert v.kind == UNKNOWN and v.conflicts_at(0)


def test_classify_battery_order():
    assert classify(_eq(const=0)).test == "ziv"
    assert classify(_eq(dist_coeff=1)).test == "siv"
    assert classify(_eq(dist_coeff=2, free=(("m", 2),),
                        const=1)).test == "gcd"


def test_classify_gives_up_gracefully():
    v = classify(_eq(free=(("m", 1),), const=0))
    assert v.kind == UNKNOWN


# ----------------------------------------------- loop-body front end
def _vreg(i):
    return Reg("i", i, virtual=True)


def _load(dest, base, symbol="X", offset=0):
    return Instruction("LD", dest=_vreg(dest), srcs=(_vreg(base),),
                       offset=offset,
                       mem=MemRef("data", symbol) if symbol else None)


def _store(value, base, symbol="X", offset=0):
    return Instruction("ST", srcs=(_vreg(value), _vreg(base)),
                       offset=offset, mem=MemRef("data", symbol))


#: The induction register every generated body steps by one.
_I = 0


def _step():
    return Instruction("ADD", dest=_vreg(_I), srcs=(_vreg(_I),),
                       imm=1)


def test_loop_body_different_arrays():
    deps = analyze_loop_body([_load(1, _I, "X"), _store(1, _I, "Y"),
                              _step()])
    for a, b in ((0, 1), (1, 0)):
        verdict = deps.verdict(a, b)
        assert verdict.kind == INDEPENDENT and verdict.test == "symbol"


def test_loop_body_missing_memref_unknown():
    deps = analyze_loop_body([_load(1, _I, symbol=None), _store(1, _I),
                              _step()])
    assert deps.verdict(0, 1).kind == UNKNOWN
    assert deps.verdict(1, 0).kind == UNKNOWN


def test_loop_body_loaded_address_unknown():
    # X[P[i]] = X[i]: the store's address is a loaded value, whose
    # per-iteration step no symbolic execution can know.
    deps = analyze_loop_body([
        _load(1, _I, "P"),
        _load(2, _I, "X"),
        _store(2, 1, "X"),
        _step(),
    ])
    assert deps.verdict(1, 2).kind == UNKNOWN
    assert deps.verdict(2, 1).kind == UNKNOWN
    assert deps.verdict(0, 2).test == "symbol"


def test_loop_body_shifted_exact():
    # X[i] = X[i-1] in lowering's shape for a unit stride (one SLL,
    # which the MUL-addressed grid below never runs): the load at
    # iteration i+1 rereads the store's element, and the store never
    # overwrites an element already read.
    deps = analyze_loop_body([
        Instruction("SLL", dest=_vreg(1), srcs=(_vreg(_I),), imm=3),
        _load(2, 1, offset=-8),
        _store(2, 1),
        _step(),
    ])
    flow = deps.verdict(2, 1)
    assert flow.kind == EXACT and flow.carried_distance() == 1
    assert deps.verdict(1, 2).carried_distance() is None


# ------------------------------------------------- brute-force fuzzing
#
# Each generated body reads X at byte address 8*sa*i + da and writes X
# at 8*sb*i + db, the code shape lowering gives X[sa*i + k] (a scaled
# index plus a displacement), and steps i by one.  Displacements that
# are not multiples of 8 make two 8-byte accesses overlap partially, so
# a wrong access width shows up as a missed or invented conflict.

_TRIP = 5
_STRIDES = range(-2, 3)
_DISPS = range(-24, 25, 4)
_LOAD, _STORE = 1, 3        # body positions of the two accesses


def _grid_body(sa, da, sb, db):
    return [
        Instruction("MUL", dest=_vreg(1), srcs=(_vreg(_I),),
                    imm=8 * sa),
        _load(2, 1, offset=da),
        Instruction("MUL", dest=_vreg(3), srcs=(_vreg(_I),),
                    imm=8 * sb),
        _store(2, 3, offset=db),
        _step(),
    ]


def _overlap_distances(first, second):
    """Every ``d = j - i`` (either sign), ``i, j`` in ``[0, _TRIP)``, at
    which access *second* in iteration ``j`` overlaps access *first* in
    iteration ``i``; each access is a ``(stride, disp)`` pair."""
    (s1, d1), (s2, d2) = first, second
    return {j - i for i in range(_TRIP) for j in range(_TRIP)
            if abs((8 * s2 * j + d2) - (8 * s1 * i + d1)) < ELEMENT_BYTES}


def _grid_verdicts(sa, sb):
    """``(case, verdict, realized distances)`` for both directions of
    every displacement pair at strides *sa* (load) and *sb* (store)."""
    for da in _DISPS:
        for db in _DISPS:
            deps = analyze_loop_body(_grid_body(sa, da, sb, db))
            load, store = (sa, da), (sb, db)
            case = f"LD X[{sa}*8i{da:+d}] / ST X[{sb}*8i{db:+d}]"
            yield (f"{case}, store after load",
                   deps.verdict(_LOAD, _STORE),
                   _overlap_distances(load, store))
            yield (f"{case}, load after store",
                   deps.verdict(_STORE, _LOAD),
                   _overlap_distances(store, load))


@pytest.mark.parametrize("sa", _STRIDES)
@pytest.mark.parametrize("sb", _STRIDES)
def test_source_pair_verdicts_sound_and_precise(sa, sb):
    """Exhaustive check of ``analyze_loop_body`` over a stride and
    displacement grid at trip count 5.

    Soundness: every realized overlap distance must be admitted by
    ``conflicts_at``.  Precision: an exact window holds only realized
    distances (within the trip count), ``always`` is realized at every
    distance, and equal strides are never left ``unknown``.
    """
    span = range(1 - _TRIP, _TRIP)
    for case, verdict, realized in _grid_verdicts(sa, sb):
        for d in realized:
            assert verdict.conflicts_at(d), (
                f"unsound: {case} overlaps at d={d} but verdict is "
                f"{verdict}")
        if verdict.kind == EXACT:
            missing = {d for d in span if verdict.lo <= d <= verdict.hi
                       and d not in realized}
            assert not missing, (
                f"imprecise: {case} window [{verdict.lo},{verdict.hi}] "
                f"holds distances {sorted(missing)} with no overlap")
        elif verdict.kind == ALWAYS:
            assert realized == set(span), (
                f"imprecise: {case} is 'always' but overlaps only at "
                f"{sorted(realized)}")
        elif verdict.kind == UNKNOWN:
            assert sa != sb, f"undecided equal-stride pair: {case}"


def test_fuzzer_grid_is_not_vacuous():
    """The grid reaches every decided verdict kind and every test."""
    kinds, tests = set(), set()
    for sa in _STRIDES:
        for sb in _STRIDES:
            for _case, verdict, _realized in _grid_verdicts(sa, sb):
                kinds.add(verdict.kind)
                tests.add(verdict.test)
    assert {INDEPENDENT, EXACT, ALWAYS} <= kinds
    assert {"ziv", "siv", "gcd"} <= tests


# ------------------------------------------------------- mutation tests
#
# Each dependence test must be load-bearing: knocking it out of the
# battery (monkeypatching it to "not applicable") must visibly weaken
# at least one verdict.  ``classify`` resolves the tests through module
# globals at call time, so setattr on the module is enough.

def _knockout(monkeypatch, name):
    monkeypatch.setattr(deps_mod, name, lambda eq: None)


def test_mutation_ziv_is_load_bearing(monkeypatch):
    eq = _eq(const=0)
    assert classify(eq).kind == ALWAYS
    _knockout(monkeypatch, "_ziv")
    assert classify(eq).kind == UNKNOWN


def test_mutation_siv_is_load_bearing(monkeypatch):
    eq = _eq(dist_coeff=1, const=-2)
    assert classify(eq).kind == EXACT
    _knockout(monkeypatch, "_siv")
    assert classify(eq).kind == UNKNOWN


def test_mutation_gcd_is_load_bearing(monkeypatch):
    eq = _eq(dist_coeff=2, free=(("m", 2),), const=1)
    assert classify(eq).kind == INDEPENDENT
    _knockout(monkeypatch, "_gcd")
    assert classify(eq).kind == UNKNOWN


def test_mutation_battery_stays_sound(monkeypatch):
    """Removing any single test keeps the battery sound.

    Whatever subset of tests runs, every realized overlap distance must
    still be admitted — mutations may only lose precision."""
    for name in ("_ziv", "_siv", "_gcd"):
        with monkeypatch.context() as m:
            m.setattr(deps_mod, name, lambda eq: None)
            for sa in (-2, 0, 1, 2):
                for sb in (-1, 0, 2):
                    for _case, verdict, realized in _grid_verdicts(sa, sb):
                        assert all(verdict.conflicts_at(d)
                                   for d in realized)
