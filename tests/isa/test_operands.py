"""Register operands: derived once per instruction, never made stale.

``Instruction.__init__`` computes the tuples :meth:`Instruction.uses`
and :meth:`Instruction.defs` return, and ``Reg`` fixes ``is_zero`` when
it interns a register.  The reference derivation below is the one the
queries used to run on every call; it must agree for every opcode, on
operands that include the zero registers, the stack pointer, a virtual
register numbered 31 and a destination the CMOV family also reads.

The cached tuples stay right only while ``dest`` and ``srcs`` keep
their constructed values, so no code may assign them afterwards: the
last tests walk the syntax tree of every Python file in the package,
its tests, the paper-shape suite and the benchmark harness.
"""

import ast
import itertools
from pathlib import Path

import pytest

from repro.isa import OPCODES, FZERO, SP, ZERO, Instruction, Reg
from repro.isa.registers import ZERO_REG_NUM

ROOT = Path(__file__).resolve().parents[2]
TREES = ("src/repro", "tests", "benchmarks", "perfbench")
FIELDS = frozenset({"dest", "srcs"})

OPERANDS = (Reg("i", 3, virtual=True), Reg("f", 4, virtual=True),
            Reg("i", 31, virtual=True), Reg("i", 5), ZERO, FZERO, SP)


def ref_is_zero(reg):
    return not reg.virtual and reg.num == ZERO_REG_NUM


def ref_uses(instr):
    regs = instr.srcs
    if instr.info.reads_dest and instr.dest is not None:
        regs = regs + (instr.dest,)
    return tuple(r for r in regs if not ref_is_zero(r))


def ref_defs(instr):
    if instr.dest is None or ref_is_zero(instr.dest):
        return ()
    return (instr.dest,)


def shapes(name):
    """Every operand shape *name* accepts, over :data:`OPERANDS`."""
    info = OPCODES[name]
    dests = OPERANDS if info.has_dest else (None,)
    label = "L" if info.is_branch else None
    forms = [(info.nsrc, None)]
    if info.imm_ok:
        forms.append((info.nsrc - 1, 7))
    if name in ("LDI", "FLDI"):
        forms = [(0, 2.5)]
    for nsrc, imm in forms:
        for dest in dests:
            for srcs in itertools.product(OPERANDS, repeat=nsrc):
                yield Instruction(name, dest=dest, srcs=srcs, imm=imm,
                                  label=label)


@pytest.mark.parametrize("name", sorted(OPCODES))
def test_operands_match_the_reference_derivation(name):
    for instr in shapes(name):
        assert instr.uses() == ref_uses(instr), instr.format()
        assert instr.defs() == ref_defs(instr), instr.format()
        copied = instr.copy(srcs=tuple(reversed(instr.srcs)))
        assert copied.uses() == ref_uses(copied), copied.format()
        assert copied.defs() == ref_defs(copied), copied.format()


# --------------------------------------------------- instructions immutable
def _init_nodes(tree):
    """Node ids inside ``Instruction.__init__``, where the fields are set."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "Instruction":
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and item.name == "__init__"):
                    allowed.update(id(inner) for inner in ast.walk(item))
    return allowed


def field_writes(source, filename="<text>"):
    """Line numbers that store to or delete a ``.dest``/``.srcs``."""
    tree = ast.parse(source, filename=filename)
    allowed = _init_nodes(tree) if filename.endswith(
        "isa/instruction.py") else set()
    lines = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if (isinstance(node, ast.Attribute) and node.attr in FIELDS
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name in ("setattr", "delattr", "__setattr__",
                        "__delattr__") and any(
                    isinstance(arg, ast.Constant) and arg.value in FIELDS
                    for arg in node.args):
                lines.append(node.lineno)
    return lines


def python_files():
    for tree in TREES:
        yield from sorted((ROOT / tree).rglob("*.py"))


def test_no_code_reassigns_instruction_operands():
    checked = 0
    offences = []
    for path in python_files():
        rel = path.relative_to(ROOT).as_posix()
        offences += [f"{rel}:{line}"
                     for line in field_writes(path.read_text(), rel)]
        checked += 1
    assert checked > 100
    assert not offences, (
        "dest/srcs assigned after construction (uses()/defs() would go "
        "stale; build a new instruction with Instruction.copy): "
        + ", ".join(offences))


def test_the_rule_sees_every_form_of_write():
    source = """
instr.dest = r
instr.srcs += (r,)
a.b.srcs: tuple = ()
x, instr.dest = 1, r
del instr.srcs
setattr(instr, "dest", r)
object.__setattr__(instr, "srcs", ())
for instr.dest in regs:
    pass
"""
    assert len(field_writes(source)) == 8
    assert field_writes("use(instr.dest, instr.srcs)") == []


def test_the_rule_allows_only_the_constructor():
    path = ROOT / "src/repro/isa/instruction.py"
    source = path.read_text()
    assert field_writes(source, "src/repro/isa/instruction.py") == []
    assert field_writes(source, "elsewhere.py")   # __init__ does write
