"""Dominators, back edges, natural loops."""

from repro.ir import (
    BasicBlock,
    Cfg,
    dominates,
    find_back_edges,
    find_loops,
    immediate_dominators,
    reverse_postorder,
)
from repro.isa import Instruction, Reg


def v(i):
    return Reg("i", i, virtual=True)


def loop_cfg() -> Cfg:
    """entry -> header -> body -> header (back edge); header -> exit."""
    cfg = Cfg(entry="entry")
    cfg.add_block(BasicBlock("entry", [], fallthrough="header"))
    cfg.add_block(BasicBlock(
        "header",
        [Instruction("BEQ", srcs=(v(0),), label="exit")],
        fallthrough="body"))
    cfg.add_block(BasicBlock(
        "body", [Instruction("BR", label="header")]))
    cfg.add_block(BasicBlock("exit", [Instruction("HALT")]))
    return cfg


def nested_loop_cfg() -> Cfg:
    """Two nested loops sharing structure."""
    cfg = Cfg(entry="entry")
    cfg.add_block(BasicBlock("entry", [], fallthrough="outer"))
    cfg.add_block(BasicBlock(
        "outer", [Instruction("BEQ", srcs=(v(0),), label="done")],
        fallthrough="inner"))
    cfg.add_block(BasicBlock(
        "inner", [Instruction("BNE", srcs=(v(1),), label="inner")],
        fallthrough="latch"))
    cfg.add_block(BasicBlock("latch", [Instruction("BR", label="outer")]))
    cfg.add_block(BasicBlock("done", [Instruction("HALT")]))
    return cfg


def test_reverse_postorder_starts_at_entry():
    order = reverse_postorder(loop_cfg())
    assert order[0] == "entry"
    assert set(order) == {"entry", "header", "body", "exit"}
    assert order.index("header") < order.index("body")


def test_immediate_dominators_linear_chain():
    idom = immediate_dominators(loop_cfg())
    assert idom["header"] == "entry"
    assert idom["body"] == "header"
    assert idom["exit"] == "header"
    assert idom["entry"] == "entry"


def test_dominates_relation():
    cfg = loop_cfg()
    idom = immediate_dominators(cfg)
    assert dominates(idom, "entry", "exit", cfg.entry)
    assert dominates(idom, "header", "body", cfg.entry)
    assert not dominates(idom, "body", "exit", cfg.entry)
    assert dominates(idom, "header", "header", cfg.entry)


def test_back_edge_detection():
    assert find_back_edges(loop_cfg()) == [("body", "header")]


def test_nested_back_edges():
    edges = set(find_back_edges(nested_loop_cfg()))
    assert edges == {("inner", "inner"), ("latch", "outer")}


def test_natural_loop_body():
    loops = find_loops(loop_cfg())
    assert set(loops) == {"header"}
    assert loops["header"].body == {"header", "body"}


def test_nested_loop_bodies_and_depths():
    cfg = nested_loop_cfg()
    loops = find_loops(cfg)
    assert loops["outer"].body == {"outer", "inner", "latch"}
    assert loops["inner"].body == {"inner"}
    assert loops["outer"].depth == 1
    assert loops["inner"].depth == 2


def test_acyclic_graph_has_no_loops():
    cfg = Cfg(entry="a")
    cfg.add_block(BasicBlock("a", [], fallthrough="b"))
    cfg.add_block(BasicBlock("b", [Instruction("HALT")]))
    assert find_back_edges(cfg) == []
    assert find_loops(cfg) == {}
