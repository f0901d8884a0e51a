"""Shared fixtures: small programs and compile/run helpers."""

from __future__ import annotations

import os

import pytest

# Every compile in the suite re-checks the IR invariants at each pass
# boundary (repro.check: CFG structure, def-before-use, dependence
# preservation across the schedulers, allocation soundness).
os.environ.setdefault("REPRO_VALIDATE_IR", "1")

from repro.frontend import frontend
from repro.harness.compile import Options, compile_source
from repro.machine import Simulator

SMALL_KERNEL = """
array A[16][16] : float;
array B[16] : float;
var n : int = 16;
var total : float = 0.0;

func main() {
    var i: int; var j: int;
    for (i = 0; i < n; i = i + 1) {
        for (j = 0; j < n; j = j + 1) {
            A[i][j] = float(i * 16 + j) * 0.25 - 20.0;
        }
    }
    for (i = 0; i < n; i = i + 1) {
        for (j = 1; j < n; j = j + 1) {
            if (A[i][j] < 0.0) { A[i][j] = 0.0 - A[i][j]; }
            B[j] = A[i][j] * 2.0 + A[i][j - 1] + B[i];
            total = total + B[j];
        }
    }
}
"""

STENCIL_KERNEL = """
array U[32][32] : float;
array V[32][32] : float;
var n : int = 32;

func main() {
    var i: int; var j: int;
    for (i = 0; i < n; i = i + 1) {
        for (j = 0; j < n; j = j + 1) {
            U[i][j] = float(i + 2 * j) * 0.125;
        }
    }
    for (i = 1; i < 31; i = i + 1) {
        for (j = 1; j < 31; j = j + 1) {
            V[i][j] = (U[i][j - 1] + U[i][j + 1]) * 0.25
                    + (U[i - 1][j] + U[i + 1][j]) * 0.25;
        }
    }
}
"""


@pytest.fixture
def small_kernel_source() -> str:
    return SMALL_KERNEL


@pytest.fixture
def stencil_source() -> str:
    return STENCIL_KERNEL


def compile_and_simulate(source: str, options: Options | None = None,
                         max_instructions: int = 5_000_000):
    """Compile, run, and return (CompileResult, Simulator, Metrics)."""
    result = compile_source(source, options or Options())
    sim = Simulator(result.program)
    metrics = sim.run(max_instructions=max_instructions)
    return result, sim, metrics


def parse_program(source: str):
    return frontend(source)


@pytest.fixture
def run_source():
    """Fixture returning the compile_and_simulate helper."""
    return compile_and_simulate
