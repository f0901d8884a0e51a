"""Property tests: the compiled fast engine is bit-identical to the
reference interpreter on generated loop kernels.

The generator builds small array kernels (loads, stores, fp
arithmetic, conditionals, reductions) whose loops run each compiled
block many times, from cold caches into steady state; every metrics
counter, including the interlock split and the cache/TLB stats, plus
final memory and registers must match the interpreter exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.compile import Options, compile_source
from repro.machine import Simulator


def _state(sim):
    d = {}
    for key, value in vars(sim.metrics).items():
        if hasattr(value, "__dict__"):
            for k2, v2 in vars(value).items():
                d[f"{key}.{k2}"] = v2
        elif isinstance(value, (int, float)):
            d[key] = value
    d["memory"] = list(sim.memory)
    d["regs"] = list(sim.regs)
    return d


@st.composite
def loop_kernels(draw):
    n = draw(st.integers(4, 48))
    c1 = draw(st.integers(-9, 9))
    c2 = draw(st.floats(-4.0, 4.0, allow_nan=False, width=32))
    lag = draw(st.integers(1, 3))
    body = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            body.append(f"B[i] = A[i] * {c2:.3f} + A[i - {lag}];")
        elif kind == 1:
            body.append(f"if (A[i] < {c2:.3f}) "
                        f"{{ B[i] = 0.0 - A[i]; }}")
        elif kind == 2:
            body.append("acc = acc + B[i] * 0.5;")
        else:
            body.append(f"A[i] = A[i - {lag}] + float({c1});")
    stmts = "\n            ".join(body)
    source = f"""
array A[{n}] : float;
array B[{n}] : float;
var n : int = {n};

func main() {{
    var i : int;
    var acc : float;
    acc = 0.0;
    for (i = 0; i < n; i = i + 1) {{
        A[i] = float(i * {c1}) * 0.25 + {c2:.3f};
        B[i] = 0.0;
    }}
    for (i = {lag}; i < n; i = i + 1) {{
        {stmts}
    }}
    B[0] = acc;
}}
"""
    scheduler = draw(st.sampled_from(["balanced", "traditional",
                                      "none"]))
    return source, scheduler


@given(loop_kernels())
@settings(max_examples=25, deadline=None)
def test_fast_engine_matches_reference(case):
    source, scheduler = case
    program = compile_source(source,
                             Options(scheduler=scheduler)).program
    ref = Simulator(program, mode="reference")
    ref.run(max_instructions=2_000_000)
    fast = Simulator(program, mode="fast")
    fast.run(max_instructions=2_000_000)
    assert fast.mode_used == "fast"
    assert _state(ref) == _state(fast), scheduler
