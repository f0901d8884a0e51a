"""The 17-benchmark workload (paper Table 1), as synthetic kernels.

Each program is written in the mini loop language with the structural
character that drives its behaviour in the paper's results:

========= ==========================================================
ARC2D     2-D flux stencils; unrollable; strong balanced wins
BDNA      very large straight-line loop bodies; unrolling disabled
          by the size cap, balanced scheduling strong without it
DYFESM    data-dependent if/else with no dominant path; trace
          scheduling picks poorly and adds compensation cost
MDG       inner loops with multiple (non-predicable) conditionals;
          unrolling skipped; FP-divide heavy
QCD2      short serial FP chains, small blocks, modest parallelism
TRFD      triangular loops with many accumulators; register
          pressure (spills) at unroll-by-8
alvinn    dot-product accumulation chains; loads plentiful but the
          serial FADD chain dominates
dnasa7    dense matrix kernels; highly unrollable; the paper's best
          balanced-scheduling benchmark
doduc     many inlined branchy routines; large static code; i-cache
          pressure at high unroll factors
ear       IIR filter cascades; loop-carried memory recurrences
hydro2d   wide 2-D stencils; large balanced + unrolling wins
mdljdp2   pair-interaction loop with two cutoff conditionals;
          unrolling ineffective
ora       one large loop-free routine dominated by FP divides;
          no loops to unroll, essentially no load interlocks
spice2g6  indirect (sparse) indexing; dependent load chains; load
          interlocks dominate and resist scheduling
su2cor    complex-arithmetic update loops; wide independent trees
swm256    stencil bodies sized so the 64-instr cap blocks factor 4
          but the 128-instr cap admits a partial factor at 8
tomcatv   sequential sweeps over large read-only arrays; the
          locality-analysis star (spatial + temporal reuse)
========= ==========================================================

Sizes are chosen so each run is a few hundred thousand dynamic
instructions: large enough for caches/TLBs to behave realistically,
small enough that the full experiment grid runs in minutes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    language: str           # the paper's source language for the original
    description: str        # paper Table 1 description
    source: str


def _w(name: str, language: str, description: str, source: str) -> Workload:
    return Workload(name=name, language=language, description=description,
                    source=source)


ARC2D = _w("ARC2D", "Fortran",
           "Two-dimensional fluid flow problem solver using Euler equations",
           """
array P[96][96] : float;
array U[96][96] : float;
array V[96][96] : float;
array FX[96][96] : float;
array FY[96][96] : float;
var n : int = 96;
var steps : int = 1;

func main() {
    var i: int; var j: int; var t: int;
    for (i = 0; i < n; i = i + 1) {
        for (j = 0; j < n; j = j + 1) {
            P[i][j] = float(i * 3 + j) * 0.0104;
            U[i][j] = float(i - j) * 0.03125;
            V[i][j] = float(i + 2 * j) * 0.0078125;
        }
    }
    for (t = 0; t < steps; t = t + 1) {
        for (i = 1; i < 95; i = i + 1) {
            for (j = 1; j < 95; j = j + 1) {
                FX[i][j] = (P[i][j + 1] - P[i][j - 1]) * 0.5
                         + U[i][j] * (U[i][j + 1] - U[i][j - 1]) * 0.5;
            }
        }
        for (i = 1; i < 95; i = i + 1) {
            for (j = 1; j < 95; j = j + 1) {
                FY[i][j] = (P[i + 1][j] - P[i - 1][j]) * 0.5
                         + V[i][j] * (V[i + 1][j] - V[i - 1][j]) * 0.5;
            }
        }
        for (i = 1; i < 95; i = i + 1) {
            for (j = 1; j < 95; j = j + 1) {
                U[i][j] = U[i][j] - 0.01 * FX[i][j];
                V[i][j] = V[i][j] - 0.01 * FY[i][j];
                P[i][j] = P[i][j] - 0.005 * (FX[i][j] + FY[i][j]);
            }
        }
    }
}
""")


BDNA = _w("BDNA", "Fortran",
          "Simulation of hydration structure and dynamics of nucleic acids",
          """
array X[128] : float;
array Y[128] : float;
array Z[128] : float;
array FX[128] : float;
array FY[128] : float;
array FZ[128] : float;
array Q[128] : float;
var n : int = 128;
var steps : int = 30;

func main() {
    var i: int; var t: int;
    var dx: float; var dy: float; var dz: float;
    var r2: float; var s: float; var e: float;
    for (i = 0; i < n; i = i + 1) {
        X[i] = float(i) * 0.001;
        Y[i] = float(i * 7 % 64) * 0.004;
        Z[i] = float(i * 13 % 32) * 0.008;
        Q[i] = float(i % 5) * 0.2 + 0.1;
    }
    # One very large straight-line body per particle: the size cap
    # disables unrolling, but the body itself is full of independent
    # loads for the balanced scheduler to spread out.
    for (t = 0; t < steps; t = t + 1) {
        for (i = 2; i < 126; i = i + 1) {
            dx = X[i] - X[i - 1] * 0.5 - X[i + 1] * 0.5;
            dy = Y[i] - Y[i - 1] * 0.5 - Y[i + 1] * 0.5;
            dz = Z[i] - Z[i - 1] * 0.5 - Z[i + 1] * 0.5;
            r2 = dx * dx + dy * dy + dz * dz + 1.0;
            s = Q[i] * Q[i - 1] + Q[i] * Q[i + 1];
            e = s * r2 + (X[i - 2] - X[i + 2]) * 0.25
              + (Y[i - 2] - Y[i + 2]) * 0.25
              + (Z[i - 2] - Z[i + 2]) * 0.25;
            FX[i] = FX[i] + dx * s - e * 0.125 + Q[i - 2] * 0.0625
                  + Q[i + 2] * 0.03125;
            FY[i] = FY[i] + dy * s - e * 0.25 + X[i] * Y[i] * 0.015625;
            FZ[i] = FZ[i] + dz * s - e * 0.5 + Y[i] * Z[i] * 0.0078125
                  + X[i - 1] * Z[i + 1] * 0.001953125;
        }
    }
}
""")


DYFESM = _w("DYFESM", "Fortran",
            "Structural dynamics benchmark to solve displacements and "
            "stresses",
            """
array D[256] : float;
array S[256] : float;
array M[256] : float;
array FLAG[256] : int;
var n : int = 256;
var steps : int = 40;

func main() {
    var i: int; var t: int;
    for (i = 0; i < n; i = i + 1) {
        D[i] = float(i % 97) * 0.01;
        M[i] = float(i % 31) * 0.05 + 1.0;
        FLAG[i] = (i * i + i / 3) % 2;
    }
    # Small, cache-resident working set swept many times; the if/else
    # alternates irregularly, so there is no dominant path -- trace
    # picking is poor and speculation/compensation hurts.
    for (t = 0; t < steps; t = t + 1) {
        for (i = 1; i < 255; i = i + 1) {
            if (FLAG[i] != 0) {
                S[i] = D[i] * M[i] + D[i - 1] * 0.5;
                D[i] = D[i] + S[i] * 0.01;
            } else {
                S[i] = D[i] * 0.75 - D[i + 1] * M[i] * 0.25;
                D[i] = D[i] - S[i] * 0.02;
            }
        }
    }
}
""")


MDG = _w("MDG", "Fortran",
         "Molecular dynamic simulation of flexible water molecules",
         """
array PX[1024] : float;
array PY[1024] : float;
array FX[1024] : float;
array FY[1024] : float;
array KIND[1024] : int;
var n : int = 1024;
var steps : int = 3;
var cutoff : float = 0.5;

func main() {
    var i: int; var t: int;
    var dx: float; var dy: float; var r2: float; var f: float;
    for (i = 0; i < n; i = i + 1) {
        PX[i] = float(i % 64) * 0.015625;
        PY[i] = float(i * 5 % 128) * 0.0078125;
        KIND[i] = i % 3;
    }
    # Multiple conditionals (with else branches) inside the hot loop:
    # the unroller's internal-branch rule skips it.
    for (t = 0; t < steps; t = t + 1) {
        for (i = 1; i < 1023; i = i + 1) {
            dx = PX[i] - PX[i - 1];
            dy = PY[i] - PY[i - 1];
            r2 = dx * dx + dy * dy + 0.01;
            if (r2 < cutoff) {
                f = 1.0 / r2;
                FX[i] = FX[i] + dx * f;
            } else {
                f = cutoff / (r2 * r2);
                FX[i] = FX[i] - dx * f;
            }
            if (KIND[i] == 0) {
                FY[i] = FY[i] + dy / r2;
            } else {
                FY[i] = FY[i] + dy * r2 * 0.125;
            }
        }
    }
}
""")


QCD2 = _w("QCD2", "Fortran",
          "Lattice-gauge QCD simulation",
          """
array LR[256] : float;
array LI[256] : float;
array GR[256] : float;
array GI[256] : float;
var n : int = 256;
var sweeps : int = 30;

func main() {
    var i: int; var t: int; var ar: float; var ai: float;
    for (i = 0; i < n; i = i + 1) {
        LR[i] = float(i % 17) * 0.0625 - 0.5;
        LI[i] = float(i % 23) * 0.03125 - 0.33;
        GR[i] = 1.0;
        GI[i] = 0.0;
    }
    # Short serial chains per site: each update depends multiplicatively
    # on the previous value, so there is little slack for any scheduler.
    for (t = 0; t < sweeps; t = t + 1) {
        for (i = 1; i < 256; i = i + 1) {
            ar = GR[i] * LR[i] - GI[i] * LI[i];
            ai = GR[i] * LI[i] + GI[i] * LR[i];
            ar = ar * 0.9375 + GR[i - 1] * 0.0625;
            ai = ai * 0.9375 + GI[i - 1] * 0.0625;
            GR[i] = ar;
            GI[i] = ai;
        }
    }
}
""")


TRFD = _w("TRFD", "Fortran",
          "Two-electron integral transformation",
          """
array A[64][64] : float;
array B[64][64] : float;
array C[64][64] : float;
var n : int = 64;

func main() {
    var i: int; var j: int; var k: int;
    var s0: float; var s1: float; var s2: float; var s3: float;
    for (i = 0; i < n; i = i + 1) {
        for (j = 0; j < n; j = j + 1) {
            A[i][j] = float(i + j) * 0.0078125;
            B[i][j] = float(i * 2 - j) * 0.00390625;
        }
    }
    # Triangular transformation with several live accumulators: at
    # unroll-by-8 the register pressure forces spill code.
    for (i = 0; i < n; i = i + 1) {
        s0 = 0.0; s1 = 0.0; s2 = 0.0; s3 = 0.0;
        for (k = 0; k < n; k = k + 1) {
            s0 = s0 + A[i][k] * B[k][0];
            s1 = s1 + A[i][k] * B[k][1];
            s2 = s2 + A[i][k] * B[k][2];
            s3 = s3 + A[i][k] * B[k][3];
        }
        for (j = 0; j <= i; j = j + 1) {
            C[i][j] = A[i][j] * s0 + B[i][j] * s1
                    + A[j][i] * s2 + B[j][i] * s3;
        }
    }
}
""")


ALVINN = _w("alvinn", "C",
            "Trains a neural network using back propagation",
            """
array W1[32][128] : float;
array W2[32][32] : float;
array INPUT[128] : float;
array HID[32] : float;
array OUT[32] : float;
array DELTA[32] : float;
var nin : int = 128;
var nhid : int = 32;
var epochs : int = 5;

func main() {
    var i: int; var j: int; var e: int; var s: float;
    for (i = 0; i < nhid; i = i + 1) {
        for (j = 0; j < nin; j = j + 1) {
            W1[i][j] = float(i - j) * 0.001;
        }
        for (j = 0; j < nhid; j = j + 1) {
            W2[i][j] = float(i + j) * 0.002;
        }
    }
    for (j = 0; j < nin; j = j + 1) {
        INPUT[j] = float(j % 16) * 0.0625;
    }
    for (e = 0; e < epochs; e = e + 1) {
        # Forward pass: dot products -- serial accumulation chains.
        for (i = 0; i < nhid; i = i + 1) {
            s = 0.0;
            for (j = 0; j < nin; j = j + 1) {
                s = s + W1[i][j] * INPUT[j];
            }
            HID[i] = s * 0.0078125;
        }
        for (i = 0; i < nhid; i = i + 1) {
            s = 0.0;
            for (j = 0; j < nhid; j = j + 1) {
                s = s + W2[i][j] * HID[j];
            }
            OUT[i] = s * 0.03125;
            DELTA[i] = (1.0 - OUT[i]) * OUT[i];
        }
        # Weight update.
        for (i = 0; i < nhid; i = i + 1) {
            for (j = 0; j < nin; j = j + 1) {
                W1[i][j] = W1[i][j] + DELTA[i] * INPUT[j] * 0.1;
            }
        }
    }
}
""")


DNASA7 = _w("dnasa7", "Fortran",
            "Matrix manipulation routines",
            """
array MA[40][40] : float;
array MB[40][40] : float;
array MC[40][40] : float;
array MD[40][40] : float;
array VX[4096] : float;
array VY[4096] : float;
var n : int = 40;
var reps : int = 1;

func main() {
    var i: int; var j: int; var k: int; var r: int;
    var t: float; var u: float;
    for (i = 0; i < n; i = i + 1) {
        for (j = 0; j < n; j = j + 1) {
            MA[i][j] = float(i * 3 + j) * 0.000244140625;
            MB[i][j] = float(i - j * 2) * 0.00048828125;
            MC[i][j] = 0.0;
            MD[i][j] = 0.0;
        }
    }
    for (r = 0; r < reps; r = r + 1) {
        # MXM: j-inner matrix multiply over two independent result
        # matrices -- wide load-level parallelism in every block.
        for (i = 0; i < n; i = i + 1) {
            for (k = 0; k < n; k = k + 1) {
                t = MA[i][k];
                u = MA[i][k] * 0.5 + 0.001;
                for (j = 0; j < n; j = j + 1) {
                    MC[i][j] = MC[i][j] + t * MB[k][j];
                    MD[i][j] = MD[i][j] + u * MB[j][k];
                }
            }
        }
        # Long smoothing sweeps over vectors larger than the L1 cache.
        for (i = 0; i < 4096; i = i + 1) {
            VX[i] = float(i % 640) * 0.0015625;
        }
        for (i = 1; i < 4095; i = i + 1) {
            VY[i] = VX[i - 1] * 0.25 + VX[i] * 0.5 + VX[i + 1] * 0.25;
        }
        for (i = 1; i < 4095; i = i + 1) {
            VX[i] = VY[i - 1] * 0.125 + VY[i] * 0.75 + VY[i + 1] * 0.125;
        }
    }
}
""")


DODUC = _w("doduc", "Fortran",
           "Monte Carlo simulation of the time evolution of a nuclear "
           "reactor component",
           """
array STATE[512] : float;
array AUX[512] : float;
array RESULT[512] : float;
var n : int = 512;
var sweeps : int = 4;
var seed : int = 12345;

func absorb(x: float, a: float) : float {
    var r: float;
    r = x * a + 0.013;
    if (r > 1.0) { r = r - 1.0; }
    if (r < 0.0) { r = 0.0 - r; }
    return r;
}

func scatter(x: float, y: float) : float {
    var u: float; var v: float;
    u = x * 0.7 + y * 0.3;
    v = x - y;
    if (v < 0.0) { v = 0.0 - v; }
    return u / (v + 1.5);
}

func fission(x: float) : float {
    var p: float;
    p = x * x * 0.4 + x * 0.09 + 0.001;
    return p / (x + 2.0);
}

func leak(x: float, w: float) : float {
    var l: float;
    l = x * w;
    if (l > 0.8) { l = 0.8; }
    return l;
}

func main() {
    var i: int; var t: int; var rnd: int;
    var x: float; var a: float; var b: float; var c: float;
    for (i = 0; i < n; i = i + 1) {
        STATE[i] = float(i % 41) * 0.02;
        AUX[i] = float(i % 29) * 0.03 + 0.2;
    }
    # Many small branchy routines, inlined: large static code, lots of
    # conditionals, few dominant paths.
    for (t = 0; t < sweeps; t = t + 1) {
        rnd = seed;
        for (i = 0; i < n; i = i + 1) {
            rnd = (rnd * 1103 + 12345) % 65536;
            x = STATE[i];
            a = absorb(x, AUX[i]);
            b = scatter(a, AUX[i]);
            c = fission(b);
            if (rnd % 4 == 0) {
                x = a + leak(b, 0.3);
            } else {
                if (rnd % 4 == 1) {
                    x = b + leak(c, 0.5);
                } else {
                    if (rnd % 4 == 2) {
                        x = c + absorb(a, 0.25);
                    } else {
                        x = a * 0.5 + b * 0.3 + c * 0.2;
                    }
                }
            }
            STATE[i] = absorb(x, 0.9);
            RESULT[i] = RESULT[i] + scatter(STATE[i], b) + fission(c);
        }
    }
}
""")


EAR = _w("ear", "C",
         "Simulates the propagation of sound in the human cochlea",
         """
array SIG[512] : float;
array S1[512] : float;
array S2[512] : float;
array S3[512] : float;
var n : int = 512;
var frames : int = 12;

func main() {
    var i: int; var f: int;
    for (i = 0; i < n; i = i + 1) {
        SIG[i] = float(i % 128) * 0.0078125 - 0.5;
    }
    # Cascaded IIR filters: loop-carried memory recurrences keep the
    # critical path serial; loads are few and dependent.
    for (f = 0; f < frames; f = f + 1) {
        for (i = 1; i < n; i = i + 1) {
            S1[i] = S1[i - 1] * 0.875 + SIG[i] * 0.125;
        }
        for (i = 1; i < n; i = i + 1) {
            S2[i] = S2[i - 1] * 0.75 + S1[i] * 0.25;
        }
        for (i = 1; i < n; i = i + 1) {
            S3[i] = S3[i - 1] * 0.5 + S2[i] * S2[i] * 0.5;
        }
    }
}
""")


HYDRO2D = _w("hydro2d", "Fortran",
             "Solves hydrodynamical Navier Stokes equations to compute "
             "galactical jets",
             """
array RO[96][96] : float;
array EN[96][96] : float;
array ZA[96][96] : float;
array ZB[96][96] : float;
var n : int = 96;
var steps : int = 1;

func main() {
    var i: int; var j: int; var t: int;
    for (i = 0; i < n; i = i + 1) {
        for (j = 0; j < n; j = j + 1) {
            RO[i][j] = float(i + j * 2) * 0.0078125 + 1.0;
            EN[i][j] = float(i * j % 61) * 0.015625;
        }
    }
    for (t = 0; t < steps; t = t + 1) {
        for (i = 1; i < 95; i = i + 1) {
            for (j = 1; j < 95; j = j + 1) {
                ZA[i][j] = (RO[i][j - 1] + RO[i][j + 1]) * 0.25
                         + (RO[i - 1][j] + RO[i + 1][j]) * 0.25
                         - EN[i][j] * 0.5;
            }
        }
        for (i = 1; i < 95; i = i + 1) {
            for (j = 1; j < 95; j = j + 1) {
                ZB[i][j] = ZA[i][j] * 0.6 + EN[i][j] * 0.4
                         + (ZA[i][j - 1] - ZA[i][j + 1]) * 0.125;
            }
        }
        for (i = 1; i < 95; i = i + 1) {
            for (j = 1; j < 95; j = j + 1) {
                RO[i][j] = RO[i][j] + ZB[i][j] * 0.05;
                EN[i][j] = EN[i][j] * 0.99 + ZB[i][j] * 0.01;
            }
        }
    }
}
""")


MDLJDP2 = _w("mdljdp2", "Fortran",
             "Chemical application program that solves equations of motion "
             "for atoms",
             """
array RX[1024] : float;
array RY[1024] : float;
array VX[1024] : float;
array VY[1024] : float;
var n : int = 1024;
var steps : int = 4;
var rcut : float = 0.4;

func main() {
    var i: int; var t: int;
    var dx: float; var dy: float; var r2: float; var w: float;
    for (i = 0; i < n; i = i + 1) {
        RX[i] = float(i % 32) * 0.03125;
        RY[i] = float(i * 3 % 64) * 0.015625;
    }
    # Two cutoff conditionals per pair: more than one internal branch,
    # so the unroller leaves the loop alone (paper Table 4: mdljdp2's
    # dynamic count barely moves under unrolling).
    for (t = 0; t < steps; t = t + 1) {
        for (i = 1; i < 1023; i = i + 1) {
            dx = RX[i] - RX[i - 1];
            dy = RY[i] - RY[i - 1];
            r2 = dx * dx + dy * dy + 0.001;
            if (r2 < rcut) {
                w = (1.0 / r2) * 0.25;
                VX[i] = VX[i] + dx * w;
            } else {
                VX[i] = VX[i] + dx * 0.001;
            }
            if (r2 < rcut * 0.5) {
                w = 0.5 / (r2 + 0.1);
                VY[i] = VY[i] + dy * w;
            } else {
                VY[i] = VY[i] - dy * 0.002;
            }
        }
    }
}
""")


ORA = _w("ora", "Fortran",
         "Traces rays through an optical system composed of spherical and "
         "planar surfaces",
         """
array ANGLES[1024] : float;
array OUT[1024] : float;
var nrays : int = 1024;

func trace_ray(a0: float) : float {
    # One large, loop-free routine: long FP divide chains, almost no
    # memory traffic.  Dominates execution, so unrolling the tiny
    # driver loop changes nothing.
    var x: float; var y: float; var u: float; var v: float;
    var t: float; var r: float;
    x = a0 * 0.5 + 1.0;
    y = a0 * a0 * 0.25 + 0.5;
    u = (x * 1.5 + y) / (x + 2.0);
    v = (y * 1.25 - x * 0.5) / (y + 3.0);
    t = (u * u + v * v + 1.0) / (u + v + 2.5);
    r = (t * x - u) / (t + 1.75);
    u = (r * r + t) / (r + 2.25);
    v = (u - r * 0.125) / (u + 1.125);
    t = (v * v * 2.0 + u) / (v + 3.5);
    r = (t + u + v) / (t * v + 1.0625);
    u = (r * 1.0 + t * 0.5) / (r + 1.03125);
    v = (u * u - r) / (u + 2.015625);
    return v * 0.5 + t * 0.25 + r * 0.125;
}

func main() {
    var i: int;
    for (i = 0; i < nrays; i = i + 1) {
        ANGLES[i] = float(i % 90) * 0.0174;
    }
    for (i = 0; i < nrays; i = i + 1) {
        OUT[i] = trace_ray(ANGLES[i]);
    }
}
""")


SPICE2G6 = _w("spice2g6", "Fortran",
              "Circuit simulation package",
              """
array VAL[8192] : float;
array COL[8192] : int;
array ROWP[513] : int;
array XV[4096] : float;
array YV[512] : float;
var nrows : int = 512;
var nnz : int = 8192;
var iters : int = 3;

func main() {
    var i: int; var p: int; var t: int; var s: float;
    var lo: int; var hi: int;
    for (p = 0; p < nnz; p = p + 1) {
        VAL[p] = float(p % 53) * 0.01 + 0.05;
        COL[p] = (p * 1657 + 31) % 4096;
    }
    for (i = 0; i <= nrows; i = i + 1) {
        ROWP[i] = i * 16;
    }
    for (i = 0; i < 4096; i = i + 1) {
        XV[i] = float(i % 77) * 0.005;
    }
    # Sparse matrix-vector products: COL[p] must load before XV[COL[p]]
    # can issue -- serial load chains with scattered, cache-hostile
    # accesses.  Load interlocks dominate and resist both schedulers.
    for (t = 0; t < iters; t = t + 1) {
        for (i = 0; i < nrows; i = i + 1) {
            s = 0.0;
            lo = ROWP[i];
            hi = ROWP[i + 1];
            for (p = lo; p < hi; p = p + 1) {
                s = s + VAL[p] * XV[COL[p]];
            }
            YV[i] = s;
        }
        for (i = 0; i < 4096; i = i + 1) {
            XV[i] = XV[i] * 0.998 + YV[i % 512] * 0.0005;
        }
    }
}
""")


SU2COR = _w("su2cor", "Fortran",
            "Computes masses of elementary particles in the framework of "
            "the Quark-Gluon theory",
            """
array AR[64][64] : float;
array AI[64][64] : float;
array BR[64][64] : float;
array BI[64][64] : float;
array CR[64][64] : float;
array CI[64][64] : float;
var n : int = 64;
var sweeps : int = 1;

func main() {
    var i: int; var j: int; var t: int;
    for (i = 0; i < n; i = i + 1) {
        for (j = 0; j < n; j = j + 1) {
            AR[i][j] = float(i + j) * 0.004;
            AI[i][j] = float(i - j) * 0.003;
            BR[i][j] = float(i * 2 + j) * 0.002;
            BI[i][j] = float(j * 2 - i) * 0.001;
        }
    }
    # Complex multiply-accumulate: four independent loads per point and
    # wide expression trees -- plenty of load-level parallelism.
    for (t = 0; t < sweeps; t = t + 1) {
        for (i = 0; i < n; i = i + 1) {
            for (j = 0; j < n; j = j + 1) {
                CR[i][j] = AR[i][j] * BR[i][j] - AI[i][j] * BI[i][j]
                         + CR[i][j] * 0.5;
                CI[i][j] = AR[i][j] * BI[i][j] + AI[i][j] * BR[i][j]
                         + CI[i][j] * 0.5;
            }
        }
        for (i = 1; i < 63; i = i + 1) {
            for (j = 1; j < 63; j = j + 1) {
                AR[i][j] = CR[i][j] * 0.9 + CR[i][j - 1] * 0.05
                         + CR[i][j + 1] * 0.05;
                AI[i][j] = CI[i][j] * 0.9 + CI[i - 1][j] * 0.05
                         + CI[i + 1][j] * 0.05;
            }
        }
    }
}
""")


SWM256 = _w("swm256", "Fortran",
            "Solves shallow water equations using finite difference "
            "equations",
            """
array UU[64][64] : float;
array VV[64][64] : float;
array PP[64][64] : float;
array UN[64][64] : float;
array VN[64][64] : float;
array PN[64][64] : float;
var n : int = 64;
var steps : int = 1;

func main() {
    var i: int; var j: int; var t: int;
    for (i = 0; i < n; i = i + 1) {
        for (j = 0; j < n; j = j + 1) {
            UU[i][j] = float(i + j) * 0.01;
            VV[i][j] = float(i - j) * 0.008;
            PP[i][j] = float(i * j % 37) * 0.02 + 10.0;
        }
    }
    # One wide stencil body (~40 estimated instructions): factor 4
    # exceeds the 64-instruction cap, factor 8's 128-instruction cap
    # admits a partial unroll -- the paper's swm256 footnote.
    for (t = 0; t < steps; t = t + 1) {
        for (i = 1; i < 63; i = i + 1) {
            for (j = 1; j < 63; j = j + 1) {
                UN[i][j] = UU[i][j]
                    + 0.04 * (PP[i][j - 1] - PP[i][j + 1])
                    + 0.02 * (UU[i][j - 1] + UU[i][j + 1]
                              + UU[i - 1][j] + UU[i + 1][j]
                              - 4.0 * UU[i][j])
                    + 0.01 * VV[i][j] * (VV[i][j + 1] - VV[i][j - 1]);
                VN[i][j] = VV[i][j]
                    + 0.04 * (PP[i - 1][j] - PP[i + 1][j])
                    + 0.02 * (VV[i][j - 1] + VV[i][j + 1]
                              + VV[i - 1][j] + VV[i + 1][j]
                              - 4.0 * VV[i][j])
                    + 0.01 * UU[i][j] * (UU[i + 1][j] - UU[i - 1][j]);
                PN[i][j] = PP[i][j]
                    - 0.03 * (UU[i][j + 1] - UU[i][j - 1]
                              + VV[i + 1][j] - VV[i - 1][j]);
            }
        }
        for (i = 1; i < 63; i = i + 1) {
            for (j = 1; j < 63; j = j + 1) {
                UU[i][j] = UN[i][j];
                VV[i][j] = VN[i][j];
                PP[i][j] = PN[i][j];
            }
        }
    }
}
""")


TOMCATV = _w("tomcatv", "Fortran",
             "Vectorized mesh generation program",
             """
array MX[80][80] : float;
array MY[80][80] : float;
array RXM[80][80] : float;
array RYM[80][80] : float;
array WROW[80] : float;
var n : int = 80;
var steps : int = 1;

func main() {
    var i: int; var j: int; var t: int;
    var xx: float; var yy: float; var xy: float;
    for (i = 0; i < n; i = i + 1) {
        WROW[i] = float(i % 9) * 0.1 + 0.5;
        for (j = 0; j < n; j = j + 1) {
            MX[i][j] = float(i) * 0.25 + float(j) * 0.01;
            MY[i][j] = float(j) * 0.25 - float(i) * 0.01;
        }
    }
    # Sequential sweeps over large, read-only meshes: rich spatial
    # reuse (stride-1 in j) plus temporal reuse (WROW[i], invariant in
    # the inner loop) -- the locality-analysis showcase.
    for (t = 0; t < steps; t = t + 1) {
        for (i = 1; i < 79; i = i + 1) {
            for (j = 1; j < 79; j = j + 1) {
                xx = MX[i][j + 1] - 2.0 * MX[i][j] + MX[i][j - 1];
                yy = MY[i][j + 1] - 2.0 * MY[i][j] + MY[i][j - 1];
                xy = MX[i + 1][j] + MX[i - 1][j] - 2.0 * MX[i][j];
                RXM[i][j] = xx * WROW[i] + xy * 0.25
                          + MY[i - 1][j] * 0.125;
                RYM[i][j] = yy * WROW[i]
                          + (MY[i + 1][j] - MY[i - 1][j]) * 0.25;
            }
        }
    }
}
""")


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        ARC2D, BDNA, DYFESM, MDG, QCD2, TRFD, ALVINN, DNASA7, DODUC, EAR,
        HYDRO2D, MDLJDP2, ORA, SPICE2G6, SU2COR, SWM256, TOMCATV,
    )
}

#: Paper ordering (Table 1 / results tables).
WORKLOAD_ORDER = list(WORKLOADS)


def get_workload(name: str) -> Workload:
    return WORKLOADS[name]


def benchmark_names(names, command: str) -> list[str]:
    """*names*, or all 17 in paper order when empty, for the CLI
    command *command*: an unknown name exits with a one-line error
    naming it, before any work (or manifest write) starts."""
    names = list(names) if names else list(WORKLOAD_ORDER)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise SystemExit(
            f"repro {command}: unknown benchmark(s): "
            f"{', '.join(unknown)} (known: {', '.join(WORKLOAD_ORDER)})")
    return names
