"""Compiled block-at-a-time execution engines for the simulator.

The reference interpreter in :mod:`repro.machine.simulator` pays a
per-instruction tax for generality: tuple unpacking of the decoded
form, dict-based class counting, dispatch over opcode ranges, and a
Python-level readiness loop.  This module removes that tax for the
paper's machine (single issue, one memory port, no stall attribution)
by *compiling* each basic block to a specialized Python function:

* **Timing mode** (:func:`build_engine`) emits one function per basic
  block.  It inlines the decoded fields as literals (register slots,
  immediates, latencies, branch targets) and keeps the cycle counter
  symbolic: within a block the current cycle is ``t + K`` for a
  compile-time constant ``K``, and ``t`` is only materialized when an
  interlock or memory-system stall actually moves time.  Cache, TLB,
  MSHR and branch-predictor interactions go through the same model
  objects as the interpreter, so timing is bit-identical.  Blocks are
  not memoized: a guarded steady-state variant doubles the generated
  source and the build time, and on the paper's grid its guards fail
  too often for simulation to gain (docs/INTERNALS.md §6).
* **Profile mode** (:func:`run_profile`) executes architecturally
  only: registers, memory, branch outcomes, and the block/edge
  frequencies the compiler's trace picker needs — no timing, cache or
  predictor state at all.  Cycle counters are placeholders.

``build_engine`` returns ``None`` whenever the configuration needs
the interpreter (multi-issue, multiple memory ports, stall
attribution, profiling), keeping the fallback decision in one place.
"""

from __future__ import annotations

from .simulator import SimulationError

# Shared counter-vector indices: one flat list instead of per-event
# attribute updates; flushed into Metrics once at the end of a run.
_LI, _FI, _IC, _BS, _MS, _SPL, _SPS, _MP = range(8)
_CLS = {"short_int": 8, "long_int": 9, "short_fp": 10, "long_fp": 11,
        "loads": 12, "stores": 13, "branches": 14}
_NCTR = 15

_M64 = (1 << 64) - 1

_BINOP = {11: "+", 12: "-", 13: "*", 16: "&", 17: "|", 18: "^",
          27: "+", 28: "-", 29: "*"}
_CMPOP = {22: "==", 23: "!=", 24: "<", 25: "<=",
          31: "==", 32: "!=", 33: "<", 34: "<="}


def _leaders(decoded, extra=()):
    """Basic-block leader pcs: entry, branch targets, fall-throughs."""
    n = len(decoded)
    leaders = {0} | {i for i in extra if 0 <= i < n}
    for p, ins in enumerate(decoded):
        if 6 <= ins[0] <= 9:            # BR, BEQ, BNE, HALT
            if p + 1 < n:
                leaders.add(p + 1)
            if ins[5] >= 0:
                leaders.add(ins[5])
    return sorted(leaders)


class _Gen:
    """Source generator for one simulator's block functions."""

    def __init__(self, sim):
        self.sim = sim
        self.cfg = sim.config
        self.d = sim._decoded
        self.memb = len(sim.memory) << 3
        self.out: list[str] = []
        self.ctr = [0] * _NCTR
        #: Per-block execution counters: block bodies bump a single
        #: dedicated ctr slot; statically known per-execution counts
        #: (instruction classes, spills, L1 access totals) multiply out
        #: at finalize instead of running per call.
        self.blocks: list[tuple] = []
        self.inline_mem = (self.cfg.memory_model == "hierarchy"
                           and sim.l1d.assoc == 1)
        # When every page the program can touch fits in a TLB at once,
        # evictions never happen and LRU refresh order is unobservable:
        # the per-access dict reorder can be elided entirely.
        self.small_dspace = (((self.memb - 1) >> sim.dtlb.page_shift)
                             + 1 <= self.cfg.dtlb.entries)

    def w(self, ind, text):
        self.out.append(" " * ind + text)

    def _batches(self, ind, start, end):
        """Give the block a ctr slot and emit its one execution-count
        bump; its static counts multiply out at finalize."""
        slot = _NCTR + len(self.blocks)
        counts = [0] * _NCTR
        nl = 0
        for p in range(start, end):
            ins = self.d[p]
            counts[_CLS[ins[7]]] += 1
            if ins[8]:                  # spill load/store
                counts[_SPL if ins[0] <= 1 else _SPS] += 1
            if ins[0] <= 1:
                nl += 1
        ni = 0
        if not self.cfg.perfect_icache and self.sim.l1i.assoc == 1:
            for p in range(start + 1, end):
                if (p << 2) >> 5 != ((p - 1) << 2) >> 5:
                    ni += 1
        self.blocks.append((slot, counts,
                            nl if self.inline_mem else 0, ni))
        self.ctr.append(0)
        self.w(ind, f"ctr[{slot}] += 1")

    # ------------------------------------------------------- readiness
    def _alu_value(self, ind, code, a, b, dread, target, pc):
        """Emit architectural execution of an ALU op into *target*.

        *a*/*b* are operand expressions, *dread* the expression for the
        current destination value (CMOV family), *target* the lvalue.
        """
        w = self.w
        if code in _BINOP:
            w(ind, f"{target} = {a} {_BINOP[code]} {b}")
        elif code in _CMPOP:
            w(ind, f"{target} = 1 if {a} {_CMPOP[code]} {b} else 0")
        elif code in (14, 15):          # DIVQ / REMQ
            w(ind, f"x = {a}")
            w(ind, f"y = {b}")
            w(ind, "if y == 0:")
            w(ind + 1, f'raise E("division by zero at pc {pc}")')
            w(ind, "v = abs(x) // abs(y)")
            w(ind, "if (x < 0) != (y < 0):")
            w(ind + 1, "v = -v")
            if code == 14:
                w(ind, f"{target} = v")
            else:
                w(ind, f"{target} = x - v * y")
        elif code == 19:                # SLL with 64-bit wrap
            w(ind, f"v = ({a} << {b}) & {_M64}")
            w(ind, f"if v >= {1 << 63}:")
            w(ind + 1, f"v -= {1 << 64}")
            w(ind, f"{target} = v")
        elif code == 20:
            w(ind, f"{target} = ({a} & {_M64}) >> {b}")
        elif code == 21:
            w(ind, f"{target} = {a} >> {b}")
        elif code in (26, 35):          # MOV / FMOV
            w(ind, f"{target} = {a}")
        elif code == 30:                # FDIV
            w(ind, f"y = {b}")
            w(ind, "if y == 0.0:")
            w(ind + 1, f'raise E("fp division by zero at {pc}")')
            w(ind, f"{target} = {a} / y")
        elif code == 36:
            w(ind, f"{target} = -{a}")
        elif code == 38:
            w(ind, f"{target} = float({a})")
        elif code == 39:
            w(ind, f"{target} = int({a})")
        elif code in (40, 41, 42, 43):  # CMOV family
            op = "==" if code in (40, 42) else "!="
            w(ind, f"{target} = ({b}) if {a} {op} 0 else {dread}")
        else:                           # pragma: no cover - build_engine
            raise AssertionError(f"unsupported opcode code {code}")

    # -------------------------------------------------- fetch modelling
    def _icheck(self, ind, ad, count_access):
        """I-cache probe for the fetch line holding byte address *ad*.

        Direct-mapped L1I inlines both paths: a tag compare on hit, a
        manual fill (misses bump + tag replace) on miss — equivalent to
        ``Cache.lookup`` when the set holds a single way.  Interior
        probes run unconditionally every execution, so their access
        counts are statically batched (*count_access* False); the
        entry probe is dynamic and counts inline.  Associative
        configurations go through the model's ``lookup``.
        """
        w = self.w
        l1i = self.sim.l1i
        if l1i.assoc == 1:
            cl = ad >> l1i.line_shift
            if count_access:
                w(ind, "L1IST.accesses += 1")
            w(ind, f"wv = L1IW[{cl & l1i.set_mask}]")
            w(ind, f"if not wv or wv[0] != {cl}:")
            w(ind + 1, "L1IST.misses += 1")
            w(ind + 1, f"wv[:] = ({cl},)")
            w(ind + 1, f"x = IFILL({ad})")
            w(ind + 1, "ctr[2] += x")
            w(ind + 1, "t += x")
        else:
            w(ind, f"if not L1I({ad}):")
            w(ind + 1, f"x = IFILL({ad})")
            w(ind + 1, "ctr[2] += x")
            w(ind + 1, "t += x")

    def _fetch_full(self, ind, p, start):
        """I-cache/I-TLB fetch check, line-memoized like the interpreter
        (32-byte line / 8 KB page granularity is hardcoded there)."""
        if self.cfg.perfect_icache:
            return
        w = self.w
        ad = p << 2
        ln, pg = ad >> 5, ad >> 13
        pen = self.cfg.itlb.miss_penalty
        if p == start:
            w(ind, f"if lastL != {ln}:")
            w(ind + 1, f"lastL = {ln}")
            w(ind + 1, f"if {pg} != lastP:")
            w(ind + 2, f"lastP = {pg}")
            w(ind + 2, f"if not ITLB({ad}):")
            w(ind + 3, f"ctr[2] += {pen}")
            w(ind + 3, f"t += {pen}")
            self._icheck(ind + 1, ad, count_access=True)
        elif ln != ((p - 1) << 2) >> 5:
            # Interior line change: the memo test is statically true
            # (after executing p-1, lastL == line(p-1) != line(p)).
            w(ind, f"lastL = {ln}")
            if pg != ((p - 1) << 2) >> 13:
                w(ind, f"lastP = {pg}")
                w(ind, f"if not ITLB({ad}):")
                w(ind + 1, f"ctr[2] += {pen}")
                w(ind + 1, f"t += {pen}")
            self._icheck(ind, ad,
                         count_access=self.sim.l1i.assoc != 1)

    # ------------------------------------------------------ full blocks
    def _prepass(self, start, end):
        """Dataflow over the block for the SSA full variant.

        Returns ``(needs_q, finals)``: positions whose ready-time temp
        is consumed by a later check that cannot be folded away, and
        positions that are the last tracked write of their slot (whose
        temp escapes into the shared scoreboard at commit).  A consumer
        check folds when its in-block producer has a static latency no
        larger than the instruction distance: issue time advances at
        least one cycle per instruction, so the operand is provably
        ready and the interpreter's comparison is statically false.
        """
        d = self.d
        needs_q = set()
        writer = {}                     # slot -> (pos, static lat | None)
        last_w = {}                     # slot -> last tracked write pos
        for p in range(start, end):
            (code, dest, srcs, _imm, _off, _tgt, latency, _cls,
             _spill, reads_dest, track) = d[p]
            if code <= 3 or code in (7, 8) or code >= 11:
                reads = list(srcs)
                if code >= 11 and reads_dest and dest >= 0:
                    reads.append(dest)
                for s in reads:
                    if s in writer:
                        pp, lat = writer[s]
                        if lat is None or lat > p - pp:
                            needs_q.add(pp)
            if track and (code <= 1 or code in (4, 5) or code >= 11):
                lat = None if code <= 1 else (
                    1 if code in (4, 5) else latency)
                writer[dest] = (p, lat)
                last_w[dest] = p
        return needs_q, set(last_w.values())

    def emit_full(self, name, start, end):
        """Timing-exact block body in SSA form.

        Register values live in per-instruction temporaries and commit
        to the shared arrays only at block exit (last write per slot);
        scoreboard ready times likewise.  Operand checks against
        in-block producers with static latencies fold away entirely
        when the instruction distance already covers the latency, and
        loads/stores inline the L1-hit path (direct-mapped tag probe +
        TLB refresh) to skip the ``_dload``/``_dstore`` calls in the
        common case.  Mid-block raises leave the shared arrays at the
        previous commit point — post-error architectural state is
        non-contractual (the interpreter's is per-instruction).
        """
        d = self.d
        w = self.w
        cfg = self.cfg
        sim = self.sim
        w(1, f"def {name}(t, lastL, lastP):")
        ind = 2
        self._batches(ind, start, end)
        needs_q, finals = self._prepass(start, end)
        inline_mem = self.inline_mem
        dsh = sim.dtlb.page_shift
        lsh = sim.l1d.line_shift
        lmask = sim.l1d.set_mask
        l1d_lat = cfg.l1d.latency
        shadow = {}                     # slot -> value expression
        srdy = {}                       # slot -> (q temp, from_load)
        elig = {}                       # slot -> (pos, static lat | None)

        def val(slot):
            return shadow.get(slot, f"R[{slot}]")

        def rentry(slot, kc, dest_read=False):
            if slot in elig:
                pp, lat = elig[slot]
                if lat is not None and lat <= kc - pp:
                    return None         # statically ready
                qv, fload = srdy[slot]
                return (qv, "True" if fload else "False", dest_read)
            return (f"RDY[{slot}]", f"F[{slot}]", dest_read)

        def check(kc, reads, dread=None):
            ent = [rentry(s, kc) for s in reads]
            if dread is not None:
                ent.append(rentry(dread, kc, dest_read=True))
            self._readiness(ind, kc, [e for e in ent if e])

        def commit(ind):
            for slot, expr in shadow.items():
                w(ind, f"R[{slot}] = {expr}")
            for slot, (qv, fload) in srdy.items():
                w(ind, f"RDY[{slot}] = {qv}")
                w(ind, f"F[{slot}] = {fload}")

        K = 0
        for p in range(start, end):
            (code, dest, srcs, imm, offset, target, latency, _cls,
             _spill, reads_dest, track) = d[p]
            self._fetch_full(ind, p, start)
            tk = f"t + {K}" if K else "t"
            n = p - start
            qneed = track and (p in needs_q or p in finals)
            if code <= 1:               # LD / FLD
                check(K, srcs)
                off = f" + {offset}" if offset else ""
                w(ind, f"a{n} = {val(srcs[0])}{off}")
                w(ind, f"if a{n} < 0 or a{n} >= {self.memb}:")
                w(ind + 1, f'raise E("load address " + str(a{n}) + '
                           f'"{" out of range at pc " + str(p)}")')
                if inline_mem:
                    w(ind, f"x = a{n} >> {lsh}")
                    w(ind, f"wv = L1DW[x & {lmask}]")
                    hit = (f"wv and wv[0] == x and a{n} >> {dsh} in DT"
                           f" and (x not in MSHR or MSHR[x] <= {tk})")
                    if self.small_dspace and not qneed:
                        w(ind, f"if not ({hit}):")
                        body = ind + 1
                    else:
                        w(ind, f"if {hit}:")
                        if not self.small_dspace:
                            w(ind + 1, f"g = a{n} >> {dsh}")
                            w(ind + 1, "del DT[g]")
                            w(ind + 1, "DT[g] = None")
                        if qneed:
                            w(ind + 1, f"q{n} = t + {K + l1d_lat}")
                        w(ind, "else:")
                        body = ind + 1
                else:
                    body = ind
                w(body, f"lat, st = DLOAD(a{n}, {tk})")
                if inline_mem:
                    # static per-block access totals already count this
                    # load; DLOAD's internal lookup counted it again.
                    w(body, "L1DST.accesses -= 1")
                w(body, "if st:")
                w(body + 1, "ctr[4] += st")
                w(body + 1, "ctr[0] += st")
                w(body + 1, "t += st")
                if qneed:
                    w(body, f"q{n} = t + lat" +
                      (f" + {K}" if K else ""))
                w(ind, f"v{n} = MEM[a{n} >> 3]")
                shadow[dest] = f"v{n}"
                if track:
                    if qneed:
                        srdy[dest] = (f"q{n}", True)
                    else:
                        srdy.pop(dest, None)
                    elig[dest] = (n, None)
                K += 1
            elif code <= 3:             # ST / FST
                check(K, srcs)
                off = f" + {offset}" if offset else ""
                w(ind, f"a{n} = {val(srcs[1])}{off}")
                w(ind, f"if a{n} < 0 or a{n} >= {self.memb}:")
                w(ind + 1, f'raise E("store address " + str(a{n}) + '
                           f'"{" out of range at pc " + str(p)}")')
                if inline_mem and self.small_dspace:
                    w(ind, f"x = a{n} >> {lsh}")
                    w(ind, f"wv = L1DW[x & {lmask}]")
                    w(ind, f"if not (wv and wv[0] == x "
                           f"and a{n} >> {dsh} in DT):")
                    w(ind + 1, f"DSTORE(a{n})")
                elif inline_mem:
                    w(ind, f"g = a{n} >> {dsh}")
                    w(ind, f"x = a{n} >> {lsh}")
                    w(ind, f"wv = L1DW[x & {lmask}]")
                    w(ind, "if g in DT and wv and wv[0] == x:")
                    w(ind + 1, "del DT[g]")
                    w(ind + 1, "DT[g] = None")
                    w(ind, "else:")
                    w(ind + 1, f"DSTORE(a{n})")
                else:
                    w(ind, f"DSTORE(a{n})")
                w(ind, f"MEM[a{n} >> 3] = {val(srcs[0])}")
                K += 1
            elif code <= 5:             # LDI / FLDI
                shadow[dest] = repr(imm)
                if track:
                    if qneed:
                        w(ind, f"q{n} = t + {K + 1}")
                        srdy[dest] = (f"q{n}", False)
                    else:
                        srdy.pop(dest, None)
                    elig[dest] = (n, 1)
                K += 1
            elif code == 6:             # BR
                commit(ind)
                w(ind, f"return {target}, t + {K + 2}, lastL, lastP")
                return
            elif code <= 8:             # BEQ / BNE
                check(K, srcs)
                cond = val(srcs[0])
                commit(ind)
                self._branch(ind, p, code, cond, target, K)
                return
            elif code == 9:             # HALT
                commit(ind)
                w(ind, f"return -1, t + {K + 1}, lastL, lastP")
                return
            elif code == 10:            # NOP
                K += 1
            else:                       # ALU
                check(K, srcs,
                      dest if reads_dest and dest >= 0 else None)
                a = val(srcs[0]) if srcs else repr(imm)
                b = val(srcs[1]) if len(srcs) > 1 else repr(imm)
                self._alu_value(ind, code, a, b, val(dest),
                                f"v{n}", p)
                shadow[dest] = f"v{n}"
                if track:
                    if qneed:
                        w(ind, f"q{n} = t + {K + latency}")
                        srdy[dest] = (f"q{n}", False)
                    else:
                        srdy.pop(dest, None)
                    elig[dest] = (n, latency)
                K += 1
        commit(ind)
        w(ind, f"return {end}, t + {K}, lastL, lastP")

    def _branch(self, ind, p, code, cond, target, K):
        """Conditional terminator with the 2-bit predictor inlined.

        *cond* is the expression for the tested register value.
        """
        w = self.w
        pen = self.cfg.branch_mispredict_penalty
        idx = p & self.sim.bpred.mask
        op = "==" if code == 7 else "!="
        w(ind, f"c = BP[{idx}]")
        w(ind, f"if {cond} {op} 0:")
        w(ind + 1, "if c < 3:")
        w(ind + 2, f"BP[{idx}] = c + 1")
        w(ind + 1, "if c >= 2:")
        w(ind + 2, f"return {target}, t + {K + 2}, lastL, lastP")
        w(ind + 1, "ctr[7] += 1")
        if pen:
            w(ind + 1, f"ctr[3] += {pen}")
        w(ind + 1, f"return {target}, t + {K + 1 + pen}, lastL, lastP")
        w(ind, "if c > 0:")
        w(ind + 1, f"BP[{idx}] = c - 1")
        w(ind, "if c >= 2:")
        w(ind + 1, "ctr[7] += 1")
        if pen:
            w(ind + 1, f"ctr[3] += {pen}")
        w(ind + 1, f"return {p + 1}, t + {K + 1 + pen}, lastL, lastP")
        w(ind, f"return {p + 1}, t + {K + 1}, lastL, lastP")

    def _readiness(self, ind, K, entries):
        """Scoreboard check over expression operands.

        *entries* is a list of ``(ready_expr, from_load_expr,
        is_dest_read)``; ``from_load_expr`` may be the literal
        ``"True"``/``"False"`` for in-block producers, which folds the
        attribution branches.  Interlock cycles accumulate into the
        load/fixed interlock counter slots.
        """
        w = self.w
        li = f"ctr[{_LI}]"
        fi = f"ctr[{_FI}]"
        tk = f"t + {K}" if K else "t"
        dl = f" - {K}" if K else ""
        # An exact duplicate operand (same ready expr, same producer)
        # is a no-op after its first occurrence: the second main check
        # can never raise s further, and its tie elif can only re-set
        # a flag the first occurrence already determined.
        seen = set()
        entries = [e for e in entries
                   if not (e in seen or seen.add(e))]
        if not entries:
            return
        # The no-stall case is the hot one: test the raw ready-time
        # expressions directly and only bind them to locals inside the
        # (rare) stall branch, re-reading the scoreboard there.
        if len(entries) == 1 and not entries[0][2]:
            rx, fl, _ = entries[0]
            w(ind, f"if {rx} > {tk}:")
            if fl == "True":
                w(ind + 1, f"{li} += {rx} - t{dl}")
            elif fl == "False":
                w(ind + 1, f"{fi} += {rx} - t{dl}")
            else:
                w(ind + 1, f"r0 = {rx}")
                rx = "r0"
                w(ind + 1, f"if {fl}:")
                w(ind + 2, f"{li} += {rx} - t{dl}")
                w(ind + 1, "else:")
                w(ind + 2, f"{fi} += {rx} - t{dl}")
            w(ind + 1, f"t = {rx}{dl}")
            return
        cond = " or ".join(f"{rx} > {tk}" for rx, _, _ in entries)
        w(ind, f"if {cond}:")
        names = []
        for i, (rx, fl, dr) in enumerate(entries):
            if rx.startswith("RDY["):
                w(ind + 1, f"r{i} = {rx}")
                names.append((f"r{i}", fl, dr))
            else:
                names.append((rx, fl, dr))
        w(ind + 1, f"s = {tk}")
        # When every producer has the same constant attribution the
        # interlock flag is statically known: all-fixed makes il False
        # on every path, and all-load makes it True — the outer cond
        # guarantees at least one raise, and every raise (including a
        # dest read) sets the flag, so only the max matters.
        fls = {fl for _, fl, _ in entries}
        if fls == {"False"} or fls == {"True"}:
            for nm, _, _ in names:
                w(ind + 1, f"if {nm} > s:")
                w(ind + 2, f"s = {nm}")
            sink = li if fls == {"True"} else fi
            w(ind + 1, f"{sink} += s - t{dl}")
            w(ind + 1, f"t = s{dl}")
            return
        w(ind + 1, "il = False")
        for i, (nm, fl, dr) in enumerate(names):
            w(ind + 1, f"if {nm} > s:")
            w(ind + 2, f"s = {nm}")
            w(ind + 2, f"il = {fl}")
            if i > 0 and not dr:
                if fl == "True":
                    w(ind + 1, f"elif {nm} == s and s > {tk}:")
                    w(ind + 2, "il = True")
                elif fl != "False":
                    w(ind + 1,
                      f"elif {nm} == s and {fl} and s > {tk}:")
                    w(ind + 2, "il = True")
        w(ind + 1, "if il:")
        w(ind + 2, f"{li} += s - t{dl}")
        w(ind + 1, "else:")
        w(ind + 2, f"{fi} += s - t{dl}")
        w(ind + 1, f"t = s{dl}")

    # --------------------------------------------------- profile blocks
    def emit_profile(self, name, start, end, label):
        d = self.d
        w = self.w
        w(1, f"def {name}(cur):")
        ind = 2
        if label is not None:
            w(ind, f"BC[{label!r}] = BC.get({label!r}, 0) + 1")
            w(ind, "if cur is not None:")
            w(ind + 1, f"e = (cur, {label!r})")
            w(ind + 1, "EC[e] = EC.get(e, 0) + 1")
            w(ind, f"cur = {label!r}")
        self._batches(ind, start, end)
        for p in range(start, end):
            (code, dest, srcs, imm, offset, target, _lat, _cls,
             _spill, _rd, _track) = d[p]
            if code <= 1:
                off = f" + {offset}" if offset else ""
                w(ind, f"a = R[{srcs[0]}]{off}")
                w(ind, f"if a < 0 or a >= {self.memb}:")
                w(ind + 1, 'raise E("load address " + str(a) + '
                           f'"{" out of range at pc " + str(p)}")')
                w(ind, f"R[{dest}] = MEM[a >> 3]")
            elif code <= 3:
                off = f" + {offset}" if offset else ""
                w(ind, f"a = R[{srcs[1]}]{off}")
                w(ind, f"if a < 0 or a >= {self.memb}:")
                w(ind + 1, 'raise E("store address " + str(a) + '
                           f'"{" out of range at pc " + str(p)}")')
                w(ind, f"MEM[a >> 3] = R[{srcs[0]}]")
            elif code <= 5:
                w(ind, f"R[{dest}] = {imm!r}")
            elif code == 6:
                w(ind, f"return {target}, cur")
                return
            elif code <= 8:
                op = "==" if code == 7 else "!="
                w(ind, f"if R[{srcs[0]}] {op} 0:")
                w(ind + 1, f"return {target}, cur")
                w(ind, f"return {p + 1}, cur")
                return
            elif code == 9:
                w(ind, "return -1, cur")
                return
            elif code == 10:
                pass
            else:
                a = f"R[{srcs[0]}]" if srcs else repr(imm)
                b = f"R[{srcs[1]}]" if len(srcs) > 1 else repr(imm)
                self._alu_value(ind, code, a, b, f"R[{dest}]",
                                f"R[{dest}]", p)
        w(ind, f"return {end}, cur")


def _block_spans(decoded, extra=()):
    starts = _leaders(decoded, extra)
    n = len(decoded)
    return [(s, starts[i + 1] if i + 1 < len(starts) else n)
            for i, s in enumerate(starts)]


_TIMING_BINDINGS = [
    "R = S.regs", "RDY = S.ready", "F = S.from_load", "MEM = S.memory",
    "DLOAD = S._dload", "DSTORE = S._dstore",
    "IFILL = S._ifill_latency", "ITLB = S.itlb.lookup",
    "L1I = S.l1i.lookup", "BP = S.bpred.counters", "DT = S.dtlb.pages",
    "L1DW = S.l1d.sets", "L1IW = S.l1i.sets", "L1DST = S.l1d.stats",
    "L1IST = S.l1i.stats", "MSHR = S._mshr",
]

_PROFILE_BINDINGS = [
    "R = S.regs", "MEM = S.memory",
    "BC = S.block_counts", "EC = S.edge_counts",
]


#: Compiled code-object cache keyed by generated source.  Bytecode
#: compilation dominates engine-build time (~75%); the generated source
#: is a pure function of (program, config, data size), so repeated
#: Simulator constructions over the same compiled program — the grid
#: runner's common case — reuse the bytecode and only re-``exec`` it
#: against the new simulator's state (microseconds).
_CODE_CACHE: dict[str, object] = {}
_CODE_CACHE_MAX = 64

#: Engine builds (timing and profile) in this process that reused a
#: cached code object, and builds that compiled fresh bytecode.  The
#: grid runner records their per-point deltas in the run manifest.
code_cache_hits = 0
code_cache_misses = 0


def _compile_cached(src, filename):
    global code_cache_hits, code_cache_misses
    code = _CODE_CACHE.get(src)
    if code is None:
        code_cache_misses += 1
        code = compile(src, filename, "exec")
        if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
            _CODE_CACHE.clear()
        _CODE_CACHE[src] = code
    else:
        code_cache_hits += 1
    return code


def _compile_factory(gen, bindings, table_items, filename):
    """Exec the generated block functions against *gen*'s simulator;
    return the ``{leader pc: (function, length)}`` dispatch table."""
    lines = ["def _factory(S, ctr):"]
    lines += [" " + b for b in bindings]
    lines += gen.out
    lines.append(" return {%s}" % ", ".join(table_items))
    src = "\n".join(lines) + "\n"
    namespace = {"E": SimulationError}
    exec(_compile_cached(src, filename), namespace)
    return namespace["_factory"](gen.sim, gen.ctr)


def build_engine(sim):
    """Compile *sim*'s program, or None if it needs the interpreter."""
    cfg = sim.config
    if cfg.issue_width != 1 or cfg.mem_ports != 1:
        return None
    if sim.stall_profile is not None or sim.profiling:
        return None
    gen = _Gen(sim)
    items = []
    for start, end in _block_spans(sim._decoded):
        gen.emit_full(f"b{start}", start, end)
        items.append(f"{start}: (b{start}, {end - start})")
    table = _compile_factory(gen, _TIMING_BINDINGS, items, "<fastsim>")
    return _FastEngine(sim, table, gen.ctr, gen.blocks)


class _FastEngine:
    """Driver: dispatch one compiled function per basic block."""

    def __init__(self, sim, table, ctr, blocks):
        self.sim = sim
        self.table = table
        self.ctr = ctr
        self.blocks = blocks

    def run(self, max_instructions):
        get = self.table.get
        t = 0
        pc = 0
        lastL = -1
        lastP = -1
        executed = 0
        while True:
            ent = get(pc)
            if ent is None:
                if pc < 0:
                    break
                raise SimulationError(f"pc {pc} out of range")
            fn, nb = ent
            if executed + nb > max_instructions:
                raise SimulationError("instruction limit exceeded "
                                      f"({max_instructions})")
            executed += nb
            pc, t, lastL, lastP = fn(t, lastL, lastP)
        self._finalize(t, executed)

    def _finalize(self, t, executed):
        sim = self.sim
        ctr = self.ctr
        m = sim.metrics
        m.total_cycles = t
        m.instructions = executed
        m.load_interlock_cycles += ctr[_LI]
        m.fixed_interlock_cycles += ctr[_FI]
        m.icache_stall_cycles += ctr[_IC]
        m.branch_stall_cycles += ctr[_BS]
        m.mshr_stall_cycles += ctr[_MS]
        sim.bpred.mispredicts += ctr[_MP]
        _apply_block_counts(m, ctr, self.blocks)
        for slot, _counts, nl, ni in self.blocks:
            c = ctr[slot]
            if c:
                if nl:
                    sim.l1d.stats.accesses += c * nl
                if ni:
                    sim.l1i.stats.accesses += c * ni
        sim._flush_machine_stats()


def _apply_block_counts(m, ctr, blocks):
    """Fold per-block execution counters into statically known totals."""
    for slot, counts, _nl, _ni in blocks:
        c = ctr[slot]
        if not c:
            continue
        m.spill_loads += c * counts[_SPL]
        m.spill_stores += c * counts[_SPS]
        m.short_int += c * counts[8]
        m.long_int += c * counts[9]
        m.short_fp += c * counts[10]
        m.long_fp += c * counts[11]
        m.loads += c * counts[12]
        m.stores += c * counts[13]
        m.branches += c * counts[14]


def run_profile(sim, max_instructions):
    """Architectural-only execution: block/edge counts, no timing.

    Cycle counters are placeholders (``total_cycles`` = instruction
    count) — callers in profile mode consume only the block and edge
    frequencies, which match the reference run bit for bit.
    """
    gen = _Gen(sim)
    items = []
    for start, end in _block_spans(sim._decoded, sim._block_starts):
        label = sim._block_starts.get(start)
        gen.emit_profile(f"p{start}", start, end, label)
        items.append(f"{start}: (p{start}, {end - start})")
    table = _compile_factory(gen, _PROFILE_BINDINGS, items,
                             "<fastsim-profile>")
    get = table.get
    ctr = gen.ctr
    pc = 0
    cur = None
    executed = 0
    while True:
        ent = get(pc)
        if ent is None:
            if pc < 0:
                break
            raise SimulationError(f"pc {pc} out of range")
        if executed + ent[1] > max_instructions:
            raise SimulationError("instruction limit exceeded "
                                  f"({max_instructions})")
        executed += ent[1]
        pc, cur = ent[0](cur)
    m = sim.metrics
    m.total_cycles = executed
    m.instructions = executed
    _apply_block_counts(m, ctr, gen.blocks)
    sim._flush_machine_stats()
