"""Trace-JIT runtime: caches, guards, deoptimization, batch execution.

The run loop *bursts* the reference interpreter between region starts
(so straight-line glue code pays zero extra per-instruction overhead)
and enters a trace at each recorded region head:

1. **trim** — the region's first iteration always runs in the
   interpreter: it establishes the vl/vs regime the batch is compiled
   against and seeds the PR 5 address-plan cache, so the timing batch
   replays plans instead of rebuilding them;
2. **guard** — the live regime selects the compiled trace (a new regime
   invalidates and recompiles — the same seam ``setvl``/``setvs`` use to
   invalidate address plans); memory poisoning and the live-base-register
   disjointness recheck deoptimize;
3. **execute** — functional compute is phased: batched reads and store
   *validation* run first and mutate nothing, so an architectural trap
   mid-batch deoptimizes with zero side effects and the interpreter
   re-executes the iterations one by one, trapping at the precise PC.
   The timing half then runs every batched instruction through the
   processor's one scheduling step (``TarantulaProcessor.time_batch``)
   with per-slot records specialized to the guarded regime — cycles
   are bit-identical by construction — and finally the functional
   results commit.

A deoptimized entry consumes only the trimmed first iteration; the
burst loop interprets the remaining iterations because the next region
start lies beyond them.

Traces are cached per :class:`~repro.isa.program.Program` identity in a
``WeakKeyDictionary`` — per-process, like the engine's other memos, and
dropped automatically when the program dies.  Counters live in
:data:`STATS` and flow into ``EngineStats`` / ``--profile`` /
``repro serve`` ``/stats``.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from repro.core.processor import TimingRecord
from repro.errors import ArchitecturalTrap
from repro.jit.compiler import (
    TraceReject,
    _Ctx,
    check_disjoint,
    compile_region,
)
from repro.jit.recorder import find_regions
from repro.vbox.reorder import BANK_PERIOD


class JitStats:
    """Process-wide trace-JIT counters (mirrored into ``EngineStats``)."""

    __slots__ = ("trace_cache_hits", "trace_cache_misses",
                 "invalidations", "deopts", "compile_rejects",
                 "traces_compiled", "regions_detected",
                 "batched_instructions")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.trace_cache_hits = 0
        self.trace_cache_misses = 0
        self.invalidations = 0
        self.deopts = 0
        self.compile_rejects = 0
        self.traces_compiled = 0
        self.regions_detected = 0
        self.batched_instructions = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


STATS = JitStats()


class _Entry:
    """One recorded region: compiled traces keyed by (vl, vs) regime."""

    __slots__ = ("region", "traces", "dead")

    def __init__(self, region) -> None:
        self.region = region
        self.traces = {}
        self.dead = set()


class ProgramTraces:
    """All recorded regions of one program, by start index."""

    __slots__ = ("entries", "starts")

    def __init__(self, program) -> None:
        regions = find_regions(program)
        self.entries = {r.start: _Entry(r) for r in regions}
        self.starts = sorted(self.entries)
        STATS.regions_detected += len(regions)


_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def traces_for(program) -> ProgramTraces:
    pt = _CACHE.get(program)
    if pt is None:
        pt = ProgramTraces(program)
        _CACHE[program] = pt
    return pt


def clear_caches() -> None:
    """Drop all recorded regions and compiled traces (bench hygiene)."""
    _CACHE.clear()


def _trace_for(entry, program, state):
    """Compiled trace for the live regime, or None (dead / rejected)."""
    key = (state.ctrl.vl, state.ctrl.vs)
    trace = entry.traces.get(key)
    if trace is not None:
        STATS.trace_cache_hits += 1
        return trace
    if key in entry.dead:
        STATS.deopts += 1
        return None
    if entry.traces or entry.dead:
        # compiled before under a different regime: the regime guard
        # failed, exactly the plan-cache invalidation seam
        STATS.invalidations += 1
    STATS.trace_cache_misses += 1
    try:
        trace = compile_region(program, entry.region, state)
    except TraceReject:
        STATS.compile_rejects += 1
        entry.dead.add(key)
        return None
    entry.traces[key] = trace
    STATS.traces_compiled += 1
    return trace


def _compute_batch(trace, R, state, mem):
    """Phase 1: batched reads + store validation; mutates nothing.

    Returns the batch context, or None when an architectural trap
    deoptimizes the entry (the interpreter will re-execute and trap at
    the precise instruction).
    """
    ctx = _Ctx(R, trace.vl, trace.vs, state, mem)
    try:
        for step_fn in trace.steps:
            step_fn(ctx)
    except ArchitecturalTrap:
        STATS.deopts += 1
        return None
    return ctx


def _commit_batch(trace, ctx, sim, R) -> None:
    """Phase 3: write registers, memory and counters for R iterations."""
    state = sim.state
    vl = trace.vl
    vregs = state.vregs._regs
    for reg in trace.written_vregs:
        kind, arr = ctx.vreg[reg]
        # unmasked writes below vl merge with the preserved tail, which
        # a partial-row assignment gives us for free
        vregs[reg][:vl] = arr if kind == "inv" else arr[-1]
    for reg in trace.written_sregs:
        v = ctx.sreg[reg]
        if isinstance(v, np.ndarray):
            v = v[-1]
        state.sregs.write(reg, int(v))
    mem = sim.memory
    for addrs, vals in ctx.stores:
        mem.write_quads(addrs, vals)
    c = sim.counts
    inc = trace.counts_inc
    c.flops += inc["flops"] * R
    c.memory_elements += inc["memory_elements"] * R
    c.other += inc["other"] * R
    c.scalar_instructions += inc["scalar_instructions"] * R
    c.vector_instructions += inc["vector_instructions"] * R
    c.prefetch_elements += inc["prefetch_elements"] * R
    by_tag = c.by_tag
    for tag, v in trace.tag_inc.items():
        by_tag[tag] = by_tag.get(tag, 0) + v * R
    sim.instructions_executed += trace.period * R
    STATS.batched_instructions += trace.period * R


# -- functional-only execution ----------------------------------------------


def _execute_functional(entry, program, sim) -> int:
    """Run one region on the functional simulator; returns instructions
    consumed (``period`` on deopt — the trimmed first iteration)."""
    region = entry.region
    start, period = region.start, region.period
    step = sim.step
    for j in range(start, start + period):
        step(program[j])
    trace = _trace_for(entry, program, sim.state)
    if trace is None:
        return period
    R = region.reps - 1
    mem = sim.memory
    if mem._poisoned or not check_disjoint(
            trace.mem_slots, sim.state.sregs, trace.vl, trace.vs, R):
        STATS.deopts += 1
        return period
    ctx = _compute_batch(trace, R, sim.state, mem)
    if ctx is None:
        return period
    _commit_batch(trace, ctx, sim, R)
    return period * region.reps


def run_functional(sim, program):
    """JIT-enabled replacement for ``FunctionalSimulator.run``."""
    pt = traces_for(program)
    n = len(program)
    starts = pt.starts
    step = sim.step
    i = 0
    si = 0
    nstarts = len(starts)
    while i < n:
        while si < nstarts and starts[si] < i:
            si += 1
        nxt = starts[si] if si < nstarts else n
        while i < nxt:
            step(program[i])
            i += 1
        if i >= n:
            break
        i += _execute_functional(pt.entries[i], program, sim)
        si += 1
    return sim.counts


# -- timing (co-simulated) execution ----------------------------------------


def _seed_plans(proc, trace) -> None:
    """Pre-load the processor's address-plan cache from the trace.

    The plan cache (:mod:`repro.vbox.address_gen`) dies with its
    processor, so every run used to rebuild the first occurrence of
    each (vl, base-residue) strided plan.  The compiled trace outlives
    the processor (it is keyed by program identity), so it carries the
    entries its region needs across runs; ``plan()`` then takes its
    normal replay path — counters, soundness trace and cycles all come
    from the same code the interpreter uses, and ``_replay_plan``
    re-validates every entry against the *live* TLB and base register.
    """
    gens = proc.addr_gens
    cache = gens._plan_cache
    for key, entry in trace.plan_store[gens.pump_enabled].items():
        if key not in cache:
            cache[key] = entry
            gens._seeded.add(key)


def _harvest_plans(proc, program, trace, start: int, R: int) -> None:
    """Save the batch's strided-plan entries onto the trace.

    Keys are recomputed exactly as ``_plan_key`` builds them: the slot's
    base advances affinely, so its ``base % BANK_PERIOD`` residues cycle
    with period ``BANK_PERIOD / gcd(delta, BANK_PERIOD)``.
    """
    cache = proc.addr_gens._plan_cache
    if not cache:
        return
    store = trace.plan_store[proc.addr_gens.pump_enabled]
    sregs = proc.functional.state.sregs
    vl, vs = trace.vl, trace.vs
    for ms in trace.mem_slots:
        if ms.is_scalar:
            continue
        instr = program[start + ms.slot]
        base1 = sregs.read(ms.rb) + ms.disp1
        delta = ms.delta
        # 2**64 is a multiple of BANK_PERIOD, so plain python modulo of
        # the (possibly overflowing) sum equals the masked base's residue
        cycle = BANK_PERIOD // math.gcd(delta, BANK_PERIOD)
        for k in range(min(R, cycle)):
            key = (instr.op, instr.tag, instr.is_prefetch, instr.masked,
                   vl, vs, (base1 + delta * k) % BANK_PERIOD, None)
            entry = cache.get(key)
            if entry is not None:
                store[key] = entry
                if entry.layout.lane is None:
                    # later runs replay it: build its L2 lane now
                    entry.layout.make_lane()


def _timing_records(trace, program, start, proc):
    """The trace's per-slot scheduling records, built on first use.

    They depend only on the slot's instruction shape and the guarded
    regime, so one list serves every batch of the trace.
    """
    records = trace.timing_records
    if records is None:
        records = trace.timing_records = [
            TimingRecord(program[start + m], proc.vbox, trace.vl, trace.vs)
            for m in range(trace.period)]
    return records


def _execute_timing(entry, program, proc) -> int:
    """Run one region on the co-simulated pair; returns instructions
    consumed."""
    region = entry.region
    start, period = region.start, region.period
    step = proc.step
    for j in range(start, start + period):
        step(program[j])
    fn = proc.functional
    trace = _trace_for(entry, program, fn.state)
    if trace is None:
        return period
    R = region.reps - 1
    mem = fn.memory
    if mem._poisoned or not check_disjoint(
            trace.mem_slots, fn.state.sregs, trace.vl, trace.vs, R):
        STATS.deopts += 1
        return period
    # functional compute first (mutates nothing), then timing — the
    # timing helpers read only region-invariant functional state (the
    # guarded vl/vs regime and memory base registers the compiler
    # proved are not written in-region) — then commit
    ctx = _compute_batch(trace, R, fn.state, mem)
    if ctx is None:
        return period
    _seed_plans(proc, trace)
    proc.time_batch(program, start + period, period, R,
                    _timing_records(trace, program, start, proc))
    _harvest_plans(proc, program, trace, start, R)
    _commit_batch(trace, ctx, fn, R)
    proc._instr_index += period * R
    return period * region.reps


def run_timing(proc, program) -> None:
    """JIT-enabled co-simulated execution of a whole program."""
    pt = traces_for(program)
    n = len(program)
    starts = pt.starts
    step = proc.step
    i = 0
    si = 0
    nstarts = len(starts)
    while i < n:
        while si < nstarts and starts[si] < i:
            si += 1
        nxt = starts[si] if si < nstarts else n
        while i < nxt:
            step(program[i])
            i += 1
        if i >= n:
            break
        i += _execute_timing(pt.entries[i], program, proc)
        si += 1
