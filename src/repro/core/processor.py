"""The Tarantula processor timing simulator.

Composes every substrate — EV8 front end, Vbox issue ports, address
generators (reorder ROM + CR box), per-lane TLBs, banked L2 with MAF and
PUMP, Zbox/RAMBUS — into one instruction-level timing model, co-simulated
with the functional simulator so all data values (and hence all gather
indices, mask bits and loop trip counts) are architecturally exact.

Scheduling model (see DESIGN.md section 5): instructions are processed
in program order; each computes its dispatch time from the front-end
rate (8/cycle overall, 3/cycle into the Vbox), the ROB window, and its
source operands' ready times, then reserves the resources it needs.
Memory ordering follows the Alpha memory model: the timing simulator
lets independent accesses overlap freely (kernels that need ordering
use DrainM, exactly as the paper's do), while the functional simulator
executes sequentially so results are always exact.
"""

from __future__ import annotations

from collections import deque
from itertools import count, cycle

from repro.core.coherency import CoherencyController
from repro.core.config import MachineConfig, tarantula
from repro.core.functional import FunctionalSimulator
from repro.core.metrics import TimingResult
from repro.core.storemap import StoreMap
from repro.errors import ArchitecturalTrap, SimulationError
from repro.isa.instructions import Group, Instruction, TimingClass
from repro.isa.program import Program
from repro.mem.l1cache import L1DataCache
from repro.mem.l2cache import BankedL2, L2Config
from repro.mem.memory import MainMemory
from repro.mem.pump import PumpUnit
from repro.mem.rambus import RambusConfig
from repro.mem.zbox import Zbox
from repro.utils.stats import Counter
from repro.vbox.address_gen import AddressGenerators
from repro.vbox.crbox import ConflictResolutionBox
from repro.vbox.issue import VboxIssue
from repro.vbox.rename import RenameAllocator
from repro.vbox.reorder import BANK_PERIOD
from repro.vbox.vtlb import VectorTLB

#: one-way scalar-operand transfer time across the core<->Vbox interface
#: (half the 20-cycle round trip of section 2)
SCALAR_TRANSFER = 10.0

#: precomputed counter labels for _time_memory (hot path: building
#: f"mem_{kind}" per retired memory instruction is measurable)
_MEM_COUNTER = {kind: f"mem_{kind}" for kind in
                ("pump", "reordered", "cr", "empty")}

_M64 = (1 << 64) - 1

#: retirements between advances of the calendar window (see
#: TarantulaProcessor._advance_window)
_WINDOW_PERIOD = 64


class TimingRecord:
    """The static inputs of one instruction's scheduling step.

    Built lazily once per instruction for the reference loop, and once
    per slot of a compiled JIT trace for batch replay.  A trace runs
    under a guarded vl/vs regime, so its records carry more: the
    arithmetic occupancy and latency, the plan-cache key prefix of a
    memory slot, and a ``setvl``/``setvs`` that only re-asserts the
    regime (no plan invalidation).
    """

    __slots__ = ("route", "vector", "vsrc", "ssrc", "needs_vl",
                 "needs_vs", "needs_vm", "writes", "timing", "busy",
                 "latency", "key")

    def __init__(self, instr: Instruction, vbox: VboxIssue | None = None,
                 vl: int | None = None, vs: int | None = None) -> None:
        d = instr.definition
        group = d.group
        #: vector instructions also cross the 3-wide Pbox->Vbox bus, and
        #: their scalar operands the narrow core<->Vbox interface
        self.vector = group is not Group.SC
        # store *data* does not gate address generation/tag lookup (the
        # store queue holds it); _time_plan accounts for it
        vsrc = [r for r in instr.vreg_reads()
                if not (d.is_store and r == instr.va)]
        if (group is Group.RM or (d.is_memory and d.is_indexed)) \
                and instr.vb is not None and instr.vb != 31:
            vsrc.append(instr.vb)
        self.vsrc = tuple(vsrc)
        self.ssrc = tuple(r for r in (instr.ra, instr.rb) if r is not None)
        self.needs_vl = group in (Group.VV, Group.VS, Group.SM, Group.RM)
        self.needs_vs = d.is_memory and not d.is_indexed
        self.needs_vm = instr.masked
        self.writes = instr.vreg_writes()
        self.timing = d.timing
        self.busy = self.latency = self.key = None
        P = TarantulaProcessor
        batched = vl is not None
        if group is Group.SC:
            self.route = P._time_scalar
        elif group is Group.VC:
            self.route = P._time_reasserted if batched \
                and instr.op in ("setvl", "setvs") else P._time_control
        elif d.is_memory:
            self.route = P._time_memory
            if batched and group is Group.SM and not instr.masked:
                self.route = P._replay_memory
                self.key = (instr.op, instr.tag, instr.is_prefetch, False,
                            vl, vs)
        else:
            self.route = P._time_arithmetic
            if batched:
                self.busy = vbox.occupancy(vl, d.timing)
                self.latency = vbox.latency(d.timing)


def timing_record(instr: Instruction) -> TimingRecord:
    """The reference loop's record of ``instr`` (memoized on it)."""
    try:
        return instr._timing_record
    except AttributeError:
        rec = instr._timing_record = TimingRecord(instr)
        return rec


class TarantulaProcessor:
    """Cycle-level model of the whole chip, per Table 3 configuration."""

    def __init__(self, config: MachineConfig | None = None,
                 memory: MainMemory | None = None) -> None:
        self.config = config or tarantula()
        cfg = self.config
        if not cfg.has_vbox:
            raise SimulationError(
                f"{cfg.name} has no Vbox; use repro.scalar.EV8Model")
        self.functional = FunctionalSimulator(memory)

        ghz = cfg.core_ghz
        rambus_cfg = RambusConfig(
            ports=cfg.rambus_ports,
            bytes_per_core_cycle=cfg.rambus_bytes_per_cycle,
            turnaround_cycles=cfg.rambus_turnaround_ns * ghz,
            row_activate_cycles=cfg.rambus_row_activate_ns * ghz,
            row_precharge_cycles=cfg.rambus_row_precharge_ns * ghz,
            access_latency=cfg.memory_latency_cycles,
        )
        self.zbox = Zbox(rambus_cfg)
        self.pump = PumpUnit(enabled=cfg.pump_enabled)
        self.l1 = L1DataCache(cfg.l1_bytes, cfg.l1_ways, cfg.line_bytes)
        self.l2 = BankedL2(
            L2Config(capacity_bytes=cfg.l2_bytes, ways=cfg.l2_ways,
                     line_bytes=cfg.line_bytes,
                     hit_latency=cfg.l2_scalar_load_use,
                     maf_entries=cfg.maf_entries),
            self.zbox, self.pump, self.l1)
        self.coherency = CoherencyController(self.l1, self.l2)
        self.vtlb = VectorTLB()
        self.addr_gens = AddressGenerators(
            self.vtlb, ConflictResolutionBox(cfg.crbox_cycles_per_round),
            pump_enabled=cfg.pump_enabled)
        self.vbox = VboxIssue()
        self.rename = RenameAllocator(
            physical=32 + cfg.vbox_rename_registers, architectural=32)
        self.counters = Counter()
        #: memory-dependence map: the last vector store to each quadword
        self.stores = StoreMap(self.counters)

        #: optional per-instruction trace: set to a list to record
        #: (index, instruction, dispatch_cycle, completion_cycle)
        self.trace: list | None = None
        self._instr_index = 0

        # scoreboard
        self._vreg_ready = [0.0] * 32
        self._sreg_ready = [0.0] * 32
        self._vl_ready = 0.0
        self._vs_ready = 0.0
        self._vm_ready = 0.0
        self._front_all = 0.0      # 8-wide front end position
        self._front_vec = 0.0      # 3-wide Pbox->Vbox bus position
        self._inv_core = 1.0 / cfg.core_issue_width
        self._inv_vbox = 1.0 / cfg.vbox_issue_width
        self._rob: deque[float] = deque()
        self._rob_entries = cfg.rob_entries
        self._last_completion = 0.0

        #: the backfilling timelines the window bound applies to
        self._calendars = (self.vbox.addr_gen, self.l2.slice_port,
                           *self.pump.calendars())
        #: retirements left until the next window advance; negative
        #: (never reaching 0) outside execute_program
        self._until_window = -1
        #: counters of a JIT batch, added once when it ends: replays
        #: (and seeded first uses) and lane walks per plan-cache entry,
        #: and ``(bag, name) -> count`` for the rest
        self._replays: dict = {}
        self._seeded_misses = 0
        self._lanes: dict = {}
        self._counts: dict = {}
        self._issue_keys = {port: (self.vbox.counters, f"issue_{port.name}")
                            for port in (self.vbox.north, self.vbox.south)}

    def warm_l2(self, base: int, nbytes: int) -> None:
        """Preload an address range into the L2 tags (no timing cost)."""
        self.l2.warm_range(base, nbytes)

    def _schedule(self, rec: TimingRecord, instr: Instruction):
        """Dispatch and time one instruction; returns ``(start, done)``.

        The one implementation of the front end (8/cycle overall, 3/cycle
        into the Vbox), the ROB window and the source-ready rules: the
        reference loop (:meth:`step`) and JIT batch replay
        (:meth:`time_batch`) both run every instruction through it.
        """
        t = self._front_all = self._front_all + self._inv_core
        if rec.vector:
            fv = self._front_vec
            if t > fv:
                fv = t
            t = self._front_vec = fv + self._inv_vbox
        rob = self._rob
        if len(rob) >= self._rob_entries:
            head = rob.popleft()
            if head > t:
                t = head
        vreg_ready = self._vreg_ready
        for reg in rec.vsrc:
            rt = vreg_ready[reg]
            if rt > t:
                t = rt
        sreg_ready = self._sreg_ready
        if rec.vector:
            # scalar operands cross the narrow interface
            for reg in rec.ssrc:
                rt = sreg_ready[reg] + SCALAR_TRANSFER
                if rt > t:
                    t = rt
        else:
            for reg in rec.ssrc:
                rt = sreg_ready[reg]
                if rt > t:
                    t = rt
        if rec.needs_vl and self._vl_ready > t:
            t = self._vl_ready
        if rec.needs_vs and self._vs_ready > t:
            t = self._vs_ready
        if rec.needs_vm and self._vm_ready > t:
            t = self._vm_ready
        return t, rec.route(self, rec, instr, t)

    def _retire(self, completion: float) -> None:
        self._rob.append(completion)
        if completion > self._last_completion:
            self._last_completion = completion
        self._until_window -= 1
        if not self._until_window:
            self._advance_window()

    def _advance_window(self) -> None:
        """Drop calendar intervals no future reservation can reach.

        Every reservation an instruction makes asks for a time at or
        after its dispatch.  Every future dispatch is at or after the
        front-end position, and — once the ROB is full — at or after the
        ROB head it pops, which is a current entry or the completion of
        a future instruction (itself at or after that one's dispatch).
        So ``max(front end, min(ROB))`` bounds every future reservation
        from below.  The argument needs every dispatched instruction to
        retire, so only :meth:`execute_program` (where a trap ends the
        run) advances the window; a recovering caller stepping through
        traps never does.
        """
        self._until_window = _WINDOW_PERIOD
        bound = self._front_all
        rob = self._rob
        if len(rob) >= self._rob_entries:
            oldest = min(rob)
            if oldest > bound:
                bound = oldest
        for calendar in self._calendars:
            calendar.drop_before(bound)

    # -- per-group timing ------------------------------------------------------

    def _time_arithmetic(self, rec: TimingRecord, instr: Instruction,
                         t0: float) -> float:
        writes = rec.writes
        if rec.busy is None:
            if writes:
                t0 = self.rename.allocate(t0, t0 + 1.0)
            start, done = self.vbox.issue_arithmetic(
                t0, self.functional.state.ctrl.vl, rec.timing)
        else:
            counts = self._counts
            if writes:
                t1 = self.rename.claim(t0, t0 + 1.0)
                key = (self.rename.counters, "allocations")
                counts[key] = counts.get(key, 0) + 1
                if t1 > t0:
                    key = (self.rename.counters, "rename_stalls")
                    counts[key] = counts.get(key, 0) + 1
                t0 = t1
            start, done, port = self.vbox.launch(t0, rec.busy, rec.latency)
            key = self._issue_keys[port]
            counts[key] = counts.get(key, 0) + 1
        vreg_ready = self._vreg_ready
        for reg in writes:
            vreg_ready[reg] = done
        return done

    def _time_control(self, rec: TimingRecord, instr: Instruction,
                      t0: float) -> float:
        op = instr.op
        done = t0 + 1.0
        if op == "setvl":
            self._vl_ready = done
            self.addr_gens.invalidate_plans()
        elif op == "setvs":
            self._vs_ready = done
            self.addr_gens.invalidate_plans()
        elif op == "setvm":
            # vm is renamed: the new mask is ready once va is, +1 cycle
            self._vm_ready = done
            self.addr_gens.invalidate_plans()
        elif op in ("vextq", "vsumq", "vsumt"):
            # reductions sweep the register (ceil(vl/16)) then transfer
            vl = self.functional.state.ctrl.vl
            start, exec_done = self.vbox.issue_arithmetic(
                t0, vl, TimingClass.FP if op == "vsumt" else TimingClass.INT)
            done = exec_done + SCALAR_TRANSFER
            if instr.rd is not None:
                self._sreg_ready[instr.rd] = done
        elif op in ("vinsq", "viota"):
            start, done = self.vbox.issue_arithmetic(
                t0, self.functional.state.ctrl.vl, TimingClass.INT)
            for reg in instr.vreg_writes():
                self._vreg_ready[reg] = done
        return done

    def _time_reasserted(self, rec: TimingRecord, instr: Instruction,
                         t0: float) -> float:
        """``setvl``/``setvs`` inside a JIT batch: they re-assert the
        guarded regime, so the plans stay valid and are not dropped."""
        done = t0 + 1.0
        if instr.op == "setvl":
            self._vl_ready = done
        else:
            self._vs_ready = done
        return done

    def _time_memory(self, rec: TimingRecord, instr: Instruction,
                     t0: float) -> float:
        plan = self.addr_gens.plan(instr, self.functional.state)
        if plan.kind == "empty":
            return t0 + 1.0
        self.counters.add(_MEM_COUNTER[plan.kind])
        return self._time_plan(instr, plan, plan.delta, t0, False)

    def _replay_memory(self, rec: TimingRecord, instr: Instruction,
                       t0: float) -> float:
        """Batch route of a strided memory slot: replay its harvested
        plan by base residue, counting once per batch.

        Every guard runs before anything mutates; a failed guard hands
        the instruction, untouched, to :meth:`_time_memory`.
        """
        gens = self.addr_gens
        base = (self.functional.state.sregs.read(instr.rb)
                + instr.disp) & _M64
        key = rec.key + (base % BANK_PERIOD, None)
        entry = gens._plan_cache.get(key)
        if entry is None or gens.trace is not None \
                or not gens.replayable(entry, base - entry.base):
            return self._time_memory(rec, instr, t0)
        replays = self._replays
        replays[entry] = replays.get(entry, 0) + 1
        if key in gens._seeded:
            # first use of a cross-run seeded entry: the miss the build
            # path would have produced (every other replay is a hit)
            gens._seeded.discard(key)
            self._seeded_misses += 1
        return self._time_plan(instr, entry, base - entry.base, t0, True)

    def _time_plan(self, instr: Instruction, plan, delta: int, t0: float,
                   batched: bool) -> float:
        """Time a planned access (an AccessPlan, or a plan-cache entry
        replayed at ``delta``) through the memory pipeline."""
        layout = plan.layout
        stores = self.stores
        # the line prefilter only saves building a footprint
        if t0 < stores.watermark and stores.lines and (
                layout.has_footprint
                or stores.may_alias(layout.lines, delta)):
            keys, masks = layout.footprint()
            bound = stores.order(keys, masks, delta, t0)
            if bound > t0:
                t0 = bound
                if batched:
                    key = (self.counters, "memory_order_stalls")
                    self._counts[key] = self._counts.get(key, 0) + 1
                else:
                    self.counters.add("memory_order_stalls")
        gen_time = plan.addr_gen_cycles + plan.tlb_penalty
        gen_start = self.vbox.addr_gen.reserve(t0, gen_time)
        if not layout.lines:
            return gen_start + gen_time
        is_write = plan.is_write
        completion, lane = self.l2.access_slices(
            layout, delta, is_write, gen_start, gen_time / len(layout.lines))
        if lane:
            if batched:
                lanes = self._lanes
                lanes[plan] = lanes.get(plan, 0) + 1
            else:
                self.l2.count_lanes(((layout, is_write, 1),))
        if is_write:
            va = instr.va
            if va is not None and va != 31:
                # the store retires once its data has streamed out of the
                # register file (ceil(qw/32) cycles after the data is
                # ready)
                data_ready = self._vreg_ready[va]
                completion = max(completion,
                                 data_ready + max(1.0, plan.quadwords / 32.0))
            keys, masks = layout.footprint()
            stores.record(keys, masks, delta, completion)
        if plan.is_prefetch:
            # prefetches retire as soon as addresses are generated; the
            # fills proceed in the background
            return gen_start + gen_time
        if not is_write and instr.vd is not None and instr.vd != 31:
            self._vreg_ready[instr.vd] = completion
        return completion

    def _flush_batch_counters(self) -> None:
        replays, lanes, counts = self._replays, self._lanes, self._counts
        if replays:
            gens = self.addr_gens
            gens.count_replays(replays.items())
            kinds: dict[str, int] = {}
            for entry, times in replays.items():
                name = _MEM_COUNTER[entry.kind]
                kinds[name] = kinds.get(name, 0) + times
            for name, times in kinds.items():
                self.counters.add(name, times)
            hits = sum(replays.values()) - self._seeded_misses
            if hits:
                gens.counters.add("plan_cache_hits", hits)
            if self._seeded_misses:
                gens.counters.add("plan_cache_misses", self._seeded_misses)
                self._seeded_misses = 0
        if lanes:
            self.l2.count_lanes((entry.layout, entry.is_write, times)
                                for entry, times in lanes.items())
        for (bag, name), times in counts.items():
            bag.add(name, times)
        replays.clear()
        lanes.clear()
        counts.clear()

    def _time_scalar(self, rec: TimingRecord, instr: Instruction,
                     t0: float) -> float:
        op = instr.op
        if op == "ldq":
            addr = (self.functional.state.sregs.read(instr.rb) + instr.disp)
            done = self.coherency.scalar_load(addr, t0)
            if instr.rd is not None:
                self._sreg_ready[instr.rd] = done
            return done
        if op == "stq":
            addr = (self.functional.state.sregs.read(instr.rb) + instr.disp)
            return self.coherency.scalar_store(addr, t0)
        if op == "drainm":
            outcome = self.coherency.drainm(t0)
            done = t0 + outcome.cycles
            # the replay trap kills and refetches younger instructions
            self._front_all = max(self._front_all, done)
            self._front_vec = max(self._front_vec, done)
            return done
        done = t0 + 1.0
        if op in ("lda", "addq", "subq", "mulq", "sll") and instr.rd is not None:
            self._sreg_ready[instr.rd] = done
        return done

    # -- main loop -----------------------------------------------------------------

    def step(self, instr: Instruction) -> float:
        """Time one instruction, then execute it functionally.

        Returns its completion cycle.  An :class:`ArchitecturalTrap`
        escaping either half (the timing model's TLB walk or the
        functional executor) is attributed to this instruction's index
        before propagating — the paper's precise-PC contract (section
        2).  The trapping instruction does not retire: the index stays
        put so a recovered run can re-execute it in place.
        """
        idx = self._instr_index
        try:
            t0, done = self._schedule(timing_record(instr), instr)
            self.functional.step(instr)
        except ArchitecturalTrap as trap:
            raise trap.attribute(idx) from None
        self._retire(done)
        if self.trace is not None:
            self.trace.append((idx, instr, t0, done))
        self._instr_index = idx + 1
        return done

    def time_batch(self, program: Program, first: int, period: int,
                   reps: int, records) -> None:
        """Time ``reps`` iterations of a JIT batch starting at ``first``.

        Each instruction goes through :meth:`_schedule` with its slot's
        record (``records[m]`` for slot ``m``) and retires; the caller
        runs the functional half batched.  Counters of replayed memory
        slots and arithmetic issues are added once, when the batch ends
        — however it ends.  A trap is attributed to its instruction.
        """
        schedule = self._schedule
        retire = self._retire
        idx = first
        try:
            for idx, instr, rec in zip(
                    count(first), program[first:first + period * reps],
                    cycle(records)):
                retire(schedule(rec, instr)[1])
        except ArchitecturalTrap as trap:
            raise trap.attribute(idx) from None
        finally:
            self._flush_batch_counters()

    def resume_at(self, index: int) -> None:
        """Point the co-simulated pair at instruction ``index``.

        Used by fault recovery after restoring a functional checkpoint:
        the timing scoreboard keeps whatever reservations it made (the
        trapped attempt's cycles are real — the pipe did the work), but
        both instruction counters rewind so the stream re-executes from
        the checkpoint.
        """
        self._instr_index = index
        self.functional.instructions_executed = index

    def execute_program(self, program: Program) -> None:
        """Execute a whole program, through the trace JIT when possible.

        The JIT seam engages only when nothing observes per-instruction
        effects: the instruction trace hook is off, address tracing and
        tail poisoning are off, and :mod:`repro.jit` is enabled.  Any
        other configuration — and any region the JIT cannot prove safe —
        uses the per-instruction reference loop.  Either way a trap ends
        the run, so the calendar window advances
        (:meth:`_advance_window`).
        """
        fn = self.functional
        self._until_window = _WINDOW_PERIOD
        try:
            if fn.address_trace is None and not fn.poison_tail \
                    and self.trace is None:
                from repro import jit

                if jit.enabled():
                    from repro.jit.runtime import run_timing

                    run_timing(self, program)
                    return
            for instr in program:
                self.step(instr)
        finally:
            self._until_window = -1

    def run(self, program: Program) -> TimingResult:
        """Run a whole program; returns timing + operation metrics."""
        self.execute_program(program)
        return self.result(program.name)

    def result(self, kernel: str, workload_bytes: int = 0) -> TimingResult:
        stats = {
            "l2": self.l2.counters.as_dict(),
            "zbox": self.zbox.stats().as_dict(),
            "maf": self.l2.maf.counters.as_dict(),
            "addr_gens": self.addr_gens.counters.as_dict(),
            "crbox": self.addr_gens.crbox.counters.as_dict(),
            "vtlb": self.vtlb.counters.as_dict(),
            "pump": self.pump.counters.as_dict(),
            "processor": self.counters.as_dict(),
        }
        return TimingResult(
            config_name=self.config.name, kernel=kernel,
            cycles=max(self._last_completion, self._front_all),
            counts=self.functional.counts,
            core_ghz=self.config.core_ghz,
            mem_useful_bytes=self.zbox.useful_bytes(),
            mem_raw_bytes=self.zbox.raw_bytes(),
            workload_bytes=workload_bytes,
            component_stats=stats)
