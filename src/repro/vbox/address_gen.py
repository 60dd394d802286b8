"""Address generators: turn one memory instruction into slices.

Each of the 16 lanes has an address generator (Fig. 3); collectively
they emit 16 addresses per cycle.  The generators pick one of three
paths per instruction (section 3.4):

* **pump** — stride-1 (``vs`` == 8): emit the starting addresses of the
  16 (17 when misaligned) cache lines covered, set the pump bit;
* **reordered** — other strides whose bank histogram is uniform: emit
  the ROM-scheduled 8 conflict-free slices, paying the full 8 cycles of
  address generation regardless of ``vl`` (the paper's stated downside);
* **CR box** — gathers, scatters and self-conflicting strides: feed the
  conflict-resolution tournament.

Every path first translates through the vector TLB.
"""

from __future__ import annotations

import numpy as np

from repro.isa.instructions import Group, Instruction
from repro.isa.registers import MVL, ArchState
from repro.isa.semantics import indexed_addresses, strided_addresses
from repro.utils.stats import Counter
from repro.vbox.crbox import ConflictResolutionBox
from repro.vbox.reorder import BANK_PERIOD, conflict_free_schedule, \
    is_reorderable
from repro.vbox.slices import SLICE_SIZE, Slice
from repro.vbox.vtlb import VectorTLB

LINE_BYTES = 64

_M64 = (1 << 64) - 1
#: plan-kind -> the counter the build path bumps (replayed on cache hits)
_KIND_COUNTER = {"pump": "pump_plans", "reordered": "reordered_plans"}
#: plan-cache entry bound; cleared wholesale when exceeded (hot keys
#: repopulate within one loop iteration).  Sized so a whole blocked
#: kernel's working set fits: the key includes vl and base % BANK_PERIOD,
#: and e.g. linpack's column sweep walks ~2.5k distinct (vl, residue)
#: pairs — with the trace JIT batching the functional work, plan
#: *replays* dominate the remaining timing cost, so thrashing here is
#: directly visible in wall-clock.
_PLAN_CACHE_MAX = 8192


_KEY_MASK = np.uint64(~0x38 & _M64)
_ONE, _THREE, _SEVEN = np.uint64(1), np.uint64(3), np.uint64(7)


def footprint(addrs) -> tuple[list[int], list[int]]:
    """Store-map footprint (:mod:`repro.core.storemap`) of ``addrs``:
    parallel ``(keys, masks)`` lists, ``key = addr & ~0x38`` and mask bit
    ``(addr >> 3) & 7``, so two addresses share a key and a bit exactly
    when they are equal."""
    addrs = np.asarray(addrs, dtype=np.uint64)
    keys = addrs & _KEY_MASK
    bits = _ONE << ((addrs >> _THREE) & _SEVEN)
    key_list = keys.tolist()
    if len(set(key_list)) == len(key_list):
        return key_list, bits.tolist()      # one address per key
    if not (keys[1:] >= keys[:-1]).all():
        order = np.argsort(keys, kind="stable")
        keys, bits = keys[order], bits[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return (keys[starts].tolist(),
            np.bitwise_or.reduceat(bits, starts).tolist())


class PlanLayout:
    """One access's slice structure at the base it was built at.

    Every replay of a cached plan shares its layout and rebases it by a
    byte delta — a multiple of ``BANK_PERIOD``, so line splits, bank
    schedule and full-line-write classification are all preserved —
    instead of copying slices and addresses per access.
    """

    __slots__ = ("slices", "lines", "quadwords", "pump", "full", "addrs",
                 "lane", "_footprint")

    def __init__(self, slices: list[Slice], addrs: np.ndarray) -> None:
        self.slices = slices
        #: per slice: sorted distinct line addresses, quadwords moved,
        #: pump bit, full-line-write flag
        self.lines = [s.line_addresses() for s in slices]
        self.quadwords = [s.quadwords for s in slices]
        self.pump = [s.pump for s in slices]
        self.full = [s.full_line_write for s in slices]
        #: physical addresses of the valid elements, in element order
        self.addrs = addrs
        #: the L2 all-hit lane, precomputed once the plan is replayed:
        #: ``(line numbers, stamp offsets, line probes, pump slices,
        #: pump quadwords)`` — each probed line once, with the LRU stamp
        #: offset of its *last* probe in a slice-by-slice walk
        self.lane = None
        self._footprint = None

    @property
    def has_footprint(self) -> bool:
        return self._footprint is not None

    def footprint(self) -> tuple[list[int], list[int]]:
        """Store-map footprint ``(keys, masks)`` at the layout's base."""
        fp = self._footprint
        if fp is None:
            fp = self._footprint = footprint(self.addrs)
        return fp

    def make_lane(self) -> None:
        """Precompute :attr:`lane` (see there)."""
        last: dict[int, int] = {}
        probe = 0
        for lines in self.lines:
            for line in lines:
                last[line >> 6] = probe
                probe += 1
        pump_qw = sum(q for q, p in zip(self.quadwords, self.pump) if p)
        self.lane = (list(last), list(last.values()), probe,
                     sum(self.pump), pump_qw)


class AccessPlan:
    """Everything the memory pipeline needs to time one instruction:
    a layout (None for an empty access) rebased by ``delta`` bytes."""

    __slots__ = ("kind", "is_write", "is_prefetch", "layout",
                 "addr_gen_cycles", "tlb_penalty", "quadwords", "delta")

    def __init__(self, kind: str, is_write: bool, is_prefetch: bool,
                 layout: PlanLayout | None = None,
                 addr_gen_cycles: float = 1.0, tlb_penalty: float = 0.0,
                 quadwords: int = 0, delta: int = 0) -> None:
        self.kind = kind                # 'pump'|'reordered'|'cr'|'empty'
        self.is_write = is_write
        self.is_prefetch = is_prefetch
        self.layout = layout
        #: total address-generation (+ CR tournament) cycles
        self.addr_gen_cycles = addr_gen_cycles
        #: PALcode TLB refill penalty, cycles
        self.tlb_penalty = tlb_penalty
        #: data quadwords moved (valid elements)
        self.quadwords = quadwords
        self.delta = delta

    @property
    def slices(self) -> list[Slice]:
        """A built plan's slices (a replay's are its layout's, offset by
        ``delta``: the timing path reads the layout directly)."""
        if self.delta:
            raise ValueError("replayed plan: use layout and delta")
        return [] if self.layout is None else self.layout.slices

    @property
    def touched(self) -> tuple:
        """Physical quadword addresses touched, in element order."""
        if self.layout is None:
            return ()
        addrs = self.layout.addrs
        if self.delta:
            addrs = addrs + np.uint64(self.delta & _M64)
        return tuple(addrs.tolist())


class _CachedPlan:
    """A reusable strided plan, rebased on hit by ``base - entry.base``.

    Only fast-path translations are cached (identity mapping, zero TLB
    penalty), and only pump/reordered kinds (the CR box is stateful).
    The slice/bank structure of a strided access depends on the base
    only through ``base % BANK_PERIOD`` (which is part of the cache
    key), so a hit at a different base shifts every address by a
    multiple of the bank period.
    """

    __slots__ = ("kind", "is_write", "is_prefetch", "base", "n_valid",
                 "addr_gen_cycles", "quadwords", "layout", "first", "last")

    #: cached plans come from fast-path translations only
    tlb_penalty = 0.0

    def __init__(self, plan: AccessPlan, base: int, n_valid: int) -> None:
        self.kind = plan.kind
        self.is_write = plan.is_write
        self.is_prefetch = plan.is_prefetch
        self.base = base                # virtual base the entry was built at
        self.n_valid = n_valid          # active elements (vtlb hit count)
        self.addr_gen_cycles = plan.addr_gen_cycles
        self.quadwords = plan.quadwords
        self.layout = plan.layout
        # strided addresses are monotonic: the first and last element
        # bound the pages a rebased replay touches
        self.first = int(plan.layout.addrs[0])
        self.last = int(plan.layout.addrs[-1])


class AddressGenerators:
    """The 16 per-lane address generators plus the CR box front end."""

    def __init__(self, vtlb: VectorTLB | None = None,
                 crbox: ConflictResolutionBox | None = None,
                 pump_enabled: bool = True) -> None:
        self.vtlb = vtlb or VectorTLB()
        self.crbox = crbox or ConflictResolutionBox()
        self.pump_enabled = pump_enabled
        self.counters = Counter()
        self._next_slice_id = 0
        #: keyed plan cache for strided accesses (see _CachedPlan);
        #: invalidated explicitly on setvl/setvs/setvm
        self._plan_cache: dict[tuple, _CachedPlan] = {}
        #: keys pre-loaded from a compiled trace's plan store rather
        #: than built here: their *first* replay counts as the miss the
        #: build path would have produced, so plan-cache telemetry is
        #: independent of whether an earlier run harvested the plans
        self._seeded: set = set()
        #: when set to a list, plan() appends ``(instr, plan.touched)``
        #: for every planned access (build and cache-replay paths alike);
        #: the vmem soundness suite uses this as the timing-side trace
        self.trace: list[tuple[Instruction, tuple]] | None = None

    # -- helpers ---------------------------------------------------------

    def _new_slice(self, elements, addresses, **kw) -> Slice:
        s = Slice(self._next_slice_id, elements, addresses, **kw)
        self._next_slice_id += 1
        return s

    @staticmethod
    def _valid_elements(instr: Instruction, state: ArchState) -> np.ndarray:
        return state.active_indices(instr.masked)

    # -- the three paths ----------------------------------------------------

    def _plan_pump(self, valid, paddrs, is_write, tag: str):
        addrs = paddrs[valid]
        # addresses ascend (stride-1, valid indices ascending), so a
        # single python walk yields the sorted distinct lines + counts
        line_list: list[int] = []
        counts: list[int] = []
        prev = -1
        for a in addrs.tolist():
            ln = a >> 6
            if ln != prev:
                line_list.append(ln << 6)
                counts.append(1)
                prev = ln
            else:
                counts[-1] += 1
        per_line = LINE_BYTES // 8
        slices: list[Slice] = []
        # misaligned stride-1 spans 17 lines -> two pump slices (note 3)
        for start in range(0, len(line_list), SLICE_SIZE):
            group = line_list[start:start + SLICE_SIZE]
            group_counts = counts[start:start + SLICE_SIZE]
            qw = sum(group_counts)
            full = is_write and all(c == per_line for c in group_counts)
            s = self._new_slice(
                np.arange(len(group)), np.array(group, dtype=np.uint64),
                pump=True, full_line_write=full, quadwords=qw, tag=tag)
            # pump addresses *are* sorted distinct line starts
            s._line_addrs = group
            slices.append(s)
        self.counters.add("pump_plans")
        return slices, float(len(slices))

    def _plan_reordered(self, state, valid, paddrs, tag: str):
        base = int(paddrs[0])
        stride = state.ctrl.vs
        schedule = conflict_free_schedule(base, stride)
        valid_mask = np.zeros(MVL, dtype=bool)
        valid_mask[valid] = True
        slices = []
        for group in schedule:
            keep = group[valid_mask[group]]
            if len(keep) == 0:
                continue
            slices.append(self._new_slice(keep, paddrs[keep],
                                          quadwords=len(keep), tag=tag))
        self.counters.add("reordered_plans")
        # short vectors still pay the full 8 address-generation cycles
        return slices, float(MVL // SLICE_SIZE)

    def _plan_cr(self, valid, paddrs, tag: str):
        slices, cr_cycles = self.crbox.pack(valid, paddrs[valid], tag=tag)
        # renumber to keep slice ids unique across both allocators
        for s in slices:
            s.slice_id = self._next_slice_id
            self._next_slice_id += 1
        self.counters.add("cr_plans")
        return slices, max(cr_cycles, 1.0)

    # -- the plan cache ---------------------------------------------------------

    def invalidate_plans(self) -> None:
        """Drop every cached plan (setvl/setvs/setvm executed).

        The cache key includes vl/vs/vm so stale hits are impossible
        even without this, but explicit invalidation keeps the cache
        from accumulating dead keys across control-register phases.
        """
        if self._plan_cache:
            self._plan_cache.clear()
            self._seeded.clear()
            self.counters.add("plan_cache_invalidations")

    def _plan_key(self, instr: Instruction, state: ArchState,
                  base: int) -> tuple:
        return (instr.op, instr.tag, instr.is_prefetch, instr.masked,
                state.ctrl.vl, state.ctrl.vs, base % BANK_PERIOD,
                state.ctrl.vm.tobytes() if instr.masked else None)

    def replayable(self, entry: _CachedPlan, delta: int) -> bool:
        """Whether ``entry`` rebased by ``delta`` may replay.

        Validity is exactly the vtlb fast-path condition the entry was
        built under: every page the rebased access touches must still be
        identity-mapped and resident in every lane.  Anything else (TLB
        shootdown, page-table holes) falls back to the build path.
        Changes no state or counter; a replayable entry gets its L2
        lane precomputed (worth it once a plan is actually replayed).
        """
        hot = self.vtlb._hot_identity_vpns
        if not hot:
            return False
        shift = self.vtlb.page_table.page_shift
        lo_page = ((entry.first + delta) & _M64) >> shift
        if lo_page == ((entry.last + delta) & _M64) >> shift:
            # one page (512 MB pages!) is the overwhelming case
            ok = lo_page in hot
        else:
            addrs = entry.layout.addrs + np.uint64(delta & _M64)
            ok = {a >> shift for a in addrs.tolist()} <= hot
        if ok and entry.layout.lane is None:
            entry.layout.make_lane()
        return ok

    def count_replays(self, replays) -> None:
        """Add the counters the build path would have produced for each
        ``(entry, times)`` in ``replays`` (hit/miss accounting is the
        caller's: it knows whether an entry was seeded)."""
        kinds: dict[str, int] = {}
        hits = 0
        for entry, times in replays:
            name = _KIND_COUNTER[entry.kind]
            kinds[name] = kinds.get(name, 0) + times
            hits += entry.n_valid * times
        for name, times in kinds.items():
            self.counters.add(name, times)
        self.vtlb.counters.add("hits", hits)

    def _store_plan(self, key: tuple, plan: AccessPlan, base: int,
                    n_valid: int) -> None:
        if len(self._plan_cache) >= _PLAN_CACHE_MAX:
            self._plan_cache.clear()
            self._seeded.clear()
        self._seeded.discard(key)
        self._plan_cache[key] = _CachedPlan(plan, base, n_valid)

    # -- entry point ------------------------------------------------------------

    def plan(self, instr: Instruction, state: ArchState) -> AccessPlan:
        """Build (or replay) the slice plan for one SM/RM instruction."""
        d = instr.definition
        if not d.is_memory or d.group not in (Group.SM, Group.RM):
            raise ValueError(f"plan() needs a vector memory instruction, "
                             f"got {instr.op}")
        key = None
        if not d.is_indexed:
            base = (state.sregs.read(instr.rb) + instr.disp) & _M64
            key = self._plan_key(instr, state, base)
            entry = self._plan_cache.get(key)
            if entry is not None and self.replayable(entry,
                                                     base - entry.base):
                self.count_replays(((entry, 1),))
                if key in self._seeded:
                    # first use of a cross-run seeded entry: count the
                    # miss the build path would have produced
                    self._seeded.discard(key)
                    self.counters.add("plan_cache_misses")
                else:
                    self.counters.add("plan_cache_hits")
                plan = AccessPlan(entry.kind, entry.is_write,
                                  entry.is_prefetch, entry.layout,
                                  entry.addr_gen_cycles, 0.0,
                                  entry.quadwords, base - entry.base)
                if self.trace is not None:
                    self.trace.append((instr, plan.touched))
                return plan
            self.counters.add("plan_cache_misses")
        valid = self._valid_elements(instr, state)
        is_write = d.is_store
        if len(valid) == 0:
            if self.trace is not None:
                self.trace.append((instr, ()))
            return AccessPlan("empty", is_write, instr.is_prefetch)

        if d.is_indexed:
            vaddrs = indexed_addresses(instr, state)
        else:
            vaddrs = strided_addresses(instr, state)
        # only the active elements' addresses are generated and translated;
        # page size (512 MB) >> bank period, so translation never changes
        # bank bits and the reorder classification can use virtual addresses
        paddrs = vaddrs.copy()
        translated, tlb_penalty = self.vtlb.translate_elements(
            valid, vaddrs[valid], ignore_misses=instr.is_prefetch)
        paddrs[valid] = translated

        tag = instr.tag
        if d.is_indexed:
            kind = "cr"
            slices, gen_cycles = self._plan_cr(valid, paddrs, tag)
        elif state.ctrl.vs == 8 and self.pump_enabled:
            kind = "pump"
            slices, gen_cycles = self._plan_pump(valid, paddrs, is_write,
                                                 tag)
        elif is_reorderable(int(vaddrs[0]), state.ctrl.vs):
            kind = "reordered"
            slices, gen_cycles = self._plan_reordered(state, valid, paddrs,
                                                      tag)
        else:
            # self-conflicting stride: run through the CR box like a gather
            self.counters.add("self_conflicting_strides")
            kind = "cr"
            slices, gen_cycles = self._plan_cr(valid, paddrs, tag)
        plan = AccessPlan(kind, is_write, instr.is_prefetch,
                          PlanLayout(slices, paddrs[valid]), gen_cycles,
                          tlb_penalty, len(valid))
        if key is not None and plan.kind in _KIND_COUNTER \
                and plan.tlb_penalty == 0.0 and self.vtlb.last_fast_path:
            self._store_plan(key, plan, base, len(valid))
        if self.trace is not None:
            self.trace.append((instr, plan.touched))
        return plan
