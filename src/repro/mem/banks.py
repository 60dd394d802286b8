"""Set-associative tag arrays and L2 bank geometry.

The L2 is physically organized as 128 independent banks (8 ways x 16
banks per way) in EV8's design; architecturally what matters for the
vector pipeline is the 16-way *address interleaving* on bits <9:6>
(section 3.4).  :class:`SetAssocCache` is the tag model shared by the L1
and L2 (the L2 adds the per-line P-bit of the scalar-vector coherency
protocol); :func:`bank_of` and :func:`quadrant_of` expose the floorplan
mapping of section 4 (quadrants on bits <7:6>, lanes on <9:8>).

Two interchangeable tag models are provided:

* :class:`SetAssocCache` — tags, LRU stamps and dirty/P-bits live in
  dense ``(n_sets, ways)`` numpy arrays, with a flat ``line -> slot``
  dict index over them.  Probes are O(1) dict lookups (a vector slice's
  <=16 line probes never pay per-call numpy dispatch overhead) while
  whole-cache operations (``flush``) stay vectorized over the arrays.
  This is the default production model.
* :class:`SetAssocCacheReference` — the original dict-of-MRU-lists
  model, kept verbatim as the golden reference for the differential
  cycle-exactness suite (`tests/mem/test_tag_model_differential.py`).

Both models expose the identical API and must produce *bit-identical*
timing: same hit/miss/eviction sequences, same eviction order inside a
batch (writeback scheduling order affects cycles), same ``flush()``
ordering (set first-touch order, MRU-first within a set — the dict
insertion order of the reference model).  See docs/PERF.md.

Model selection goes through :func:`make_tag_cache`; tests flip it with
the :func:`use_tag_model` context manager.
"""

from __future__ import annotations

import bisect
import contextlib
import os
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.utils.bitops import is_power_of_two, log2_exact
from repro.utils.stats import Counter

LINE_BYTES = 64
N_BANKS = 16

#: Sentinel stored in invalid ways of the array model.  Physical
#: addresses are 48-bit, so no real tag can ever equal it.
_TAG_SENTINEL = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def bank_of(addr: int) -> int:
    """L2 bank of a byte address: bits <9:6>."""
    return (addr >> 6) & 0xF


def quadrant_of(addr: int) -> int:
    """Floorplan quadrant: bits <7:6> (section 4)."""
    return (addr >> 6) & 0x3


def cache_lane_of(addr: int) -> int:
    """Cache lane within the quadrant: bits <9:8> (section 4)."""
    return (addr >> 8) & 0x3


@dataclass
class Line:
    """One resident cache line's metadata."""

    tag: int
    dirty: bool = False
    pbit: bool = False  # "presence" bit: line was touched by the EV8 core


@dataclass
class Eviction:
    """Result of a line replacement."""

    addr: int
    dirty: bool
    pbit: bool


class _LineView:
    """Mutable view of one resident line in the array-backed model.

    Quacks like :class:`Line` (``tag``/``dirty``/``pbit``) but reads and
    writes the backing numpy arrays, so ``lookup(addr).pbit = True``
    behaves exactly as it does on the reference model.
    """

    __slots__ = ("_cache", "_index", "_way")

    def __init__(self, cache: "SetAssocCache", index: int, way: int) -> None:
        self._cache = cache
        self._index = index
        self._way = way

    @property
    def tag(self) -> int:
        return int(self._cache._tags[self._index, self._way])

    @property
    def dirty(self) -> bool:
        return bool(self._cache._dirty[self._index, self._way])

    @dirty.setter
    def dirty(self, value: bool) -> None:
        self._cache._dirty[self._index, self._way] = value

    @property
    def pbit(self) -> bool:
        return bool(self._cache._pbit[self._index, self._way])

    @pbit.setter
    def pbit(self, value: bool) -> None:
        cache = self._cache
        cache._pbit[self._index, self._way] = value
        line_num = (int(cache._tags[self._index, self._way])
                    << cache._set_bits) | self._index
        if value:
            cache._pbit_set.add(line_num)
        else:
            cache._pbit_set.discard(line_num)

    def __repr__(self) -> str:
        return f"Line(tag={self.tag}, dirty={self.dirty}, pbit={self.pbit})"


class SetAssocCache:
    """An LRU set-associative tag array (no data — data lives in
    :class:`~repro.mem.memory.MainMemory`; caches only track residency).

    Tags, LRU stamps and dirty/P-bits live in dense ``(n_sets, ways)``
    numpy arrays.  A ``line-number -> flat slot`` dict index over those
    arrays makes the hot probe path O(1): a hit is one dict lookup plus
    one stamp write, and a miss picks its way from a per-set allocation
    cursor (plus a sorted free-list for ways punched out by
    ``invalidate``), falling back to a numpy ``argmin`` over the set's
    stamps only when the set is full and a victim must be chosen.
    Behavior is bit-identical to :class:`SetAssocCacheReference`
    (enforced by the differential suite): replacement is true LRU via a
    monotonic access clock, and :meth:`flush` reproduces the reference
    model's dict ordering through a per-set first-touch sequence number.
    """

    def __init__(self, capacity_bytes: int, ways: int,
                 line_bytes: int = LINE_BYTES, name: str = "cache") -> None:
        if capacity_bytes % (ways * line_bytes):
            raise ConfigError(
                f"{name}: capacity {capacity_bytes} not divisible by "
                f"ways*line ({ways}x{line_bytes})")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.n_sets = capacity_bytes // (ways * line_bytes)
        if not is_power_of_two(self.n_sets):
            raise ConfigError(f"{name}: set count {self.n_sets} not a power of two")
        self._line_shift = log2_exact(line_bytes)
        self._set_bits = log2_exact(self.n_sets)
        self._set_mask = self.n_sets - 1
        self._tag_shift = self._line_shift + self._set_bits
        self._tags = np.full((self.n_sets, ways), _TAG_SENTINEL, dtype=np.uint64)
        self._dirty = np.zeros((self.n_sets, ways), dtype=bool)
        self._pbit = np.zeros((self.n_sets, ways), dtype=bool)
        #: monotonic access clock; larger stamp == more recently used
        self._stamp = np.zeros((self.n_sets, ways), dtype=np.int64)
        self._clock = 0
        # flat (n_sets*ways,) views sharing the 2-D arrays' memory, so
        # the dict-indexed scalar paths address one slot without tuple
        # indexing overhead
        self._flat_tags = self._tags.reshape(-1)
        self._flat_dirty = self._dirty.reshape(-1)
        self._flat_pbit = self._pbit.reshape(-1)
        self._flat_stamp = self._stamp.reshape(-1)
        #: buffer views for scalar writes from python (several times
        #: cheaper than numpy item assignment; see hit_lane)
        self._stamp_view = memoryview(self._flat_stamp)
        self._dirty_view = memoryview(self._flat_dirty)
        #: resident line number (addr >> line_shift) -> flat slot index
        self._pos: dict[int, int] = {}
        #: per-set count of ways ever allocated contiguously from way 0;
        #: together with _holes this names the first invalid way without
        #: scanning the tag row
        self._alloc: list[int] = [0] * self.n_sets
        #: set index -> sorted ways freed by invalidate() (rare)
        self._holes: dict[int, list[int]] = {}
        #: order each set was first accessed (reference-model dict
        #: insertion order); -1 == never touched.  Drives flush() order.
        self._first_touch = np.full(self.n_sets, -1, dtype=np.int64)
        self._touch_seq = 0
        #: line numbers currently resident with the P-bit set — lets
        #: pbit_lines() run as set membership (pure vector workloads
        #: keep it empty and never pay a scan)
        self._pbit_set: set[int] = set()
        self.counters = Counter()

    # -- address plumbing ---------------------------------------------------

    def set_index(self, addr: int) -> int:
        return (addr >> self._line_shift) & self._set_mask

    def tag_of(self, addr: int) -> int:
        return addr >> self._tag_shift

    def line_addr(self, set_index: int, tag: int) -> int:
        return ((tag << self._set_bits) | set_index) << self._line_shift

    # -- tag operations ------------------------------------------------------

    def lookup(self, addr: int) -> Optional[_LineView]:
        """Probe without changing LRU state (a tag *peek*)."""
        slot = self._pos.get(addr >> self._line_shift)
        if slot is None:
            return None
        return _LineView(self, slot // self.ways, slot % self.ways)

    def access(self, addr: int, is_write: bool = False,
               from_core: bool = False) -> tuple[bool, Optional[Eviction]]:
        """Reference a line: returns (hit, eviction-on-miss).

        On a miss the line is allocated immediately (the caller models
        the fill latency); LRU is updated; ``from_core`` sets the P-bit
        (EV8-core touch, section 3.4 "Scalar-Vector Coherency").
        """
        line_num = addr >> self._line_shift
        stamp = self._clock
        self._clock = stamp + 1
        slot = self._pos.get(line_num)
        if slot is not None:
            if is_write:
                self._flat_dirty[slot] = True
            if from_core:
                self._flat_pbit[slot] = True
                self._pbit_set.add(line_num)
            self._flat_stamp[slot] = stamp
            self.counters.add("hits")
            return True, None
        self.counters.add("misses")
        index = line_num & self._set_mask
        evicted = None
        holes = self._holes.get(index)
        if holes:
            # lowest invalidated way first (the "first invalid way" rule)
            way = holes.pop(0)
            if not holes:
                del self._holes[index]
        elif self._alloc[index] < self.ways:
            way = self._alloc[index]
            self._alloc[index] = way + 1
        else:
            way = int(self._stamp[index].argmin())
            slot = index * self.ways + way
            old_tag = int(self._flat_tags[slot])
            old_line = (old_tag << self._set_bits) | index
            evicted = Eviction(old_line << self._line_shift,
                               bool(self._flat_dirty[slot]),
                               bool(self._flat_pbit[slot]))
            del self._pos[old_line]
            self._pbit_set.discard(old_line)
            self.counters.add("evictions")
            if evicted.dirty:
                self.counters.add("writebacks")
        slot = index * self.ways + way
        self._flat_tags[slot] = line_num >> self._set_bits
        self._flat_dirty[slot] = is_write
        self._flat_pbit[slot] = from_core
        if from_core:
            self._pbit_set.add(line_num)
        self._flat_stamp[slot] = stamp
        self._pos[line_num] = slot
        if self._first_touch[index] < 0:
            self._first_touch[index] = self._touch_seq
            self._touch_seq += 1
        return False, evicted

    def access_many(self, addrs,
                    is_write: bool = False, from_core: bool = False,
                    ) -> tuple[list, list[Optional[Eviction]]]:
        """Batched :meth:`access` over line addresses.

        Returns ``(hits, evictions)`` aligned with the input order;
        ``evictions[i]`` is the line displaced by input ``i`` (or None).
        Semantically a strict sequential walk (the :meth:`access` body
        inlined, counter updates batched), so batches whose lines
        collide on a set (where one probe's victim is another probe's
        target) need no special casing.
        """
        if isinstance(addrs, np.ndarray):
            addrs = addrs.tolist()
        n = len(addrs)
        if n == 0:
            return [], []
        pos = self._pos
        tags, dirty = self._flat_tags, self._flat_dirty
        pbit, stamps = self._flat_pbit, self._flat_stamp
        alloc, all_holes = self._alloc, self._holes
        pset = self._pbit_set
        ways, set_mask = self.ways, self._set_mask
        set_bits, line_shift = self._set_bits, self._line_shift
        stamp = self._clock
        if not from_core:
            # all-hit fast path (the steady state of a warmed cache):
            # stamps ascend in input order exactly as the general walk
            # assigns them, dirty bits are ORed in bulk, and nothing
            # else changes on a hit
            try:
                slots = [pos[addr >> line_shift] for addr in addrs]
            except KeyError:
                pass
            else:
                stamps[slots] = np.arange(stamp, stamp + n)
                if is_write:
                    dirty[slots] = True
                self._clock = stamp + n
                self.counters.add("hits", n)
                return [True] * n, [None] * n
        hit_list = [False] * n
        evictions: list[Optional[Eviction]] = [None] * n
        hits = evicted_n = writebacks = 0
        for i, addr in enumerate(addrs):
            line_num = addr >> line_shift
            slot = pos.get(line_num)
            if slot is not None:
                if is_write:
                    dirty[slot] = True
                if from_core:
                    pbit[slot] = True
                    pset.add(line_num)
                stamps[slot] = stamp
                stamp += 1
                hit_list[i] = True
                hits += 1
                continue
            index = line_num & set_mask
            holes = all_holes.get(index)
            if holes:
                way = holes.pop(0)
                if not holes:
                    del all_holes[index]
            elif alloc[index] < ways:
                way = alloc[index]
                alloc[index] = way + 1
            else:
                way = int(self._stamp[index].argmin())
                slot = index * ways + way
                old_tag = int(tags[slot])
                old_line = (old_tag << set_bits) | index
                ev = Eviction(old_line << line_shift, bool(dirty[slot]),
                              bool(pbit[slot]))
                del pos[old_line]
                pset.discard(old_line)
                evictions[i] = ev
                evicted_n += 1
                if ev.dirty:
                    writebacks += 1
            slot = index * ways + way
            tags[slot] = line_num >> set_bits
            dirty[slot] = is_write
            pbit[slot] = from_core
            if from_core:
                pset.add(line_num)
            stamps[slot] = stamp
            stamp += 1
            pos[line_num] = slot
            if self._first_touch[index] < 0:
                self._first_touch[index] = self._touch_seq
                self._touch_seq += 1
        self._clock = stamp
        counters = self.counters
        if hits:
            counters.add("hits", hits)
        if hits != n:
            counters.add("misses", n - hits)
        if evicted_n:
            counters.add("evictions", evicted_n)
            if writebacks:
                counters.add("writebacks", writebacks)
        return hit_list, evictions

    def access_all_hit(self, addrs, is_write: bool = False) -> bool:
        """Apply :meth:`access_many`'s all-hit fast path, or do nothing.

        Returns True when every line was resident and the access was
        applied (stamps/dirty/counters updated exactly as the batched
        walk would); False leaves all state untouched so the caller can
        fall back to the general path.  Never sets P-bits (vector side
        only, ``from_core=False``).
        """
        shift = self._line_shift
        n = len(addrs)
        if not self.hit_lane([addr >> shift for addr in addrs], 0, range(n),
                             n, is_write):
            return False
        self.counters.add("hits", n)
        return True

    def hit_lane(self, line_nums, shift: int, offsets, probes: int,
                 is_write: bool) -> bool:
        """Apply ``probes`` all-hit probes of lines ``n + shift`` at once,
        or do nothing and return False when one is not resident.

        Line ``line_nums[i] + shift`` takes the stamp of its last probe,
        ``clock + offsets[i]``, exactly as a probe-by-probe walk leaves
        it (see :meth:`access_all_hit`).  Counters are the caller's.
        """
        pos = self._pos
        try:
            slots = [pos[n + shift] for n in line_nums]
        except KeyError:
            return False
        stamp = self._clock
        stamps = self._stamp_view
        for slot, offset in zip(slots, offsets):
            stamps[slot] = stamp + offset
        if is_write:
            dirty = self._dirty_view
            for slot in slots:
                dirty[slot] = True
        self._clock = stamp + probes
        return True

    # -- batched peeks (no LRU / counter effects) -----------------------------

    def resident_many(self, addrs) -> np.ndarray:
        """Bool per address: is its line resident?  (LRU untouched.)"""
        if isinstance(addrs, np.ndarray):
            addrs = addrs.tolist()
        pos, shift = self._pos, self._line_shift
        return np.fromiter(((int(a) >> shift) in pos for a in addrs),
                           dtype=bool, count=len(addrs))

    def missing_of(self, addrs: Sequence[int]) -> list[int]:
        """The subset of ``addrs`` not resident, in input order."""
        pos, shift = self._pos, self._line_shift
        return [addr for addr in addrs if (int(addr) >> shift) not in pos]

    def pbit_lines(self, addrs: Sequence[int]) -> list[int]:
        """The subset of ``addrs`` resident with the P-bit set, in order."""
        pset = self._pbit_set
        if not pset:
            return []
        shift = self._line_shift
        return [addr for addr in addrs if (int(addr) >> shift) in pset]

    def clear_pbits(self, addrs: Sequence[int]) -> None:
        """Clear the P-bit on each resident line of ``addrs``."""
        pos, shift, pbit = self._pos, self._line_shift, self._flat_pbit
        pset = self._pbit_set
        for addr in addrs:
            line_num = int(addr) >> shift
            slot = pos.get(line_num)
            if slot is not None:
                pbit[slot] = False
                pset.discard(line_num)

    # -- the rest of the reference API ---------------------------------------

    def invalidate(self, addr: int) -> Optional[Line]:
        """Remove a line (L1 invalidate command); returns it if present."""
        line_num = addr >> self._line_shift
        slot = self._pos.pop(line_num, None)
        if slot is None:
            return None
        line = Line(int(self._flat_tags[slot]),
                    bool(self._flat_dirty[slot]),
                    bool(self._flat_pbit[slot]))
        self._flat_tags[slot] = _TAG_SENTINEL
        self._flat_dirty[slot] = False
        self._flat_pbit[slot] = False
        self._pbit_set.discard(line_num)
        index, way = slot // self.ways, slot % self.ways
        bisect.insort(self._holes.setdefault(index, []), way)
        self.counters.add("invalidates")
        return line

    def contains(self, addr: int) -> bool:
        return (addr >> self._line_shift) in self._pos

    @property
    def resident_lines(self) -> int:
        return len(self._pos)

    def flush(self) -> list[Eviction]:
        """Evict everything (returns dirty lines for writeback).

        Ordering matters downstream (writebacks reserve memory ports in
        emission order): sets drain in first-touch order and lines
        within a set drain MRU-first, matching the reference model's
        dict iteration exactly.
        """
        sets, ways = (self._tags != _TAG_SENTINEL).nonzero()
        out = []
        if sets.size:
            order = np.lexsort((-self._stamp[sets, ways],
                                self._first_touch[sets]))
            sets, ways = sets[order], ways[order]
            dirty = self._dirty[sets, ways]
            tags = self._tags[sets, ways]
            pbits = self._pbit[sets, ways]
            for k in dirty.nonzero()[0]:
                out.append(Eviction(self.line_addr(int(sets[k]), int(tags[k])),
                                    True, bool(pbits[k])))
        self._tags.fill(_TAG_SENTINEL)
        self._dirty.fill(False)
        self._pbit.fill(False)
        self._stamp.fill(0)
        self._first_touch.fill(-1)
        self._pbit_set.clear()
        self._pos.clear()
        self._holes.clear()
        self._alloc = [0] * self.n_sets
        return out


class SetAssocCacheReference:
    """The original dict-of-MRU-lists tag model (golden reference).

    Sets are dicts of MRU-ordered lists, which keeps lookups O(ways) and
    allocates storage only for touched sets.  Kept bit-for-bit as it
    shipped so the differential suite can prove :class:`SetAssocCache`
    equivalent; the batched methods below are plain loops over the
    scalar ones.
    """

    def __init__(self, capacity_bytes: int, ways: int,
                 line_bytes: int = LINE_BYTES, name: str = "cache") -> None:
        if capacity_bytes % (ways * line_bytes):
            raise ConfigError(
                f"{name}: capacity {capacity_bytes} not divisible by "
                f"ways*line ({ways}x{line_bytes})")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.n_sets = capacity_bytes // (ways * line_bytes)
        if not is_power_of_two(self.n_sets):
            raise ConfigError(f"{name}: set count {self.n_sets} not a power of two")
        self._line_shift = log2_exact(line_bytes)
        self._set_mask = self.n_sets - 1
        self._sets: dict[int, list[Line]] = {}
        self.counters = Counter()

    # -- address plumbing ---------------------------------------------------

    def set_index(self, addr: int) -> int:
        return (addr >> self._line_shift) & self._set_mask

    def tag_of(self, addr: int) -> int:
        return addr >> self._line_shift >> log2_exact(self.n_sets)

    def line_addr(self, set_index: int, tag: int) -> int:
        return ((tag << log2_exact(self.n_sets)) | set_index) << self._line_shift

    # -- tag operations ------------------------------------------------------

    def lookup(self, addr: int) -> Optional[Line]:
        """Probe without changing LRU state (a tag *peek*)."""
        lines = self._sets.get(self.set_index(addr))
        if not lines:
            return None
        tag = self.tag_of(addr)
        for line in lines:
            if line.tag == tag:
                return line
        return None

    def access(self, addr: int, is_write: bool = False,
               from_core: bool = False) -> tuple[bool, Optional[Eviction]]:
        """Reference a line: returns (hit, eviction-on-miss)."""
        index = self.set_index(addr)
        tag = self.tag_of(addr)
        lines = self._sets.setdefault(index, [])
        for pos, line in enumerate(lines):
            if line.tag == tag:
                if pos:
                    lines.insert(0, lines.pop(pos))
                line.dirty = line.dirty or is_write
                line.pbit = line.pbit or from_core
                self.counters.add("hits")
                return True, None
        self.counters.add("misses")
        evicted = None
        if len(lines) >= self.ways:
            victim = lines.pop()
            evicted = Eviction(self.line_addr(index, victim.tag),
                               victim.dirty, victim.pbit)
            self.counters.add("evictions")
            if victim.dirty:
                self.counters.add("writebacks")
        lines.insert(0, Line(tag, dirty=is_write, pbit=from_core))
        return False, evicted

    def access_many(self, addrs,
                    is_write: bool = False, from_core: bool = False,
                    ) -> tuple[list, list[Optional[Eviction]]]:
        """Batched :meth:`access`: a plain sequential loop."""
        if isinstance(addrs, np.ndarray):
            addrs = addrs.tolist()
        n = len(addrs)
        hit_list = [False] * n
        evictions: list[Optional[Eviction]] = [None] * n
        for i, addr in enumerate(addrs):
            hit, ev = self.access(int(addr), is_write=is_write,
                                  from_core=from_core)
            hit_list[i] = hit
            evictions[i] = ev
        return hit_list, evictions

    # -- batched peeks (no LRU / counter effects) -----------------------------

    def resident_many(self, addrs) -> np.ndarray:
        return np.fromiter((self.lookup(int(a)) is not None for a in addrs),
                           dtype=bool, count=len(addrs))

    def missing_of(self, addrs: Sequence[int]) -> list[int]:
        return [addr for addr in addrs if self.lookup(addr) is None]

    def pbit_lines(self, addrs: Sequence[int]) -> list[int]:
        out = []
        for addr in addrs:
            resident = self.lookup(addr)
            if resident is not None and resident.pbit:
                out.append(addr)
        return out

    def clear_pbits(self, addrs: Sequence[int]) -> None:
        for addr in addrs:
            resident = self.lookup(addr)
            if resident is not None:
                resident.pbit = False

    # -- the rest of the shared API ------------------------------------------

    def invalidate(self, addr: int) -> Optional[Line]:
        """Remove a line (L1 invalidate command); returns it if present."""
        index = self.set_index(addr)
        lines = self._sets.get(index)
        if not lines:
            return None
        tag = self.tag_of(addr)
        for pos, line in enumerate(lines):
            if line.tag == tag:
                self.counters.add("invalidates")
                return lines.pop(pos)
        return None

    def contains(self, addr: int) -> bool:
        return self.lookup(addr) is not None

    @property
    def resident_lines(self) -> int:
        return sum(len(lines) for lines in self._sets.values())

    def flush(self) -> list[Eviction]:
        """Evict everything (returns dirty lines for writeback)."""
        out = []
        for index, lines in self._sets.items():
            for line in lines:
                if line.dirty:
                    out.append(Eviction(self.line_addr(index, line.tag),
                                        True, line.pbit))
        self._sets.clear()
        return out


# -- tag-model selection seam -------------------------------------------------

_TAG_MODELS = {
    "numpy": SetAssocCache,
    "reference": SetAssocCacheReference,
}

#: Active model name; `REPRO_TAG_MODEL=reference` flips the default
#: process-wide (the differential bench/CLI paths use this).
_active_tag_model = os.environ.get("REPRO_TAG_MODEL", "numpy")
if _active_tag_model not in _TAG_MODELS:
    _active_tag_model = "numpy"


def active_tag_model() -> str:
    """Name of the tag model new caches will use ('numpy'/'reference')."""
    return _active_tag_model


def make_tag_cache(capacity_bytes: int, ways: int,
                   line_bytes: int = LINE_BYTES, name: str = "cache"):
    """Construct a tag array using the active model."""
    return _TAG_MODELS[_active_tag_model](capacity_bytes, ways,
                                          line_bytes, name)


@contextlib.contextmanager
def use_tag_model(model: str) -> Iterator[None]:
    """Temporarily select the tag model for new caches.

    >>> with use_tag_model("reference"):
    ...     proc = TarantulaProcessor(...)   # dict-of-lists tags
    """
    global _active_tag_model
    if model not in _TAG_MODELS:
        raise ConfigError(f"unknown tag model {model!r} "
                          f"(have {sorted(_TAG_MODELS)})")
    previous = _active_tag_model
    _active_tag_model = model
    try:
        yield
    finally:
        _active_tag_model = previous
