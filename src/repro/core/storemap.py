"""The vector memory-dependence map, kept per cache line.

Loads and stores to the same quadword order behind the last vector
store to it (Alpha is weakly ordered between independent locations,
but same-address RAW/WAW is real).  The map is keyed by line: an access
arrives as a *footprint* (:func:`repro.vbox.address_gen.footprint`),
``(key, mask)`` pairs where
``key = addr & ~0x38`` (the line address, plus the low three bits of a
misaligned address) and bit ``(addr >> 3) & 7`` of ``mask`` marks the
quadword.  Two addresses share a key and a bit exactly when they are
equal, so per-address semantics are kept while a stride-1 access costs
at most 17 entries instead of 128.

A line's entry is one float when all eight quadwords were last stored
together, else a list of eight times (``ABSENT`` where none was).
"""

from __future__ import annotations

#: quadword-slot marker for "no store recorded" in a per-slot entry
ABSENT = float("-inf")
#: mask -> the quadword slots it names, ascending (built by doubling:
#: setting bit b extends every mask below 1 << b)
BITS: list = [()]
for _b in range(8):
    BITS += [slots + (_b,) for slots in BITS]
#: how far behind the newest store an entry must complete to be pruned
PRUNE_AGE = 100000.0


class StoreMap:
    """Completion time of the last vector store to each quadword."""

    def __init__(self, counters) -> None:
        self.counters = counters
        self.lines: dict[int, object] = {}
        #: quadwords with a recorded store (what pruning is measured in)
        self.quadwords = 0
        #: latest completion ever recorded; an access dispatched at or
        #: after it cannot be delayed by anything in the map
        self.watermark = 0.0
        #: whether any recorded key carries a misaligned address's low
        #: bits; until one does, only keys equal to line addresses exist
        self.misaligned = False
        #: amortized pruning bound in quadwords; doubles when a prune
        #: reclaims less than half the map, so a large live store window
        #: never degrades into an O(n) rebuild per store
        self.threshold = 1 << 17

    def may_alias(self, line_lists, delta: int) -> bool:
        """False when an access touching the lines of ``line_lists``
        (rebased by ``delta``) cannot alias any recorded store — a check
        that needs no footprint.  With no misaligned key recorded, every
        key is a line address, and a misaligned address of the access
        (whose key is not) can match none of them."""
        if self.misaligned:
            return True
        keys = self.lines.keys()
        for lines in line_lists:
            if not keys.isdisjoint(map(delta.__add__, lines) if delta
                                   else lines):
                return True
        return False

    def order(self, keys, masks, delta: int, earliest: float) -> float:
        """Earliest time an access may start behind in-flight stores to
        its quadwords (``keys`` rebased by ``delta``, a multiple of the
        line size); a result above ``earliest`` is a stall, which the
        caller counts."""
        lines = self.lines
        if not lines or earliest >= self.watermark:
            return earliest
        if lines.keys().isdisjoint(map(delta.__add__, keys)):
            return earliest         # no line in common: the usual case
        bound = earliest
        get = lines.get
        for key, mask in zip(keys, masks):
            entry = get(key + delta)
            if entry is None:
                continue
            if entry.__class__ is list:
                for b in BITS[mask]:
                    t = entry[b]
                    if t > bound:
                        bound = t
            elif entry > bound:
                bound = entry
        return bound

    def record(self, keys, masks, delta: int, completion: float) -> None:
        """The access's quadwords were last stored at ``completion``."""
        lines = self.lines
        added = 0
        for key, mask in zip(keys, masks):
            key += delta
            entry = lines.get(key)
            if entry is None and key & 7:
                self.misaligned = True
            if mask == 0xFF:
                if entry is None:
                    added += 8
                elif entry.__class__ is list:
                    added += entry.count(ABSENT)
                lines[key] = completion
                continue
            if entry is None:
                entry = lines[key] = [ABSENT] * 8
            elif entry.__class__ is not list:
                entry = lines[key] = [entry] * 8
            for b in BITS[mask]:
                if entry[b] == ABSENT:
                    added += 1
                entry[b] = completion
        self.quadwords += added
        if completion > self.watermark:
            self.watermark = completion
        if self.quadwords > self.threshold:
            self._prune()

    def _prune(self) -> None:
        """Drop stores that completed far in the past: dispatch times
        only move forward, so anything that old can no longer delay an
        access."""
        cutoff = self.watermark - PRUNE_AGE
        kept: dict[int, object] = {}
        pruned = 0
        for key, entry in self.lines.items():
            if entry.__class__ is not list:
                if entry > cutoff:
                    kept[key] = entry
                else:
                    pruned += 8
                continue
            live = False
            for b in range(8):
                t = entry[b]
                if t == ABSENT:
                    continue
                if t > cutoff:
                    live = True
                else:
                    entry[b] = ABSENT
                    pruned += 1
            if live:
                kept[key] = entry
        self.lines = kept
        self.quadwords -= pruned
        if pruned:
            self.counters.add("store_map_pruned", pruned)
        if self.quadwords > self.threshold >> 1:
            self.threshold <<= 1
