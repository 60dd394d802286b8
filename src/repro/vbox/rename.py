"""Vector register renaming.

The Vbox renames both the vector registers and ``vm`` (section 2 notes
the renamed mask lets the next mask be pre-computed while the current
one is in use).  The timing model needs renaming for one thing the
paper calls out: the *physical register pool* is finite, and an
instruction cannot rename until a physical destination is free.

The model is a free-list with release-on-retire semantics, driven by the
processor's in-order rename / out-of-order complete schedule: renaming
instruction ``i`` frees the *previous* mapping of its destination only
when ``i`` retires, so the pool bounds the number of in-flight
destination writes exactly as real rename logic does.
"""

from __future__ import annotations

import heapq

from repro.errors import ConfigError
from repro.utils.stats import Counter


class RenameAllocator:
    """Free-list allocator for one register class (vregs or masks)."""

    def __init__(self, physical: int, architectural: int,
                 name: str = "vregs") -> None:
        if physical <= architectural:
            raise ConfigError(
                f"{name}: need more physical ({physical}) than "
                f"architectural ({architectural}) registers")
        self.name = name
        self.physical = physical
        self.architectural = architectural
        #: free slots beyond the committed architectural state
        self._free = physical - architectural
        #: min-heap of pending release times
        self._releases: list[float] = []
        self.counters = Counter()
        self.stall_cycles = 0.0

    def _drain(self, time: float) -> None:
        while self._releases and self._releases[0] <= time:
            heapq.heappop(self._releases)
            self._free += 1

    def available_at(self, time: float) -> int:
        self._drain(time)
        return self._free

    def allocate(self, time: float, release_time: float) -> float:
        """Claim one physical register at >= ``time``.

        Returns the cycle at which the allocation could proceed (equal
        to ``time`` unless the pool was empty — rename stalls until the
        oldest in-flight writer retires).  The previous mapping frees at
        ``release_time``.
        """
        start = self.claim(time, release_time)
        if start > time:
            self.counters.add("rename_stalls")
        self.counters.add("allocations")
        return start

    def claim(self, time: float, release_time: float) -> float:
        """:meth:`allocate` without its counters (``rename_stalls`` when
        the result is later than ``time``, and ``allocations``)."""
        self._drain(time)
        start = time
        while self._free == 0:
            if not self._releases:
                raise ConfigError(f"{self.name}: rename pool deadlock")
            start = self._releases[0]
            self._drain(start)
        if start > time:
            self.stall_cycles += start - time
        self._free -= 1
        heapq.heappush(self._releases, max(release_time, start))
        return start
