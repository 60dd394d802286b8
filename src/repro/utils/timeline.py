"""Resource timelines: the scheduling primitive of the timing models.

The simulators use *resource reservation* rather than a cycle-by-cycle
loop: each hardware resource (an issue port, an address generator, an L2
slice slot, a RAMBUS port) is a :class:`ResourceTimeline` that remembers
when it is next free.  An instruction's start time is the max of its
operands' ready times and its resources' free times; reserving a
resource advances its free time by the occupancy.  This gives the same
steady-state throughput and latency as a cycle loop for in-order
resources, at a tiny fraction of the cost — the key to running the
paper's benchmark suite in pure Python.

``MultiPortTimeline`` models N interchangeable ports (e.g. the eight
RAMBUS ports): a reservation picks the earliest-free port.
"""

from __future__ import annotations

import bisect
import heapq

_INF = float("inf")


class ResourceTimeline:
    """A single in-order resource with a next-free cycle."""

    def __init__(self, name: str = "resource") -> None:
        self.name = name
        self.next_free = 0.0
        self.busy_cycles = 0.0

    def reserve(self, earliest: float, occupancy: float) -> float:
        """Reserve for ``occupancy`` cycles no earlier than ``earliest``.

        Returns the cycle at which the reservation actually starts.
        """
        if occupancy < 0:
            raise ValueError(f"occupancy must be >= 0, got {occupancy}")
        start = self.next_free
        if earliest > start:
            start = earliest
        self.next_free = start + occupancy
        self.busy_cycles += occupancy
        return start

    def peek(self, earliest: float) -> float:
        """Start time a reservation would get, without reserving."""
        return max(earliest, self.next_free)

    def utilization(self, total_cycles: float) -> float:
        """Fraction of ``total_cycles`` this resource was busy."""
        if total_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / total_cycles)


class CalendarTimeline:
    """A resource that can *backfill*: reservations take the earliest
    free gap at or after the requested time, regardless of the order in
    which reservations arrive.

    This models pipelined structures whose slots are claimed by
    out-of-order events — the L2 slice port (retry walks arrive long
    after younger first walks) and the PUMP streaming buses (hit data
    must not queue behind a miss's much-later stream).  Busy intervals
    are kept sorted.  The owner bounds the list with
    :meth:`drop_before`, passing a time no future reservation can ask
    for; intervals ending before it can never shape a reply again.
    """

    def __init__(self, name: str = "calendar") -> None:
        self.name = name
        self._busy: list[tuple[float, float]] = []  # sorted (start, end)
        self.busy_cycles = 0.0
        #: the last bound passed to drop_before (a promise from the owner
        #: that no later reservation asks for an earlier time)
        self.floor = 0.0

    def drop_before(self, bound: float) -> None:
        """Forget intervals that end before ``bound``.

        The caller promises every later reservation asks for a time
        ``>= bound``.  Such a reservation's gap search starts at or after
        ``bound``, and an interval ending before it is neither the one
        covering the request nor a neighbor it could touch, so dropping
        it changes no reply.
        """
        busy = self._busy
        drop = 0
        for _, end in busy:
            if end >= bound:
                break
            drop += 1
        if drop:
            del busy[:drop]
        self.floor = bound

    def reserve(self, earliest: float, occupancy: float) -> float:
        """Claim the earliest gap of ``occupancy`` cycles at/after
        ``earliest``; returns the start time."""
        if occupancy < 0:
            raise ValueError(f"occupancy must be >= 0, got {occupancy}")
        self.busy_cycles += occupancy
        if occupancy == 0:
            return earliest
        busy = self._busy
        if not busy:
            busy.append((earliest, earliest + occupancy))
            return earliest
        last = busy[-1]
        if earliest >= last[1]:
            # starts after every existing interval: append (coalescing
            # with the last interval when exactly touching) — the common
            # case for an advancing clock, no bisect/backfill needed
            if earliest == last[1]:
                busy[-1] = (last[0], earliest + occupancy)
            else:
                busy.append((earliest, earliest + occupancy))
            return earliest
        idx = bisect.bisect_right(busy, (earliest, _INF)) - 1
        # candidate start: after the interval covering/preceding `earliest`
        start = earliest
        if idx >= 0:
            start = max(earliest, busy[idx][1])
        pos = idx + 1
        n = len(busy)
        while pos < n and busy[pos][0] - start < occupancy:
            start = max(start, busy[pos][1])
            pos += 1
        end = start + occupancy
        # Intervals are kept strictly separated (touching neighbors are
        # merged on the spot), so the new reservation can touch at most
        # one neighbor on each side: the left one exactly when the gap
        # search advanced `start` onto its end, the right one exactly
        # when the loop stopped on ``busy[pos][0] == end``.  Extending a
        # neighbor tuple in place avoids the O(n) ``insert``/``del``
        # shuffle of the old insert-then-coalesce dance — the hot case
        # for the heavily backfilled L2/addr-gen ports.
        touch_left = pos > 0 and busy[pos - 1][1] >= start
        touch_right = pos < n and busy[pos][0] <= end
        if touch_left:
            if touch_right:
                busy[pos - 1] = (busy[pos - 1][0], busy[pos][1])
                del busy[pos]
            else:
                busy[pos - 1] = (busy[pos - 1][0], end)
        elif touch_right:
            busy[pos] = (start, busy[pos][1])
        else:
            busy.insert(pos, (start, end))
        return start

    def peek(self, earliest: float) -> float:
        """Start a 1-cycle reservation would get, without reserving."""
        idx = bisect.bisect_right(self._busy, (earliest, _INF)) - 1
        start = earliest
        if idx >= 0:
            start = max(earliest, self._busy[idx][1])
        pos = idx + 1
        while pos < len(self._busy) and self._busy[pos][0] - start < 1.0:
            start = max(start, self._busy[pos][1])
            pos += 1
        return start

    def utilization(self, total_cycles: float) -> float:
        if total_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / total_cycles)


class MultiPortTimeline:
    """N interchangeable in-order ports; reservations take the earliest."""

    def __init__(self, ports: int, name: str = "ports") -> None:
        if ports < 1:
            raise ValueError(f"need at least one port, got {ports}")
        self.name = name
        self.ports = ports
        self._free: list[float] = [0.0] * ports
        heapq.heapify(self._free)
        self.busy_cycles = 0.0

    def reserve(self, earliest: float, occupancy: float) -> float:
        """Reserve one port; returns the start cycle."""
        if occupancy < 0:
            raise ValueError(f"occupancy must be >= 0, got {occupancy}")
        free = self._free[0]
        start = free if free > earliest else earliest
        # only the earliest-free port is ever observed, so replacing it
        # in one step equals popping it and pushing its new free time
        heapq.heapreplace(self._free, start + occupancy)
        self.busy_cycles += occupancy
        return start

    def peek(self, earliest: float) -> float:
        return max(earliest, self._free[0])

    @property
    def next_free(self) -> float:
        """Earliest cycle at which any port is free."""
        return self._free[0]

    def utilization(self, total_cycles: float) -> float:
        if total_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / (total_cycles * self.ports))
