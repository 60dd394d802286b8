"""PUMP — the stride-1 double-bandwidth structure (section 3.4, Fig. 4).

Stride-1 instructions whose 128 quadwords fall in 16 cache lines set the
"pump" bit: the 16 full lines are latched into one of the four 16x512-bit
PUMP registers at the banks' outputs, and a per-bank sequencer streams
two quadwords per cycle to the Vbox — 32 qw/cycle for the whole L2, with
an independent, symmetric path for writes (the accumulate register on
the store side).  Together, 64 qw/cycle sustained (section 3.4).

In the timing model the PUMP is two streaming buses (read and write),
each occupied ``128 / 32 = 4`` cycles per full pump slice, plus a
register-count limit of four in-flight pump slices per direction.
Disabling the PUMP (Figure 9's experiment) makes stride-1 instructions
take the ordinary 8-slice reordered path at 16 qw/cycle and multiplies
MAF occupancy by 8.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.utils.stats import Counter
from repro.utils.timeline import CalendarTimeline, MultiPortTimeline

#: quadwords streamed per cycle in each direction (32 read + 32 write)
PUMP_QW_PER_CYCLE = 32
#: PUMP registers per direction (Fig. 4 shows four 16x512-bit registers)
PUMP_REGISTERS = 4


class PumpUnit:
    """Streaming read/write paths between the L2 banks and the Vbox."""

    def __init__(self, enabled: bool = True,
                 qw_per_cycle: int = PUMP_QW_PER_CYCLE) -> None:
        if qw_per_cycle < 1:
            raise ConfigError("pump must stream at least 1 qw/cycle")
        self.enabled = enabled
        self.qw_per_cycle = qw_per_cycle
        # hit data must not queue behind a miss's much-later stream, so
        # the streaming buses backfill earlier idle slots
        self._read_bus = CalendarTimeline("pump-read")
        self._write_bus = CalendarTimeline("pump-write")
        # the four registers bound how many pump slices can be in flight
        self._read_regs = MultiPortTimeline(PUMP_REGISTERS, "pump-read-regs")
        self._write_regs = MultiPortTimeline(PUMP_REGISTERS, "pump-write-regs")
        self.counters = Counter()

    def stream(self, quadwords: int, is_write: bool, earliest: float) -> float:
        """Reserve the streaming path for ``quadwords``; returns finish.

        A full 128-element slice occupies the bus for 4 cycles; shorter
        vector lengths stream proportionally fewer cycles (rounded up).
        """
        finish = self.occupy(quadwords, is_write, earliest)
        self.count(1, quadwords, is_write)
        return finish

    def occupy(self, quadwords: int, is_write: bool,
               earliest: float) -> float:
        """:meth:`stream` without its counters (the caller adds them
        with :meth:`count`, possibly for many streams at once)."""
        if not self.enabled:
            raise ConfigError("pump disabled: stride-1 must use slice path")
        cycles = -(-quadwords // self.qw_per_cycle)
        bus = self._write_bus if is_write else self._read_bus
        regs = self._write_regs if is_write else self._read_regs
        # a register must be free to latch the lines, then the bus streams
        reg_start = regs.peek(earliest)
        start = bus.reserve(reg_start, cycles)
        regs.reserve(start, cycles)
        return start + cycles

    def count(self, streams: int, quadwords: int, is_write: bool) -> None:
        """Count ``streams`` streams moving ``quadwords`` in total."""
        self.counters.add("pump_writes" if is_write else "pump_reads",
                          streams)
        self.counters.add("pump_quadwords", quadwords)

    def calendars(self) -> tuple:
        """The streaming buses (backfilling timelines)."""
        return self._read_bus, self._write_bus
